"""Golden canonical reports: one per experiment plus edge parameters.

Each entry of ``tests/golden/batch.json`` is run through ``cli.run``,
``qwave batch`` and ``qwave run``, and its report must match the stored
file byte for byte. A fresh interpreter also runs the batch reversed,
shuffled and under ``--jobs 2``, so no report may depend on what ran
before it in the process (the protocol setups that do not depend on phi
are kept per process). A refactor that changes any of them changes the
reports users get; if that is intended, say so and regenerate every file
from the repository root with::

    qwave batch tests/golden/batch.json

``catalog.json`` pins the ``qwave list`` output the same way; regenerate it
with ``qwave list > tests/golden/catalog.json``. ``run-help.txt`` pins
``qwave run --help`` at a terminal width of 80 columns; regenerate it with
``COLUMNS=80 qwave run --help > tests/golden/run-help.txt``.

The bytes do not depend on the BLAS kernel: every report must keep them
under the OpenBLAS kernels ``Sandybridge`` and ``Prescott`` as well. Norms,
overlaps, Born probabilities and partial traces are elementwise products
summed by numpy's add-reduce, which no kernel reorders. The routes still
left to BLAS and LAPACK (``eigh`` in ``BlockSpectrum.of``, ``eigvalsh`` in
the positivity check of ``DensityMatrix`` and the batched ``matmul`` of
blocks larger than 2 x 2 in ``BlockSpectrum.propagated``) move no golden
byte. A report that ever moves under another kernel fails here until its
route is made kernel-independent.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import qwave
from qwave.cli import EXIT_OK, RunConfig, main, run

GOLDEN = Path(__file__).parent / "golden"

ENTRIES = json.loads((GOLDEN / "batch.json").read_text())


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[Path(e["out"]).stem for e in ENTRIES]
)
def test_report_matches_golden_bytes(entry, tmp_path):
    name = Path(entry["out"]).name
    config = RunConfig(
        experiment=entry["experiment"],
        params=entry["params"],
        shots=entry["shots"],
        seed=entry["seed"],
        output_path=str(tmp_path / name),
    )
    assert run(config) == EXIT_OK
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_every_golden_report_passes():
    # regenerating the goldens writes each run's bytes, so the byte
    # comparisons alone would keep a report whose pass flag had flipped
    reports = {Path(e["out"]).name for e in ENTRIES}
    assert reports == {p.name for p in GOLDEN.glob("*.json")} - {
        "batch.json", "catalog.json"}
    failed = [name for name in sorted(reports)
              if json.loads((GOLDEN / name).read_text())["pass"] is not True]
    assert failed == []


def test_catalog_matches_golden_bytes():
    result = CliRunner().invoke(main, ["list"])
    assert result.exit_code == EXIT_OK
    assert result.stdout_bytes == (GOLDEN / "catalog.json").read_bytes()


def test_run_help_matches_golden_bytes():
    # COLUMNS fixes the width click wraps the option help texts to
    result = CliRunner(env={"COLUMNS": "80"}).invoke(
        main, ["run", "--help"], prog_name="qwave")
    assert result.exit_code == EXIT_OK
    assert result.stdout_bytes == (GOLDEN / "run-help.txt").read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_reports_match_golden_bytes_for_any_jobs(jobs, tmp_path):
    entries = [dict(e, out=str(tmp_path / Path(e["out"]).name)) for e in ENTRIES]
    batch_file = tmp_path / "batch.json"
    batch_file.write_text(json.dumps(entries))
    result = CliRunner().invoke(main, ["batch", str(batch_file), "--jobs", jobs])
    assert result.exit_code == EXIT_OK, result.output
    for entry in entries:
        name = Path(entry["out"]).name
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def _batch_in_fresh_interpreter(entries, tmp_path, jobs="1", **env_vars) -> None:
    """Run ``qwave batch`` on ``entries`` in a new interpreter, with
    ``env_vars`` added to its environment."""
    batch_file = tmp_path / "batch.json"
    batch_file.write_text(json.dumps(entries))
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(qwave.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "qwave.cli", "batch", str(batch_file), "--jobs", jobs],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == EXIT_OK, proc.stderr


@pytest.mark.parametrize("order, jobs", [("reversed", "1"), ("shuffled", "1"),
                                         ("listed", "2")])
def test_reports_do_not_depend_on_what_ran_before_them(order, jobs, tmp_path):
    # a fresh interpreter starts with no protocol setup kept, so each
    # report follows exactly the runs the batch made before it
    entries = [dict(e, out=str(tmp_path / Path(e["out"]).name)) for e in ENTRIES]
    if order == "reversed":
        entries.reverse()
    elif order == "shuffled":
        random.Random(22).shuffle(entries)
    _batch_in_fresh_interpreter(entries, tmp_path, jobs)
    for entry in entries:
        name = Path(entry["out"]).name
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("coretype", ["Sandybridge", "Prescott"])
def test_reports_on_other_blas_kernels_keep_their_bytes(coretype, tmp_path):
    entries = [dict(e, out=str(tmp_path / Path(e["out"]).name)) for e in ENTRIES]
    _batch_in_fresh_interpreter(entries, tmp_path, OPENBLAS_CORETYPE=coretype)
    for entry in entries:
        name = Path(entry["out"]).name
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def _flag(value) -> str:
    # a float's repr parses back to the same float
    return repr(value) if isinstance(value, float) else str(value)


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[Path(e["out"]).stem for e in ENTRIES]
)
def test_run_command_matches_golden_bytes(entry, tmp_path):
    # qwave run with the entry's params as flags writes the batch's bytes
    name = Path(entry["out"]).name
    args = ["run", entry["experiment"]]
    for pname, value in entry["params"].items():
        args += ["--" + pname.replace("_", "-"), _flag(value)]
    args += ["--shots", str(entry["shots"]), "--seed", str(entry["seed"]),
             "--out", str(tmp_path / name)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == EXIT_OK, result.output
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()

"""Golden canonical reports: one per experiment plus edge parameters.

Each entry of ``tests/golden/batch.json`` is run through ``cli.run``,
``qwave batch`` and ``qwave run``, and its report must match the stored
file byte for byte. A refactor that changes any of them changes the
reports users get; if that is intended, say so and regenerate every file
from the repository root with::

    qwave batch tests/golden/batch.json

``catalog.json`` pins the ``qwave list`` output the same way; regenerate it
with ``qwave list > tests/golden/catalog.json``. ``run-help.txt`` pins
``qwave run --help`` at a terminal width of 80 columns; regenerate it with
``COLUMNS=80 qwave run --help > tests/golden/run-help.txt``.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

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

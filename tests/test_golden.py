"""Golden canonical reports: one per experiment plus edge parameters.

Each entry of ``tests/golden/batch.json`` is run through ``cli.run`` and its
report must match the stored file byte for byte. A refactor that changes
any of them changes the reports users get; if that is intended, say so and
regenerate every file from the repository root with::

    qwave batch tests/golden/batch.json
"""

import json
from pathlib import Path

import pytest

from qwave.cli import EXIT_OK, RunConfig, run

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

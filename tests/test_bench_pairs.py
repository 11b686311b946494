"""tools/bench_pairs.py: pairing of perfbench logs and the verdict rules."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = ("setup_s", "op_iqm_ms", "op_tail_ms", "reports_per_s", "peak_rss_mb")


def _log(path: Path, workload: str, values: dict, failed: int = 0) -> str:
    result = {"correct": failed == 0, "attempted": 100, "failed": failed,
              "metrics": {m: {"value": values.get(m, 1.0), "unit": "x"}
                          for m in METRICS}}
    path.write_text(
        "# machine: nproc=2 python=3.11.7 numpy=2.4.6 scipy=1.17.1 blas=x\n"
        f"# workload={workload} seed=11 reports_per_pass=47 passes=3\n"
        + json.dumps(result) + "\n"
    )
    return str(path)


def _summary(tmp_path, change_failed: int) -> dict:
    parent, change = [], []
    for i in range(10):
        jitter = 0.01 * (i % 3)
        parent.append(_log(tmp_path / f"p{i}.txt", "paper-suite", {
            "op_iqm_ms": 7.0 + jitter, "op_tail_ms": 60.0 * (1 + i % 2),
            "reports_per_s": 80.0, "peak_rss_mb": 85.0}))
        change.append(_log(tmp_path / f"c{i}.txt", "paper-suite", {
            "op_iqm_ms": 2.8 + jitter, "op_tail_ms": 60.0 * (1 + i % 2),
            "reports_per_s": 80.0 - jitter, "peak_rss_mb": 100.0},
            failed=change_failed if i == 0 else 0))
    summary = bench_pairs.main(["--parent", *parent, "--change", *change,
                                "--out", str(tmp_path / "b.json")])
    assert summary == 0
    return json.loads((tmp_path / "b.json").read_text())


def test_verdicts_follow_the_pair_rules(tmp_path):
    out = _summary(tmp_path, change_failed=1)
    assert out["machines"][0]["numpy"] == "2.4.6"
    suite = out["workloads"]["paper-suite"]
    assert suite["failed"] == {"parent": 0, "change": 1}
    metrics = suite["metrics"]
    # a faster change that fails more ops has no gain
    assert metrics["op_iqm_ms"]["verdict"] == "no gain: more failed ops"
    assert metrics["op_iqm_ms"]["wins"] == 10
    assert metrics["op_iqm_ms"]["change"]["median"] == pytest.approx(2.81)
    assert metrics["peak_rss_mb"]["verdict"] == "worse than bound"
    # the parent's own spread (60 vs 120) is wider than the 0.24 bound
    assert metrics["op_tail_ms"]["verdict"] == "unresolved"
    assert metrics["reports_per_s"]["verdict"] == "within bound"
    assert metrics["reports_per_s"]["wins"] == 0


def test_gain_needs_no_more_failed_ops_than_the_parent(tmp_path):
    suite = _summary(tmp_path, change_failed=0)["workloads"]["paper-suite"]
    assert suite["failed"] == {"parent": 0, "change": 0}
    assert suite["metrics"]["op_iqm_ms"]["verdict"] == "gain"
    assert suite["metrics"]["op_iqm_ms"]["wins"] == 10


def test_unpaired_runs_are_refused(tmp_path):
    parent = [_log(tmp_path / "p.txt", "cold-cli", {})]
    change = [_log(tmp_path / f"c{i}.txt", "cold-cli", {}) for i in range(2)]
    code = bench_pairs.main(["--parent", *parent, "--change", *change,
                             "--out", str(tmp_path / "b.json")])
    assert code == 2
    assert not (tmp_path / "b.json").exists()

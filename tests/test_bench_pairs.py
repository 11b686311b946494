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


def _log(path: Path, workload: str, values: dict, failed: int = 0,
         attempted: int = 100) -> str:
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": values.get(m, 1.0), "unit": "x"}
                          for m in METRICS}}
    path.write_text(
        "# machine: nproc=2 python=3.11.7 numpy=2.4.6 scipy=1.17.1 blas=x\n"
        f"# workload={workload} seed=11 reports_per_pass=47 passes=3\n"
        + json.dumps(result) + "\n"
    )
    return str(path)


def _summary(tmp_path, change_failed: int, parent_failed: int = 0,
             parent_attempted: int = 100, change_attempted: int = 100) -> dict:
    """Ten pairs; the first run of each side fails the given ops, and every
    run of a side attempts the given number."""
    parent, change = [], []
    for i in range(10):
        jitter = 0.01 * (i % 3)
        parent.append(_log(tmp_path / f"p{i}.txt", "paper-suite", {
            "op_iqm_ms": 7.0 + jitter, "op_tail_ms": 60.0 * (1 + i % 2),
            "reports_per_s": 80.0, "peak_rss_mb": 85.0},
            failed=parent_failed if i == 0 else 0, attempted=parent_attempted))
        change.append(_log(tmp_path / f"c{i}.txt", "paper-suite", {
            "op_iqm_ms": 2.8 + jitter, "op_tail_ms": 60.0 * (1 + i % 2),
            "reports_per_s": 80.0 - jitter, "peak_rss_mb": 100.0},
            failed=change_failed if i == 0 else 0, attempted=change_attempted))
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
    assert metrics["op_iqm_ms"]["verdict"] == "no gain: larger failed share"
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


def test_gain_compares_failed_shares_not_counts(tmp_path):
    # parent 1 of 1000 failed; the change 2 of 2000, the same share
    same = _summary(tmp_path, change_failed=2, parent_failed=1,
                    parent_attempted=100, change_attempted=200)
    suite = same["workloads"]["paper-suite"]
    assert suite["failed"] == {"parent": 1, "change": 2}
    assert suite["attempted"] == {"parent": 1000, "change": 2000}
    assert suite["metrics"]["op_iqm_ms"]["verdict"] == "gain"
    # parent 1 of 1000; the change 1 of 400, a larger share
    larger = _summary(tmp_path, change_failed=1, parent_failed=1,
                      parent_attempted=100, change_attempted=40)
    suite = larger["workloads"]["paper-suite"]
    assert suite["failed"] == {"parent": 1, "change": 1}
    assert suite["attempted"] == {"parent": 1000, "change": 400}
    assert suite["metrics"]["op_iqm_ms"]["verdict"] == "no gain: larger failed share"


def test_unpaired_runs_are_refused(tmp_path):
    parent = [_log(tmp_path / "p.txt", "cold-cli", {})]
    change = [_log(tmp_path / f"c{i}.txt", "cold-cli", {}) for i in range(2)]
    code = bench_pairs.main(["--parent", *parent, "--change", *change,
                             "--out", str(tmp_path / "b.json")])
    assert code == 2
    assert not (tmp_path / "b.json").exists()


def _aa_logs(tmp_path, side: str) -> list[str]:
    """Ten runs of one commit, spread as two runs of the same code are."""
    return [_log(tmp_path / f"{side}{i}.txt", "paper-suite", {
        "op_iqm_ms": 7.0 + 0.01 * ((i + (side == "b")) % 3),
        "op_tail_ms": 60.0, "reports_per_s": 80.0, "peak_rss_mb": 85.0})
        for i in range(10)]


def test_aa_mode_writes_the_spread_of_identical_code_beside_the_result(tmp_path):
    a, b = _aa_logs(tmp_path, "a"), _aa_logs(tmp_path, "b")
    plain = _summary(tmp_path, change_failed=0)
    parent = [str(tmp_path / f"p{i}.txt") for i in range(10)]
    change = [str(tmp_path / f"c{i}.txt") for i in range(10)]
    out = tmp_path / "aa.json"
    assert bench_pairs.main(["--parent", *parent, "--change", *change,
                             "--aa-first", *a, "--aa-second", *b,
                             "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    # the A/B result is as without A/A logs, and the A/A one sits beside it
    assert summary["workloads"] == plain["workloads"]
    aa = summary["aa"]["workloads"]["paper-suite"]["metrics"]["op_iqm_ms"]
    assert aa["verdict"] != "gain" and aa["pairs"] == 10
    # pair by pair the second copy reads 0.01 ms more or 0.02 ms less
    assert -0.01 / 7.0 <= aa["pair_gain"]["q1"] < 0.0 < aa["pair_gain"]["q3"] < 0.02 / 7.0
    # the A/B gain is resolved beyond that spread
    ab = summary["workloads"]["paper-suite"]["metrics"]["op_iqm_ms"]
    assert ab["pair_gain"]["q1"] > aa["pair_gain"]["q3"]


def test_aa_mode_needs_both_copies(tmp_path):
    a = _aa_logs(tmp_path, "a")
    parent = [_log(tmp_path / "p.txt", "cold-cli", {})]
    change = [_log(tmp_path / "c.txt", "cold-cli", {})]
    code = bench_pairs.main(["--parent", *parent, "--change", *change,
                             "--aa-first", *a, "--out", str(tmp_path / "b.json")])
    assert code == 2
    assert not (tmp_path / "b.json").exists()

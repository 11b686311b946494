"""tools/golden_diff.py: keys added, removed and moved between two golden
directories, and the exit rule."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden_diff.py"
_spec = importlib.util.spec_from_file_location("golden_diff", TOOL)
golden_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_diff)

REPORT = {"analytic": {"fidelity": 0.9999999999984319, "zero": 0.0},
          "discrepancies": {"fidelity": 1e-16},
          "empirical": {"counts": {"00": 7, "11": 3}},
          "experiment": "toy", "params": {"phi": 0.7}, "pass": True,
          "seed": 3, "shots": 10}


def _dirs(tmp_path, after: dict, before: dict = REPORT):
    """A before and an after directory holding one report each, and an
    unchanged second report and help text."""
    dirs = []
    for side, report in (("before", before), ("after", after)):
        d = tmp_path / side
        d.mkdir(parents=True)
        (d / "toy.json").write_text(json.dumps(report, indent=2))
        (d / "same.json").write_text(json.dumps(REPORT))
        (d / "help.txt").write_text("usage: toy\n")
        dirs.append(str(d))
    return dirs


def _moved(report: dict, section: str, key: str, value) -> dict:
    return {**report, section: {**report[section], key: value}}


def test_identical_directories_pass_with_nothing_to_show(tmp_path, capsys):
    assert golden_diff.main(_dirs(tmp_path, REPORT)) == 0
    assert capsys.readouterr().out == (
        "0 of 3 files changed: 0 keys added, 0 removed, 0 values moved "
        "(0 allowed); ok\n")


def test_a_moved_value_shows_its_delta_and_ulps_and_fails_unless_allowed(
    tmp_path, capsys
):
    after = _moved(REPORT, "analytic", "fidelity", 0.999999999998431)
    before_dir, after_dir = _dirs(tmp_path, after)
    assert golden_diff.main([before_dir, after_dir]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "toy.json"
    assert out[1] == ("  ~ analytic.fidelity: 0.9999999999984319 -> "
                      "0.999999999998431  |d|=8.88e-16  ulps=8")
    assert out[-1].endswith("1 values moved (0 allowed); FAIL")
    # a pattern on either half names the move
    for rule in ("toy.json:analytic.fidelity", "*:analytic.*"):
        assert golden_diff.main([before_dir, after_dir, "--allow", rule]) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith(
            "1 values moved (1 allowed); ok")
    # a rule for another key or file does not
    for rule in ("toy.json:discrepancies.*", "same.json:analytic.fidelity"):
        assert golden_diff.main([before_dir, after_dir, "--allow", rule]) == 1


def test_added_keys_pass_and_removed_keys_fail_even_when_allowed(tmp_path, capsys):
    added = _moved(REPORT, "analytic", "chsh_max", 2.8284271247461903)
    assert golden_diff.main(_dirs(tmp_path / "a", added)) == 0
    assert "  + analytic.chsh_max" in capsys.readouterr().out.splitlines()
    removed = {k: v for k, v in REPORT.items() if k != "discrepancies"}
    args = _dirs(tmp_path / "r", removed) + ["--allow", "*:*"]
    assert golden_diff.main(args) == 1
    out = capsys.readouterr().out.splitlines()
    assert "  - discrepancies.fidelity" in out
    assert out[-1] == ("1 of 3 files changed: 0 keys added, 1 removed, "
                       "0 values moved (0 allowed); FAIL")


def test_nested_counts_types_and_signed_zeros_are_compared_exactly(tmp_path, capsys):
    counts = {**REPORT, "empirical": {"counts": {"00": 6, "11": 4}}}
    assert golden_diff.main(_dirs(tmp_path / "c", counts)) == 1
    out = capsys.readouterr().out
    assert "  ~ empirical.counts.00: 7 -> 6  |d|=1" in out
    assert "ulps" not in out
    # -0.0 has other bits than 0.0, and 1 is another value than 1.0
    for section, key, value in (("analytic", "zero", -0.0), ("params", "phi", 1)):
        d = tmp_path / key
        before = {**REPORT, "params": {"phi": 1.0}} if key == "phi" else REPORT
        assert golden_diff.main(_dirs(d, _moved(before, section, key, value),
                                      before=before)) == 1
        assert f"  ~ {section}.{key}:" in capsys.readouterr().out


def test_equal_values_in_other_bytes_and_text_files_move_as_bytes(tmp_path, capsys):
    before_dir, after_dir = _dirs(tmp_path, REPORT)
    # the same values in another key order and layout
    Path(after_dir, "toy.json").write_text(json.dumps(REPORT, sort_keys=True))
    Path(after_dir, "help.txt").write_text("usage: toy [OPTIONS]\n")
    assert golden_diff.main([before_dir, after_dir]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == ["help.txt", "  ~ (bytes)", "toy.json", "  ~ (bytes)"]
    assert golden_diff.main([before_dir, after_dir, "--allow", "*:(bytes)"]) == 0


def test_a_new_report_is_added_and_a_gone_one_removed(tmp_path, capsys):
    before_dir, after_dir = _dirs(tmp_path, REPORT)
    Path(after_dir, "new.json").write_text(json.dumps({"pass": True}))
    assert golden_diff.main([before_dir, after_dir]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["new.json  (new)", "  + pass"]
    assert golden_diff.main([after_dir, before_dir]) == 1
    assert capsys.readouterr().out.splitlines()[:2] == ["new.json  (gone)", "  - pass"]


def test_ulps_count_floats_across_binades_and_zero():
    assert golden_diff.ulps(1.0, 1.0 + 2.0**-52) == 1
    assert golden_diff.ulps(1.0 - 2.0**-53, 1.0) == 1
    assert golden_diff.ulps(0.0, -0.0) == 0
    assert golden_diff.ulps(-5e-324, 5e-324) == 2


def test_a_missing_directory_exits_2(tmp_path):
    assert golden_diff.main([str(tmp_path), str(tmp_path / "nowhere")]) == 2

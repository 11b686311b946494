"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a qwave checkout. For every workload in
``BENCHMARK.json`` it runs the benchmark command with ``--tiny`` untraced
and traced, and checks that the result line has the expected keys, that
every op passed, and that the metric names and units are exactly the
``end_to_end`` (untraced) or ``per_layer`` (traced) entries of
``BENCHMARK.json``. It also checks that the command fails without a result
in a directory holding only ``BENCHMARK.json`` and the benchmark's files.
Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def run(spec: dict, cwd: str, workload: str, trace: int):
    cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_result(spec: dict, workload: str, trace: int, proc) -> list[str]:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"{where}: {result['failed']} of {result['attempted']} "
                      f"ops failed\n{proc.stdout}")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    for name in sorted(set(expected) | set(printed)):
        if expected.get(name) != printed.get(name):
            errors.append(f"{where}: metric {name}: BENCHMARK.json has unit "
                          f"{expected.get(name)}, printed {printed.get(name)}")
    return errors


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = []
    names = [w["name"] for w in spec["workloads"]]
    if names != list(workloads.WORKLOADS):
        errors.append(f"BENCHMARK.json workloads {names} != "
                      f"{list(workloads.WORKLOADS)}")
    for workload in names:
        for trace in (0, 1):
            errors += check_result(spec, workload, trace,
                                   run(spec, root, workload, trace))

    bare = os.path.join(root, ".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(root, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(spec, bare, names[0], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append("benchmark did not fail without the program: "
                          f"exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for error in errors:
        print(f"FAIL {error}")
    print("selftest:", "failed" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

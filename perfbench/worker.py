"""One fresh benchmark process: warm up, then (role ``measure``) run the timed
closed loop of a warm workload.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``. It prints ``READY``
once the warm-up (import qwave, one call per distinct experiment or
pipeline case) is done; the parent times launch-to-READY as set-up. It then
prints one JSON line with what it measured and exits.

The timed loop makes ``--passes`` passes over the workload's ops. Each op's
report is checked as it completes (exit code, ``pass`` flag, same bytes as
the warm-up and first pass); timing covers only the op itself. The
untimed reference kernel of ``speed.py`` runs between ops every
``speed.INTERVAL_S`` seconds. With ``--trace 1`` the same number of passes
is then replayed with the tracer installed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402
import workloads  # noqa: E402


def _machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration",
                         f"{blas.get('name')} {blas.get('version')}"),
    }


class Runner:
    """Runs ops and checks their reports; owns the report directory."""

    def __init__(self, out_dir: str):
        from qwave import cli

        import pipelines

        self.cli = cli
        self.pipelines = dict(pipelines.PIPELINES)
        self.report_bytes = pipelines.report_bytes
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)

    def run(self, index: int, op: dict) -> tuple[float, bytes | None, str]:
        """(latency in s, report bytes, failure reason or "")."""
        if op["kind"] == "cli":
            path = os.path.join(self.out_dir, f"{index}.json")
            config = self.cli.RunConfig(op["experiment"], dict(op["params"]),
                                        shots=op["shots"], seed=op["seed"],
                                        output_path=path)
            t0 = time.perf_counter()
            code = self.cli.run(config)
            elapsed = time.perf_counter() - t0
            if code != 0:
                return elapsed, None, f"{op['experiment']}: exit code {code}"
            with open(path, "rb") as fh:
                data = fh.read()
            passed = json.loads(data)["pass"]
        else:
            t0 = time.perf_counter()
            report = self.pipelines[op["kind"]](op)
            elapsed = time.perf_counter() - t0
            data = self.report_bytes(report)
            passed = report["pass"]
        if passed is not True:
            return elapsed, data, f"{workloads.op_key(op)}: pass is false"
        return elapsed, data, ""


def warm_up(runner: Runner, ops: list[dict], probe: bool) -> tuple[dict, float]:
    """One call per distinct key; returns {op index: bytes} and, when
    ``probe`` is set, the first-call cost (first call minus an immediate
    repeat of it) summed over the keys."""
    seen, outputs, first_call = set(), {}, 0.0
    for i, op in enumerate(ops):
        key = workloads.op_key(op)
        if key in seen:
            continue
        seen.add(key)
        first, data, _ = runner.run(i, op)
        outputs[i] = data
        if probe:
            again, _, _ = runner.run(i, op)
            first_call += first - again
    return outputs, first_call


def timed_loop(runner, ops, passes, reference=None, sampler=None):
    """``passes`` passes over ``ops``. Returns per-pass op latencies,
    per-pass wall times, failures and the reference bytes of each op.
    ``sampler`` (a ``speed.Sampler``) is polled before each op; its time
    counts in no op latency and no pass wall."""
    reference = dict(reference or {})
    latencies, walls, failures = [], [], []
    for _ in range(passes):
        pass_start = time.perf_counter()
        pass_latencies = []
        for i, op in enumerate(ops):
            if sampler is not None:
                pass_start += sampler.poll()
            elapsed, data, reason = runner.run(i, op)
            pass_latencies.append(elapsed)
            if not reason and data is not None:
                if i not in reference:
                    reference[i] = data
                elif reference[i] != data:
                    reason = (f"{workloads.op_key(op)}: report bytes differ "
                              f"between runs of the same config and seed")
            if reason:
                failures.append(reason)
        latencies.append(pass_latencies)
        walls.append(time.perf_counter() - pass_start)
    return latencies, walls, failures, reference


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--ops", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open(args.ops, encoding="utf-8") as fh:
        ops = json.load(fh)
    import qwave  # noqa: F401  (the import is part of set-up)

    runner = Runner(args.out)
    warm, first_call = warm_up(runner, ops, probe=bool(args.trace))
    print("READY", flush=True)

    result = {"machine": _machine(), "first_call_s": first_call,
              "warm_up": {str(i): (d.decode() if d else None)
                          for i, d in warm.items()}}
    if args.role == "measure":
        sampler = speed.Sampler()
        latencies, walls, failures, reference = timed_loop(
            runner, ops, args.passes, reference=warm, sampler=sampler)
        result.update(latencies=latencies, pass_walls=walls,
                      failures=failures, reference_s=sampler.samples)
        if args.trace:
            from tracer import Tracer, aggregate

            tracer = Tracer()
            for kind, case in runner.pipelines.items():
                runner.pipelines[kind] = tracer.wrap(f"bench.{kind}", case)
            tracer.install()
            try:
                _, traced_walls, traced_failures, _ = timed_loop(
                    runner, ops, args.passes, reference=reference)
            finally:
                tracer.uninstall()
            spans_path = os.path.join(args.out, "spans.jsonl")
            tracer.dump(spans_path)
            result.update(
                per_layer=aggregate(tracer.spans, tracer.counters, len(walls)),
                overhead_ratio=sum(traced_walls) / sum(walls),
                spans=spans_path,
            )
            result["failures"] += traced_failures
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

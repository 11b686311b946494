"""qwave benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

``--workload all`` runs the three workloads in turn.
Run from the root of a qwave checkout; qwave is imported from ``src`` (it is
not installed). Workloads (see ``workloads.py``):

* ``paper-suite``: the acceptance-criteria parameter set, 47 reports per
  pass at 1e5 shots, warm, through ``qwave.cli.run(RunConfig)``;
* ``large-register``: rabi up to dim 1602, coherent factorization up to dim
  1681 (both through ``cli.run``) and two library pipelines, warm, no shots;
* ``cold-cli``: each op is one fresh ``python -m qwave.cli batch --jobs 2``
  process over the eight experiments at 1e4 shots.

Every workload is a closed loop with one client. Set-up is timed in
``SETUPS`` fresh processes (launch to the end of an untimed warm-up that
imports qwave and calls each distinct experiment or pipeline once) and
reported as their median. Ops are checked as they run; an op fails if its
exit code is non-zero, its report's ``pass`` is false, its report bytes
differ from another run of the same config and seed in this benchmark run,
or (cold-cli) the CLI's ``--jobs 2`` report differs from the in-process one.
``fail_ratio`` = failed / attempted is printed and carried by the result's
``failed`` and ``attempted``.

The host's speed drifts by up to a third between runs. End-to-end times are
therefore divided by the run's host slowdown from ``speed.py`` (a fixed
reference kernel timed between ops and child processes), and rates are
multiplied by it; the values as measured are printed beside them.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run (``tracer.py``):
half the passes untraced, then as many traced. Per-layer counts and
times are per pass (per CLI process on cold-cli). The spans are written to
``.perfbench_out/trace-<workload>/``.

Exits 2 without a result line when the checkout has no ``src/qwave``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUPS = 3
DEADLINE_S = 170.0
IMPORT_PROBES = 3
CLI_JOBS = 2


class BenchError(Exception):
    pass


class Bench:
    """One benchmark run: its directories, child processes and deadline."""

    def __init__(self, root: str, workload: str, seed: int, tiny: bool):
        self.root = root
        self.workload = workload
        self.out = os.path.join(root, ".perfbench_out")
        self.dir = os.path.join(self.out, f"run-{workload}-{seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.deadline = time.monotonic() + DEADLINE_S
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.env = env
        self.ops = workloads.ops_for(workload, seed, tiny)
        self.ops_path = self._write("ops.json", self.ops)
        # host speed, timed here before each child process and by the
        # measuring worker between its ops
        self.sampler = speed.Sampler()

    def _write(self, name: str, obj) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- child processes -------------------------------------------------

    def _child(self, cmd: list[str], name: str, read_stdout: bool = False):
        """Run a child process to completion, killing it at the run's
        deadline. Returns its exit code, peak RSS in MB and, with
        ``read_stdout``, its stdout lines with their arrival times."""
        with open(os.path.join(self.dir, f"{name}.stderr"), "w") as err:
            proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE if read_stdout else subprocess.DEVNULL,
                stderr=err, env=self.env, cwd=self.root, text=True)
        timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0),
                                proc.kill)
        timer.start()
        lines = []
        try:
            if read_stdout:
                with proc.stdout:
                    for line in proc.stdout:
                        lines.append((time.perf_counter(), line.strip()))
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        return proc.returncode, usage.ru_maxrss / 1024.0, lines

    def worker(self, role: str, index: int, passes: int = 0,
               trace: int = 0) -> dict:
        """Launch a worker; its set-up time runs from launch to READY."""
        name = f"worker{index}"
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--ops", self.ops_path, "--out", os.path.join(self.dir, name),
               "--role", role, "--passes", str(passes),
               "--trace", str(trace)]
        self.sampler.samples.append(speed.reference())
        t0 = time.perf_counter()
        code, rss, lines = self._child(cmd, name, read_stdout=True)
        ready = [t - t0 for t, line in lines if line == "READY"]
        if code != 0 or not ready or lines[-1][1] == "READY":
            with open(os.path.join(self.dir, f"{name}.stderr")) as fh:
                sys.stderr.write(fh.read())
            raise BenchError(f"worker {role} exited with code {code}")
        result = json.loads(lines[-1][1])
        result.update(setup_s=ready[0], rss_mb=rss)
        return result

    def cli_batch(self, index: int, spans: str | None = None) -> dict:
        """One fresh CLI process over the workload's batch; with ``spans``
        it runs traced through ``cli_hook.py``."""
        op_dir = os.path.join(self.dir, f"op{index}")
        os.makedirs(op_dir)
        batch = [{"experiment": op["experiment"], "params": op["params"],
                  "shots": op["shots"], "seed": op["seed"],
                  "out": os.path.join(op_dir, f"{k}.json")}
                 for k, op in enumerate(self.ops)]
        batch_path = self._write(f"batch{index}.json", batch)
        args = ["batch", batch_path, "--jobs", str(CLI_JOBS)]
        if spans is None:
            cmd = [sys.executable, "-m", "qwave.cli"] + args
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_hook.py"), spans] + args
        self.sampler.samples.append(speed.reference())
        t0 = time.perf_counter()
        code, rss, _ = self._child(cmd, f"op{index}")
        elapsed = time.perf_counter() - t0
        reports = []
        for entry in batch:
            try:
                with open(entry["out"], encoding="utf-8") as fh:
                    reports.append(fh.read())
            except OSError:
                reports.append(None)
        shutil.rmtree(op_dir)
        return {"latency": elapsed, "code": code, "rss_mb": rss,
                "reports": reports}

    # -- workloads -------------------------------------------------------

    def check_warm_ups(self, results: list[dict]) -> list[str]:
        """Warm-up reports must match across processes (same configs and
        seeds) and carry ``pass: true``."""
        failures = []
        reference = results[-1]["warm_up"]
        for result in results:
            for i, text in result["warm_up"].items():
                key = workloads.op_key(self.ops[int(i)])
                if text is None or json.loads(text).get("pass") is not True:
                    failures.append(f"{key}: warm-up report failed")
                elif text != reference[i]:
                    failures.append(f"{key}: report bytes differ between "
                                    f"processes")
        return failures

    def warm(self, passes: int, trace: int) -> dict:
        results = [self.worker("setup", k, trace=trace)
                   for k in range(SETUPS - 1)]
        measured = self.worker("measure", SETUPS - 1, passes, trace)
        results.append(measured)
        failures = measured["failures"] + self.check_warm_ups(results)
        ops = sum(len(p) for p in measured["latencies"])
        out = {
            "setups": [r["setup_s"] for r in results],
            "latencies": measured["latencies"],
            "pass_walls": measured["pass_walls"],
            "rss_mb": measured["rss_mb"],
            "reference_s": self.sampler.samples + measured["reference_s"],
            "failures": failures,
            "attempted": ops * (2 if trace else 1)
            + sum(len(r["warm_up"]) for r in results),
            "machine": measured["machine"],
        }
        if trace:
            per_layer = dict(measured["per_layer"])
            per_layer["import.first_call_s"] = statistics.median(
                r["first_call_s"] for r in results)
            per_layer["trace.overhead_ratio"] = measured["overhead_ratio"]
            out["per_layer"] = per_layer
            self.keep_spans([measured["spans"]])
        return out

    def cold(self, passes: int, trace: int) -> dict:
        results = [self.worker("setup", k, trace=trace) for k in range(SETUPS)]
        failures = self.check_warm_ups(results)
        reference = results[-1]["warm_up"]
        expected = [reference.get(str(k)) for k in range(len(self.ops))]

        def check(run: dict) -> None:
            if run["code"] != 0:
                failures.append(f"cli batch: exit code {run['code']}")
            elif any(r is None or json.loads(r).get("pass") is not True
                     for r in run["reports"]):
                failures.append("cli batch: a report failed")
            elif run["reports"] != expected:
                failures.append("cli batch: --jobs 2 reports differ from "
                                "in-process reports")

        runs = []
        for k in range(passes):
            runs.append(self.cli_batch(k))
            check(runs[-1])
        latencies = [r["latency"] for r in runs]
        out = {
            "setups": [r["setup_s"] for r in results],
            "latencies": [[t] for t in latencies],
            "pass_walls": latencies,
            "rss_mb": statistics.median(r["rss_mb"] for r in runs),
            "reference_s": list(self.sampler.samples),
            "failures": failures,
            "attempted": len(runs) * (2 if trace else 1)
            + sum(len(r["warm_up"]) for r in results),
            "machine": results[-1]["machine"],
        }
        if trace:
            spans, counters = [], {"matrices": 0, "matrix_bytes": 0}
            traced = []
            for k in range(len(runs)):
                path = os.path.join(self.dir, f"spans{k}.jsonl")
                traced.append(self.cli_batch(len(runs) + k, spans=path))
                check(traced[-1])
                c, s = tracer.load(path, offset=k * 10**9)
                spans += s
                for key in counters:
                    counters[key] += c[key]
            per_layer = tracer.aggregate(spans, counters, len(traced))
            per_layer["import.first_call_s"] = statistics.median(
                r["first_call_s"] for r in results)
            per_layer["trace.overhead_ratio"] = (
                sum(r["latency"] for r in traced) / sum(latencies))
            out["per_layer"] = per_layer
            self.keep_spans([os.path.join(self.dir, f"spans{k}.jsonl")
                             for k in range(len(traced))])
        return out

    def keep_spans(self, paths: list[str]) -> None:
        dest = os.path.join(self.out, f"trace-{self.workload}")
        shutil.rmtree(dest, ignore_errors=True)
        os.makedirs(dest)
        for path in paths:
            shutil.move(path, os.path.join(dest, os.path.basename(path)))

    def import_times(self) -> dict:
        """Cumulative import times from ``python -X importtime``, median of
        ``IMPORT_PROBES`` fresh interpreters."""
        names = {"qwave": "import.qwave_s", "scipy.stats": "import.scipy_stats_s",
                 "numpy": "import.numpy_s"}
        samples = {metric: [] for metric in names.values()}
        for _ in range(IMPORT_PROBES):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import qwave"],
                env=self.env, cwd=self.root, capture_output=True, text=True,
                timeout=max(self.deadline - time.monotonic(), 1.0))
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise BenchError("import qwave failed")
            lines = parse_importtime(proc.stderr)
            for name, metric in names.items():
                samples[metric].append(cumulative_import(lines, name))
        return {m: statistics.median(v) for m, v in samples.items()}


def parse_importtime(text: str) -> list[tuple[int, str, float]]:
    """(depth, module, cumulative seconds) per ``-X importtime`` line."""
    lines = []
    for line in text.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3:
            continue
        if not fields[1].strip().isdigit():
            continue  # the header line
        name = fields[2].rstrip()
        depth = len(name) - len(name.lstrip())
        lines.append((depth, name.strip(), int(fields[1]) * 1e-6))
    return lines


def cumulative_import(lines, module: str) -> float:
    """Cumulative import time of ``module``. A package that scipy loads
    lazily (``scipy.stats``) has no line of its own; it is then the sum of
    its shallowest submodule lines."""
    for _, name, seconds in lines:
        if name == module:
            return seconds
    subs = [(d, s) for d, name, s in lines if name.startswith(module + ".")]
    if not subs:
        return 0.0
    top = min(d for d, _ in subs)
    return sum(s for d, s in subs if d == top)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(".ns_per_shot"):
        return "ns"
    if name.endswith("_ratio") or name.startswith("share."):
        return "ratio"
    return "count"


def iqm(latencies: list[float]) -> float:
    """Interquartile mean: the mean of the middle half of the latencies,
    a typical latency that stays put where the median falls in a gap
    between two kinds of op."""
    ordered = sorted(latencies)
    k = len(ordered) // 4
    return statistics.fmean(ordered[k:len(ordered) - k])


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """Highest percentile with at least ten samples beyond it (nearest
    rank): (value, percentile, samples beyond). With ten samples or fewer
    it is the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100, 0
    return ordered[n - 11], (100 * (n - 10)) // n, 10


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",),
                        required=True, help="a workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the benchmark's self-test")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qwave", "__init__.py")):
        sys.stderr.write("perfbench: no src/qwave in the current directory; "
                         "run from the root of a qwave checkout\n")
        return 2

    for workload in (workloads.WORKLOADS if args.workload == "all"
                     else (args.workload,)):
        code = run_workload(root, workload, args)
        if code:
            return code
    return 0


def run_workload(root: str, workload: str, args) -> int:
    """Run one workload and print its metrics; the last line is the result."""
    bench = Bench(root, workload, args.seed, args.tiny)
    # fixed work per run: a faster program finishes sooner, and every run
    # of a workload has the same number of samples
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = max(1, round(budget / workloads.PASS_SECONDS[workload]))
    try:
        if workload == "cold-cli":
            res = bench.cold(passes, args.trace)
        else:
            res = bench.warm(passes, args.trace)
        imports = bench.import_times() if args.trace else {}
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        bench.close()

    lat = [t for p in res["latencies"] for t in p]
    walls = res["pass_walls"]
    failed = len(res["failures"])
    machine = res["machine"]
    print(f"# machine: nproc={machine['nproc']} python={machine['python']} "
          f"numpy={machine['numpy']} scipy={machine['scipy']} "
          f"blas={machine['blas']}")
    print(f"# workload={workload} seed={args.seed} "
          f"reports_per_pass={len(bench.ops)} passes={len(walls)} "
          f"ops={len(lat)} loop_s={sum(walls):.3f} trace={args.trace}")
    for reason in sorted(set(res["failures"])):
        print(f"# FAILED: {reason}")
    print(f"fail_ratio {failed / res['attempted']:.6g} ratio "
          f"({failed} failed / {res['attempted']} attempted)")

    if args.trace:
        metrics = {**imports, **res["per_layer"]}
        units = {name: layer_unit(name) for name in metrics}
        print(f"# per-layer counts and times are per "
              f"{'CLI process' if workload == 'cold-cli' else 'pass'}, "
              f"over {len(walls)} traced; import.* are medians of "
              f"{IMPORT_PROBES} fresh interpreters")
        for name in sorted(metrics):
            print(f"{name} {metrics[name]:.6g} {units[name]}")
    else:
        tail_value, pct, beyond = tail(lat)
        setups = res["setups"]
        raw = {
            "setup_s": statistics.median(setups),
            "op_iqm_ms": 1e3 * iqm(lat),
            "op_tail_ms": 1e3 * tail_value,
            "reports_per_s": len(bench.ops) / statistics.median(walls),
        }
        # times read at the nominal host speed; a rate is multiplied
        slow = speed.speed(res["reference_s"])
        metrics = {name: value * slow if name == "reports_per_s"
                   else value / slow for name, value in raw.items()}
        metrics["peak_rss_mb"] = res["rss_mb"]
        print(f"# host speed: reference kernel median "
              f"{1e3 * statistics.median(res['reference_s']):.3f} ms over "
              f"{len(res['reference_s'])} timings = {slow:.4f} x nominal "
              f"{1e3 * speed.NOMINAL_S:.1f} ms; timings below are divided "
              f"by it (rates multiplied); as measured: "
              + ", ".join(f"{n} {v:.6g}" for n, v in raw.items()))
        units = {"setup_s": "s", "op_iqm_ms": "ms", "op_tail_ms": "ms",
                 "reports_per_s": "1/s", "peak_rss_mb": "MB"}
        notes = {
            "setup_s": f"median of {len(setups)} fresh processes",
            "op_iqm_ms": f"mean of the middle half of n={len(lat)}",
            "op_tail_ms": f"p{pct}, n={len(lat)}, {beyond} samples beyond",
            "reports_per_s": f"{len(bench.ops)} reports / median pass wall "
                             f"of {len(walls)}",
            "peak_rss_mb": "worker process" if workload != "cold-cli"
            else "median over CLI processes",
        }
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units[name]} ({notes[name]})")
        # the median is printed but not a metric: on paper-suite it falls
        # between the latencies of two experiments and jumps between them
        print(f"# op_p50_ms {1e3 * statistics.median(lat) / slow:.6g} ms "
              f"(median of n={len(lat)}, divided like the timings)")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

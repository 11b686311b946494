"""Summarise paired perfbench runs of a parent commit and a change.

Each log is the stdout of one ``perfbench/run.py --trace 0`` run. Its
``# machine:`` and ``# workload=`` lines name the host and the workload, and
its last line is perfbench's result object (``correct``, ``attempted``,
``failed`` and ``metrics``). Within each workload the i-th parent log pairs
with the i-th change log, so give the logs in the order they were run.
Alternate which side runs first from pair to pair, for instance::

    for i in $(seq 10); do
      for side in $( ((i % 2)) && echo "parent change" || echo "change parent"); do
        (cd "$side" && python3 perfbench/run.py --workload paper-suite \\
           --seed 11 --seconds 30 --trace 0) > "logs/paper-suite-$i-$side.txt"
      done
    done
    python3 tools/bench_pairs.py --out BENCH_<pr>.json \\
        --parent logs/*-parent.txt --change logs/*-change.txt

The summary holds the machine of the runs and, per workload and metric,
each side's runs, median and quartiles, the change's wins, its relative
change in the worse direction, the quartiles of its relative gain pair by
pair, and a verdict against the bound that ``BENCHMARK.json`` fixes for
the metric:

* ``gain``: the change wins at least nine tenths of the pairs (ties count
  for neither), the medians differ by more than the parent's IQR, and the
  share of its ops that failed on the workload (failed / attempted) is no
  larger than the parent's;
* ``no gain: larger failed share``: the pair rule of ``gain`` holds, but a
  larger share of the change's ops failed, so its speed does not count;
* ``worse than bound``: the change's median is worse than the parent's by
  more than the bound;
* ``unresolved``: otherwise, when the parent's IQR relative to its median
  is wider than the bound and not every change run beats every parent run;
* ``within bound``: otherwise.

A/A mode tells what the host resolves: run the parent commit twice in the
same alternation, from two copies of it, and give those logs as
``--aa-first`` and ``--aa-second``. They are summarised by the same rules
under ``aa``, beside the A/B result. Identical code should come out with
no ``gain``, and its pair gains show how far two runs of one commit
spread; state that spread beside a claimed gain.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_log(path: str) -> dict:
    """Workload, seed, machine and result object of one perfbench log."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty log")
    run = {"log": os.path.basename(path), "result": json.loads(lines[-1])}
    for line in lines:
        if line.startswith("# machine:"):
            # the BLAS description holds spaces and ends the line
            head, _, blas = line.partition(" blas=")
            run["machine"] = {**dict(re.findall(r"(\w+)=(\S+)", head)),
                              "blas": blas}
        elif line.startswith("# workload="):
            fields = dict(re.findall(r"(\w+)=(\S+)", line))
            run["workload"] = fields["workload"]
            run["seed"] = int(fields["seed"])
    if "workload" not in run:
        raise ValueError(f"{path}: no '# workload=' line")
    return run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def side_summary(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"runs": values, "median": median, "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def compare(parent: list[float], change: list[float], better: str,
            bound: float, more_failed: bool) -> dict:
    """Pairwise wins and the verdict for one metric on one workload;
    ``more_failed`` says a larger share of the change's ops failed."""
    sign = 1.0 if better == "lower" else -1.0
    # positive when the change is better
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    wins = sum(g > 0 for g in gains)
    q1, median, q3 = quartiles([g / abs(p) for g, p in zip(gains, parent)])
    p, c = side_summary(parent), side_summary(change)
    worse_by = sign * (c["median"] - p["median"]) / abs(p["median"])
    beats_all = (max(change) < min(parent) if better == "lower"
                 else min(change) > max(parent))
    if wins >= 0.9 * len(gains) and -worse_by * abs(p["median"]) > p["iqr"]:
        verdict = "no gain: larger failed share" if more_failed else "gain"
    elif worse_by > bound:
        verdict = "worse than bound"
    elif p["iqr"] / abs(p["median"]) > bound and not beats_all:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent": p, "change": c, "pairs": len(gains), "wins": wins,
            "pair_gain": {"median": median, "q1": q1, "q3": q3},
            "worse_by": worse_by, "bound": bound, "verdict": verdict}


def summarise(parent_logs: list[str], change_logs: list[str],
              benchmark: dict) -> dict:
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    sides = {"parent": [read_log(p) for p in parent_logs],
             "change": [read_log(p) for p in change_logs]}
    machines = {json.dumps(r["machine"], sort_keys=True)
                for runs in sides.values() for r in runs}
    order = [w["name"] for w in benchmark["workloads"]]
    workloads = {}
    for name in order:
        runs = {side: [r for r in rs if r["workload"] == name]
                for side, rs in sides.items()}
        if not runs["parent"] and not runs["change"]:
            continue
        if len(runs["parent"]) != len(runs["change"]):
            raise ValueError(f"{name}: {len(runs['parent'])} parent runs, "
                             f"{len(runs['change'])} change runs")
        entry = {
            "seeds": sorted({r["seed"] for rs in runs.values() for r in rs}),
            "attempted": {s: sum(r["result"]["attempted"] for r in rs)
                          for s, rs in runs.items()},
            "failed": {s: sum(r["result"]["failed"] for r in rs)
                       for s, rs in runs.items()},
            "logs": {s: [r["log"] for r in rs] for s, rs in runs.items()},
            "metrics": {},
        }
        # the two sides may attempt different numbers of ops
        share = {s: entry["failed"][s] / max(entry["attempted"][s], 1)
                 for s in runs}
        more_failed = share["change"] > share["parent"]
        for metric, spec in specs.items():
            values = {s: [r["result"]["metrics"][metric]["value"] for r in rs]
                      for s, rs in runs.items()}
            entry["metrics"][metric] = {
                "unit": spec["unit"], "better": spec["better"],
                **compare(values["parent"], values["change"], spec["better"],
                          spec["bound"], more_failed),
            }
        workloads[name] = entry
    return {"machines": [json.loads(m) for m in sorted(machines)],
            "workloads": workloads}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True,
                        help="logs of the parent commit, in run order")
    parser.add_argument("--change", nargs="+", required=True,
                        help="logs of the change, in run order")
    parser.add_argument("--aa-first", nargs="+",
                        help="logs of the parent commit, in run order, paired "
                             "with --aa-second for the A/A spread")
    parser.add_argument("--aa-second", nargs="+",
                        help="logs of a second copy of the parent commit, "
                             "in run order")
    parser.add_argument("--out", required=True,
                        help="summary file, BENCH_<pr>.json by convention")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    try:
        if (args.aa_first is None) != (args.aa_second is None):
            raise ValueError("--aa-first and --aa-second go together")
        summary = summarise(args.parent, args.change, benchmark)
        if args.aa_first:
            summary["aa"] = summarise(args.aa_first, args.aa_second, benchmark)
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"bench_pairs: {exc}\n")
        return 2
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    aa = summary.get("aa", {"workloads": {}})["workloads"]
    for name, entry in summary["workloads"].items():
        for metric, m in entry["metrics"].items():
            line = (f"{name} {metric}: parent {m['parent']['median']:.4g} "
                    f"(IQR {m['parent']['iqr']:.3g}) -> change "
                    f"{m['change']['median']:.4g}, wins {m['wins']}/{m['pairs']}, "
                    f"{m['verdict']}")
            if name in aa:
                spread = aa[name]["metrics"][metric]["pair_gain"]
                line += (f"; A/A pair gain {spread['median']:+.3f} "
                         f"[{spread['q1']:+.3f}, {spread['q3']:+.3f}]")
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

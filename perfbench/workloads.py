"""Workload definitions: the operations each workload runs, built from a seed.

An operation ("op") is a plain dict, so the orchestrator can write it to a
file without importing qwave:

* ``{"kind": "cli", "experiment", "params", "shots", "seed"}`` is one
  ``qwave.cli.run(RunConfig(...))`` call that writes one report;
* ``{"kind": "swap-pipeline", ...}`` and ``{"kind": "chain-pipeline", ...}``
  are library pipelines in the style of the README sketch (see
  ``pipelines.py``), each producing one report.

The warm workloads repeat the same list of ops on every pass; ``cold-cli``
runs the same batch of eight experiments in every fresh CLI process. Only
the benchmark seed changes the inputs (phases, amplitude phases, sampling
seeds); the costs of a pass do not depend on it.
"""

from __future__ import annotations

import cmath
import math
import random

WORKLOADS = ("paper-suite", "large-register", "cold-cli")

#: Approximate seconds per pass (per CLI process on cold-cli) on the 2-core
#: reference machine. A run makes round(--seconds / PASS_SECONDS) passes
#: (half of them, then as many traced, with --trace 1).
PASS_SECONDS = {"paper-suite": 0.63, "large-register": 5.2, "cold-cli": 1.55}

PAPER_SHOTS = 100_000
COLD_SHOTS = 10_000
PIPELINE_SHOTS = 2_000


def _alpha(rng: random.Random, magnitude: float) -> str:
    """A complex amplitude of fixed magnitude and seeded phase, as the CLI
    would receive it on the command line."""
    z = cmath.rect(magnitude, rng.uniform(0.0, 2.0 * math.pi))
    return f"{z.real!r}{z.imag:+.17g}j"


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _cli(experiment: str, params: dict, shots: int, seed: int) -> dict:
    return {"kind": "cli", "experiment": experiment, "params": params,
            "shots": shots, "seed": seed}


def paper_suite(rng: random.Random, tiny: bool) -> list[dict]:
    """The acceptance-criteria parameter set: 47 reports, 1e5 shots wherever
    the experiment samples (one report per experiment and 1e3 shots when
    tiny)."""
    shots = 1_000 if tiny else PAPER_SHOTS
    phase = lambda: rng.uniform(0.0, 2.0 * math.pi)
    n_swap, bell_ns, aux_phis, chain_phis, kicks = (
        (1, (2,), 1, 1, 1) if tiny else (20, (2, 3, 4, 5, 2, 5, 8), 5, 3, 3)
    )
    ops = [_cli("photon-swap", {"phi": phase()}, shots, _seed(rng))
           for _ in range(n_swap)]
    ops += [_cli("bell-chain", {"n": n}, shots, _seed(rng)) for n in bell_ns]
    rabi = [(10.0, 160)] if tiny else [(10.0, 160), (2.0, 24)]
    ops += [_cli("rabi", {"alpha": _alpha(rng, a), "cutoff": c}, 0, _seed(rng))
            for a, c in rabi]
    ops.append(_cli("coherent-factorization",
                    {"alpha": _alpha(rng, 2.0), "cutoff": 24}, 0, _seed(rng)))
    ops.append(_cli("fermion-nogo", {}, 0, _seed(rng)))
    for _ in range(aux_phis):
        phi = phase()
        for statistics in ("boson", "fermion"):
            ops.append(_cli("aux-phase", {"phi": phi, "statistics": statistics},
                            shots, _seed(rng)))
    ops += [_cli("collective-chain", {"phi": phase()}, shots, _seed(rng))
            for _ in range(chain_phis)]
    ops += [_cli("gauge-check", {"phi": phase(), "kick": phase()}, shots,
                 _seed(rng)) for _ in range(kicks)]
    return ops


def large_register(rng: random.Random, tiny: bool) -> list[dict]:
    """Dimension-heavy, shot-free runs: rabi up to dim 1602, coherent
    factorization up to dim 1681, and two library pipelines (dim 256, 512)."""
    rabi = [(3.0, 30)] if tiny else [(10.0, 160), (15.0, 330), (20.0, 540),
                                     (25.0, 800)]
    factor = [(2.0, 24)] if tiny else [(2.0, 24), (3.0, 30), (3.0, 40)]
    ops = [_cli("rabi", {"alpha": _alpha(rng, a), "cutoff": c}, 0, 0)
           for a, c in rabi]
    ops += [_cli("coherent-factorization", {"alpha": _alpha(rng, a),
                                            "cutoff": c}, 0, 0)
            for a, c in factor]
    sites = 2 if tiny else 4
    ops.append({"kind": "swap-pipeline",
                "phis": [rng.uniform(0.0, 2.0 * math.pi) for _ in range(sites)],
                "shots": PIPELINE_SHOTS, "seed": _seed(rng)})
    per_site = 1 if tiny else 3
    ops.append({"kind": "chain-pipeline", "per_site": per_site,
                "first": rng.randrange(per_site),
                "second": 2 * per_site + rng.randrange(per_site),
                "phi": rng.uniform(0.0, 2.0 * math.pi)})
    return ops


def cold_cli(rng: random.Random, tiny: bool) -> list[dict]:
    """The eight experiments at light parameters and 1e4 shots: the batch
    that each fresh ``python -m qwave.cli batch --jobs 2`` process runs."""
    phase = lambda: rng.uniform(0.0, 2.0 * math.pi)
    return [
        _cli("photon-swap", {"phi": phase()}, COLD_SHOTS, _seed(rng)),
        _cli("rabi", {"alpha": _alpha(rng, 3.0), "cutoff": 30}, 0, 0),
        _cli("bell-chain", {"n": 3}, COLD_SHOTS, _seed(rng)),
        _cli("aux-phase", {"phi": phase(), "statistics": "fermion"},
             COLD_SHOTS, _seed(rng)),
        _cli("fermion-nogo", {}, 0, _seed(rng)),
        _cli("coherent-factorization", {"alpha": _alpha(rng, 2.0),
                                        "cutoff": 24}, 0, 0),
        _cli("collective-chain", {"phi": phase()}, COLD_SHOTS, _seed(rng)),
        _cli("gauge-check", {"phi": phase(), "kick": phase()}, COLD_SHOTS,
             _seed(rng)),
    ]


_GENERATORS = {"paper-suite": paper_suite, "large-register": large_register,
             "cold-cli": cold_cli}


def ops_for(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The ops of one pass (warm workloads) or one CLI batch (cold-cli)."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), tiny)


def op_key(op: dict) -> str:
    """Distinct experiment or pipeline case of an op; the warm-up makes one
    call per key."""
    return op["experiment"] if op["kind"] == "cli" else op["kind"]

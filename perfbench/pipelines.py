"""Library pipelines of the large-register workload, with closed-form checks.

Each pipeline calls the public API through the ``qwave`` package (looked up
at call time, so a traced run sees the calls) and returns a report: a dict
of plain numbers plus a ``pass`` flag computed from closed forms that do not
use qwave.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

import qwave

ATOL = 1e-10
N_SIGMA = 6.0


def swap_pipeline(op: dict) -> dict:
    """One photon split over one light mode per site, swapped onto one atom
    per site, read out in the transverse spin basis (dim 4**sites).

    Closed forms: P(s) = |sum_k s_k exp(i phi_k)|**2 / (2**sites * sites)
    for the sign string s, and <e g|rho_01|g e> = exp(i (phi_0 - phi_1)) / sites
    for the reduced state of the first two atoms.
    """
    phis = op["phis"]
    n = len(phis)
    sites = [qwave.Site.A, qwave.Site.B, qwave.Site.O, qwave.Site.GLOBAL][:n]
    reg = qwave.build_register(
        [qwave.boson(f"light{k}", 1, s) for k, s in enumerate(sites)]
        + [qwave.two_level(f"atom{k}", s) for k, s in enumerate(sites)]
    )
    amps = np.zeros(reg.dim, dtype=complex)
    for k, phi in enumerate(phis):
        occ = [0] * (2 * n)
        occ[k] = 1
        amps[reg.index_of(occ)] = cmath.exp(1j * phi) / math.sqrt(n)
    psi = qwave.from_amplitudes(reg, amps)
    h = qwave.swap_coupler(reg, "light0", "atom0", 1.0)
    for k in range(1, n):
        h = h + qwave.swap_coupler(reg, f"light{k}", f"atom{k}", 1.0)
    psi = qwave.evolve(psi, h, math.pi / 2.0)
    specs = [qwave.spin_direction_measurement(reg, f"atom{k}", math.pi / 2.0)
             for k in range(n)]
    joint = qwave.joint_distribution(psi, specs)
    counts = qwave.sample_counts(psi, specs, op["shots"], op["seed"])
    rho = qwave.partial_trace(psi, {"atom0", "atom1"}).elements

    ok = sum(counts.values()) == op["shots"]
    for outcome, p in joint.items():
        signs = [1.0 if label == "+1" else -1.0 for label in outcome]
        expected = abs(sum(s * cmath.exp(1j * f)
                           for s, f in zip(signs, phis))) ** 2 / (2**n * n)
        sigma = math.sqrt(expected * (1.0 - expected) / op["shots"])
        freq = counts[outcome] / op["shots"]
        ok = ok and abs(p - expected) < ATOL
        ok = ok and abs(freq - expected) <= N_SIGMA * sigma + 1e-12
    coherence = cmath.exp(1j * (phis[0] - phis[1])) / n
    ok = ok and abs(complex(rho[2, 1]) - coherence) < ATOL
    return {
        "joint": {",".join(k): v for k, v in joint.items()},
        "counts": {",".join(k): v for k, v in counts.items()},
        "coherence": [float(rho[2, 1].real), float(rho[2, 1].imag)],
        "pass": bool(ok),
    }


def chain_pipeline(op: dict) -> dict:
    """One fermion split over two modes of a chain of 3 * per_site fermion
    modes on sites A, O and B (dim 2**(3 * per_site)), measured in the
    quadrature bases of both modes before and after post-selecting the
    first on +1.

    Closed forms: every quadrature outcome of a one-particle state has
    probability 1/2, and because the two fermionic quadratures
    anticommute, post-selection leaves the second at 1/2 whatever the
    phase (a bosonic pair would show the phase here).
    """
    per_site = op["per_site"]
    sites = ([qwave.Site.A] * per_site + [qwave.Site.O] * per_site
             + [qwave.Site.B] * per_site)
    reg = qwave.build_register(
        [qwave.fermion(f"f{k}", s) for k, s in enumerate(sites)]
    )
    first, second = f"f{op['first']}", f"f{op['second']}"
    psi = qwave.prepare_superposition(reg, first, second, op["phi"])
    spec_first = qwave.quadrature_basis(reg, first)
    spec_second = qwave.quadrature_basis(reg, second)
    born = [qwave.born_probabilities(psi, s) for s in (spec_first, spec_second)]
    kept, prob = qwave.post_select(psi, spec_first, "+1")
    after = qwave.born_probabilities(kept, spec_second)

    probs = [p for dist in born + [after] for p in dist.values()]
    ok = abs(prob - 0.5) < ATOL and all(abs(p - 0.5) < ATOL for p in probs)
    return {
        "born": born,
        "post_selection_probability": prob,
        "after": after,
        "pass": bool(ok),
    }


PIPELINES = {"swap-pipeline": swap_pipeline, "chain-pipeline": chain_pipeline}


def report_bytes(report: dict) -> bytes:
    """Deterministic serialization of a pipeline report (floats at full
    precision, sorted keys), for the repeat-run comparison."""
    return json.dumps(report, sort_keys=True).encode()

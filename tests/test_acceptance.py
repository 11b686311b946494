"""Acceptance suite: one test per quantitative exit criterion.

Each test pins its tolerances and runtime budget and prints a one-line
PASS summary (visible with ``pytest -s`` or in captured output). Two
criteria need a word on their fermionic targets:

* Auxiliary-particle phase estimation (criterion 7): the exact
  conditional coincidence law is |1 + x e^{i phi}|^2 / 4 with exchange
  sign x = +1 (bosons) / x = -1 (fermions). The fermionic rates are the
  bosonic ones with "+" and "-" traded at one site; both are asserted.

* Collective chain (criterion 8): the distilled positron state carries
  the fermionic exchange minus sign relative to naive occupation
  bookkeeping (the sign-free target is orthogonal to the true state, and
  that orthogonality is asserted too), and the final known-phase photon
  superposition has relative phase pi, independent of the input phase.
"""

import math
import time

import numpy as np
import pytest

from qwave import (
    annihilation,
    aux_particle_phase,
    bell_chain,
    boson,
    build_register,
    coherent_factorization,
    coincidence_rate,
    collective_chain,
    fermion,
    fermion_nogo,
    partial_trace,
    photon_swap_experiment,
    prepare_superposition,
    rabi_rotation,
    sample,
    two_level,
    ab_gauge_check,
    Site,
)

SHOTS = 100_000


def _announce(num: int, label: str, t0: float, budget: float):
    elapsed = time.monotonic() - t0
    print(f"[acceptance] criterion {num:02d} {label}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {num} exceeded {budget}s budget"


def test_criterion_01_epr_coincidence_law():
    t0 = time.monotonic()
    phis = np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False)
    for k, phi in enumerate(phis):
        r = photon_swap_experiment(float(phi), shots=SHOTS, seed=1000 + k)
        expected = abs(1.0 + np.exp(1j * phi)) ** 2 / 4.0
        assert abs(r.analytic["coincidence"] - expected) < 1e-10
        assert r.passed  # includes exact-vs-formula and 5-sigma empirical
        stat = r.empirical["coincidence"]
        sigma = math.sqrt(max(expected * (1 - expected), 0.0) / SHOTS)
        assert abs(stat.value - expected) <= 5.0 * sigma + 1e-12
    _announce(1, "EPR coincidence law", t0, 5.0)


def test_criterion_02_bell_chain():
    t0 = time.monotonic()
    for n in range(2, 6):
        r = bell_chain(n, shots=0, seed=0)
        assert r.passed
        p = r.analytic["satisfaction_probability"]
        assert abs(p - math.cos(math.pi / (4.0 * n)) ** 2) < 1e-12
        assert r.analytic["lhv_max_satisfied"] == 2 * n - 1
        assert r.analytic["failure_probability_bound"] < 1.0
    assert abs(
        bell_chain(2, 0, 0).analytic["failure_probability_bound"] - 0.585786
    ) < 1e-6
    assert abs(
        bell_chain(5, 0, 0).analytic["failure_probability_bound"] - 0.244717
    ) < 1e-6
    r8 = bell_chain(8, shots=0, seed=0)
    assert abs(r8.analytic["bound_to_approximation_ratio"] - 1.0) <= 0.02
    _announce(2, "chained relations vs local assignments", t0, 10.0)


def test_criterion_03_swap_fidelity():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    for phi in rng.uniform(0.0, 2.0 * math.pi, size=20):
        r = photon_swap_experiment(float(phi), shots=0, seed=0)
        assert r.analytic["swap_fidelity"] > 1.0 - 1e-9
    _announce(3, "swap unitarity and fidelity", t0, 1.0)


def test_criterion_04_rabi_formula():
    t0 = time.monotonic()
    r10 = rabi_rotation(10.0, 160)
    assert r10.passed
    assert r10.analytic["max_deviation_from_rotation_formula"] <= 0.03
    r2 = rabi_rotation(2.0, 24)
    assert (
        r10.analytic["max_deviation_from_rotation_formula"]
        < r2.analytic["max_deviation_from_rotation_formula"]
    )
    _announce(4, "coherent-drive rotation formula", t0, 30.0)


def test_criterion_05_coherent_factorization():
    t0 = time.monotonic()
    r = coherent_factorization(2.0, 24)
    assert r.passed
    assert r.analytic["fidelity"] > 1.0 - 1e-8
    _announce(5, "delocalized coherent state factorizes", t0, 5.0)


def test_criterion_06_fermion_nogo():
    t0 = time.monotonic()
    r = fermion_nogo()
    assert r.analytic["boson_quadrature_commutator"] < 1e-12
    assert r.analytic["fermion_quadrature_commutator"] >= 0.5
    assert r.analytic["fermion_pair_commutator"] < 1e-12
    assert r.analytic["boson_signaling_tvd"] < 1e-10
    assert r.analytic["fermion_signaling_tvd"] > 0.1
    _announce(6, "fermionic quadrature no-go", t0, 1.0)


def test_criterion_07_aux_particle_phase():
    t0 = time.monotonic()
    for phi in (0.0, math.pi / 3.0, math.pi / 2.0, math.pi, 4.0):
        rb = aux_particle_phase(phi, "boson", shots=0, seed=0)
        rf = aux_particle_phase(phi, "fermion", shots=0, seed=0)
        for r in (rb, rf):
            # conditioning event has probability exactly one half
            assert abs(r.analytic["conditioning_probability"] - 0.5) < 1e-12
            # declaration-order invariance (two orderings computed per run)
            assert r.analytic["ordering_gap"] < 1e-10
            assert r.passed
        assert abs(
            rb.analytic["conditional_coincidence"] - coincidence_rate(phi, +1)
        ) < 1e-10
        # fermionic exchange sign: same statistics with the outcome labels
        # of one site traded
        assert abs(
            rf.analytic["conditional_coincidence"] - coincidence_rate(phi, -1)
        ) < 1e-10
        assert abs(
            rf.analytic["conditional_coincidence"]
            - rb.analytic["conditional_anticoincidence"]
        ) < 1e-10
    _announce(7, "auxiliary-particle phase estimation", t0, 5.0)


def test_criterion_08_collective_chain():
    t0 = time.monotonic()
    reports = {}
    for phi in (0.0, math.pi / 3.0, math.pi):
        r = collective_chain(phi, shots=0, seed=0)
        reports[phi] = r
        assert r.passed
        assert r.analytic["positron_fidelity_exchange"] > 1.0 - 1e-9
        # the sign-free bookkeeping target is orthogonal to the true state
        assert r.analytic["positron_fidelity_naive"] < 1e-9
        assert abs(r.analytic["direct_postselection_probability"] - 0.5) < 1e-10
        assert r.analytic["direct_photon_fidelity"] > 1.0 - 1e-9
        assert r.analytic["stage3_phase_pi_fidelity"] > 1.0 - 1e-9
    # final photon statistics independent of the input phase
    keys = [k for k in reports[0.0].analytic if k.startswith("stage3_joint_")]
    for key in keys:
        vals = [reports[phi].analytic[key] for phi in reports]
        assert max(vals) - min(vals) < 1e-10
    _announce(8, "collective post-selection chain", t0, 10.0)


def test_criterion_09_gauge_invariance():
    t0 = time.monotonic()
    phi = 0.7
    for kick in (0.0, math.pi / 2.0, 2.2):
        r = ab_gauge_check(phi, kick, shots=SHOTS, seed=40)
        assert r.passed
        assert r.analytic["kicked_both_tvd"] < 1e-10
        assert abs(
            r.analytic["kicked_test_only_coincidence"]
            - coincidence_rate(phi + kick, +1)
        ) < 1e-10
        base = r.empirical["baseline_coincidence"]
        kicked = r.empirical["kicked_both_coincidence"]
        p = r.analytic["baseline_coincidence"]
        for stat in (base, kicked):
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / stat.count)
            assert abs(stat.value - p) <= 5.0 * sigma
    _announce(9, "gauge invariance of correlations", t0, 5.0)


def test_criterion_10_infrastructure():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    makers = [
        lambda l: boson(l, int(rng.integers(1, 4))),
        fermion,
        two_level,
    ]
    for _ in range(100):
        n_modes = int(rng.integers(2, 4))
        reg = build_register(
            [makers[rng.integers(0, 3)](f"m{i}") for i in range(n_modes)]
        )
        ops = {m.label: annihilation(reg, m.label).elements for m in reg.modes}
        eye = np.eye(reg.dim)
        occ = reg.occupation_table()
        for mi in reg.modes:
            for mj in reg.modes:
                ai, aj = ops[mi.label], ops[mj.label]
                if mi.kind.value == "fermion" and mj.kind.value == "fermion":
                    anti = ai @ aj.conj().T + aj.conj().T @ ai
                    target = eye if mi.label == mj.label else 0.0
                    assert np.abs(anti - target).max() < 1e-12
                elif mi.label == mj.label and mi.kind.value == "boson":
                    comm = ai @ ai.conj().T - ai.conj().T @ ai
                    below = occ[:, reg.position(mi.label)] < mi.cutoff
                    assert np.abs(np.diag(comm)[below] - 1.0).max() < 1e-12
                elif mi.label != mj.label:
                    comm = ai @ aj.conj().T - aj.conj().T @ ai
                    assert np.abs(comm).max() < 1e-12

    # seeded sampling is reproducible
    from qwave import vacuum_one_superposition_basis

    reg = build_register([boson("a", 1, Site.A), boson("b", 1, Site.B)])
    psi = prepare_superposition(reg, "a", "b", 1.0)
    spec = vacuum_one_superposition_basis(reg, "b", "vb")
    first = sample(psi, [spec], 2000, seed=5)
    second = sample(psi, [spec], 2000, seed=5)
    assert [r.outcomes for r in first] == [r.outcomes for r in second]

    # the reduced state of a split particle is an even mixture
    rho = partial_trace(psi, {"b"}).elements
    assert np.abs(rho - np.diag([0.5, 0.5])).max() < 1e-12
    _announce(10, "infrastructure properties", t0, 10.0)

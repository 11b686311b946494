import itertools
import math
import random
from dataclasses import dataclass

import numpy as np
import pytest

from qwave import (
    ModeKind,
    NTooLargeError,
    Site,
    TailBoundExceededError,
    ab_gauge_check,
    aux_particle_phase,
    bell_chain,
    coherent_factorization,
    coincidence_rate,
    collective_chain,
    fermion_nogo,
    lhv_max_satisfied,
    photon_swap_experiment,
    rabi_rotation,
    site_locality_gap,
)
from qwave import protocols
from qwave.measurement import PROJECTOR_ATOL

PHI_GRID = [0.0, math.pi / 3.0, math.pi / 2.0, math.pi, 4.0]


# --- photon swap -------------------------------------------------------------

def test_photon_swap_analytics():
    for phi in PHI_GRID:
        r = photon_swap_experiment(phi, shots=0, seed=1)
        assert r.passed
        assert r.analytic["coincidence"] == pytest.approx(
            abs(1.0 + np.exp(1j * phi)) ** 2 / 4.0, abs=1e-12
        )
        assert r.analytic["swap_fidelity"] > 1.0 - 1e-9


def test_photon_swap_limit_phases():
    r0 = photon_swap_experiment(0.0, shots=0, seed=1)
    assert r0.analytic["coincidence"] == pytest.approx(1.0)
    assert r0.analytic["anticoincidence"] == pytest.approx(0.0, abs=1e-12)
    r_pi = photon_swap_experiment(math.pi, shots=0, seed=1)
    assert r_pi.analytic["coincidence"] == pytest.approx(0.0, abs=1e-12)
    assert r_pi.analytic["anticoincidence"] == pytest.approx(1.0)
    r_q = photon_swap_experiment(math.pi / 2.0, shots=0, seed=1)
    assert r_q.analytic["coincidence"] == pytest.approx(0.5)
    assert r_q.analytic["anticoincidence"] == pytest.approx(0.5)


def test_photon_swap_sampling_and_determinism():
    r1 = photon_swap_experiment(0.8, shots=20_000, seed=5)
    r2 = photon_swap_experiment(0.8, shots=20_000, seed=5)
    assert r1.passed and r2.passed
    assert r1.to_dict() == r2.to_dict()
    assert r1.empirical["coincidence"].count == 20_000


# --- rabi rotation -----------------------------------------------------------

def test_rabi_starts_in_ground_state():
    r = rabi_rotation(2.0, 24, times=[0.0])
    assert r.analytic["excited_population_final"] == pytest.approx(0.0, abs=1e-12)


def test_rabi_large_amplitude_tracks_rotation_formula():
    r10 = rabi_rotation(10.0, 160)
    assert r10.passed
    assert r10.analytic["max_deviation_from_rotation_formula"] <= 0.03
    assert r10.analytic["excited_population_final"] == pytest.approx(1.0, abs=0.03)
    r2 = rabi_rotation(2.0, 24)
    assert (
        r10.analytic["max_deviation_from_rotation_formula"]
        < r2.analytic["max_deviation_from_rotation_formula"]
    )


def test_rabi_fails_when_simulation_leaves_closed_form(monkeypatch):
    assert rabi_rotation(2.0, 24).passed
    swap = protocols.swap_coupler
    monkeypatch.setattr(
        protocols, "swap_coupler", lambda reg, b, t, strength: swap(reg, b, t, 1.01)
    )
    # still unitary, so only the closed-form check can catch the wrong rate
    assert not rabi_rotation(2.0, 24).passed


def test_rabi_fails_when_tail_mass_leaves_its_second_route(monkeypatch):
    assert rabi_rotation(2.0, 24).passed
    tail = protocols.poisson_tail
    monkeypatch.setattr(
        protocols, "poisson_tail", lambda alpha, cutoff: tail(alpha, cutoff) + 1e-9
    )
    # 1 - sum |c_n|^2 of the unnormalised amplitudes no longer agrees
    assert not rabi_rotation(2.0, 24).passed


def test_rabi_tail_guard():
    with pytest.raises(TailBoundExceededError):
        rabi_rotation(10.0, 60)


# --- bell chain ---------------------------------------------------------------

def test_bell_chain_closed_forms():
    r2 = bell_chain(2, shots=0, seed=1)
    assert r2.passed
    assert r2.analytic["satisfaction_probability"] == pytest.approx(
        math.cos(math.pi / 8.0) ** 2, abs=1e-12
    )
    assert r2.analytic["failure_probability_bound"] == pytest.approx(
        0.585786, abs=1e-6
    )
    assert r2.analytic["lhv_max_satisfied"] == 3.0

    r5 = bell_chain(5, shots=0, seed=1)
    assert r5.analytic["failure_probability_bound"] == pytest.approx(
        0.244717, abs=1e-6
    )
    assert r5.analytic["large_chain_approximation"] == pytest.approx(
        math.pi**2 / 40.0, abs=1e-12
    )


def test_bell_chain_quantum_beats_every_lhv():
    for n in range(2, 6):
        r = bell_chain(n, shots=0, seed=0)
        assert r.analytic["lhv_max_satisfied"] == 2 * n - 1
        assert (
            r.analytic["satisfaction_probability"]
            > r.analytic["lhv_satisfaction_ceiling"]
        )
        assert r.analytic["failure_probability_bound"] < 1.0


def test_bell_chain_bounds():
    with pytest.raises(ValueError):
        bell_chain(1, 0, 0)
    with pytest.raises(NTooLargeError):
        bell_chain(9, 0, 0)


@dataclass(frozen=True)
class LhvStrategy:
    """Deterministic +/-1 assignment to every measurement direction: the
    scalar oracle for the vectorized ``lhv_max_satisfied``.

    ``site_a`` holds values for the even direction indices 0, 2, ..., 2N
    (N + 1 entries) and ``site_b`` for the odd ones (N entries). The last
    site-A entry must equal minus the first: the two directions differ by a
    half turn, so the same physical measurement reports the opposite sign.
    """

    site_a: tuple[int, ...]
    site_b: tuple[int, ...]

    def __post_init__(self):
        if len(self.site_a) != len(self.site_b) + 1:
            raise ValueError("site_a needs exactly one more entry than site_b")
        for v in self.site_a + self.site_b:
            if v not in (-1, 1):
                raise ValueError("assignments must be +1 or -1")
        if self.site_a[-1] != -self.site_a[0]:
            raise ValueError("half-turn direction must carry the opposite sign")

    def satisfied_relations(self) -> int:
        """How many of the 2N chained anti-correlation relations hold."""
        n = len(self.site_b)
        count = 0
        for m in range(n):
            if self.site_a[m] == -self.site_b[m]:
                count += 1
            if self.site_a[m + 1] == -self.site_b[m]:
                count += 1
        return count


def test_lhv_strategy_oracle_matches_enumeration():
    # brute-force over explicit strategy objects reproduces the vectorized
    # enumeration maximum
    for n in (2, 3):
        best = 0
        for a_bits in itertools.product((1, -1), repeat=n):
            site_a = tuple(a_bits) + (-a_bits[0],)
            for site_b in itertools.product((1, -1), repeat=n):
                s = LhvStrategy(site_a, tuple(site_b))
                best = max(best, s.satisfied_relations())
        assert best == lhv_max_satisfied(n) == 2 * n - 1


def test_lhv_strategy_validation():
    with pytest.raises(ValueError):
        LhvStrategy((1, 1), (1,))  # half-turn constraint violated
    with pytest.raises(ValueError):
        LhvStrategy((1, 0, -1), (1, 1))  # not +/-1


def test_bell_chain_sampling():
    r = bell_chain(2, shots=20_000, seed=3)
    assert r.passed
    assert len([k for k in r.empirical if k.startswith("relation_")]) == 4


# --- auxiliary-particle phase estimation ---------------------------------------

def test_aux_phase_boson_statistics():
    for phi in PHI_GRID:
        r = aux_particle_phase(phi, "boson", shots=0, seed=1)
        assert r.passed
        assert r.analytic["conditioning_probability"] == 0.5
        assert r.analytic["conditional_coincidence"] == pytest.approx(
            coincidence_rate(phi, +1.0), abs=1e-12
        )
        assert r.analytic["ordering_gap"] < 1e-10


def test_aux_phase_fermion_exchange_sign():
    # identical-particle exchange flips the interference term for fermions:
    # coincidence and anti-coincidence trade places relative to bosons
    for phi in PHI_GRID:
        rf = aux_particle_phase(phi, "fermion", shots=0, seed=1)
        rb = aux_particle_phase(phi, "boson", shots=0, seed=1)
        assert rf.passed
        assert rf.analytic["exchange_sign"] == -1.0
        assert rf.analytic["conditional_coincidence"] == pytest.approx(
            rb.analytic["conditional_anticoincidence"], abs=1e-12
        )
        assert rf.analytic["ordering_gap"] < 1e-10


def test_aux_phase_limit_cases():
    rb = aux_particle_phase(0.0, "boson", shots=0, seed=1)
    assert rb.analytic["conditional_coincidence"] == pytest.approx(1.0)
    rf = aux_particle_phase(0.0, "fermion", shots=0, seed=1)
    assert rf.analytic["conditional_coincidence"] == pytest.approx(0.0, abs=1e-12)


def test_aux_phase_sampling():
    r = aux_particle_phase(1.0, "fermion", shots=20_000, seed=11)
    assert r.passed
    assert r.empirical["conditioning_probability"].count == 20_000
    # conditional counts hover around half the shots
    assert abs(r.empirical["conditional_coincidence"].count - 10_000) < 500


def test_aux_phase_rejects_unknown_statistics():
    with pytest.raises(ValueError):
        aux_particle_phase(0.0, "anyon", shots=0, seed=0)


@pytest.mark.parametrize("kind", [ModeKind.BOSON, ModeKind.FERMION],
                         ids=["boson", "fermion"])
def test_aux_phase_invariant_under_every_declaration_order(kind):
    # all 4! orders of the four modes give the site order's joint
    # distribution, outcome by outcome; for fermions, orders whose sign
    # strings cross a site make that site's spec act outside it
    site_order = protocols._AUX_SITE_ORDER
    not_local = 0
    for phi in (0.0, 0.7, math.pi, 2.5):
        dist0 = protocols._aux_phase_exact(phi, kind, site_order)[3]
        for labels in itertools.permutations(site_order):
            _, _, specs, dist = protocols._aux_phase_exact(phi, kind, labels)
            not_local += sum(
                site_locality_gap(spec, site) > PROJECTOR_ATOL
                for spec, site in zip(specs, (Site.A, Site.B))
            )
            assert dist.keys() == dist0.keys()
            for outcome, p in dist0.items():
                assert abs(dist[outcome] - p) < 1e-12
    if kind is ModeKind.BOSON:
        assert not_local == 0
    else:
        assert not_local > 0


# --- fermion no-go --------------------------------------------------------------

def test_signaling_chain_is_declaration_order_invariant():
    # the no-go quantities cannot depend on bookkeeping: rebuild the
    # repeat-measurement chain with the two modes declared in either order
    from qwave import (
        Site,
        born_probabilities,
        boson,
        build_register,
        fermion,
        post_select,
        prepare_superposition,
        quadrature_basis,
    )

    def chain_tvd(order, kind):
        site = {"a": Site.A, "b": Site.B}
        if kind == "fermion":
            reg = build_register([fermion(l, site[l]) for l in order])
        else:
            reg = build_register([boson(l, 1, site[l]) for l in order])
        psi = prepare_superposition(reg, "a", "b", math.pi / 3.0)
        spec_a = quadrature_basis(reg, "a", "qa")
        spec_b = quadrature_basis(reg, "b", "qb")
        first, _ = post_select(psi, spec_b, "+1")
        repeat = born_probabilities(first, spec_b)
        rho = np.zeros((reg.dim, reg.dim), dtype=complex)
        for _, p in spec_a.projectors:
            v = p.elements @ first.amplitudes
            rho += np.outer(v, v.conj())
        disturbed = {
            l: float(np.real(np.trace(rho @ p.elements)))
            for l, p in spec_b.projectors
        }
        return 0.5 * sum(abs(repeat[l] - disturbed[l]) for l in repeat)

    for kind, expected in (("boson", 0.0), ("fermion", 0.5)):
        t1 = chain_tvd(["a", "b"], kind)
        t2 = chain_tvd(["b", "a"], kind)
        assert t1 == pytest.approx(expected, abs=1e-10)
        assert abs(t1 - t2) < 1e-10


def test_fermion_nogo_report():
    r = fermion_nogo()
    assert r.passed
    assert r.analytic["boson_quadrature_commutator"] < 1e-12
    assert r.analytic["fermion_quadrature_commutator"] == pytest.approx(2.0, abs=1e-10)
    assert r.analytic["fermion_pair_commutator"] < 1e-12
    assert r.analytic["boson_signaling_tvd"] < 1e-10
    assert r.analytic["fermion_signaling_tvd"] == pytest.approx(0.5, abs=1e-10)
    assert set(r.analytic) - set(r.empirical)  # analytic-only protocol


def test_fermion_nogo_fails_off_its_closed_forms(monkeypatch):
    norm = protocols.commutator_norm
    monkeypatch.setattr(protocols, "commutator_norm", lambda x, y: 0.5 * norm(x, y))
    # a fermionic quadrature commutator of 1 is nonzero but not the exact 2
    r = fermion_nogo()
    assert r.analytic["fermion_quadrature_commutator"] == pytest.approx(1.0)
    assert not r.passed


# --- coherent factorization ------------------------------------------------------

def test_coherent_factorization_exact_identity():
    r = coherent_factorization(2.0, 24)
    assert r.passed
    assert r.analytic["fidelity"] > 1.0 - 1e-8
    assert r.analytic["mean_occupation_site_a"] == pytest.approx(2.0, abs=1e-6)
    assert r.analytic["mean_occupation_site_b"] == pytest.approx(2.0, abs=1e-6)


def test_coherent_factorization_vacuum_case():
    r = coherent_factorization(0.0, 4)
    assert r.analytic["fidelity"] == pytest.approx(1.0)


def test_coherent_factorization_tail_guard():
    with pytest.raises(TailBoundExceededError):
        coherent_factorization(4.0, 6)


# --- collective chain -------------------------------------------------------------

def test_collective_chain_exact_results():
    for phi in (0.0, math.pi / 3.0, math.pi):
        r = collective_chain(phi, shots=0, seed=1)
        assert r.passed
        a = r.analytic
        assert a["direct_postselection_probability"] == pytest.approx(0.5, abs=1e-12)
        assert a["direct_photon_fidelity"] > 1.0 - 1e-9
        assert a["stage2_postselection_probability"] == pytest.approx(0.25, abs=1e-12)
        assert a["positron_fidelity_exchange"] > 1.0 - 1e-9
        # naive bookkeeping target (no exchange sign) is orthogonal
        assert a["positron_fidelity_naive"] < 1e-9
        assert a["stage3_postselection_probability"] == pytest.approx(0.5, abs=1e-12)
        assert a["stage3_phase_pi_fidelity"] > 1.0 - 1e-9
        assert a["ordering_gap"] < 1e-10


def test_collective_chain_stage3_phase_independent():
    r0 = collective_chain(0.0, shots=0, seed=1)
    r1 = collective_chain(2.0 * math.pi / 3.0, shots=0, seed=1)
    for key in r0.analytic:
        if key.startswith("stage3_joint_"):
            assert r0.analytic[key] == pytest.approx(
                r1.analytic[key], abs=1e-10
            )


def test_collective_chain_invariant_under_sampled_declaration_orders():
    # 48 of the 6! orders of the six modes give the site order's values
    site_order = protocols._CHAIN_SITE_ORDER
    orders = random.Random(0).sample(
        list(itertools.permutations(site_order)), 48
    )
    for phi in (0.3, 2.0):
        out0, _, _ = protocols._collective_exact(phi, site_order)
        for labels in orders:
            out, _, _ = protocols._collective_exact(phi, labels)
            assert out.keys() == out0.keys()
            for key, value in out0.items():
                assert abs(out[key] - value) < 1e-10, (labels, key)


def test_collective_chain_sampling():
    r = collective_chain(1.0, shots=20_000, seed=2)
    assert r.passed
    stat = r.empirical["direct_postselection_probability"]
    assert abs(stat.value - 0.5) < 5.0 * math.sqrt(0.25 / stat.count)


# --- gauge check --------------------------------------------------------------------

def test_gauge_check_kick_zero():
    r = ab_gauge_check(0.7, 0.0, shots=0, seed=1)
    assert r.passed
    assert r.analytic["kicked_both_tvd"] == pytest.approx(0.0, abs=1e-12)


def test_gauge_check_kicking_all_charges_changes_nothing():
    for kick in (math.pi / 2.0, 1.0, 2.5):
        r = ab_gauge_check(0.7, kick, shots=0, seed=1)
        assert r.passed
        assert r.analytic["kicked_both_tvd"] < 1e-10


def test_gauge_check_kicking_test_only_shifts_phase():
    phi, kick = 0.7, math.pi / 2.0
    r = ab_gauge_check(phi, kick, shots=0, seed=1)
    assert r.analytic["kicked_test_only_coincidence"] == pytest.approx(
        coincidence_rate(phi + kick, +1.0), abs=1e-12
    )


def test_gauge_check_sampling():
    r = ab_gauge_check(0.3, 1.1, shots=20_000, seed=21)
    assert r.passed
    assert "kicked_both_coincidence" in r.empirical


def test_draws_within_a_run_do_not_replay_a_neighbouring_seed():
    # bell-chain's relations 0 and 1 have one law, as do gauge-check's
    # baseline and kicked-both runs; seeding draw k with seed + k replayed
    # draw 0 of seed s + 1 as draw 1 of seed s
    for s in range(3):
        b0, b1 = bell_chain(2, 100_000, s), bell_chain(2, 100_000, s + 1)
        assert b0.empirical["relation_01_satisfied"] != b1.empirical[
            "relation_00_satisfied"
        ]
        g0 = ab_gauge_check(0.3, 1.1, 100_000, s)
        g1 = ab_gauge_check(0.3, 1.1, 100_000, s + 1)
        assert g0.empirical["kicked_both_coincidence"] != g1.empirical[
            "baseline_coincidence"
        ]


# --- report structure -----------------------------------------------------------------

def test_report_schema_and_flags():
    r = photon_swap_experiment(0.4, shots=1_000, seed=9)
    d = r.to_dict()
    assert set(d) == {
        "experiment", "params", "seed", "shots",
        "analytic", "empirical", "discrepancies", "pass",
    }
    assert d["pass"] is True
    assert "swap_fidelity" in set(r.analytic) - set(r.empirical)
    for key, gap in r.discrepancies.items():
        assert gap == abs(r.analytic[key] - r.empirical[key].value)


def test_phi_canonicalized_mod_two_pi():
    r = photon_swap_experiment(2.0 * math.pi + 0.3, shots=0, seed=0)
    assert r.params["phi"] == pytest.approx(0.3)

import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from qwave import (
    InvalidCutoffError,
    ModeKind,
    NTooLargeError,
    Site,
    TailBoundExceededError,
    ab_gauge_check,
    aux_particle_phase,
    bell_chain,
    born_probabilities,
    boson,
    build_register,
    coherent_factorization,
    coherent_state,
    coincidence_rate,
    collective_chain,
    fermion,
    fermion_nogo,
    lhv_max_satisfied,
    photon_swap_experiment,
    post_select,
    prepare_superposition,
    quadrature_basis,
    rabi_rotation,
    site_locality_gap,
    swap_coupler,
    two_level,
)
from qwave import OperatorMatrix, protocols
from qwave.fock import MAX_REGISTER_DIM, StateVector
from qwave.measurement import PROJECTOR_ATOL
from qwave.protocols import MAX_RABI_TIMES

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
    # rabi builds its setup afresh, and the kept setups stay as they are
    monkeypatch.setattr(protocols, "_rabi_setup", protocols._rabi_setup.__wrapped__)
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
    message = r"above cutoff 60 for alpha=\(10\+0j\): 1.000e\+00 exceeds bound 1e-07"
    with pytest.raises(TailBoundExceededError, match=message):
        rabi_rotation(10.0, 60)


@pytest.mark.parametrize("experiment", [rabi_rotation, coherent_factorization])
def test_nan_alpha_is_a_tail_failure(experiment):
    with pytest.raises(TailBoundExceededError,
                       match=r"alpha=\(nan\+0j\): nan exceeds bound"):
        experiment(math.nan, 10)


def test_rabi_rejects_a_time_whose_phase_overflows():
    with pytest.raises(ValueError, match=r"time 1e\+308 overflows"):
        rabi_rotation(1.0, 10, times=[0.5, 1e308])
    # the default grid ends at pi / (2 |alpha|), beyond the float range here
    with pytest.raises(ValueError, match=r"time inf overflows for alpha=\(1e-310"):
        rabi_rotation(1e-310, 10)
    assert rabi_rotation(1e-310, 10, times=[1.0]).passed


def test_rabi_rejects_a_nan_time_before_building_anything(monkeypatch):
    def no_build(modes):
        raise AssertionError("register built")

    monkeypatch.setattr(protocols, "build_register", no_build)
    # rabi builds its setup afresh, and the kept setups stay as they are
    monkeypatch.setattr(protocols, "_rabi_setup", protocols._rabi_setup.__wrapped__)
    # at cutoff 2047 the register has dim 4096, the largest accepted
    for times in ([math.nan], [0.5, math.nan], [-1.0]):
        with pytest.raises(ValueError, match="^times must be nonnegative$"):
            rabi_rotation(2.0, 2047, times=times)
    # inf passes this check and fails later, on its overflowing phase
    for times in ([0.5], [math.inf]):
        with pytest.raises(AssertionError, match="register built"):
            rabi_rotation(2.0, 2047, times=times)


def test_rabi_maxima_carry_a_nan(monkeypatch):
    eigh = OperatorMatrix.eigh

    def nan_eigh(op):
        # a NaN in one eigenvector of one block of the coupler
        spectrum = eigh(op)
        *kept, (index, w, v) = spectrum.groups
        v = v.copy()
        v[0, 0, 0] = math.nan
        return dataclasses.replace(spectrum, groups=(*kept, (index, w, v)))

    monkeypatch.setattr(OperatorMatrix, "eigh", nan_eigh)
    # rabi builds its setup afresh, and the kept setups stay as they are
    monkeypatch.setattr(protocols, "_rabi_setup", protocols._rabi_setup.__wrapped__)
    report = rabi_rotation(2.0, 24)
    assert math.isnan(report.analytic["excited_population_final"])
    assert not report.passed


def _unchunked_rabi(alpha, cutoff, times):
    """rabi's excited_population_final and
    max_deviation_from_rotation_formula from one propagated table of all
    ``times``, one slice of them all, each row's population one 1-D sum."""
    reg = build_register([boson("field", cutoff), two_level("atom")])
    psi0 = coherent_state(reg, "field", alpha, 1e-7)
    spectrum = swap_coupler(reg, "field", "atom", 1.0).eigh()
    (amps,) = spectrum.propagated(psi0.amplitudes, times, len(times))
    # the rows come in block order; basis index order[j] is column j
    place = np.empty(reg.dim, dtype=np.intp)
    place[spectrum.order] = np.arange(reg.dim)
    excited = amps[:, place[reg.occupation_table()[:, reg.position("atom")] == 1]]
    del amps  # 256 MB at dim 4096 with 4096 times
    populations = [float(np.sum(row)) for row in np.abs(excited) ** 2]
    t_end = math.pi / (2.0 * alpha)
    devs = [0.0] + [abs(pe - math.sin(alpha * t) ** 2)
                    for t, pe in zip(times, populations) if t <= t_end + 1e-12]
    return populations[-1], float(np.max(devs))


@pytest.mark.parametrize("alpha, cutoff", [(2.0, 24), (10.0, 160), (25.0, 800),
                                           (40.0, MAX_REGISTER_DIM // 2 - 1)])
@pytest.mark.parametrize("count", [1, 65, MAX_RABI_TIMES])
def test_rabi_in_chunks_of_times_moves_no_bit(alpha, cutoff, count):
    # a row of the propagated amplitudes could round differently with its
    # place in the table, so the chunked report is held to the whole table;
    # 65 times is the default grid, and 4096 times run past pi / (2 alpha),
    # where the deviation from the rotation formula is no longer read
    t_end = math.pi / (2.0 * alpha)
    times = (None if count == 65 else
             [0.6 * t_end] if count == 1 else
             np.linspace(0.0, 1.25 * t_end, count).tolist())
    report = rabi_rotation(alpha, cutoff, times=times)
    assert report.passed
    final, deviation = _unchunked_rabi(alpha, cutoff, report.params["times"])
    assert report.analytic["excited_population_final"] == final
    assert report.analytic["max_deviation_from_rotation_formula"] == deviation


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
    for n in range(2, 9):
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
    # the report carries the chain length as an int
    assert type(bell_chain(np.int64(3), 0, 0).params["n"]) is int


def test_a_bool_cutoff_is_refused_and_an_integer_one_reported_as_int():
    # True would run at cutoff 1 and be echoed as true
    for run in (lambda cutoff: rabi_rotation(1.0, cutoff, tail_bound=0.5),
                lambda cutoff: coherent_factorization(0.1, cutoff, tail_bound=0.5)):
        with pytest.raises(InvalidCutoffError, match="integer"):
            run(True)
        assert type(run(np.int64(12)).params["cutoff"]) is int


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
    # the vacuum has no tail, so a zero fidelity budget still passes
    r = coherent_factorization(0.0, 4, tail_bound=0.0)
    assert r.analytic["fidelity"] == 1.0 and r.passed


@pytest.mark.parametrize("alpha, cutoff", [(0.5, 4), (1 + 1j, 10)])
def test_coherent_factorization_passes_at_any_accepted_tail(alpha, cutoff):
    # the fidelity and mean bounds follow the tail the guard accepted
    assert coherent_factorization(alpha, cutoff, tail_bound=1e-3).passed


@pytest.mark.parametrize("alpha, cutoff", [(2.0, 24), (3.0, 40)])
def test_coherent_factorization_fails_a_wrong_route_one(alpha, cutoff,
                                                        monkeypatch):
    # route one raises by the transpose of the lowering matrix
    lowering = protocols._lowering

    def wrong(dim):
        _, rows, cols, vals = lowering(dim)
        return dim, rows, cols, 1.001 * vals

    monkeypatch.setattr(protocols, "_lowering", wrong)
    assert not coherent_factorization(alpha, cutoff).passed


def test_coherent_factorization_tail_guard():
    with pytest.raises(TailBoundExceededError):
        coherent_factorization(4.0, 6)
    with pytest.raises(ValueError, match=r"tail_bound must be in \[0, 1\), got 3.0"):
        coherent_factorization(1000.0, 40, tail_bound=3.0)


# --- peak memory at the dimension limit --------------------------------------------

_PEAK_RSS_CHILD = """
import resource, sys
from qwave import protocols
report = protocols.{call}
# ru_maxrss is in KiB on Linux, in bytes on macOS
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(report.passed, peak / (2**20 if sys.platform == "darwin" else 2**10))
"""

# A process started by fork and exec carries into its ru_maxrss the resident
# size it had when it called exec, which is its parent's. So the measuring
# process is started by a small launcher, not by the test runner.
_LAUNCHER = ("import subprocess, sys; "
             "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)")


@pytest.mark.parametrize("call, bound_mb", [
    # the generator is kept as its nonzero entries, so no d x d matrix is
    # allocated (33 MB peak on 2 vCPU, numpy 2.4.6)
    (f"rabi_rotation(40, {MAX_REGISTER_DIM // 2 - 1})", 512),
    # the propagated amplitudes are held a few rows at a time, so the
    # largest accepted times add no (times x dim) table (33 MB peak)
    (f"rabi_rotation(40, {MAX_REGISTER_DIM // 2 - 1}, times=[0.04 * k / "
     f"{MAX_RABI_TIMES - 1} for k in range({MAX_RABI_TIMES})])", 128),
    # means come from the occupation table, so no d x d matrix at all
    (f"coherent_factorization(5, {math.isqrt(MAX_REGISTER_DIM) - 1})", 128),
])
def test_peak_memory_at_the_dimension_limit(call, bound_mb):
    env = dict(os.environ)
    package_root = str(Path(protocols.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, _PEAK_RSS_CHILD.format(call=call)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    passed, peak_mb = proc.stdout.split()
    assert passed == "True", proc.stderr
    assert float(peak_mb) <= bound_mb, (call, peak_mb, proc.stderr)


def _traced_peak(work) -> int:
    """Peak bytes that tracemalloc, which sees numpy's buffers, traces
    while ``work`` runs."""
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rabi_traced_peak_does_not_grow_with_its_times():
    # no array of rabi's outlives one chunk of its times; a first untraced
    # run makes the imports and caches that any first call makes
    times = {n: np.linspace(0.0, 0.15, n).tolist() for n in (65, MAX_RABI_TIMES)}
    rabi_rotation(10.0, 160, times=times[65])
    peak = {n: _traced_peak(lambda: rabi_rotation(10.0, 160, times=t))
            for n, t in times.items()}
    assert peak[MAX_RABI_TIMES] - peak[65] < 2**20, peak


def _rabi_generator_spectrum():
    reg = build_register([boson("field", MAX_REGISTER_DIM // 2 - 1), two_level("atom")])
    swap_coupler(reg, "field", "atom", 1.0).eigh()
    return reg.dim


def _chain_pipeline_specs():
    sites = [Site.A] * 3 + [Site.O] * 3 + [Site.B] * 3
    reg = build_register([fermion(f"f{k}", s) for k, s in enumerate(sites)])
    psi = prepare_superposition(reg, "f1", "f7", 0.4)
    first, second = quadrature_basis(reg, "f1"), quadrature_basis(reg, "f7")
    for spec in (first, second):
        born_probabilities(psi, spec)
    kept, _ = post_select(psi, first, "+1")
    born_probabilities(kept, second)
    return reg.dim


@pytest.mark.parametrize("work", [_rabi_generator_spectrum, _chain_pipeline_specs])
def test_built_operators_allocate_no_dense_matrix(work):
    # rabi's generator and its spectrum at the dimension limit, and the
    # chain pipeline's two quadrature specs with the reads made on them,
    # each allocate less than one d x d complex array; a first untraced
    # run makes the imports and caches that any first call makes
    dim = work()
    peak = _traced_peak(work)
    assert peak < 16 * dim**2, (work.__name__, dim, peak)


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


def test_require_folds_checks_by_the_guard_rule():
    with pytest.raises(TypeError):
        protocols.ExperimentReport("x", {}, 0, 0, passed=False)
    r = protocols.ExperimentReport("x", {}, 0, 0)
    assert r.passed
    r.require(1e-10, 1e-10)  # a gap equal to its bound passes
    assert r.passed
    r.require(float("nan"), 1.0)  # a NaN gap fails
    assert not r.passed
    r.require(0.0, 1.0)  # a later passing check does not clear the failure
    assert r.passed is False and r.to_dict()["pass"] is False


def _recorded(hits: int, count: int, p: float) -> protocols.ExperimentReport:
    report = protocols.ExperimentReport("x", {}, 0, count)
    protocols._record(report, "rate", hits, count, p)
    return report


def test_sampled_checks_pass_correct_runs_at_small_counts():
    # each relation holds with p = 0.990, so one miss in 2 shots (f = 0.5)
    # is an ordinary draw that a normal approximation reads as 7 sigma out
    assert all(bell_chain(8, 2, seed).passed for seed in range(200))
    # the one kept shot lands on an outcome of probability 0.0223
    assert aux_particle_phase(0.3, "fermion", 1, 13).passed


@pytest.mark.parametrize("seed", range(3))
def test_sampled_checks_pass_correct_runs_at_2_62_shots(seed):
    # a correct frequency's KL is about 1e-19 here, below the rounding of
    # log(f / p)
    shots = 2**62
    assert photon_swap_experiment(0.7, shots, seed).passed
    assert bell_chain(2, shots, seed).passed
    for statistics in ("boson", "fermion"):
        assert aux_particle_phase(0.7, statistics, shots, seed).passed
    assert collective_chain(0.7, shots, seed).passed
    assert ab_gauge_check(0.3, 1.1, shots, seed).passed


@pytest.mark.parametrize("p, shots", [
    *(pytest.param(p, 100_000, id=str(p)) for p in (0.01, 0.3, 0.5, 0.97)),
    *(pytest.param(p, 2**62, id=f"{p}-2**62") for p in (0.01, 0.3, 0.5, 0.97)),
])
@pytest.mark.parametrize("direction", [1.0, -1.0])
def test_sampled_check_fails_a_law_shifted_by_ten_sigma(p, shots, direction):
    shifted = p + direction * 10.0 * math.sqrt(p * (1.0 - p) / shots)
    for seed in range(50):
        hits = int(np.random.default_rng(seed).binomial(shots, shifted))
        assert not _recorded(hits, shots, p).passed, seed
        assert _recorded(hits, shots, shifted).passed, seed


def test_sampled_check_fails_a_lone_hit_on_a_rare_outcome_at_2_60_shots():
    # f - p rounds to -p here, so the f term must not be read as
    # f log1p((f - p) / p) = -inf
    assert not _recorded(1, 2**60, 0.99).passed
    assert not _recorded(2**60 - 1, 2**60, 0.01).passed


def test_sampled_check_fails_a_hit_on_an_impossible_outcome():
    assert not _recorded(1, 100_000, 0.0).passed
    assert not _recorded(1, 1, 0.0).passed
    assert not _recorded(99_999, 100_000, 1.0).passed
    assert _recorded(0, 10, 0.0).passed and _recorded(10, 10, 1.0).passed


def test_phi_canonicalized_mod_two_pi():
    r = photon_swap_experiment(2.0 * math.pi + 0.3, shots=0, seed=0)
    assert r.params["phi"] == pytest.approx(0.3)


# a fidelity lies in [0, 1], so its check fails on either side of its
# closed form: above 1 as below 0
@pytest.mark.parametrize("fidelity", [-0.5, 1.5])
@pytest.mark.parametrize("run, key", [
    (lambda: photon_swap_experiment(0.3, shots=0, seed=1), "swap_fidelity"),
    (lambda: coherent_factorization(2.0, 30), "fidelity"),
], ids=["photon-swap", "coherent-factorization"])
def test_a_state_fidelity_out_of_range_fails(monkeypatch, run, key, fidelity):
    monkeypatch.setattr(StateVector, "fidelity", lambda self, other: fidelity)
    report = run()
    assert report.analytic[key] == fidelity
    assert not report.passed


@pytest.mark.parametrize("fidelity", [-0.5, 1.5])
@pytest.mark.parametrize("key", ["direct_photon_fidelity", "positron_fidelity_exchange",
                                 "positron_fidelity_naive", "stage3_phase_pi_fidelity"])
def test_a_collective_chain_fidelity_out_of_range_fails(monkeypatch, key, fidelity):
    exact = protocols._collective_exact

    def off(*args):
        out, *rest = exact(*args)
        return {**out, key: fidelity}, *rest

    monkeypatch.setattr(protocols, "_collective_exact", off)
    report = collective_chain(0.3, 0, 1)
    assert report.analytic[key] == fidelity
    assert not report.passed

"""One operation per reproduced experiment, each returning an ExperimentReport.

Every protocol computes closed-form predictions, recomputes the same
quantities by exact simulation (state vectors, exact evolution, Born rule),
checks that the two agree, and optionally samples empirical frequencies
with a seeded generator. State-fidelity checks compare up to a global
phase: the exact swap evolution deposits a common factor -i on swapped
branches that drops out of every observable.

Fermionic runs keep the full anticommutation bookkeeping, with two
consequences that naive occupation bookkeeping (valid for bosons) misses:

* aux_particle_phase: with an auxiliary identical particle, the
  conditional coincidence rate is |1 + x e^{i phi}|^2 / 4 with exchange
  sign x = +1 for bosons and x = -1 for fermions. The two interfering
  one-particle-per-site branches differ by an exchange of the two
  identical particles, so the fermionic interference term flips sign.
  The phase is equally recoverable either way.

* collective_chain: the positron state distilled by the photon
  post-selection carries the same exchange minus sign (the surviving
  positron differs between the interfering branches), and the final
  known-phase photon superposition has relative phase pi rather than 0.
  It remains independent of the input phase, which is the operational
  point, and both facts are declaration-order invariant.

ab_gauge_check runs the bosonic aux_particle_phase experiment itself: the
charged reference whose phase the test particle is read against is the
auxiliary particle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NTooLargeError, TailBoundExceededError
from .fock import (
    ModeKind,
    ModeRegister,
    Site,
    StateVector,
    build_register,
    boson,
    fermion,
    from_amplitudes,
    partial_trace,
    prepare_superposition,
    two_level,
    vacuum_state,
)
from .measurement import (
    MeasurementSpec,
    born_probabilities,
    joint_distribution,
    plus_minus_basis,
    post_select,
    quadrature_basis,
    sample_counts,
    spin_direction_measurement,
    vacuum_one_superposition_basis,
)
from .operators import (
    OperatorMatrix,
    annihilation,
    apply,
    coherent_amplitudes,
    coherent_state,
    commutator_norm,
    creation,
    embed,
    evolve,
    identity,
    number_operator,
    phase_kick,
    poisson_tail,
    quadrature,
    swap_coupler,
)

TWO_PI = 2.0 * math.pi

#: Tolerance for "exact simulation reproduces the closed form" checks.
ANALYTIC_ATOL = 1e-10


@dataclass(frozen=True)
class EmpiricalStat:
    """Sampled frequency together with the number of shots behind it."""

    value: float
    count: int


@dataclass
class ExperimentReport:
    """Analytic predictions, sampled frequencies, parameters and seed."""

    experiment: str
    params: dict
    seed: int
    shots: int
    analytic: dict[str, float] = field(default_factory=dict)
    empirical: dict[str, EmpiricalStat] = field(default_factory=dict)
    passed: bool = True

    @property
    def discrepancies(self) -> dict[str, float]:
        return {
            k: abs(self.analytic[k] - self.empirical[k].value)
            for k in self.analytic
            if k in self.empirical
        }

    def to_dict(self) -> dict:
        # coerce to plain Python scalars: numpy types must never leak into
        # serialized reports
        return {
            "experiment": self.experiment,
            "params": self.params,
            "seed": int(self.seed),
            "shots": int(self.shots),
            "analytic": {k: float(v) for k, v in self.analytic.items()},
            "empirical": {
                k: {"value": float(s.value), "count": int(s.count)}
                for k, s in self.empirical.items()
            },
            "discrepancies": {
                k: float(v) for k, v in self.discrepancies.items()
            },
            "pass": bool(self.passed),
        }


def _record(
    report: ExperimentReport, name: str, hits: int, count: int, p: float
) -> None:
    """Store the sampled frequency hits / count under ``name`` and require
    it within 5 sigma of the predicted probability p."""
    freq = hits / count
    report.empirical[name] = EmpiricalStat(freq, count)
    sigma = math.sqrt(max(p * (1.0 - p), 0.0) / count)
    report.passed = report.passed and abs(freq - p) <= 5.0 * sigma + 1e-15


def _two_site(table: dict) -> tuple:
    """Reduce a two-site table, an exact joint distribution or sampled
    counts: the total of the outcomes that find one particle at each site
    (no "other" at either), and its parts where the two sites read the same
    outcome and opposite ones. Sums run in table order."""
    total = same = opposite = 0
    for (a, b), v in table.items():
        if "other" in (a, b):
            continue
        total += v
        if a == b:
            same += v
        else:
            opposite += v
    return total, same, opposite


def coincidence_rate(phi: float, exchange_sign: float) -> float:
    """|1 + x e^{i phi}|^2 / 4: coincidence rate of the split-particle
    correlation experiments, x being the exchange sign of the statistics."""
    return float(abs(1.0 + exchange_sign * np.exp(1j * phi)) ** 2) / 4.0


def _statistics_kind(statistics: str) -> ModeKind:
    key = str(statistics).strip().lower()
    if key == "boson":
        return ModeKind.BOSON
    if key == "fermion":
        return ModeKind.FERMION
    raise ValueError(f"unknown statistics {statistics!r}")


def _split_particle_op(
    reg: ModeRegister, mode_a: str, mode_b: str, phi: float
) -> OperatorMatrix:
    """(create_a + e^{i phi} create_b) / sqrt(2): puts one particle into an
    equal-weight two-site superposition when applied to an empty pair."""
    op = creation(reg, mode_a) + np.exp(1j * phi) * creation(reg, mode_b)
    return (1.0 / math.sqrt(2.0)) * op


def _split_pair(reg: ModeRegister, outer: str, inner: str, phi: float) -> StateVector:
    """Two split particles from the vacuum: first ``inner`` over the modes
    inner_a, inner_b at phase zero, then ``outer`` over outer_a, outer_b at
    phase phi."""
    psi = apply(
        _split_particle_op(reg, inner + "_a", inner + "_b", 0.0),
        vacuum_state(reg),
        renormalize=True,
    )
    return apply(
        _split_particle_op(reg, outer + "_a", outer + "_b", phi),
        psi,
        renormalize=True,
    )


def _absence_measurement(
    reg: ModeRegister, labels: Sequence[str], name: str
) -> MeasurementSpec:
    """Binary measurement: all the named modes empty ("absent") or not."""
    vacuum = {l: np.diag(np.arange(reg.mode(l).dim) == 0) for l in labels}
    absent = OperatorMatrix(reg, embed(reg, vacuum))
    return MeasurementSpec(
        name, (("absent", absent), ("present", identity(reg) - absent))
    )


# ---------------------------------------------------------------------------
# split photon -> two atoms -> spin correlations
# ---------------------------------------------------------------------------

def photon_swap_experiment(phi: float, shots: int, seed: int) -> ExperimentReport:
    """Swap a split single photon onto two remote two-level atoms and read
    the phase out of their transverse-basis correlations.

    A single photon in (|1>_A |0>_B + e^{i phi} |0>_A |1>_B)/sqrt(2) is
    absorbed at each site by an excitation-swap coupler run for a quarter
    period, leaving the two atoms in the matching entangled state (checked
    by fidelity up to global phase). Both atoms are then measured in the
    equatorial basis; the coincidence rate is |1 + e^{i phi}|^2 / 4 and the
    anti-coincidence rate |1 - e^{i phi}|^2 / 4, each split evenly over its
    two contributing outcomes.
    """
    phi = phi % TWO_PI
    reg = build_register(
        [
            boson("light_a", 1, Site.A),
            boson("light_b", 1, Site.B),
            two_level("atom_a", Site.A),
            two_level("atom_b", Site.B),
        ]
    )
    psi0 = prepare_superposition(reg, "light_a", "light_b", phi)
    h = swap_coupler(reg, "light_a", "atom_a", 1.0) + swap_coupler(
        reg, "light_b", "atom_b", 1.0
    )
    psi1 = evolve(psi0, h, math.pi / 2.0)
    target = prepare_superposition(reg, "atom_a", "atom_b", phi)
    swap_fidelity = psi1.fidelity(target)

    specs = [
        spin_direction_measurement(reg, "atom_a", math.pi / 2.0, "x_a"),
        spin_direction_measurement(reg, "atom_b", math.pi / 2.0, "x_b"),
    ]
    _, coinc_exact, anti_exact = _two_site(joint_distribution(psi1, specs))
    coinc = coincidence_rate(phi, +1.0)
    anti = coincidence_rate(phi, -1.0)

    passed = (
        swap_fidelity > 1.0 - 1e-9
        and abs(coinc_exact - coinc) < ANALYTIC_ATOL
        and abs(anti_exact - anti) < ANALYTIC_ATOL
    )

    report = ExperimentReport(
        experiment="photon-swap",
        params={"phi": phi},
        seed=seed,
        shots=shots,
        analytic={
            "coincidence": coinc,
            "anticoincidence": anti,
            "swap_fidelity": swap_fidelity,
        },
        passed=passed,
    )
    if shots > 0:
        _, n_coinc, _ = _two_site(sample_counts(psi1, specs, shots, seed))
        _record(report, "coincidence", n_coinc, shots, coinc)
        report.empirical["anticoincidence"] = EmpiricalStat(
            1.0 - n_coinc / shots, shots
        )
    return report


# ---------------------------------------------------------------------------
# coherent-field-driven rotation of a two-level system
# ---------------------------------------------------------------------------

def rabi_rotation(
    alpha: complex,
    cutoff: int,
    times: Sequence[float] | None = None,
    tail_bound: float = 1e-7,
) -> ExperimentReport:
    """Drive a ground-state two-level system with a coherent field and
    compare the exact excited-state population with the classical-field
    rotation formula sin^2(|alpha| t).

    The exact population is sum_n p_n sin^2(sqrt(n) t) with Poisson weights
    p_n, so the formula becomes precise as |alpha| grows. Reports the
    maximum deviation over the first quarter rotation. Exact-only (no
    sampling).
    """
    alpha = complex(alpha)
    mag = abs(alpha)
    if mag <= 0.0:
        raise ValueError("alpha must be nonzero for a rotation rate")
    reg = build_register([boson("field", cutoff), two_level("atom")])
    psi0 = coherent_state(reg, "field", alpha, tail_bound)
    h = swap_coupler(reg, "field", "atom", 1.0)

    t_end = math.pi / (2.0 * mag)
    if times is None:
        times = np.linspace(0.0, t_end, 65)
    times = [float(t) for t in times]
    if not times:
        raise ValueError("times must not be empty")
    if any(t < 0.0 for t in times):
        raise ValueError("times must be nonnegative")

    w, v = h.eigh()
    coeffs = v.conj().T @ psi0.amplitudes
    atom_excited = reg.occupation_table()[:, reg.position("atom")] == 1
    # |n, g> couples only to |n-1, e>, at rate sqrt(n)
    p_n = np.abs(psi0.amplitudes.reshape(cutoff + 1, 2)[:, 0]) ** 2
    sqrt_n = np.sqrt(np.arange(cutoff + 1.0))

    max_dev = 0.0
    closed_form_gap = 0.0
    norm_drift = 0.0
    pe_end = 0.0
    for t in times:
        amps = v @ (np.exp(-1j * w * t) * coeffs)
        norm_drift = max(norm_drift, abs(np.linalg.norm(amps) - 1.0))
        pe = float(np.sum(np.abs(amps[atom_excited]) ** 2))
        closed_form = float(np.sum(p_n * np.sin(sqrt_n * t) ** 2))
        closed_form_gap = max(closed_form_gap, abs(pe - closed_form))
        if t <= t_end + 1e-12:
            max_dev = max(max_dev, abs(pe - math.sin(mag * t) ** 2))
        pe_end = pe

    # the tail two ways: Poisson survival function, and the norm the
    # unnormalised amplitudes below the cutoff leave out
    tail_mass = poisson_tail(alpha, cutoff)
    kept_mass = float(np.sum(np.abs(coherent_amplitudes(alpha, cutoff)) ** 2))
    tail_gap = abs(tail_mass - (1.0 - kept_mass))

    report = ExperimentReport(
        experiment="rabi",
        params={
            "alpha": _complex_repr(alpha),
            "cutoff": cutoff,
            "times": times,
            "tail_bound": tail_bound,
        },
        seed=0,
        shots=0,
        analytic={
            "max_deviation_from_rotation_formula": max_dev,
            "excited_population_final": pe_end,
            "rotation_formula_final": math.sin(mag * times[-1]) ** 2,
            "tail_mass": tail_mass,
        },
        passed=norm_drift < 1e-9 and closed_form_gap < 1e-10 and tail_gap <= 1e-10,
    )
    return report


# ---------------------------------------------------------------------------
# chained spin correlations vs deterministic local assignments
# ---------------------------------------------------------------------------

def lhv_max_satisfied(n: int) -> int:
    """Exhaustive maximum of satisfied relations over all 2^(2n) strategies."""
    ks = np.arange(2**n)
    bits = (ks[:, None] >> np.arange(n)) & 1
    vals = 1 - 2 * bits  # (2^n, n) of +/-1
    a_full = np.concatenate([vals, -vals[:, :1]], axis=1)  # (2^n, n+1)
    counts = np.zeros((2**n, 2**n), dtype=np.int64)
    for m in range(n):
        counts += a_full[:, m][:, None] == -vals[:, m][None, :]
        counts += a_full[:, m + 1][:, None] == -vals[:, m][None, :]
    return int(counts.max())


def bell_chain(n: int, shots: int, seed: int) -> ExperimentReport:
    """Chained anti-correlation relations on a singlet pair.

    2N relations link measurement directions spaced pi/(2N) apart across
    the two sites. Quantum mechanics satisfies each with probability
    cos^2(pi/4N), yet no deterministic local assignment can satisfy more
    than 2N - 1 of them (exhaustively enumerated here), and the union bound
    2N (1 - cos^2(pi/4N)) on the probability that any relation fails drops
    below 1 already at N = 2 and falls off like pi^2 / 8N.
    """
    if n < 2:
        raise ValueError("need n >= 2 for a nontrivial chain")
    if n > 8:
        raise NTooLargeError("exhaustive enumeration supported for n <= 8")
    reg = build_register([two_level("spin_a", Site.A), two_level("spin_b", Site.B)])
    amps = np.zeros(reg.dim, dtype=complex)
    amps[reg.index_of((1, 0))] = 1.0 / math.sqrt(2.0)
    amps[reg.index_of((0, 1))] = -1.0 / math.sqrt(2.0)
    singlet = from_amplitudes(reg, amps)

    thetas = [i * math.pi / (2.0 * n) for i in range(2 * n + 1)]
    p_formula = math.cos(math.pi / (4.0 * n)) ** 2
    relations = []
    for m in range(n):
        relations.append((2 * m, 2 * m + 1))
        relations.append((2 * m + 2, 2 * m + 1))

    report = ExperimentReport(
        experiment="bell-chain",
        params={"n": n},
        seed=seed,
        shots=shots,
    )
    # even directions are measured at A, odd ones at B; each spec built once
    direction = [
        spin_direction_measurement(reg, f"spin_{s}", theta, s)
        for theta, s in zip(thetas, "ab" * n + "a")
    ]
    for k, (ia, ib) in enumerate(relations):
        specs = [direction[ia], direction[ib]]
        _, _, p_exact = _two_site(joint_distribution(singlet, specs))
        report.passed = report.passed and abs(p_exact - p_formula) < 1e-12
        if shots > 0:
            _, _, n_sat = _two_site(
                sample_counts(singlet, specs, shots, seed, stream=k)
            )
            _record(report, f"relation_{k:02d}_satisfied", n_sat, shots, p_formula)
        report.analytic[f"relation_{k:02d}_satisfied"] = p_formula

    lhv_max = lhv_max_satisfied(n)
    bound = 2.0 * n * (1.0 - p_formula)
    approx = math.pi**2 / (8.0 * n)
    report.passed = report.passed and lhv_max == 2 * n - 1
    report.passed = report.passed and p_formula > (2.0 * n - 1.0) / (2.0 * n)

    report.analytic["satisfaction_probability"] = p_formula
    report.analytic["lhv_max_satisfied"] = float(lhv_max)
    report.analytic["lhv_satisfaction_ceiling"] = (2.0 * n - 1.0) / (2.0 * n)
    report.analytic["failure_probability_bound"] = bound
    report.analytic["large_chain_approximation"] = approx
    report.analytic["bound_to_approximation_ratio"] = bound / approx
    return report


# ---------------------------------------------------------------------------
# phase readout with an auxiliary identical particle
# ---------------------------------------------------------------------------

#: Declaration orders of the auxiliary-particle experiment's four modes,
#: grouped by site and grouped by species.
_AUX_SITE_ORDER = ("test_a", "aux_a", "test_b", "aux_b")
_AUX_SPECIES_ORDER = ("test_a", "test_b", "aux_a", "aux_b")


def _aux_phase_exact(phi: float, kind: ModeKind, labels: Sequence[str]):
    """Register, state, site specs and exact joint distribution of the
    auxiliary-particle experiment.

    ``labels`` is the declaration order of the four modes, which for
    fermions permutes the anticommutation bookkeeping; the conditional
    statistics must not depend on it.
    """
    if kind is ModeKind.FERMION:
        make = fermion
    else:
        make = lambda label, site: boson(label, 1, site)
    site_of = {"test_a": Site.A, "aux_a": Site.A, "test_b": Site.B, "aux_b": Site.B}
    reg = build_register([make(l, site_of[l]) for l in labels])
    psi = _split_pair(reg, "test", "aux", phi)
    specs = [
        plus_minus_basis(reg, "test_a", "aux_a", "site_a"),
        plus_minus_basis(reg, "test_b", "aux_b", "site_b"),
    ]
    return reg, psi, specs, joint_distribution(psi, specs)


def _conditional_rates(dist: dict) -> tuple[float, float, float]:
    """One-per-site probability of a two-site distribution, and the
    coincidence and anticoincidence conditioned on it."""
    cond, same, opposite = _two_site(dist)
    return cond, same / cond, opposite / cond


def aux_particle_phase(
    phi: float, statistics: str, shots: int, seed: int
) -> ExperimentReport:
    """Recover the split-particle phase from local correlations, given an
    auxiliary identical particle in a known zero-phase superposition.

    Each site measures which one-particle combination of its two local
    modes (test plus auxiliary) is occupied, in the +/- superposition
    basis, conditioning on one particle per site (probability exactly 1/2).
    Conditional coincidence is |1 + x e^{i phi}|^2 / 4 with exchange sign
    x = +1 for bosons, x = -1 for fermions; the rates are invariant under
    the register's mode-declaration order (checked on every run).
    """
    phi = phi % TWO_PI
    kind = _statistics_kind(statistics)
    _, psi, specs, dist = _aux_phase_exact(phi, kind, _AUX_SITE_ORDER)
    cond, coinc_exact, anti_exact = _conditional_rates(dist)
    cond2, coinc2, anti2 = _conditional_rates(
        _aux_phase_exact(phi, kind, _AUX_SPECIES_ORDER)[3]
    )
    ordering_gap = max(abs(cond - cond2), abs(coinc_exact - coinc2),
                       abs(anti_exact - anti2))

    x = 1.0 if kind is ModeKind.BOSON else -1.0
    coinc = coincidence_rate(phi, x)
    anti = coincidence_rate(phi, -x)
    passed = (
        abs(cond - 0.5) < ANALYTIC_ATOL
        and abs(coinc_exact - coinc) < ANALYTIC_ATOL
        and abs(anti_exact - anti) < ANALYTIC_ATOL
        and ordering_gap < ANALYTIC_ATOL
    )

    report = ExperimentReport(
        experiment="aux-phase",
        params={"phi": phi, "statistics": kind.value},
        seed=seed,
        shots=shots,
        analytic={
            "conditioning_probability": 0.5,
            "conditional_coincidence": coinc,
            "conditional_anticoincidence": anti,
            "exchange_sign": x,
            "ordering_gap": ordering_gap,
        },
        passed=passed,
    )
    if shots > 0:
        n_kept, n_coinc, _ = _two_site(sample_counts(psi, specs, shots, seed))
        _record(report, "conditioning_probability", n_kept, shots, 0.5)
        if n_kept > 0:
            _record(report, "conditional_coincidence", n_coinc, n_kept, coinc)
            report.empirical["conditional_anticoincidence"] = EmpiricalStat(
                1.0 - n_coinc / n_kept, n_kept
            )
    return report


# ---------------------------------------------------------------------------
# why the trick above is the only option for fermions
# ---------------------------------------------------------------------------

def fermion_nogo() -> ExperimentReport:
    """Quantify the obstruction to measuring a fermion's split-particle
    phase with single-site quadrature measurements.

    Three exact sub-results: (1) single-mode quadratures at the two sites
    commute for bosons but not for fermions (the anticommutation string
    links them); (2) same-site fermion-pair operators do commute across
    sites, leaving the pair loophole open; (3) were the fermionic
    quadrature eigenbasis measurable locally, it would signal: after a
    first quadrature measurement at B on the split state, an intervening
    quadrature measurement at A flips B's repeat distribution from
    deterministic to uniform (total-variation distance 1/2), while the
    bosonic analog stays untouched.
    """
    results: dict[str, float] = {}
    phi = math.pi / 3.0
    pair_registers = (
        ("boson", build_register([boson("a", 1, Site.A), boson("b", 1, Site.B)])),
        ("fermion", build_register([fermion("a", Site.A), fermion("b", Site.B)])),
    )
    for kind, reg in pair_registers:
        xa, xb = quadrature(reg, "a"), quadrature(reg, "b")
        results[f"{kind}_quadrature_commutator"] = commutator_norm(xa, xb)
        psi = prepare_superposition(reg, "a", "b", phi)
        spec_a = quadrature_basis(reg, "a", "quad_a")
        spec_b = quadrature_basis(reg, "b", "quad_b")
        first, _ = post_select(psi, spec_b, "+1")
        repeat = born_probabilities(first, spec_b)
        # B's distribution after an unread quadrature measurement at A
        disturbed = dict.fromkeys(repeat, 0.0)
        for outcome, _ in spec_a.projectors:
            after_a, p_a = post_select(first, spec_a, outcome)
            for label, p in born_probabilities(after_a, spec_b).items():
                disturbed[label] += p_a * p
        tvd = 0.5 * sum(abs(repeat[l] - disturbed[l]) for l in repeat)
        results[f"{kind}_signaling_tvd"] = tvd

    regp = build_register(
        [
            fermion("up_a", Site.A),
            fermion("down_a", Site.A),
            fermion("up_b", Site.B),
            fermion("down_b", Site.B),
        ]
    )

    def pair_op(up: str, down: str) -> OperatorMatrix:
        create_pair = creation(regp, up) @ creation(regp, down)
        destroy_pair = annihilation(regp, down) @ annihilation(regp, up)
        return create_pair + destroy_pair

    results["fermion_pair_commutator"] = commutator_norm(
        pair_op("up_a", "down_a"), pair_op("up_b", "down_b")
    )

    passed = (
        results["boson_quadrature_commutator"] < 1e-12
        and abs(results["fermion_quadrature_commutator"] - 2.0) < ANALYTIC_ATOL
        and results["fermion_pair_commutator"] < 1e-12
        and results["boson_signaling_tvd"] < 1e-10
        and abs(results["fermion_signaling_tvd"] - 0.5) < ANALYTIC_ATOL
    )
    return ExperimentReport(
        experiment="fermion-nogo",
        params={},
        seed=0,
        shots=0,
        analytic=results,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# a delocalized coherent state factorizes over the sites
# ---------------------------------------------------------------------------

def coherent_factorization(
    alpha: complex, cutoff: int, tail_bound: float = 1e-8
) -> ExperimentReport:
    """Check that a coherent state of the symmetric delocalized mode equals
    the product of independent local coherent states of amplitude
    alpha / sqrt(2), which is why a shared phase reference needs no
    pre-shared entanglement for bosons.

    Route one expands the delocalized-mode coherent state by repeatedly
    applying (a_dag + b_dag)/sqrt(2); route two multiplies per-site
    amplitude profiles. Reports the fidelity between the two and the local
    mean occupations (|alpha|^2 / 2 each). Exact-only.
    """
    alpha = complex(alpha)
    # the local amplitudes alpha / sqrt(2) have the smaller tail
    tail = poisson_tail(alpha, cutoff)
    if tail > tail_bound:
        raise TailBoundExceededError(
            f"occupation tail {tail:.3e} above cutoff {cutoff} exceeds "
            f"{tail_bound:.3e} for amplitude {alpha}"
        )
    reg = build_register([boson("a", cutoff, Site.A), boson("b", cutoff, Site.B)])

    lift = (1.0 / math.sqrt(2.0)) * (creation(reg, "a") + creation(reg, "b"))
    term = vacuum_state(reg).amplitudes.copy()
    total = term.copy()
    for k in range(1, cutoff + 1):
        term = (alpha / k) * (lift.elements @ term)
        total += term
    delocalized = from_amplitudes(reg, total, normalize=True)

    local = coherent_state(
        build_register([boson("a", cutoff)]), "a", alpha / math.sqrt(2.0), tail_bound
    ).amplitudes
    product = from_amplitudes(reg, np.kron(local, local))

    fidelity = delocalized.fidelity(product)
    mean_a = float(number_operator(reg, "a").expectation(delocalized).real)
    mean_b = float(number_operator(reg, "b").expectation(delocalized).real)
    expected_mean = abs(alpha) ** 2 / 2.0

    passed = (
        fidelity > 1.0 - 10.0 * tail_bound
        and abs(mean_a - expected_mean) < 1e-6
        and abs(mean_b - expected_mean) < 1e-6
    )
    return ExperimentReport(
        experiment="coherent-factorization",
        params={
            "alpha": _complex_repr(alpha),
            "cutoff": cutoff,
            "tail_bound": tail_bound,
        },
        seed=0,
        shots=0,
        analytic={
            "fidelity": fidelity,
            "mean_occupation_site_a": mean_a,
            "mean_occupation_site_b": mean_b,
            "expected_local_mean": expected_mean,
        },
        passed=passed,
    )


# ---------------------------------------------------------------------------
# pair annihilation, post-selection and the recycled-phase chain
# ---------------------------------------------------------------------------

#: Declaration orders of the collective chain's six modes, grouped by site
#: and grouped by species.
_CHAIN_SITE_ORDER = ("el_a", "pos_a", "ph_a", "el_b", "pos_b", "ph_b")
_CHAIN_SPECIES_ORDER = ("el_a", "el_b", "pos_a", "pos_b", "ph_a", "ph_b")

#: The chain's modes by label: fermionic electrons and positrons, and
#: photon modes holding at most one photon.
_CHAIN_MODES = {spec.label: spec for spec in (
    fermion("el_a", Site.A), fermion("pos_a", Site.A), boson("ph_a", 1, Site.A),
    fermion("el_b", Site.B), fermion("pos_b", Site.B), boson("ph_b", 1, Site.B),
)}


def _collective_setup(labels: Sequence[str]):
    """Register, annihilation coupler and lepton-absence measurement of the
    collective chain, with its modes declared in the order ``labels``."""
    reg = build_register([_CHAIN_MODES[label] for label in labels])

    def coupler(site: str) -> OperatorMatrix:
        h = (
            creation(reg, "ph_" + site)
            @ annihilation(reg, "el_" + site)
            @ annihilation(reg, "pos_" + site)
        )
        return h + h.dag()

    h_total = coupler("a") + coupler("b")
    lepton_spec = _absence_measurement(
        reg, ["el_a", "el_b", "pos_a", "pos_b"], "leptons"
    )
    return reg, h_total, lepton_spec


def _collective_exact(
    phi: float, labels: Sequence[str]
) -> tuple[dict[str, float], StateVector, MeasurementSpec]:
    """Exact quantities of the collective chain for one declaration order,
    with the direct variant's state before post-selection and the
    lepton-absence measurement that post-selects it."""
    reg, h_total, lepton_spec = _collective_setup(labels)
    quarter = math.pi / 2.0
    vac = vacuum_state(reg)
    out: dict[str, float] = {}

    # direct variant: both species split with the positron at phase zero,
    # annihilated for a quarter period at each site, post-select all
    # leptons gone
    direct = evolve(_split_pair(reg, "el", "pos", phi), h_total, quarter)
    photon_state, p_direct = post_select(direct, lepton_spec, "absent")
    out["direct_postselection_probability"] = p_direct
    out["direct_photon_fidelity"] = photon_state.fidelity(
        prepare_superposition(reg, "ph_a", "ph_b", phi)
    )

    # stage 1: one positron per site, electron split
    psi1 = apply(
        _split_particle_op(reg, "el_a", "el_b", phi),
        apply(
            creation(reg, "pos_a"),
            apply(creation(reg, "pos_b"), vac, renormalize=True),
            renormalize=True,
        ),
        renormalize=True,
    )
    psi1 = evolve(psi1, h_total, quarter)

    # stage 2: photon superposition measurements, keep (+, +)
    spec_pa = vacuum_one_superposition_basis(reg, "ph_a", "photon_a")
    spec_pb = vacuum_one_superposition_basis(reg, "ph_b", "photon_b")
    psi2a, p_a = post_select(psi1, spec_pa, "+")
    psi2, p_b = post_select(psi2a, spec_pb, "+")
    out["stage2_postselection_probability"] = p_a * p_b

    rho_pos = partial_trace(psi2, {"pos_a", "pos_b"})
    sub = rho_pos.register
    naive = prepare_superposition(sub, "pos_b", "pos_a", phi).amplitudes
    # the exchange minus sign rides on the branch with the positron at A
    pos_a_branch = sub.occupation_table()[:, sub.position("pos_a")] == 1
    exchange = np.where(pos_a_branch, -naive, naive)
    out["positron_fidelity_naive"] = rho_pos.expectation(naive)
    out["positron_fidelity_exchange"] = rho_pos.expectation(exchange)

    # stage 3: reset the measured photon modes, feed in a fresh split
    # electron, annihilate again, post-select all leptons gone
    psi3 = apply(_superposition_reset(reg, "ph_a"), psi2)
    psi3 = apply(_superposition_reset(reg, "ph_b"), psi3)
    psi4 = apply(
        _split_particle_op(reg, "el_a", "el_b", phi), psi3, renormalize=True
    )
    psi5 = evolve(psi4, h_total, quarter)
    psi6, p_nolep = post_select(psi5, lepton_spec, "absent")
    out["stage3_postselection_probability"] = p_nolep
    out["stage3_phase_pi_fidelity"] = psi6.fidelity(
        prepare_superposition(reg, "ph_a", "ph_b", math.pi)
    )
    dist3 = joint_distribution(psi6, [spec_pa, spec_pb])
    for (sa, sb), p in dist3.items():
        out[f"stage3_joint_{sa}{sb}"] = p
    return out, direct, lepton_spec


def _superposition_reset(reg: ModeRegister, mode: str) -> OperatorMatrix:
    """Unitary taking (|0> +/- |1>)/sqrt(2) to |0> and |1> on a cutoff-1
    mode: resets a mode collapsed by a superposition-basis measurement."""
    s = 1.0 / math.sqrt(2.0)
    return OperatorMatrix(reg, embed(reg, {mode: np.array([[s, s], [s, -s]])}))


def collective_chain(phi: float, shots: int, seed: int) -> ExperimentReport:
    """Pair-annihilation chain: swap a split electron's phase onto a
    positron and then onto a photon pair with a known phase.

    Stage 1 annihilates a split electron against one positron per site,
    entangling photon creation with the surviving positron. Stage 2
    measures both photon modes in the vacuum/one-photon superposition
    basis and keeps the (+, +) branch, leaving the surviving positron
    split with the input phase (and the fermionic exchange minus sign; the
    naive bookkeeping target is orthogonal to the actual state). Stage 3
    annihilates that positron against a fresh split electron; the input
    phase cancels, leaving a photon superposition with the known relative
    phase pi regardless of phi. The direct variant with both species split
    reproduces the photon state with relative phase phi exactly, at
    post-selection probability 1/2.
    """
    phi = phi % TWO_PI
    out, direct, lepton_spec = _collective_exact(phi, _CHAIN_SITE_ORDER)
    alt, _, _ = _collective_exact(phi, _CHAIN_SPECIES_ORDER)
    ordering_gap = max(abs(out[k] - alt[k]) for k in out)

    passed = (
        abs(out["direct_postselection_probability"] - 0.5) < ANALYTIC_ATOL
        and out["direct_photon_fidelity"] > 1.0 - 1e-9
        and abs(out["stage2_postselection_probability"] - 0.25) < ANALYTIC_ATOL
        and out["positron_fidelity_exchange"] > 1.0 - 1e-9
        and out["positron_fidelity_naive"] < 1e-9
        and abs(out["stage3_postselection_probability"] - 0.5) < ANALYTIC_ATOL
        and out["stage3_phase_pi_fidelity"] > 1.0 - 1e-9
        and ordering_gap < ANALYTIC_ATOL
    )

    report = ExperimentReport(
        experiment="collective-chain",
        params={"phi": phi},
        seed=seed,
        shots=shots,
        analytic={**out, "ordering_gap": ordering_gap},
        passed=passed,
    )
    if shots > 0:
        # sample the direct variant's post-selection rate
        counts = sample_counts(direct, [lepton_spec], shots, seed)
        _record(
            report, "direct_postselection_probability",
            counts[("absent",)], shots, 0.5,
        )
    return report


# ---------------------------------------------------------------------------
# gauge invariance of the correlation statistics under a phase kick
# ---------------------------------------------------------------------------

def ab_gauge_check(
    phi: float, kick: float, shots: int, seed: int
) -> ExperimentReport:
    """Check that a potential pulse acting on everything charged at one site
    leaves the phase-readout correlations unchanged.

    The auxiliary-particle experiment runs three ways: baseline; with the
    kick applied to the B branches of both the test particle and the
    charged reference (the pulse acts on all charges in the region); and a
    broken variant kicking the test particle only. The first two give
    identical statistics; the broken variant reproduces the statistics of
    an effective phase phi + kick, confirming that only the phase
    difference against the local reference is observable.
    """
    phi = phi % TWO_PI
    kick = kick % TWO_PI
    # the charged reference is the auxiliary particle
    reg, baseline, specs, dist0 = _aux_phase_exact(
        phi, ModeKind.BOSON, _AUX_SITE_ORDER
    )
    kicked_test_only = apply(phase_kick(reg, "test_b", kick), baseline)
    kicked_both = apply(phase_kick(reg, "aux_b", kick), kicked_test_only)
    dist1 = joint_distribution(kicked_both, specs)
    cond0, coinc0, _ = _conditional_rates(dist0)
    cond1, _, _ = _conditional_rates(dist1)
    cond2, coinc2, _ = _conditional_rates(joint_distribution(kicked_test_only, specs))
    # distance between the two conditional one-per-site tables
    tvd_both = 0.5 * _two_site(
        {k: abs(dist0[k] / cond0 - dist1[k] / cond1) for k in dist0}
    )[0]

    pred0 = coincidence_rate(phi, +1.0)
    pred2 = coincidence_rate(phi + kick, +1.0)
    passed = (
        abs(cond0 - 0.5) < ANALYTIC_ATOL
        and abs(cond1 - 0.5) < ANALYTIC_ATOL
        and abs(cond2 - 0.5) < ANALYTIC_ATOL
        and tvd_both < ANALYTIC_ATOL
        and abs(coinc0 - pred0) < ANALYTIC_ATOL
        and abs(coinc2 - pred2) < ANALYTIC_ATOL
    )

    report = ExperimentReport(
        experiment="gauge-check",
        params={"phi": phi, "kick": kick},
        seed=seed,
        shots=shots,
        analytic={
            "baseline_coincidence": pred0,
            "kicked_both_tvd": tvd_both,
            "kicked_test_only_coincidence": pred2,
            "conditioning_probability": 0.5,
        },
        passed=passed,
    )
    if shots > 0:
        runs = (
            ("baseline_coincidence", baseline, pred0),
            ("kicked_both_coincidence", kicked_both, pred0),
            ("kicked_test_only_coincidence", kicked_test_only, pred2),
        )
        for offset, (name, state, pred) in enumerate(runs):
            n_kept, n_coinc, _ = _two_site(
                sample_counts(state, specs, shots, seed, stream=offset)
            )
            if n_kept > 0:
                _record(report, name, n_coinc, n_kept, pred)
        if "kicked_both_coincidence" in report.empirical:
            report.analytic["kicked_both_coincidence"] = pred0
    return report


def _complex_repr(z: complex) -> str | float:
    """Canonical parameter form: bare float for real values."""
    if z.imag == 0.0:
        return float(z.real)
    return f"{z.real:.17g}{z.imag:+.17g}j"

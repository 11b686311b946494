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

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NTooLargeError
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
    BlockSpectrum,
    OperatorMatrix,
    _ladder_hermitian,
    _lowering,
    apply,
    check_tail_bound,
    coherent_amplitudes,
    coherent_state,
    commutator_norm,
    creation,
    embed,
    evolve,
    identity,
    poisson_tail,
    quadrature,
    swap_coupler,
)

TWO_PI = 2.0 * math.pi

#: Tolerance for "exact simulation reproduces the closed form" checks.
ANALYTIC_ATOL = 1e-10

#: Bound on count * KL(freq || p) of every sampled frequency. By the
#: Chernoff bound a correct run exceeds it with probability at most
#: 2 exp(-12.5), about 7.5e-6, for any count and p; 12.5 = 5**2 / 2, so it
#: reads as 5 sigma wherever count * p * (1 - p) is large.
SAMPLED_KL_BOUND = 12.5

#: Most times one rabi run reports. Each time is one row of the report, so
#: the cap bounds the report and rabi's run time before the register is
#: built; the propagated amplitudes are held a few rows at a time.
MAX_RABI_TIMES = 4096

#: Complex entries in one chunk of rabi's propagated amplitudes: 128 KiB,
#: glibc's default mmap threshold, so the chunks reuse heap memory.
_RABI_CHUNK_ENTRIES = 8192

#: Most cutoffs whose rabi setup is kept; the least recently used goes
#: first. A setup at the largest cutoff, 2047, holds 196 KiB, so 16 of them
#: and every other setup stay inside the 4 MiB that the setups may hold.
_RABI_SETUPS = 16


@dataclass(frozen=True)
class EmpiricalStat:
    """Sampled frequency together with the number of shots behind it."""

    value: float
    count: int


@dataclass
class ExperimentReport:
    """Analytic predictions, sampled frequencies, parameters and seed, and
    ``passed``, the fold of every check the protocol ``require``s."""

    experiment: str
    params: dict
    seed: int
    shots: int
    analytic: dict[str, float] = field(default_factory=dict)
    empirical: dict[str, EmpiricalStat] = field(default_factory=dict)
    passed: bool = field(default=True, init=False)

    def require(self, gap, bound) -> None:
        """Fold one check into ``passed`` by the rule of every numerical
        guard (``errors.check_within``): it holds when ``gap <= bound``, so
        a NaN gap fails, and no later check clears a failed one."""
        self.passed = self.passed and bool(gap <= bound)

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


def _bernoulli_kl(f: float, p: float) -> float:
    """Relative entropy KL(f || p) of two Bernoulli laws, with 0 log 0 = 0:
    infinite when f puts weight on an outcome that p gives none. Near f = p
    the first-order parts of the terms a log(a / b) cancel, and rounding a / b
    would swamp a correct KL (about 1e-18 at 2**60 shots), so a term is
    a log1p(gap / b) from d = f - p; below a = b / 2, where d can round to
    -b, it stays a log(a / b)."""
    d = f - p
    kl = 0.0
    for a, b, gap in ((f, p, d), (1.0 - f, 1.0 - p, -d)):
        if a > 0.0:
            if b == 0.0:
                return math.inf
            kl += a * (math.log1p(gap / b) if 2.0 * a > b else math.log(a / b))
    return kl


def _record(
    report: ExperimentReport, name: str, hits: int, count: int, p: float
) -> None:
    """Store the sampled frequency hits / count under ``name`` and require
    it within the Chernoff bound of the predicted probability p:
    ``count * KL(freq || p) <= SAMPLED_KL_BOUND``."""
    freq = hits / count
    report.empirical[name] = EmpiricalStat(freq, count)
    report.require(count * _bernoulli_kl(freq, p), SAMPLED_KL_BOUND)


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


#: The creation operators of one species at sites A and B.
_Ups = tuple[OperatorMatrix, OperatorMatrix]


def _creations(reg: ModeRegister, species: str) -> _Ups:
    """The creation operators of the modes species_a and species_b, built
    once per setup: none depends on phi."""
    return creation(reg, species + "_a"), creation(reg, species + "_b")


def _split(ups: _Ups, phi: float, state: StateVector) -> StateVector:
    """(create_a + e^{i phi} create_b) / sqrt(2) applied to ``state`` and
    renormalized, from the products of the two creation operators with the
    amplitudes. Where every creation value is +/-1 (one-particle modes),
    these are the bits of ``apply`` with that operator, and elsewhere they
    agree to rounding."""
    up_a, up_b = ups
    x = state.amplitudes
    s = 1.0 / math.sqrt(2.0)
    return from_amplitudes(state.register,
                           up_a._dot(x) * s + np.exp(1j * phi) * s * up_b._dot(x),
                           normalize=True)


def _kicked(state: StateVector, mode: str, kick: float) -> StateVector:
    """``apply(phase_kick(register, mode, kick), state)`` without the
    operator: each amplitude times exp(i kick n) at the mode's occupation
    n, with the bits of that product."""
    reg = state.register
    p = reg.position(mode)
    levels = [1] * len(reg.dims)
    levels[p] = reg.dims[p]
    phases = np.exp(1j * kick * np.arange(reg.dims[p])).reshape(levels)
    return from_amplitudes(reg, (phases * state.amplitudes.reshape(reg.dims)).ravel())


def _absence_measurement(
    reg: ModeRegister, labels: tuple[str, ...], name: str
) -> MeasurementSpec:
    """Binary measurement: all the named modes empty ("absent") or not."""
    vacuum = {l: np.diag(np.arange(reg.mode(l).dim) == 0) for l in labels}
    absent = embed(reg, vacuum)
    return MeasurementSpec(
        name, (("absent", absent), ("present", identity(reg) - absent))
    )


# ---------------------------------------------------------------------------
# split photon -> two atoms -> spin correlations
# ---------------------------------------------------------------------------

@functools.cache
def _photon_swap_setup() -> tuple[ModeRegister, OperatorMatrix, MeasurementSpec,
                                  MeasurementSpec]:
    """Register, swap coupler sum and the two equatorial spin measurements
    of photon-swap; none depends on phi, and the coupler keeps the
    spectrum its first ``evolve`` computes."""
    reg = build_register(
        [
            boson("light_a", 1, Site.A),
            boson("light_b", 1, Site.B),
            two_level("atom_a", Site.A),
            two_level("atom_b", Site.B),
        ]
    )
    h = swap_coupler(reg, "light_a", "atom_a", 1.0) + swap_coupler(
        reg, "light_b", "atom_b", 1.0
    )
    return (
        reg,
        h,
        spin_direction_measurement(reg, "atom_a", math.pi / 2.0, "x_a"),
        spin_direction_measurement(reg, "atom_b", math.pi / 2.0, "x_b"),
    )


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
    reg, h, *specs = _photon_swap_setup()
    psi0 = prepare_superposition(reg, "light_a", "light_b", phi)
    psi1 = evolve(psi0, h, math.pi / 2.0)
    target = prepare_superposition(reg, "atom_a", "atom_b", phi)
    swap_fidelity = psi1.fidelity(target)
    _, coinc_exact, anti_exact = _two_site(joint_distribution(psi1, specs))
    coinc = coincidence_rate(phi, +1.0)
    anti = coincidence_rate(phi, -1.0)

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
    )
    report.require(1.0 - swap_fidelity, 1e-9)
    report.require(abs(coinc_exact - coinc), ANALYTIC_ATOL)
    report.require(abs(anti_exact - anti), ANALYTIC_ATOL)
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

@functools.lru_cache(maxsize=_RABI_SETUPS)
def _rabi_setup(cutoff: int) -> tuple[ModeRegister, BlockSpectrum, np.ndarray]:
    """Register, coupler spectrum and excited-atom mask of rabi at
    ``cutoff``; none depends on alpha or the times. The coupler itself is
    not kept."""
    reg = build_register([boson("field", cutoff), two_level("atom")])
    spectrum = swap_coupler(reg, "field", "atom", 1.0).eigh()
    atom_excited = reg.occupation_table()[:, reg.position("atom")] == 1
    atom_excited.flags.writeable = False
    return reg, spectrum, atom_excited


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
    t_end = math.pi / (2.0 * mag)
    if times is not None:
        if len(times) > MAX_RABI_TIMES:
            raise ValueError(
                f"times holds {len(times)} times, more than "
                f"MAX_RABI_TIMES = {MAX_RABI_TIMES}"
            )
        times = [float(t) for t in times]
        if not times:
            raise ValueError("times must not be empty")
        if any(not t >= 0.0 for t in times):  # NaN too
            raise ValueError("times must be nonnegative")

    # the cutoff is checked before a setup is reached, and keys it as an int
    cutoff = boson("field", cutoff).cutoff
    reg, spectrum, atom_excited = _rabi_setup(cutoff)
    psi0 = coherent_state(reg, "field", alpha, tail_bound)
    # each phase (w t, sqrt(n) t, |alpha| t) is at most rate * t; one past
    # the float range would turn into NaN. The default grid ends at t_end.
    rate = max(spectrum.max_abs_eigenvalue, mag)
    for t in [t_end] if times is None else times:
        if not math.isfinite(rate * t):
            raise ValueError(f"phase at time {t:.17g} overflows for alpha={alpha}")
    if times is None:
        times = [float(t) for t in np.linspace(0.0, t_end, 65)]
    # |n, g> couples only to |n-1, e>, at rate sqrt(n)
    p_n = np.abs(psi0.amplitudes.reshape(cutoff + 1, 2)[:, 0]) ** 2
    sqrt_n = np.sqrt(np.arange(cutoff + 1.0))

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
    )
    devs = [0.0]
    rows = max(1, _RABI_CHUNK_ENTRIES // reg.dim)
    chunks = spectrum.propagated(psi0.amplitudes, times, rows)
    for start, amps in zip(range(0, len(times), rows), chunks):
        at = times[start:start + rows]
        # one sum per row: a sum along the rows of the table rounds differently
        populations = [float(row.sum()) for row in np.abs(amps[:, atom_excited]) ** 2]
        # the closed forms only decide pass, a chunk's times at a time
        closed_forms = (p_n * np.sin(np.multiply.outer(at, sqrt_n)) ** 2).sum(axis=1)
        # np.max carries a NaN through, so a NaN gap fails its check
        report.require(np.max(np.abs(np.linalg.norm(amps, axis=1) - 1.0)), 1e-9)
        report.require(np.max(np.abs(populations - closed_forms)), 1e-10)
        devs.extend(abs(pe - math.sin(mag * t) ** 2)
                    for t, pe in zip(at, populations) if t <= t_end + 1e-12)

    # the tail two ways: Poisson survival function, and the norm the
    # unnormalised amplitudes below the cutoff leave out
    tail_mass = poisson_tail(alpha, cutoff)
    kept_mass = float(np.sum(np.abs(coherent_amplitudes(alpha, cutoff)) ** 2))
    report.require(abs(tail_mass - (1.0 - kept_mass)), 1e-10)

    report.analytic = {
        # np.max carries a NaN through, where max() would keep its other operand
        "max_deviation_from_rotation_formula": float(np.max(devs)),
        "excited_population_final": populations[-1],
        "rotation_formula_final": math.sin(mag * times[-1]) ** 2,
        "tail_mass": tail_mass,
    }
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


@functools.cache
def _bell_setup(n: int) -> tuple[StateVector, tuple[MeasurementSpec, ...], int]:
    """The singlet, the spin measurements along the 2n + 1 directions
    i pi / 2n of the n-link chain, even i at A and odd i at B, and the
    chain's enumerated ``lhv_max_satisfied(n)``."""
    reg = build_register([two_level("spin_a", Site.A), two_level("spin_b", Site.B)])
    amps = np.zeros(reg.dim, dtype=complex)
    amps[reg.index_of((1, 0))] = 1.0 / math.sqrt(2.0)
    amps[reg.index_of((0, 1))] = -1.0 / math.sqrt(2.0)
    thetas = [i * math.pi / (2.0 * n) for i in range(2 * n + 1)]
    directions = tuple(
        spin_direction_measurement(reg, f"spin_{s}", theta, s)
        for theta, s in zip(thetas, "ab" * n + "a")
    )
    return from_amplitudes(reg, amps), directions, lhv_max_satisfied(n)


def bell_chain(n: int, shots: int, seed: int) -> ExperimentReport:
    """Chained anti-correlation relations on a singlet pair.

    2N relations link measurement directions spaced pi/(2N) apart across
    the two sites. Quantum mechanics satisfies each with probability
    cos^2(pi/4N), yet no deterministic local assignment can satisfy more
    than 2N - 1 of them (exhaustively enumerated here), and the union bound
    2N (1 - cos^2(pi/4N)) on the probability that any relation fails drops
    below 1 already at N = 2 and falls off like pi^2 / 8N.
    """
    if isinstance(n, bool) or not hasattr(n, "__index__"):
        raise ValueError(f"n must be an integer, got {n!r}")
    n = operator.index(n)
    if n < 2:
        raise ValueError("need n >= 2 for a nontrivial chain")
    if n > 8:
        raise NTooLargeError("exhaustive enumeration supported for n <= 8")
    singlet, direction, lhv_max = _bell_setup(n)
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
    for k, (ia, ib) in enumerate(relations):
        specs = [direction[ia], direction[ib]]
        _, _, p_exact = _two_site(joint_distribution(singlet, specs))
        report.require(abs(p_exact - p_formula), 1e-12)
        if shots > 0:
            _, _, n_sat = _two_site(
                sample_counts(singlet, specs, shots, seed, stream=k)
            )
            _record(report, f"relation_{k:02d}_satisfied", n_sat, shots, p_formula)
        report.analytic[f"relation_{k:02d}_satisfied"] = p_formula

    ceiling = (2.0 * n - 1.0) / (2.0 * n)
    bound = 2.0 * n * (1.0 - p_formula)
    approx = math.pi**2 / (8.0 * n)
    report.require(abs(lhv_max - (2 * n - 1)), 0)
    # p_formula beats the ceiling by at least 0.05 over n = 2..8
    report.require(ceiling - p_formula, 0.0)

    report.analytic["satisfaction_probability"] = p_formula
    report.analytic["lhv_max_satisfied"] = float(lhv_max)
    report.analytic["lhv_satisfaction_ceiling"] = ceiling
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


@functools.cache
def _aux_setup(
    kind: ModeKind, labels: tuple[str, ...]
) -> tuple[ModeRegister, tuple[MeasurementSpec, MeasurementSpec], _Ups,
           StateVector]:
    """Register, site specs, the test particle's creation operators and the
    auxiliary particle split at phase 0 of the auxiliary-particle
    experiment, with its four modes of ``kind`` declared in the order
    ``labels``. A run splits the test particle on that state at its phi."""
    if kind is ModeKind.FERMION:
        make = fermion
    else:
        make = lambda label, site: boson(label, 1, site)
    site_of = {"test_a": Site.A, "aux_a": Site.A, "test_b": Site.B, "aux_b": Site.B}
    reg = build_register([make(l, site_of[l]) for l in labels])
    specs = (
        plus_minus_basis(reg, "test_a", "aux_a", "site_a"),
        plus_minus_basis(reg, "test_b", "aux_b", "site_b"),
    )
    aux = _split(_creations(reg, "aux"), 0.0, vacuum_state(reg))
    return reg, specs, _creations(reg, "test"), aux


def _aux_phase_exact(phi: float, kind: ModeKind, labels: tuple[str, ...]):
    """Register, state, site specs and exact joint distribution of the
    auxiliary-particle experiment.

    ``labels`` is the declaration order of the four modes, which for
    fermions permutes the anticommutation bookkeeping; the conditional
    statistics must not depend on it.
    """
    reg, specs, test, aux = _aux_setup(kind, labels)
    # the test particle split on top of the auxiliary one
    psi = _split(test, phi, aux)
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
    )
    report.require(abs(cond - 0.5), ANALYTIC_ATOL)
    report.require(abs(coinc_exact - coinc), ANALYTIC_ATOL)
    report.require(abs(anti_exact - anti), ANALYTIC_ATOL)
    report.require(ordering_gap, ANALYTIC_ATOL)
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

@functools.cache
def _fermion_nogo_setup() -> tuple[
    tuple[tuple[str, OperatorMatrix, OperatorMatrix, StateVector,
                MeasurementSpec, MeasurementSpec], ...],
    tuple[OperatorMatrix, OperatorMatrix],
]:
    """What fermion-nogo reads, none of which depends on a parameter: per
    statistics, the quadratures at sites A and B of a two-site register,
    the particle split between them at phi = pi / 3 and the two quadrature
    measurements; and the same-site pair operators of a four-fermion
    register."""
    phi = math.pi / 3.0
    pairs = []
    for kind, make in (("boson", lambda label, site: boson(label, 1, site)),
                       ("fermion", fermion)):
        reg = build_register([make("a", Site.A), make("b", Site.B)])
        pairs.append((
            kind, quadrature(reg, "a"), quadrature(reg, "b"),
            prepare_superposition(reg, "a", "b", phi),
            quadrature_basis(reg, "a", "quad_a"),
            quadrature_basis(reg, "b", "quad_b"),
        ))
    regp = build_register(
        [
            fermion("up_a", Site.A),
            fermion("down_a", Site.A),
            fermion("up_b", Site.B),
            fermion("down_b", Site.B),
        ]
    )
    pair_ops = (_ladder_hermitian(regp, ("up_a", "down_a"), (), 1.0),
                _ladder_hermitian(regp, ("up_b", "down_b"), (), 1.0))
    return tuple(pairs), pair_ops


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
    pairs, pair_ops = _fermion_nogo_setup()
    results: dict[str, float] = {}
    for kind, xa, xb, psi, spec_a, spec_b in pairs:
        results[f"{kind}_quadrature_commutator"] = commutator_norm(xa, xb)
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

    # c_dag(up) c_dag(down) + c(down) c(up) at each site
    results["fermion_pair_commutator"] = commutator_norm(*pair_ops)

    report = ExperimentReport(
        experiment="fermion-nogo",
        params={},
        seed=0,
        shots=0,
        analytic=results,
    )
    report.require(results["boson_quadrature_commutator"], 1e-12)
    report.require(abs(results["fermion_quadrature_commutator"] - 2.0), ANALYTIC_ATOL)
    report.require(results["fermion_pair_commutator"], 1e-12)
    report.require(results["boson_signaling_tvd"], 1e-10)
    report.require(abs(results["fermion_signaling_tvd"] - 0.5), ANALYTIC_ATOL)
    return report


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
    applying (a_dag + b_dag)/sqrt(2) to the table of amplitudes over the
    two occupations; route two multiplies per-site amplitude profiles.
    Reports the fidelity between the two and the local mean occupations
    (|alpha|^2 / 2 each). Exact-only.
    """
    alpha = complex(alpha)
    cutoff = boson("a", cutoff).cutoff
    # the local amplitudes alpha / sqrt(2) have the smaller tail
    check_tail_bound(alpha, cutoff, tail_bound)
    reg = build_register([boson("a", cutoff, Site.A), boson("b", cutoff, Site.B)])

    # (a_dag + b_dag) raises the (n_a, n_b) amplitude table along each
    # axis: row n takes sqrt(n) times row n - 1 of the last term, column n
    # sqrt(n) times its column n - 1
    one_mode = build_register([boson("a", cutoff)])
    root = _lowering(cutoff + 1)[3]
    term = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    term[0, 0] = 1.0
    total = term.copy()
    down, right = np.zeros_like(term), np.zeros_like(term)
    for k in range(1, cutoff + 1):
        np.multiply(root[:, None], term[:-1], out=down[1:])
        np.multiply(term[:, :-1], root, out=right[:, 1:])
        term = alpha / (k * math.sqrt(2.0)) * (down + right)
        total += term
    delocalized = from_amplitudes(reg, total.ravel(), normalize=True)

    local = coherent_state(one_mode, "a", alpha / math.sqrt(2.0), tail_bound).amplitudes
    product = from_amplitudes(reg, np.kron(local, local))

    fidelity = delocalized.fidelity(product)
    amps, occ = delocalized.amplitudes, reg.occupation_table()
    mean_a = float(np.vdot(amps, occ[:, 0] * amps).real)
    mean_b = float(np.vdot(amps, occ[:, 1] * amps).real)
    expected_mean = abs(alpha) ** 2 / 2.0

    report = ExperimentReport(
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
    )
    # T, the tail above the cutoff at alpha, bounds both truncation errors:
    # 1 - fidelity <= T and |mean - |alpha|^2 / 2| <= (cutoff + 1) T / (2 (1 - T))
    tail = poisson_tail(alpha, cutoff)
    mean_bound = (cutoff + 1) * tail / (2.0 * (1.0 - tail)) + ANALYTIC_ATOL
    report.require(1.0 - fidelity, tail + ANALYTIC_ATOL)
    report.require(abs(mean_a - expected_mean), mean_bound)
    report.require(abs(mean_b - expected_mean), mean_bound)
    return report


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


@functools.cache
def _collective_setup(labels: tuple[str, ...]):
    """Register, annihilation coupler, lepton-absence measurement, the two
    photon superposition measurements, the electron creation operators, the
    positron split at phase 0, one positron at each site and the two photon
    resets of the collective chain, with its modes declared in the order
    ``labels``. A run splits the electron on those states at its phi. The
    coupler keeps the spectrum its first ``evolve`` computes."""
    reg = build_register([_CHAIN_MODES[label] for label in labels])

    def coupler(site: str) -> OperatorMatrix:
        # h + h^H for h = a_dag(ph) a(el) a(pos)
        return _ladder_hermitian(
            reg, ("ph_" + site,), ("el_" + site, "pos_" + site), 1.0
        )

    h_total = coupler("a") + coupler("b")
    vac = vacuum_state(reg)
    pos = _creations(reg, "pos")
    lepton_spec = _absence_measurement(
        reg, ("el_a", "el_b", "pos_a", "pos_b"), "leptons"
    )
    return (
        reg,
        h_total,
        lepton_spec,
        vacuum_one_superposition_basis(reg, "ph_a", "photon_a"),
        vacuum_one_superposition_basis(reg, "ph_b", "photon_b"),
        _creations(reg, "el"),
        _split(pos, 0.0, vac),
        apply(pos[0], apply(pos[1], vac, renormalize=True), renormalize=True),
        (_superposition_reset(reg, "ph_a"), _superposition_reset(reg, "ph_b")),
    )


def _collective_exact(
    phi: float, labels: tuple[str, ...]
) -> tuple[dict[str, float], StateVector, MeasurementSpec]:
    """Exact quantities of the collective chain for one declaration order,
    with the direct variant's state before post-selection and the
    lepton-absence measurement that post-selects it."""
    (reg, h_total, lepton_spec, spec_pa, spec_pb,
     el, split_pos, pos_per_site, resets) = _collective_setup(labels)
    quarter = math.pi / 2.0
    out: dict[str, float] = {}

    # direct variant: both species split with the positron at phase zero,
    # annihilated for a quarter period at each site, post-select all
    # leptons gone
    direct = evolve(_split(el, phi, split_pos), h_total, quarter)
    photon_state, p_direct = post_select(direct, lepton_spec, "absent")
    out["direct_postselection_probability"] = p_direct
    out["direct_photon_fidelity"] = photon_state.fidelity(
        prepare_superposition(reg, "ph_a", "ph_b", phi)
    )

    # stage 1: one positron per site, electron split
    psi1 = evolve(_split(el, phi, pos_per_site), h_total, quarter)

    # stage 2: photon superposition measurements, keep (+, +)
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
    psi3 = apply(resets[1], apply(resets[0], psi2))
    psi4 = _split(el, phi, psi3)
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
    return embed(reg, {mode: np.array([[s, s], [s, -s]])})


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

    report = ExperimentReport(
        experiment="collective-chain",
        params={"phi": phi},
        seed=seed,
        shots=shots,
        analytic={**out, "ordering_gap": ordering_gap},
    )
    report.require(abs(out["direct_postselection_probability"] - 0.5), ANALYTIC_ATOL)
    report.require(1.0 - out["direct_photon_fidelity"], 1e-9)
    report.require(abs(out["stage2_postselection_probability"] - 0.25), ANALYTIC_ATOL)
    report.require(1.0 - out["positron_fidelity_exchange"], 1e-9)
    report.require(out["positron_fidelity_naive"], 1e-9)
    report.require(abs(out["stage3_postselection_probability"] - 0.5), ANALYTIC_ATOL)
    report.require(1.0 - out["stage3_phase_pi_fidelity"], 1e-9)
    report.require(ordering_gap, ANALYTIC_ATOL)
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
    _, baseline, specs, dist0 = _aux_phase_exact(
        phi, ModeKind.BOSON, _AUX_SITE_ORDER
    )
    kicked_test_only = _kicked(baseline, "test_b", kick)
    kicked_both = _kicked(kicked_test_only, "aux_b", kick)
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
    )
    for cond in (cond0, cond1, cond2):
        report.require(abs(cond - 0.5), ANALYTIC_ATOL)
    report.require(tvd_both, ANALYTIC_ATOL)
    report.require(abs(coinc0 - pred0), ANALYTIC_ATOL)
    report.require(abs(coinc2 - pred2), ANALYTIC_ATOL)
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

"""Projective measurements, Born-rule sampling and post-selection.

A measurement is a complete set of mutually orthogonal projectors with
outcome labels. Joint sampling of several measurements requires them to
commute pairwise; a histogram of shots is one multinomial draw from the
exact joint Born distribution on a counter-based Philox generator keyed by
``SeedSequence(seed, spawn_key=(stream,))``. A run is reproducible from its
seed, and each draw within it takes its own stream number, so no two
(seed, stream) pairs share a generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .errors import (
    ImpossibleOutcomeError,
    InvalidCutoffError,
    KindMismatchError,
    NonCommutingSpecsError,
    SimulationError,
    SiteMismatchError,
)
from .fock import (
    ModeKind,
    ModeRegister,
    Site,
    StateVector,
    _check_same_register,
)
from .operators import (
    OperatorMatrix,
    commutator_norm,
    embed,
    pair_exchange,
    quadrature,
)

#: Projector algebra tolerance (hermiticity, idempotence, orthogonality,
#: completeness, site locality).
PROJECTOR_ATOL = 1e-10

#: Allowed drift of a joint distribution's total from 1 before sampling.
#: States are normalized to NORM_ATOL, so a valid total is within ~2e-10.
_TOTAL_PROBABILITY_ATOL = 1e-9


@dataclass(frozen=True)
class MeasurementSpec:
    """Labeled complete set of orthogonal projectors.

    Validation: every projector is hermitian and idempotent, distinct
    projectors are orthogonal and together they sum to the identity (a NaN
    entry fails each of these checks). Whether the projectors act only on
    one site is not part of the spec; ``site_locality_gap(spec, site)``
    answers it on request (fermionic sign strings can reach across sites).
    """

    name: str
    projectors: tuple[tuple[str, OperatorMatrix], ...]

    def __post_init__(self):
        if not self.projectors:
            raise ValueError("measurement needs at least one projector")
        reg = self.register
        labels = [l for l, _ in self.projectors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate outcome labels in {self.name!r}")
        mats = [p.elements for _, p in self.projectors]
        for (label, p), m in zip(self.projectors, mats):
            _check_same_register(reg, p.register)
            if not np.abs(m - m.conj().T).max() <= PROJECTOR_ATOL:
                raise ValueError(f"projector {label!r} of {self.name!r} not hermitian")
            if not np.abs(m @ m - m).max() <= PROJECTOR_ATOL:
                raise ValueError(f"projector {label!r} of {self.name!r} not idempotent")
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                if not np.abs(mats[i] @ mats[j]).max() <= PROJECTOR_ATOL:
                    raise ValueError(
                        f"projectors {labels[i]!r}, {labels[j]!r} of "
                        f"{self.name!r} not orthogonal"
                    )
        total = sum(mats)
        if not np.abs(total - np.eye(reg.dim)).max() <= PROJECTOR_ATOL:
            raise ValueError(f"projectors of {self.name!r} do not sum to identity")

    @property
    def register(self) -> ModeRegister:
        return self.projectors[0][1].register

    def projector(self, outcome: str) -> OperatorMatrix:
        for label, p in self.projectors:
            if label == outcome:
                return p
        raise ValueError(f"{self.name!r} has no outcome {outcome!r}")


@dataclass(frozen=True)
class ShotRecord:
    """One sampled shot: outcome label per measurement name."""

    outcomes: dict[str, str]
    shot_index: int


def site_locality_gap(spec: MeasurementSpec, site: Site) -> float:
    """Max-norm distance of the spec's projectors P from
    Tr_out(P)/d_out (x) I_out, "out" being the modes outside ``site``. At
    most PROJECTOR_ATOL means the projectors act as the identity on
    everything outside the site; a fermionic sign string crossing the site
    boundary shows up as a positive gap."""
    return _site_gap(spec.projectors, site)


def _site_gap(projectors, site: Site) -> float:
    reg = projectors[0][1].register
    inside = [q for q, m in enumerate(reg.modes) if m.site is site]
    order = inside + [q for q in range(len(reg.modes)) if q not in inside]
    d_in = int(np.prod([reg.dims[q] for q in inside], initial=1))
    d_out = reg.dim // d_in
    # one copy of the stacked projectors, regrouped as (k, in, out, in, out)
    stack = np.array([p.elements for _, p in projectors])
    axes = [0] + [1 + q for q in order] + [1 + len(order) + q for q in order]
    t = stack.reshape((-1,) + reg.dims * 2).transpose(axes)
    t = t.reshape(-1, d_in, d_out, d_in, d_out)
    # subtract Tr_out(P)/d_out from the out-diagonal blocks; what is left
    # is P - Tr_out(P)/d_out (x) I_out
    out = np.arange(d_out)
    blocks = t[:, :, out, :, out]
    t[:, :, out, :, out] = blocks - blocks.sum(axis=0) / d_out
    return float(np.abs(t).max())


def spin_direction_measurement(
    register: ModeRegister, twolevel_mode: str, theta: float, name: str | None = None
) -> MeasurementSpec:
    """Two-outcome measurement of cos(theta) sz + sin(theta) sx on a two-level
    mode, excited level identified with spin up. Outcomes "+1" / "-1";
    theta = pi reproduces the theta = 0 projectors with swapped labels."""
    spec = register.mode(twolevel_mode)
    if spec.kind is not ModeKind.TWO_LEVEL:
        raise KindMismatchError(
            f"{twolevel_mode!r} must be two-level, is {spec.kind.value}"
        )
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sz = np.diag([-1.0, 1.0])
    sigma = np.cos(theta) * sz + np.sin(theta) * sx
    eye = np.eye(2)
    projectors = tuple(
        (label, OperatorMatrix(register, embed(register, {twolevel_mode: local})))
        for label, local in (("+1", (eye + sigma) / 2.0), ("-1", (eye - sigma) / 2.0))
    )
    return MeasurementSpec(name or f"spin({twolevel_mode})", projectors)


def plus_minus_basis(
    register: ModeRegister, mode1: str, mode2: str, name: str | None = None
) -> MeasurementSpec:
    """Measurement distinguishing the one-particle states
    (|10> +/- |01>)/sqrt(2) of a same-site mode pair, built from the
    particle-transfer operator so it is independent of mode declaration
    order. Outcomes "+", "-" and "other" (zero or two particles)."""
    s1, s2 = register.mode(mode1), register.mode(mode2)
    if s1.site is not s2.site:
        raise SiteMismatchError(
            f"{mode1!r} at {s1.site.value} vs {mode2!r} at {s2.site.value}"
        )
    if s1.cutoff != 1 or s2.cutoff != 1:
        raise InvalidCutoffError("plus/minus basis needs cutoff-1 modes")
    t = pair_exchange(register, mode1, mode2).elements
    t2 = t @ t
    eye = np.eye(register.dim)
    projectors = (
        ("+", OperatorMatrix(register, (t2 + t) / 2.0)),
        ("-", OperatorMatrix(register, (t2 - t) / 2.0)),
        ("other", OperatorMatrix(register, eye - t2)),
    )
    return MeasurementSpec(name or f"pm({mode1},{mode2})", projectors)


def vacuum_one_superposition_basis(
    register: ModeRegister, mode: str, name: str | None = None
) -> MeasurementSpec:
    """Measurement of (|0> +/- |1>)/sqrt(2) on one mode's lowest two levels,
    plus an "other" outcome for occupations >= 2 when the cutoff allows them.

    Built from blocks on this mode alone: for a fermion mode this is the
    idealized construction that ignores sign strings (physically
    implementable only for bosons; see quadrature_basis for the honest
    fermionic counterpart)."""
    spec = register.mode(mode)
    blocks = []
    for label, sign in (("+", 1.0), ("-", -1.0)):
        block = np.zeros((spec.dim, spec.dim))
        block[:2, :2] = [[0.5, sign * 0.5], [sign * 0.5, 0.5]]
        blocks.append((label, block))
    if spec.cutoff > 1:
        blocks.append(("other", np.diag(np.arange(spec.dim) >= 2).astype(float)))
    projectors = [
        (label, OperatorMatrix(register, embed(register, {mode: block})))
        for label, block in blocks
    ]
    return MeasurementSpec(name or f"vac1({mode})", tuple(projectors))


def quadrature_basis(
    register: ModeRegister, mode: str, name: str | None = None
) -> MeasurementSpec:
    """Eigenbasis of the quadrature a_dag + a of a cutoff-1 mode.

    For bosons this coincides with vacuum_one_superposition_basis. For a
    fermion mode the quadrature carries its anticommutation sign string, so
    the "measurement" is not local to the mode's site: its
    ``site_locality_gap`` at that site is positive."""
    spec = register.mode(mode)
    if spec.cutoff != 1:
        raise InvalidCutoffError("quadrature basis supported for cutoff-1 modes")
    x = quadrature(register, mode).elements
    eye = np.eye(register.dim)
    projectors = (
        ("+1", OperatorMatrix(register, (eye + x) / 2.0)),
        ("-1", OperatorMatrix(register, (eye - x) / 2.0)),
    )
    return MeasurementSpec(name or f"quad({mode})", projectors)


def _check_commuting(specs: list[MeasurementSpec]) -> None:
    for i in range(len(specs)):
        for j in range(i + 1, len(specs)):
            for _, p in specs[i].projectors:
                for _, q in specs[j].projectors:
                    if not commutator_norm(p, q) <= PROJECTOR_ATOL:
                        raise NonCommutingSpecsError(
                            f"{specs[i].name!r} and {specs[j].name!r} do not "
                            f"commute; no joint distribution exists"
                        )


def joint_distribution(
    state: StateVector, specs: list[MeasurementSpec]
) -> dict[tuple[str, ...], float]:
    """Exact joint Born distribution of pairwise-commuting measurements."""
    if not specs:
        raise ValueError("need at least one measurement spec")
    for s in specs:
        _check_same_register(state.register, s.register)
    _check_commuting(specs)
    dist = {}
    for combo in iter_product(*(s.projectors for s in specs)):
        v = state.amplitudes
        for _, p in combo:
            v = p.elements @ v
        dist[tuple(label for label, _ in combo)] = float(np.real(np.vdot(v, v)))
    return dist


def born_probabilities(state: StateVector, spec: MeasurementSpec) -> dict[str, float]:
    """Outcome probabilities of one measurement: its joint distribution
    keyed by outcome label."""
    return {label: p for (label,), p in joint_distribution(state, [spec]).items()}


def _draw(
    state: StateVector, specs: list[MeasurementSpec], shots: int, seed: int,
    stream: int,
) -> tuple[list[str], list[tuple[str, ...]], np.ndarray, np.random.Generator | None]:
    """Validate a sampling request and draw its histogram: spec names, joint
    outcomes, the count of each outcome and the generator drawn from (None
    when no shot is drawn). The counts are one multinomial draw from the
    joint law on a Philox generator keyed by
    ``SeedSequence(seed, spawn_key=(stream,))``: every (seed, stream) pair
    has its own stream, and (s, 1) does not reuse (s + 1, 0)."""
    if shots < 0:
        raise ValueError("shots must be >= 0")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError("measurement specs must have unique names for sampling")
    dist = joint_distribution(state, specs)
    combos = list(dist.keys())
    if shots == 0:
        return names, combos, np.zeros(len(combos), dtype=np.int64), None
    probs = np.array([dist[c] for c in combos])
    # written so that a NaN probability fails both checks
    if not probs.min() >= -PROJECTOR_ATOL:
        raise SimulationError(
            f"joint probability {probs.min():.3e} is below -{PROJECTOR_ATOL:.0e}"
        )
    if not abs(probs.sum() - 1.0) <= _TOTAL_PROBABILITY_ATOL:
        raise SimulationError(
            f"joint probabilities sum to 1 + {probs.sum() - 1.0:.3e}, beyond "
            f"the bound {_TOTAL_PROBABILITY_ATOL:.0e}"
        )
    weights = np.clip(probs, 0.0, None)
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream,)))
    )
    return names, combos, rng.multinomial(shots, weights / weights.sum()), rng


def sample(
    state: StateVector, specs: list[MeasurementSpec], shots: int, seed: int,
    *, stream: int = 0,
) -> list[ShotRecord]:
    """Draw independent shots from the joint Born distribution.

    The histogram is ``sample_counts``'s for the same (seed, stream); the
    shots are that histogram in an order shuffled by the same generator,
    so it is deterministic given the seed and stream.
    """
    names, combos, counts, rng = _draw(state, specs, shots, seed, stream)
    picks = np.repeat(np.arange(len(combos)), counts)
    if rng is not None:
        rng.shuffle(picks)
    return [
        ShotRecord(outcomes=dict(zip(names, combos[k])), shot_index=i)
        for i, k in enumerate(picks)
    ]


def sample_counts(
    state: StateVector, specs: list[MeasurementSpec], shots: int, seed: int,
    *, stream: int = 0,
) -> dict[tuple[str, ...], int]:
    """Histogram of ``shots`` draws from the joint Born distribution: one
    multinomial draw on the stream of (seed, stream). A run that samples
    several histograms gives each its own ``stream``."""
    _, combos, counts, _ = _draw(state, specs, shots, seed, stream)
    return {c: int(k) for c, k in zip(combos, counts)}


def post_select(
    state: StateVector, spec: MeasurementSpec, outcome: str
) -> tuple[StateVector, float]:
    """Project onto one outcome and renormalize; returns (state, probability)."""
    _check_same_register(state.register, spec.register)
    p = spec.projector(outcome)
    v = p.elements @ state.amplitudes
    prob = float(np.real(np.vdot(v, v)))
    if prob < 1e-12:
        raise ImpossibleOutcomeError(
            f"outcome {outcome!r} of {spec.name!r} has probability {prob:.3e}"
        )
    return StateVector(state.register, v / np.sqrt(prob)), prob

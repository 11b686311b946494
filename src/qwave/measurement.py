"""Projective measurements, Born-rule sampling and post-selection.

A measurement is a complete set of mutually orthogonal projectors with
outcome labels. Joint sampling of several measurements requires them to
commute pairwise; a histogram of shots is one multinomial draw from the
exact joint Born distribution on a counter-based Philox generator keyed by
``SeedSequence(seed, spawn_key=(stream,))``. A run is reproducible from its
seed, and each draw within it takes its own stream number, so no two
(seed, stream) pairs share a generator.

The projector algebra is checked exactly: each residual matrix E (P^2 - P,
P_i P_j, sum P - I or PQ - QP) is formed from the projectors' nonzero
entries and read as its largest entry, max |E_ij|. A product costs one
scalar product per pair of entries that meet, so a projector with a few
entries per row costs a few per entry, and every verdict is deterministic.

The four public spec constructors share one memo of the ``_KEPT_SPECS``
specs asked for most recently: equal arguments of equal types on equal
registers get back the spec that the first call built and validated, so
a phi sweep that rebuilds its specs for every fresh register pays the
checks once.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (
    ImpossibleOutcomeError,
    InvalidCutoffError,
    KindMismatchError,
    NonCommutingSpecsError,
    SimulationError,
    SiteMismatchError,
    check_within,
)
from .fock import (
    ModeKind,
    ModeRegister,
    Site,
    StateVector,
    _check_same_register,
)
from .operators import OperatorMatrix, _ladder_hermitian, _residuals, embed, identity

#: Projector algebra tolerance (hermiticity, idempotence, orthogonality,
#: completeness, site locality).
PROJECTOR_ATOL = 1e-10

#: Allowed drift of a joint distribution's total from 1 before sampling.
#: States are normalized to NORM_ATOL, so a valid total is within ~2e-10.
_TOTAL_PROBABILITY_ATOL = 1e-9

#: Most specs the public constructors keep, all four together; the least
#: recently used goes first. perfbench's library pipelines ask for 10
#: distinct specs (4 spin, 6 quadrature). The largest spec at
#: MAX_REGISTER_DIM holds 655 376 B (640 KiB and 16 B), row layouts
#: included, so 16 of them hold 10.0 MiB.
_KEPT_SPECS = 16


@dataclass(frozen=True, eq=False)
class MeasurementSpec:
    """Labeled complete set of orthogonal projectors.

    Validation: every projector is hermitian and idempotent, distinct
    projectors are orthogonal and together they sum to the identity (a NaN
    entry fails each of these checks). Hermiticity is read exactly over
    each projector's nonzero pattern, as ``OperatorMatrix.eigh`` reads it.
    Once every projector has passed, one pass forms the exact residuals of
    the other three (see the module docstring), or raises
    DimensionBudgetError before it forms products beyond the budget.
    Whether the projectors act only on one site is not part of the spec;
    ``site_locality_gap(spec, site)`` answers it on request (fermionic sign
    strings can reach across sites).

    Specs hold their (label, projector) pairs as a tuple and compare and
    hash by identity. Each keeps a weak set of the specs it has passed
    ``joint_distribution``'s commuting check with, so a pair that has
    passed is not read again. The public constructors hand back one spec
    for equal arguments, so a spec list rebuilt on a fresh register meets
    that set and its commuting check is a lookup.
    """

    name: str
    projectors: tuple[tuple[str, OperatorMatrix], ...]

    def __post_init__(self):
        object.__setattr__(self, "projectors",
                           tuple((label, p) for label, p in self.projectors))
        object.__setattr__(self, "_commutes", weakref.WeakSet())
        if not self.projectors:
            raise ValueError("measurement needs at least one projector")
        reg = self.register
        labels = [l for l, _ in self.projectors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate outcome labels in {self.name!r}")
        for _, p in self.projectors:
            _check_same_register(reg, p.register)
        ops = [p for _, p in self.projectors]
        for label, p in zip(labels, ops):
            check_within(p._hermiticity_gap(), PROJECTOR_ATOL,
                         "projector %r of %r not hermitian", label, self.name)
        # P_k P_k - P_k for each k, P_i P_j for each i < j, sum_k P_k - I
        n = len(ops)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        last = n + len(pairs)
        gaps = _residuals(
            reg.dim, last + 1,
            [(k, 1.0, p, p) for k, p in enumerate(ops)]
            + [(n + s, 1.0, ops[i], ops[j]) for s, (i, j) in enumerate(pairs)],
            [(k, -1.0, p) for k, p in enumerate(ops)]
            + [(last, 1.0, p) for p in ops] + [(last, -1.0, identity(reg))])
        for label, gap in zip(labels, gaps):
            check_within(gap, PROJECTOR_ATOL,
                         "projector %r of %r not idempotent", label, self.name)
        for (i, j), gap in zip(pairs, gaps[n:]):
            check_within(gap, PROJECTOR_ATOL, "projectors %r, %r of %r not orthogonal",
                         labels[i], labels[j], self.name)
        check_within(gaps[last], PROJECTOR_ATOL,
                     "projectors of %r do not sum to identity", self.name)

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
    reg = spec.register
    inside = [q for q, m in enumerate(reg.modes) if m.site is site]
    order = inside + [q for q in range(len(reg.modes)) if q not in inside]
    d_in = int(np.prod([reg.dims[q] for q in inside], initial=1))
    d_out = reg.dim // d_in
    # one copy of the stacked projectors, regrouped as (k, in, out, in, out)
    stack = np.array([p.elements for _, p in spec.projectors])
    axes = [0] + [1 + q for q in order] + [1 + len(order) + q for q in order]
    t = stack.reshape((-1,) + reg.dims * 2).transpose(axes)
    t = t.reshape(-1, d_in, d_out, d_in, d_out)
    # subtract Tr_out(P)/d_out from the out-diagonal blocks; what is left
    # is P - Tr_out(P)/d_out (x) I_out
    out = np.arange(d_out)
    blocks = t[:, :, out, :, out]
    t[:, :, out, :, out] = blocks - blocks.sum(axis=0) / d_out
    return float(np.abs(t).max())


@functools.lru_cache(maxsize=_KEPT_SPECS, typed=True)
def _memo(build, *args, **kwargs) -> MeasurementSpec:
    return build(*args, **kwargs)


def _kept(build):
    """``build``, kept in the memo: equal arguments of equal types on equal
    registers get back the spec the first call built and validated. A
    failed build is not kept, and arguments that cannot be a key (a 0-d
    array theta) build afresh."""

    @functools.wraps(build)
    def kept(*args, **kwargs):
        try:
            hash((args, tuple(kwargs.items())))
        except TypeError:
            return build(*args, **kwargs)
        return _memo(build, *args, **kwargs)

    return kept


@_kept
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
        (label, embed(register, {twolevel_mode: local}))
        for label, local in (("+1", (eye + sigma) / 2.0), ("-1", (eye - sigma) / 2.0))
    )
    return MeasurementSpec(name or f"spin({twolevel_mode})", projectors)


@_kept
def plus_minus_basis(
    register: ModeRegister, mode1: str, mode2: str, name: str | None = None
) -> MeasurementSpec:
    """Measurement distinguishing the one-particle states
    (|10> +/- |01>)/sqrt(2) of a same-site mode pair, built from the
    particle-transfer operator t = x_dag y + y_dag x so it is independent of
    mode declaration order: (t^2 +/- t)/2 for outcomes "+" and "-", I - t^2
    for "other" (zero or two particles). t^2 = n_x (1 - n_y) + (1 - n_x) n_y
    is a sum of ``embed`` operators, so every projector keeps its pattern."""
    s1, s2 = register.mode(mode1), register.mode(mode2)
    if s1.site is not s2.site:
        raise SiteMismatchError(
            f"{mode1!r} at {s1.site.value} vs {mode2!r} at {s2.site.value}"
        )
    if s1.cutoff != 1 or s2.cutoff != 1:
        raise InvalidCutoffError("plus/minus basis needs cutoff-1 modes")
    # a repeated mode raises here, before anything else is built
    half_t = _ladder_hermitian(register, (mode1,), (mode2,), 0.5)
    n0, n1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    half_one = (embed(register, {mode1: n1 / 2.0, mode2: n0})
                + embed(register, {mode1: n0 / 2.0, mode2: n1}))
    plus, minus = half_one + half_t, half_one - half_t
    projectors = (("+", plus), ("-", minus),
                  ("other", identity(register) - (plus + minus)))
    return MeasurementSpec(name or f"pm({mode1},{mode2})", projectors)


@_kept
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
        (label, embed(register, {mode: block}))
        for label, block in blocks
    ]
    return MeasurementSpec(name or f"vac1({mode})", tuple(projectors))


@_kept
def quadrature_basis(
    register: ModeRegister, mode: str, name: str | None = None
) -> MeasurementSpec:
    """Eigenbasis of the quadrature a_dag + a of a cutoff-1 mode.

    For bosons this coincides with vacuum_one_superposition_basis. For a
    fermion mode the quadrature carries its anticommutation sign string, so
    the "measurement" is not local to the mode's site: its
    ``site_locality_gap`` at that site is positive. The projectors
    (I +/- x)/2 are built from ``embed`` and x/2, so each keeps its pattern."""
    spec = register.mode(mode)
    if spec.cutoff != 1:
        raise InvalidCutoffError("quadrature basis supported for cutoff-1 modes")
    plus = (embed(register, {mode: np.diag([0.5, 0.5])})
            + _ladder_hermitian(register, (), (mode,), 0.5))
    projectors = (("+1", plus), ("-1", identity(register) - plus))
    return MeasurementSpec(name or f"quad({mode})", projectors)


def _check_commuting(specs: list[MeasurementSpec]) -> None:
    """Every pair of projectors from two different specs commutes, read as
    max |PQ - QP| exactly, one pass per pair of specs on their shared
    register. A pair of specs that passed once is not read again; a failing
    pair is read, and raises, on every call."""
    for i, s in enumerate(specs):
        for t in specs[i + 1:]:
            if t in s._commutes:
                continue
            pairs = [(p, q) for _, p in s.projectors for _, q in t.projectors]
            products = [product for k, (p, q) in enumerate(pairs)
                        for product in ((k, 1.0, p, q), (k, -1.0, q, p))]
            gap = _residuals(s.register.dim, len(pairs), products).max()
            check_within(gap, PROJECTOR_ATOL, "%r and %r do not commute, max |PQ - QP|",
                         s.name, t.name, error=NonCommutingSpecsError)
            s._commutes.add(t)
            t._commutes.add(s)


def joint_distribution(
    state: StateVector, specs: list[MeasurementSpec]
) -> dict[tuple[str, ...], float]:
    """Exact joint Born distribution of pairwise-commuting measurements, in
    ``itertools.product`` order; each prefix P_k ... P_1 psi is made once.

    The state keeps the last law computed on it with its specs, as one
    tuple, so threads that race read one whole pair. A call with the same
    specs in the same order (compared by identity) gets a fresh copy of
    that law and computes nothing."""
    key = tuple(specs)
    kept = state.__dict__.get("_joint")
    if kept is not None and kept[0] == key:
        return dict(kept[1])
    if not specs:
        raise ValueError("need at least one measurement spec")
    for s in specs:
        _check_same_register(state.register, s.register)
    _check_commuting(specs)
    prefixes = [((), state.amplitudes)]
    for s in specs:
        prefixes = [(labels + (label,), p._dot(v))
                    for labels, v in prefixes for label, p in s.projectors]
    law = {labels: float(np.real(np.vdot(v, v))) for labels, v in prefixes}
    object.__setattr__(state, "_joint", (key, law))
    return dict(law)


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
    combos = list(dist)
    if shots == 0:
        return names, combos, np.zeros(len(combos), dtype=np.int64), None
    probs = np.array(list(dist.values()))
    check_within(-probs.min(), PROJECTOR_ATOL,
                 "negative joint probability, -min", error=SimulationError)
    check_within(abs(probs.sum() - 1.0), _TOTAL_PROBABILITY_ATOL,
                 "joint probabilities do not sum to 1, |total - 1|",
                 error=SimulationError)
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
    v = p._dot(state.amplitudes)
    prob = float(np.real(np.vdot(v, v)))
    if prob < 1e-12:
        raise ImpossibleOutcomeError(
            f"outcome {outcome!r} of {spec.name!r} has probability {prob:.3e}"
        )
    return StateVector(state.register, v / np.sqrt(prob)), prob

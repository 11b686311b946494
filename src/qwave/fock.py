"""Occupation-number registers, state vectors and reduced density matrices.

A register is an ordered list of modes (bosonic, fermionic or two-level),
each truncated at a finite occupation cutoff. The composite Hilbert space
is the tensor product of the per-mode spaces, indexed in mixed radix with
the first declared mode as the most significant digit. Mode order is fixed
at construction: the fermionic sign conventions in :mod:`qwave.operators`
depend on it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionBudgetError,
    DuplicateLabelError,
    InvalidCutoffError,
    OccupationOutOfRangeError,
    RegisterMismatchError,
    UnknownModeError,
    check_within,
)

#: Tolerance for state normalization and hermiticity checks.
NORM_ATOL = 1e-10

#: Largest register dimension accepted. Operators keep only their nonzero
#: entries; the limit bounds what grows with the dimension: a state vector
#: (64 KiB at the limit), ``occupation_table`` (dim x modes int64), a kept spec
#: (655 376 B with its row layouts, measurement._KEPT_SPECS) and a kept rabi
#: setup (196 KiB, protocols._RABI_SETUPS).
MAX_REGISTER_DIM = 4096


class ModeKind(Enum):
    BOSON = "boson"
    FERMION = "fermion"
    TWO_LEVEL = "two_level"


class Site(Enum):
    """Spatial region tag for a mode."""

    A = "A"
    B = "B"
    O = "O"
    GLOBAL = "global"


@dataclass(frozen=True)
class ModeSpec:
    """One quantum degree of freedom: label, statistics, cutoff and region."""

    label: str
    kind: ModeKind
    cutoff: int = 1
    site: Site = Site.GLOBAL

    def __post_init__(self):
        # operator.index accepts Python and numpy integers, nothing else;
        # a bool is an int to it, but no cutoff
        try:
            if isinstance(self.cutoff, bool):
                raise TypeError
            object.__setattr__(self, "cutoff", operator.index(self.cutoff))
        except TypeError:
            raise InvalidCutoffError(
                f"mode {self.label!r}: cutoff must be an integer, "
                f"got {self.cutoff!r}"
            ) from None
        if self.kind in (ModeKind.FERMION, ModeKind.TWO_LEVEL):
            if self.cutoff != 1:
                raise InvalidCutoffError(
                    f"mode {self.label!r}: {self.kind.value} modes have cutoff 1, "
                    f"got {self.cutoff}"
                )
        elif self.cutoff < 1:
            raise InvalidCutoffError(
                f"mode {self.label!r}: boson cutoff must be >= 1, got {self.cutoff}"
            )

    @property
    def dim(self) -> int:
        return self.cutoff + 1


def boson(label: str, cutoff: int = 1, site: Site = Site.GLOBAL) -> ModeSpec:
    return ModeSpec(label, ModeKind.BOSON, cutoff, site)


def fermion(label: str, site: Site = Site.GLOBAL) -> ModeSpec:
    return ModeSpec(label, ModeKind.FERMION, 1, site)


def two_level(label: str, site: Site = Site.GLOBAL) -> ModeSpec:
    return ModeSpec(label, ModeKind.TWO_LEVEL, 1, site)


class ModeRegister:
    """Ordered collection of modes defining a composite Hilbert space.

    Basis states are occupation tuples ``(n_0, ..., n_{k-1})`` mapped to flat
    indices in mixed radix, first mode most significant. The order of the
    modes is part of the physics: fermionic operators anticommute through a
    sign string that counts occupations of earlier-declared fermion modes.
    """

    def __init__(self, modes: Sequence[ModeSpec]):
        modes = tuple(modes)
        labels = [m.label for m in modes]
        if len(set(labels)) != len(labels):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            raise DuplicateLabelError(f"duplicate mode labels: {dupes}")
        dims = tuple(m.dim for m in modes)
        dim = math.prod(dims)
        if dim > MAX_REGISTER_DIM:
            raise DimensionBudgetError(
                f"register dimension {dim} exceeds the budget of "
                f"{MAX_REGISTER_DIM}"
            )
        self.modes = modes
        self.dims = dims
        self.dim = dim
        self._position = {m.label: i for i, m in enumerate(modes)}

    def __eq__(self, other) -> bool:
        return isinstance(other, ModeRegister) and self.modes == other.modes

    def __hash__(self) -> int:
        return hash(self.modes)

    def __repr__(self) -> str:
        parts = ", ".join(f"{m.label}:{m.kind.value}({m.cutoff})" for m in self.modes)
        return f"ModeRegister[{parts}]"

    def position(self, label: str) -> int:
        try:
            return self._position[label]
        except KeyError:
            raise UnknownModeError(f"no mode labeled {label!r} in {self!r}") from None

    def mode(self, label: str) -> ModeSpec:
        return self.modes[self.position(label)]

    def index_of(self, occ: Sequence[int]) -> int:
        """Flat basis index of an occupation tuple (first mode most significant)."""
        occ = tuple(occ)
        if len(occ) != len(self.modes):
            raise OccupationOutOfRangeError(
                f"occupation length {len(occ)} != {len(self.modes)} modes"
            )
        for n, m in zip(occ, self.modes):
            if not 0 <= n <= m.cutoff:
                raise OccupationOutOfRangeError(
                    f"occupation {n} out of range for mode {m.label!r} "
                    f"(cutoff {m.cutoff})"
                )
        if not occ:
            return 0
        return int(np.ravel_multi_index(occ, self.dims))

    def occupation_table(self) -> np.ndarray:
        """All occupations as a (dim, n_modes) int array, built afresh on
        each call; row i is the occupation of basis index i (the inverse of
        :meth:`index_of`)."""
        digits = np.indices(self.dims, dtype=np.int64)
        return digits.reshape(len(self.dims), self.dim).T

    def sub_register(self, keep: Iterable[str]) -> "ModeRegister":
        """Register of the kept modes, preserving declaration order."""
        keep = set(keep)
        for label in keep:
            self.position(label)
        return ModeRegister([m for m in self.modes if m.label in keep])


def build_register(specs: Sequence[ModeSpec]) -> ModeRegister:
    """Build a register from mode specs; validates labels and cutoffs."""
    specs = tuple(specs)
    if not specs:
        raise ValueError("register needs at least one mode")
    return ModeRegister(specs)


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state over a register's occupation basis. Immutable:
    its amplitudes are read-only. It keeps the last joint law that
    ``measurement.joint_distribution`` computed on it, with that law's
    specs, so a histogram drawn after the exact law reuses it."""

    register: ModeRegister
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).copy()
        if amps.shape != (self.register.dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({self.register.dim},)"
            )
        check_within(abs(np.linalg.norm(amps) - 1.0), NORM_ATOL,
                     "state not normalized, |norm - 1|")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>."""
        _check_same_register(self.register, other.register)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "StateVector") -> float:
        """|<self|other>|^2, i.e. agreement up to a global phase."""
        return float(abs(self.overlap(other)) ** 2)


def from_amplitudes(
    register: ModeRegister, amplitudes: Sequence[complex], normalize: bool = False
) -> StateVector:
    """Wrap raw amplitudes as a StateVector, optionally renormalizing."""
    amps = np.asarray(amplitudes, dtype=complex)
    if normalize:
        nrm = np.linalg.norm(amps)
        if nrm < 1e-12:
            raise ValueError("cannot normalize a (numerically) zero vector")
        amps = amps / nrm
    return StateVector(register, amps)


def vacuum_state(register: ModeRegister) -> StateVector:
    amps = np.zeros(register.dim, dtype=complex)
    amps[0] = 1.0
    return StateVector(register, amps)


def basis_state(register: ModeRegister, occ: Sequence[int]) -> StateVector:
    amps = np.zeros(register.dim, dtype=complex)
    amps[register.index_of(occ)] = 1.0
    return StateVector(register, amps)


def prepare_superposition(
    register: ModeRegister, mode_a: str, mode_b: str, phi: float
) -> StateVector:
    """Single particle split over two modes with relative phase phi.

    Returns ``(|1>_a |0>_b + e^{i phi} |0>_a |1>_b) / sqrt(2)`` with every
    other mode in its vacuum state.
    """
    pa, pb = register.position(mode_a), register.position(mode_b)
    if pa == pb:
        raise UnknownModeError("the two modes must be distinct")
    occ_a = [0] * len(register.modes)
    occ_b = [0] * len(register.modes)
    occ_a[pa] = 1
    occ_b[pb] = 1
    amps = np.zeros(register.dim, dtype=complex)
    amps[register.index_of(occ_a)] = 1.0 / np.sqrt(2.0)
    amps[register.index_of(occ_b)] = np.exp(1j * phi) / np.sqrt(2.0)
    return StateVector(register, amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over a register."""

    register: ModeRegister
    elements: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.elements, dtype=complex).copy()
        d = self.register.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({d}, {d})")
        check_within(np.abs(mat - mat.conj().T).max(), NORM_ATOL,
                     "density matrix not hermitian")
        check_within(abs(np.trace(mat).real - 1.0), NORM_ATOL,
                     "density matrix trace not 1, |trace - 1|")
        check_within(-np.linalg.eigvalsh(mat).min(), NORM_ATOL,
                     "density matrix not positive, -min eigenvalue")
        mat.flags.writeable = False
        object.__setattr__(self, "elements", mat)

    def expectation(self, vector: np.ndarray) -> float:
        """<v| rho |v> for a raw complex vector of matching dimension."""
        v = np.asarray(vector, dtype=complex)
        return float(np.real(np.vdot(v, self.elements @ v)))


def partial_trace(state: StateVector, keep: Iterable[str]) -> DensityMatrix:
    """Reduced density matrix over the kept modes.

    Fermion modes are traced in the usual convention: the kept modes, in
    their declared order, are moved in front of the dropped ones before the
    trace. A basis state is a product of creation operators in declaration
    order, so moving kept fermion mode k past dropped fermion mode t
    declared before it multiplies its amplitude by (-1)^(n_t n_k). Without
    that sign, the reduced state would depend on where the dropped modes
    were declared; with it, the reduced states of one state declared in any
    two orders differ only by the order of the kept modes.

    Parameters
    ----------
    state:
        Pure state on the full register.
    keep:
        Labels of the modes to keep. The result is ordered by the modes'
        original declaration order, regardless of the order given here.
        An empty set traces out everything, yielding the 1x1 matrix [[1.0]]
        over the empty register.
    """
    register = state.register
    keep = set(keep)
    keep_pos = sorted(register.position(l) for l in keep)
    drop_pos = [i for i in range(len(register.modes)) if i not in keep_pos]
    sub = register.sub_register(keep)
    tensor = state.amplitudes.reshape(register.dims)
    fermions = {p for p, m in enumerate(register.modes) if m.kind is ModeKind.FERMION}
    # n_t n_k summed over each dropped fermion mode t before a kept one k,
    # on the fermion axes of the tensor only
    exponent = sum(_occupation_axis(register, t) * _occupation_axis(register, k)
                   for k in keep_pos for t in drop_pos
                   if t < k and {t, k} <= fermions)
    if np.ndim(exponent):
        tensor = np.where(exponent % 2 == 1, -tensor, tensor)
    rho = np.tensordot(tensor, tensor.conj(), axes=(drop_pos, drop_pos))
    # tensordot leaves kept axes of ket then bra; flatten each side
    rho = rho.reshape(sub.dim, sub.dim)
    return DensityMatrix(sub, rho)


def _occupation_axis(register: ModeRegister, position: int) -> np.ndarray:
    """The occupations 0 and 1 of the fermion mode at ``position``, along
    its axis of the register's amplitude tensor."""
    return np.arange(2).reshape(
        [2 if q == position else 1 for q in range(len(register.modes))])


def _check_same_register(a: ModeRegister, b: ModeRegister) -> None:
    if a != b:
        raise RegisterMismatchError(f"registers differ: {a!r} vs {b!r}")

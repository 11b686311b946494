"""Ladder operators, interaction couplers, coherent states, exact evolution.

Fermionic annihilation lowers a mode's occupation and multiplies by
``(-1)**(sum of occupations of earlier-declared fermion modes)``. The sign
string is confined to the fermionic sector of the register (graded tensor
product), so operators of different statistics commute by construction,
while fermion operators on distinct modes anticommute. Two-level modes
behave like stringless hardcore modes: annihilation is the lowering
operator taking the excited level to the ground level.

Time evolution is exact: ``exp(-iHt)`` through the eigendecomposition of
the (hermitian) generator. No series expansion, no Trotterization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, pdtrc

from .errors import (
    KindMismatchError,
    NotHermitianError,
    TailBoundExceededError,
)
from .fock import (
    NORM_ATOL,
    ModeKind,
    ModeRegister,
    StateVector,
    _check_same_register,
)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix acting on a register's Hilbert space."""

    register: ModeRegister
    elements: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.elements, dtype=complex).copy()
        d = self.register.dim
        if mat.shape != (d, d):
            raise ValueError(f"operator has shape {mat.shape}, expected ({d}, {d})")
        mat.flags.writeable = False
        object.__setattr__(self, "elements", mat)

    def dag(self) -> "OperatorMatrix":
        return OperatorMatrix(self.register, self.elements.conj().T)

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition; requires hermiticity."""
        gap = np.abs(self.elements - self.elements.conj().T).max()
        if not gap <= NORM_ATOL:  # a NaN gap fails too
            raise NotHermitianError("eigendecomposition requires a hermitian operator")
        return np.linalg.eigh(self.elements)

    def expectation(self, state: StateVector) -> complex:
        _check_same_register(self.register, state.register)
        return complex(np.vdot(state.amplitudes, self.elements @ state.amplitudes))

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        _check_same_register(self.register, other.register)
        return OperatorMatrix(self.register, self.elements @ other.elements)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        _check_same_register(self.register, other.register)
        return OperatorMatrix(self.register, self.elements + other.elements)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        _check_same_register(self.register, other.register)
        return OperatorMatrix(self.register, self.elements - other.elements)

    def __mul__(self, scalar: complex) -> "OperatorMatrix":
        return OperatorMatrix(self.register, self.elements * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "OperatorMatrix":
        return OperatorMatrix(self.register, -self.elements)


def identity(register: ModeRegister) -> OperatorMatrix:
    return OperatorMatrix(register, np.eye(register.dim, dtype=complex))


def embed(register: ModeRegister, factors: dict[str, np.ndarray]) -> np.ndarray:
    """Dense tensor product, in declaration order, of the given per-mode
    matrices, with the identity on every other mode.

    Built by scattering nonzeros rather than chaining Kronecker products:
    the factors' nonzero entries combine into flat (row, col) offsets and
    values, which land once on every basis index whose factor digits are
    all zero. The cost is a constant number of numpy calls plus one write
    per nonzero of the result.
    """
    dims = register.dims
    positions = sorted(register.position(label) for label in factors)
    rows = cols = np.zeros(1, dtype=np.intp)
    vals = np.ones(1)
    for p in positions:
        local = np.asarray(factors[register.modes[p].label])
        if local.shape != (dims[p], dims[p]):
            raise ValueError(
                f"factor for {register.modes[p].label!r} has shape "
                f"{local.shape}, expected ({dims[p]}, {dims[p]})"
            )
        stride = math.prod(dims[p + 1 :])
        r, c = np.nonzero(local)
        rows = (rows[:, None] + r * stride).ravel()
        cols = (cols[:, None] + c * stride).ravel()
        vals = (vals[:, None] * local[r, c]).ravel()
    zero_digits = tuple(0 if q in positions else slice(None) for q in range(len(dims)))
    base = np.arange(register.dim).reshape(dims)[zero_digits].reshape(-1, 1)
    mat = np.zeros((register.dim, register.dim), dtype=complex)
    mat[base + rows, base + cols] = vals
    return mat


#: Jordan-Wigner sign factor (-1)**n of an earlier fermion mode.
_PARITY = np.diag([1.0, -1.0])


def _lowering(dim: int) -> np.ndarray:
    """Truncated lowering matrix sqrt(n) |n-1><n| of one mode."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def annihilation(register: ModeRegister, mode: str) -> OperatorMatrix:
    """Annihilation operator of the named mode.

    Bosonic modes get the usual sqrt(n) matrix elements within the cutoff.
    Fermionic modes get matrix elements +/-1 with the sign string over
    earlier-declared fermion modes, which makes distinct fermion operators
    anticommute. Two-level modes are the stringless lowering operator.
    """
    p = register.position(mode)
    spec = register.modes[p]
    factors = {}
    if spec.kind is ModeKind.FERMION:
        factors = {
            m.label: _PARITY for m in register.modes[:p] if m.kind is ModeKind.FERMION
        }
    factors[mode] = _lowering(spec.dim)
    return OperatorMatrix(register, embed(register, factors))


def creation(register: ModeRegister, mode: str) -> OperatorMatrix:
    return annihilation(register, mode).dag()


def number_operator(register: ModeRegister, mode: str) -> OperatorMatrix:
    n = np.arange(register.mode(mode).dim)
    return OperatorMatrix(register, embed(register, {mode: np.diag(n)}))


def quadrature(register: ModeRegister, mode: str) -> OperatorMatrix:
    """The hermitian combination a_dag + a of the named mode.

    For a fermion mode this includes the sign string, so quadratures of
    distinct fermion modes do not commute; bosonic ones do.
    """
    a = annihilation(register, mode)
    return OperatorMatrix(register, a.elements + a.elements.conj().T)


def pair_exchange(register: ModeRegister, mode1: str, mode2: str) -> OperatorMatrix:
    """Particle-transfer operator x_dag y + y_dag x between two modes.

    Even in each fermion operator pair, so for adjacent modes it is local
    to the pair; its eigenvalues on the one-particle sector are +/-1 with
    eigenstates (|10> +/- |01>)/sqrt(2).
    """
    x = annihilation(register, mode1)
    y = annihilation(register, mode2)
    t = x.elements.conj().T @ y.elements
    return OperatorMatrix(register, t + t.conj().T)


def swap_coupler(
    register: ModeRegister, boson_mode: str, twolevel_mode: str, strength: float
) -> OperatorMatrix:
    """Excitation-swapping coupler between a field mode and a two-level mode.

    H = strength * (a_dag |g><e| + a |e><g|): one field quantum converts to
    one excitation of the two-level system and back. Conserves the total
    excitation number; |0, g> is dark.
    """
    bk = register.mode(boson_mode).kind
    tk = register.mode(twolevel_mode).kind
    if bk is not ModeKind.BOSON:
        raise KindMismatchError(f"{boson_mode!r} must be bosonic, is {bk.value}")
    if tk is not ModeKind.TWO_LEVEL:
        raise KindMismatchError(f"{twolevel_mode!r} must be two-level, is {tk.value}")
    raise_field = _lowering(register.mode(boson_mode).dim).T
    h = embed(register, {boson_mode: raise_field, twolevel_mode: _lowering(2)})
    return OperatorMatrix(register, strength * (h + h.conj().T))


def nucleon_coupler(
    register: ModeRegister, meson_mode: str, nucleon_mode: str, strength: float
) -> OperatorMatrix:
    """Charge-exchange coupler: absorbing a field quantum flips the two-level
    nucleon from its ground level (proton) to its excited level (neutron).

    This is :func:`swap_coupler` with the levels relabeled; the meson mode
    must be bosonic and the nucleon mode two-level.
    """
    return swap_coupler(register, meson_mode, nucleon_mode, strength)


def poisson_tail(alpha: complex, cutoff: int) -> float:
    """Probability mass of a coherent state's occupation above the cutoff.

    ``pdtrc`` is the Poisson survival function ``scipy.stats.poisson.sf``
    computes; calling it directly keeps ``scipy.stats`` off the import path.
    A mean |alpha|^2 beyond the float range leaves all the mass in the tail.
    """
    try:
        mean = abs(alpha) ** 2
    except OverflowError:
        return 1.0
    return float(pdtrc(cutoff, mean))


def coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Amplitudes exp(-|a|^2/2) a^n / sqrt(n!) for n = 0..cutoff (not renormalized)."""
    n = np.arange(cutoff + 1)
    mag = np.abs(alpha)
    if mag == 0.0:
        amps = np.zeros(cutoff + 1, dtype=complex)
        amps[0] = 1.0
        return amps
    log_mag = -0.5 * mag**2 + n * np.log(mag) - 0.5 * gammaln(n + 1.0)
    phase = n * np.angle(alpha)
    return np.exp(log_mag) * np.exp(1j * phase)


def coherent_state(
    register: ModeRegister, mode: str, alpha: complex, tail_bound: float
) -> StateVector:
    """Truncated, renormalized coherent state on one bosonic mode.

    Fails loudly (TailBoundExceededError) if the Poisson occupation tail
    above the mode cutoff exceeds ``tail_bound``; silent truncation would
    corrupt the rotation-rate guarantees downstream.
    """
    p = register.position(mode)
    mspec = register.modes[p]
    if mspec.kind is not ModeKind.BOSON:
        raise KindMismatchError(f"{mode!r} must be bosonic for a coherent state")
    tail = poisson_tail(alpha, mspec.cutoff)
    if tail > tail_bound:
        raise TailBoundExceededError(
            f"occupation tail {tail:.3e} above cutoff {mspec.cutoff} exceeds "
            f"bound {tail_bound:.3e} for alpha={alpha}"
        )
    mode_amps = coherent_amplitudes(alpha, mspec.cutoff)
    mode_amps = mode_amps / np.linalg.norm(mode_amps)
    amps = np.zeros(register.dims, dtype=complex)
    only_this_mode = [0] * len(register.dims)
    only_this_mode[p] = slice(None)
    amps[tuple(only_this_mode)] = mode_amps
    return StateVector(register, amps.ravel())


def phase_kick(register: ModeRegister, mode: str, phi: float) -> OperatorMatrix:
    """Diagonal unitary exp(i phi n) on the named mode's occupation n.

    Models a potential pulse acting on whatever charge sits in the mode;
    kicks compose additively in phi.
    """
    n = np.arange(register.mode(mode).dim)
    kick = np.diag(np.exp(1j * phi * n))
    return OperatorMatrix(register, embed(register, {mode: kick}))


def evolve(state: StateVector, hamiltonian: OperatorMatrix, t: float) -> StateVector:
    """Exact exp(-iHt)|psi> via the spectral decomposition of H."""
    _check_same_register(state.register, hamiltonian.register)
    w, v = hamiltonian.eigh()
    phases = np.exp(-1j * w * t)
    amps = v @ (phases * (v.conj().T @ state.amplitudes))
    return StateVector(state.register, amps)


def apply(
    op: OperatorMatrix, state: StateVector, renormalize: bool = False
) -> StateVector:
    """Apply an operator matrix to a state.

    With ``renormalize`` the result is rescaled to unit norm (state
    preparation with creation-operator polynomials, isometries). Without
    it, the result must already be normalized (unitaries); norm drift
    raises, signaling a bug rather than hiding it.
    """
    _check_same_register(op.register, state.register)
    amps = op.elements @ state.amplitudes
    if renormalize:
        nrm = np.linalg.norm(amps)
        if nrm < 1e-12:
            raise ValueError("operator annihilated the state; cannot renormalize")
        amps = amps / nrm
    return StateVector(state.register, amps)


def commutator_norm(x: OperatorMatrix, y: OperatorMatrix) -> float:
    """Max-norm of the commutator XY - YX."""
    _check_same_register(x.register, y.register)
    c = x.elements @ y.elements - y.elements @ x.elements
    return float(np.abs(c).max())

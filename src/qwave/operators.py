"""Ladder operators, interaction couplers, coherent states, exact evolution.

Fermionic annihilation lowers a mode's occupation and multiplies by
``(-1)**(sum of occupations of earlier-declared fermion modes)``. The sign
string is confined to the fermionic sector of the register (graded tensor
product), so operators of different statistics commute by construction,
while fermion operators on distinct modes anticommute. Two-level modes
behave like stringless hardcore modes: annihilation is the lowering
operator taking the excited level to the ground level.

Time evolution is exact: ``exp(-iHt)`` through the eigendecomposition of
each connected block of the (hermitian) generator, computed once per
operator. The couplers conserve excitation or charge, so a generator is
block diagonal up to a permutation of the basis, and its blocks are small.
No series expansion, no Trotterization.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionBudgetError,
    KindMismatchError,
    NotHermitianError,
    TailBoundExceededError,
    UnknownModeError,
    check_within,
)
from .fock import (
    MAX_REGISTER_DIM,
    NORM_ATOL,
    ModeKind,
    ModeRegister,
    StateVector,
    _check_same_register,
    _sq_norm,
    from_amplitudes,
)


@dataclass(frozen=True, eq=False, init=False)
class OperatorMatrix:
    """Complex matrix acting on a register's Hilbert space, kept as its
    nonzero entries: their flat indices ``row * dim + col``, ascending (its
    pattern), and their values, both read-only. ``OperatorMatrix(register,
    array)`` scans a caller's array once for them (a NaN entry is nonzero);
    every other operator comes from entries by one rule, :meth:`_of`'s:
    the entries of ``identity``, ``embed`` and the builders on it, and of
    sums, differences, products, scalar multiples, ``-x`` and ``dag()``,
    are sorted by index, summed at equal indices in the order given, and
    kept less the sums that are exactly 0. ``elements`` builds the dense
    read-only matrix afresh on each read and keeps nothing; everything else
    reads the entries, and only this module reads or writes them. Operators
    compare and hash by identity."""

    register: ModeRegister

    def __init__(self, register: ModeRegister, elements) -> None:
        mat = np.asarray(elements, dtype=complex)
        d = register.dim
        if mat.shape != (d, d):
            raise ValueError(f"operator has shape {mat.shape}, expected ({d}, {d})")
        pattern = np.flatnonzero(mat)
        # a fancy index copies, so the caller's array is not shared
        self.__dict__.update(register=register, _pattern=pattern,
                             _values=mat.reshape(-1)[pattern])
        self.__post_init__()

    @classmethod
    def _of(cls, register: ModeRegister, pattern: np.ndarray,
            values: np.ndarray) -> "OperatorMatrix":
        """The operator on ``register`` whose entry at each flat index is
        the sum of the ``values`` given at it in ``pattern``: the indices in
        any order, the values summed in the order given by :func:`_summed`,
        and the sums that are exactly 0 dropped (a NaN stays)."""
        pattern, values = _summed(pattern, values.astype(complex, copy=False))
        keep = values != 0
        op = object.__new__(cls)
        op.__dict__.update(register=register, _pattern=pattern[keep],
                           _values=values[keep])
        op.__post_init__()
        return op

    def __post_init__(self):  # setups share operators across runs
        self._pattern.flags.writeable = False
        self._values.flags.writeable = False

    @property
    def elements(self) -> np.ndarray:
        """The dense matrix, read-only and C-contiguous, built afresh."""
        d = self.register.dim
        mat = np.zeros((d, d), dtype=complex)
        mat.reshape(-1)[self._pattern] = self._values
        mat.flags.writeable = False
        return mat

    def dag(self) -> "OperatorMatrix":
        d = self.register.dim
        rows, cols = np.divmod(self._pattern, d)
        return OperatorMatrix._of(self.register, cols * d + rows, self._values.conj())

    def _hermiticity_gap(self) -> float:
        """max |H[r, c] - conj(H[c, r])|, the dense scan max |H - H^H|: the
        entries and their mirrored, negated conjugates summed as
        :meth:`_of` sums them, without building an operator. An index that
        neither reaches gives 0, and a NaN gap carries through."""
        d = self.register.dim
        rows, cols = np.divmod(self._pattern, d)
        _, sums = _summed(np.concatenate((self._pattern, cols * d + rows)),
                          np.concatenate((self._values, -self._values.conj())))
        return np.abs(sums).max(initial=0.0)

    def _laid_out(self) -> tuple:
        """The row layout of :func:`_row_layout`, built on the first call
        and kept; threads that race may each build one, and all get the one
        kept."""
        layout = self.__dict__.get("_layout")
        if layout is None:
            layout = self.__dict__.setdefault(
                "_layout", _row_layout(self._pattern, self.register.dim))
        return layout

    def _dot(self, x: np.ndarray) -> np.ndarray:
        """The product of this operator with ``x``, a vector or a block of
        columns of length dim: each row's products summed in column
        order."""
        cols, _, rows, starts = self._laid_out()
        terms = (self._values if x.ndim == 1 else self._values[:, None]) * x[cols]
        if starts is None:
            return terms
        sums = np.add.reduceat(terms, starts)
        if rows is None:
            return sums
        out = np.zeros(x.shape, dtype=sums.dtype)
        out[rows] = sums
        return out

    def eigh(self) -> "BlockSpectrum":
        """Eigendecomposition block by block; requires hermiticity. Computed
        on the first call and kept on the operator, whose elements are
        read-only."""
        spectrum = self.__dict__.get("_spectrum")
        if spectrum is None:
            check_within(self._hermiticity_gap(), NORM_ATOL,
                         "eigendecomposition requires a hermitian operator",
                         error=NotHermitianError)
            rows, cols = np.divmod(self._pattern, self.register.dim)
            # like np.linalg.eigh, the blocks read the lower triangle
            lower = rows > cols
            label = _connected_components(self.register.dim, rows[lower], cols[lower])
            spectrum = BlockSpectrum.of(label, rows, cols, self._values)
            object.__setattr__(self, "_spectrum", spectrum)
        return spectrum

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        _check_same_register(self.register, other.register)
        return OperatorMatrix._of(self.register,
                                  *_sums(self.register.dim, [(0, 1.0, self, other)]))

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        _check_same_register(self.register, other.register)
        return OperatorMatrix._of(self.register,
                                  np.concatenate((self._pattern, other._pattern)),
                                  np.concatenate((self._values, other._values)))

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        # where both hold an entry, a + (-b) is a - b in IEEE arithmetic
        _check_same_register(self.register, other.register)
        return OperatorMatrix._of(self.register,
                                  np.concatenate((self._pattern, other._pattern)),
                                  np.concatenate((self._values, -other._values)))

    def __mul__(self, scalar: complex) -> "OperatorMatrix":
        return OperatorMatrix._of(self.register, self._pattern, self._values * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "OperatorMatrix":
        return OperatorMatrix._of(self.register, self._pattern, -self._values)


def _row_layout(pattern: np.ndarray, dim: int) -> tuple:
    """The entries of an ascending flat pattern by row: each entry's column,
    the bounds of each row's entries (row k's are ``bounds[k]:bounds[k +
    1]``), and for ``np.add.reduceat``, which gives no 0 for an empty
    segment, the rows that hold an entry (None when all do) and where each
    starts (both None when each row holds one entry). Read-only arrays."""
    cols = pattern % dim
    bounds = pattern.searchsorted(np.arange(0, dim * dim + 1, dim))
    rows = starts = None
    if not np.array_equal(bounds, np.arange(dim + 1)):
        rows = np.flatnonzero(bounds[1:] > bounds[:-1])
        starts = bounds[rows]
        if len(rows) == dim:
            rows = None
    for a in (cols, bounds, rows, starts):
        if a is not None:
            a.flags.writeable = False
    return cols, bounds, rows, starts


def _summed(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys``, ascending, and the sum of the ``values`` at
    each by ``np.add.reduceat`` in the order given, which a stable sort
    keeps: a run of one sums to its value, a run of two to their IEEE
    sum, and a longer run in the fixed grouping of numpy's add-reduce."""
    order = keys.argsort(kind="stable")
    keys = keys[order]
    # where each run of equal keys starts
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return keys[starts], np.add.reduceat(values[order], starts)


#: The most scalar products that one pass of :func:`_sums` may form, at
#: about 57 bytes of temporaries each; two dense dim-128 matrices need 128**3.
_MAX_PRODUCTS = 1 << 21


def _sums(dim: int, products, terms=()) -> tuple[np.ndarray, np.ndarray]:
    """The terms of matrices R_s of dimension ``dim``, keyed ``s * dim**2
    + row * dim + col`` and not yet summed: R_s sums ``sign * a @ b`` for
    each ``(s, sign, a, b)`` of ``products``, then ``sign * a`` for each
    ``(s, sign, a)`` of ``terms``. Entry (i, k) of a times entry (k, j) of b
    is a term, given in a's pattern order, in b's column order, then the
    ``terms``; :func:`_summed` (or :meth:`OperatorMatrix._of`, which ends in
    it) sums each entry's terms in that order. Above ``_MAX_PRODUCTS``
    terms (over k, a's entries in column k times b's in row k) it raises
    DimensionBudgetError before forming any."""
    d2 = dim * dim
    slots, signs, lefts, rights = zip(*products)
    sizes = [len(a._pattern) for a in lefts]
    cols = np.concatenate([a._laid_out()[0] for a in lefts])
    rows = (np.concatenate([a._pattern for a in lefts]) - cols
            + np.repeat(np.multiply(slots, d2), sizes))
    # the row bounds of all the b's, counted among all their entries: the
    # n-th b's row k at n * (dim + 1) + k
    ahead = np.cumsum([0] + [len(b._pattern) for b in rights[:-1]])
    bounds = np.concatenate([b._laid_out()[1] for b in rights]) + np.repeat(ahead, dim + 1)
    at = np.repeat(np.arange(0, len(products) * (dim + 1), dim + 1), sizes) + cols
    lo = bounds[at]
    count = bounds[at + 1] - lo
    total = int(count.sum())
    if total > _MAX_PRODUCTS:
        raise DimensionBudgetError(f"a product of operators needs {total} scalar "
                                   f"products, more than the budget {_MAX_PRODUCTS}")
    take = np.arange(total) + np.repeat(lo - (np.cumsum(count) - count), count)
    left = np.concatenate([a._values for a in lefts]) * np.repeat(signs, sizes)
    right_cols = np.concatenate([b._laid_out()[0] for b in rights])
    keys = np.concatenate([np.repeat(rows, count) + right_cols[take],
                           *(a._pattern + s * d2 for s, _, a in terms)])
    values = np.concatenate([
        np.repeat(left, count) * np.concatenate([b._values for b in rights])[take],
        *(sign * a._values for _, sign, a in terms)])
    return keys, values


def _residuals(dim: int, slots: int, products, terms=()) -> np.ndarray:
    """max |R_s| over the entries of each of the ``slots`` R_s of :func:`_sums`."""
    keys, values = _summed(*_sums(dim, products, terms))
    d2 = dim * dim
    return np.array([np.abs(v).max(initial=0.0) for v in
                     np.split(values, keys.searchsorted(np.arange(d2, slots * d2, d2)))])


def _connected_components(dim: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Component label of each of ``dim`` basis indices in the graph whose
    edges join ``rows[e]`` and ``cols[e]`` (the nonzero entries of a
    matrix). Each label is the smallest index of its component.

    Min-label hooking with full pointer jumping: every round, each root
    points to the smallest root it shares an edge with, and every index
    then jumps to its new root. A round merges each root that has a
    smaller neighbouring root, so the rounds end when no edge joins two
    roots.
    """
    label = np.arange(dim)
    while len(rows):
        lr, lc = label[rows], label[cols]
        # an edge inside a component stays inside it
        joins = lr != lc
        rows, cols, lr, lc = rows[joins], cols[joins], lr[joins], lc[joins]
        np.minimum.at(label, np.maximum(lr, lc), np.minimum(lr, lc))
        jumped = label[label]
        while (jumped != label).any():
            label, jumped = jumped, jumped[jumped]
    return label


@dataclass(frozen=True, eq=False)
class BlockSpectrum:
    """Eigendecomposition of a hermitian matrix that is block diagonal up to
    a permutation of the basis, one group of equal-size blocks at a time.

    Each group is ``(index, w, v)``: ``index[k]`` holds the ascending basis
    indices of block k, ``w[k]`` its eigenvalues and ``v[k]`` its
    eigenvectors (columns), so ``H[index[k]][:, index[k]] = v[k] diag(w[k])
    v[k]^H``. Like ``np.linalg.eigh``, it reads each block's lower triangle.
    Spectra compare and hash by identity.

    ``order`` is the block order: the groups' ``index`` arrays, which are
    views of it, laid end to end, so by block size, then block, then basis
    index. :meth:`propagated`, the one propagation, yields amplitudes in
    that order: column j holds basis index ``order[j]``, each group fills
    its own contiguous columns, and ``amps[order] = row`` restores the
    basis order.

    A phase exp(-iwt) is ``cos(y) + i sin(y)`` with ``y = 0.0 - w t``,
    which has the bits of ``np.exp(-1j * w * t)`` for finite w t:
    ``-1j * w * t`` has a zero real part and the imaginary part y, and
    glibc's cexp of ``(±0, y)`` is ``(cos y, sin y)``. In a 2 x 2 group
    where every block's eigenvalues mirror, ``w[k, 0] == -w[k, 1]`` (as
    rabi's ±sqrt(n) do), the second column's phase is the conjugate of the
    first's, so one cos and one sin serve both.

    Only groups of blocks larger than 2 x 2 go through BLAS, by a batched
    ``np.matmul``. A 1 x 1 block's eigenvector is 1, so its coefficient is
    its amplitude and its output its phase times that. A 2 x 2 block's
    coefficients and output components are each two products and a sum,
    read from the block's eigenvector columns and, copied once per call,
    its rows, so the spectrum holds nothing more.
    """

    dim: int
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    order: np.ndarray

    @classmethod
    def of(
        cls, label: np.ndarray, rows: np.ndarray, cols: np.ndarray,
        values: np.ndarray,
    ) -> "BlockSpectrum":
        """Decompose the blocks that ``label`` gives (one label per basis
        index, shared by the indices of a block) of the matrix whose nonzero
        entries are ``values[k]`` at ``(rows[k], cols[k])``, each group of
        equal-size blocks by one batched ``np.linalg.eigh``. An entry that
        joins two blocks is not read."""
        d = len(label)
        size = np.bincount(label, minlength=d)[label]
        # by block size, then block, then basis index
        order = np.argsort(size * d + label, kind="stable")
        size = size[order]
        cuts = [0, *(np.flatnonzero(size[1:] != size[:-1]) + 1).tolist(), d]
        # each entry inside a block, by the place of its row and column in
        # ``order``
        inside = label[rows] == label[cols]
        place = np.empty(d, dtype=np.intp)
        place[order] = np.arange(d)
        at_row, at_col = place[rows[inside]], place[cols[inside]]
        values = values[inside]
        groups = []
        for start, stop in zip(cuts, cuts[1:]):
            s = size[start]
            index = order[start:stop].reshape(-1, s)
            here = (at_row >= start) & (at_row < stop)
            r, c = at_row[here] - start, at_col[here] - start
            blocks = np.zeros((len(index), s, s), dtype=complex)
            blocks[r // s, r % s, c % s] = values[here]
            if s == 1:  # a 1 x 1 block is its own decomposition
                w, v = blocks[:, 0].real, np.ones_like(blocks)
            else:
                w, v = np.linalg.eigh(blocks)
            # every caller of the operator's eigh shares these arrays
            for a in (index, w, v):
                a.flags.writeable = False
            groups.append((index, w, v))
        order.flags.writeable = False
        return cls(d, tuple(groups), order)

    @property
    def max_abs_eigenvalue(self) -> float:
        """Largest |eigenvalue|, the fastest phase rate of exp(-iHt)."""
        return max(float(np.abs(w).max()) for _, w, _ in self.groups)

    def propagated(self, amplitudes: np.ndarray, times, rows: int):
        """exp(-iHt) applied to ``amplitudes`` at ``times``, in block order
        (column j is basis index ``order[j]``), yielded for successive
        slices of at most ``rows`` times as arrays of shape ``(len(slice),
        dim)``, row i at the slice's i-th time. Each block's coefficients
        v^H amplitudes are computed once, before the first slice, and the
        slices share one buffer of angles, of phases and of products."""
        times = np.asarray(times, dtype=float).reshape(-1, 1)
        coeffs = [_coefficients(amplitudes, index, v) for index, _, v in self.groups]
        mirrored = [index.shape[1] == 2 and np.array_equal(w[:, 0], -w[:, 1])
                    for index, w, _ in self.groups]
        # a 2 x 2 group's eigenvectors by rows: row i of every block, made
        # contiguous, multiplies the phases in one loop over the group
        vecs = [v.transpose(1, 0, 2).copy() if index.shape[1] == 2 else v
                for index, _, v in self.groups]
        most = min(rows, len(times)) * max(index.size for index, _, _ in self.groups)
        angles = np.empty(most)
        phases, terms = np.empty(most, dtype=complex), np.empty(most, dtype=complex)
        for start in range(0, len(times), rows):
            at = times[start:start + rows]
            out = np.empty((len(at), self.dim), dtype=complex)
            col = 0
            for (index, w, _), v, c, mirror in zip(self.groups, vecs, coeffs, mirrored):
                blocks, s = index.shape
                # this group's columns, one row of blocks per time
                here = out[:, col:col + index.size].reshape(len(at), blocks, s)
                col += index.size
                # a 1 x 1 block's output is its phase times its coefficient
                ph = here if s == 1 else phases[:here.size].reshape(here.shape)
                _phases(w, at, mirror, angles, ph)
                ph *= c
                if s == 2:  # two products and a sum per component
                    t = terms[:here.size].reshape(here.shape)
                    for i in range(2):
                        np.multiply(v[i], ph, out=t)
                        np.add(t[..., 0], t[..., 1], out=here[..., i])
                elif s > 2:
                    here[...] = np.matmul(v, ph[..., None])[..., 0]
            yield out


def _phases(w: np.ndarray, at: np.ndarray, mirrored: bool, angles: np.ndarray,
            out: np.ndarray) -> None:
    """exp(-iwt) at each time of the column ``at`` into ``out``, of shape
    ``(len(at), *w.shape)``, with the bits of ``np.exp(-1j * w * at[...,
    None])`` wherever w t is finite: cos and sin of ``0.0 - w t``. If
    ``mirrored`` (w has two columns and ``w[:, 0] == -w[:, 1]``), the second
    column's phase is the conjugate of the first's, with the imaginary part
    ``0.0 - sin``. ``angles`` is scratch of at least ``out.size`` floats."""
    if mirrored:
        y = angles[:out.size // 2].reshape(out.shape[:2])
        np.subtract(0.0, np.multiply(w[:, 0], at, out=y), out=y)
        np.cos(y, out=out.real[..., 0])
        out.real[..., 1] = out.real[..., 0]
        np.sin(y, out=out.imag[..., 0])
        np.subtract(0.0, out.imag[..., 0], out=out.imag[..., 1])
    else:
        y = angles[:out.size].reshape(out.shape)
        np.subtract(0.0, np.multiply(w, at[..., None], out=y), out=y)
        np.cos(y, out=out.real)
        np.sin(y, out=out.imag)


def _coefficients(amplitudes: np.ndarray, index: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v[k]^H amplitudes[index[k]] for each block k of a group, as an array
    of shape ``(blocks, size)``; for 2 x 2 blocks, two products and a sum
    per coefficient."""
    s = index.shape[1]
    if s == 1:  # v is 1
        return amplitudes[index]
    if s == 2:
        terms = v.conj() * amplitudes[index][..., None]
        return terms[:, 0] + terms[:, 1]
    return np.matmul(amplitudes[index][:, None, :], v.conj())[:, 0]


def identity(register: ModeRegister) -> OperatorMatrix:
    d = register.dim
    return OperatorMatrix._of(register, np.arange(0, d * d, d + 1), np.ones(d))


#: One mode's factor as (dim, rows, cols, vals): the nonzero entries of a
#: dim x dim matrix, vals[k] at (rows[k], cols[k]).
_Factor = tuple[int, np.ndarray, np.ndarray, np.ndarray]


def embed(register: ModeRegister, factors: dict[str, np.ndarray]) -> OperatorMatrix:
    """Operator that is the tensor product, in declaration order, of the
    given per-mode matrices, with the identity on every other mode.

    Built by scattering nonzeros rather than chaining Kronecker products:
    the factors' nonzero entries combine into flat (row, col) offsets and
    values, which land once on every basis index whose factor digits are
    all zero. The cost is a constant number of numpy calls plus a sort of
    the result's nonzeros, which the operator keeps as its entries.
    """
    triplets = {}
    for p in sorted(register.position(label) for label in factors):
        mode = register.modes[p]
        local = np.asarray(factors[mode.label])
        if local.shape != (mode.dim, mode.dim):
            raise ValueError(
                f"factor for {mode.label!r} has shape {local.shape}, "
                f"expected ({mode.dim}, {mode.dim})"
            )
        r, c = np.nonzero(local)
        triplets[p] = (mode.dim, r, c, local[r, c])
    return _embed(register, triplets)


def _embed(register: ModeRegister, factors: dict[int, _Factor]) -> OperatorMatrix:
    """:func:`embed` of per-mode factors given by their nonzero entries and
    keyed by mode position."""
    return OperatorMatrix._of(register,
                              *_scatter(register, *_scatter_pattern(register, factors)))


def _scatter(
    register: ModeRegister, diagonal: np.ndarray, rows: np.ndarray,
    cols: np.ndarray, vals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices and values of the entries that
    :func:`_scatter_pattern` gives."""
    pattern = diagonal + (rows * register.dim + cols)
    values = np.empty(pattern.shape, dtype=complex)
    values[...] = vals
    return pattern.ravel(), values.ravel()


def _scatter_pattern(
    register: ModeRegister, factors: dict[int, _Factor]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where and what :func:`embed` keeps: entry (base + rows[k], base +
    cols[k]) takes vals[k], for every basis index ``base`` whose factor
    digits are all zero. Returns the flat indices ``base * (dim + 1)`` of
    those bases as a column, and rows, cols and vals over the products of
    the factors' nonzeros."""
    dims = register.dims
    positions = sorted(factors)
    rows = cols = np.zeros(1, dtype=np.intp)
    vals = np.ones(1)
    for p in positions:
        _, r, c, v = factors[p]
        stride = math.prod(dims[p + 1 :])
        rows = (rows[:, None] + r * stride).ravel()
        cols = (cols[:, None] + c * stride).ravel()
        vals = (vals[:, None] * v).ravel()
    zero_digits = tuple(0 if q in positions else slice(None) for q in range(len(dims)))
    d = register.dim
    diagonal = np.arange(0, d * d, d + 1).reshape(dims)[zero_digits].reshape(-1, 1)
    return diagonal, rows, cols, vals


def _ladder_hermitian(
    register: ModeRegister,
    create: Sequence[str],
    annihilate: Sequence[str],
    strength: complex,
) -> OperatorMatrix:
    """strength * (h + h^H) for the ladder product on distinct modes
    h = a_dag(create[0]) a_dag(create[1]) ... a(annihilate[0]) a(annihilate[1]) ...,
    kept as its entries.

    Each ladder operator is the embed of per-mode factors, so h is the
    embed of their products mode by mode. h changes some mode's occupation,
    so no nonzero v = h[r, c] has a nonzero mirror h[c, r], and the
    operator takes strength * v at (r, c) and strength * conj(v) at (c, r). A
    repeated mode would break this (a_dag a is diagonal), so it raises
    UnknownModeError before anything is built.
    """
    if len(set(create) | set(annihilate)) < len(create) + len(annihilate):
        raise UnknownModeError("the two modes must be distinct")
    terms = [_creation_factors(register, mode) for mode in create]
    terms += [_annihilation_factors(register, mode) for mode in annihilate]
    factors = {}
    for term in terms:
        for p, f in term.items():
            factors[p] = _product(factors[p], f) if p in factors else f
    diagonal, rows, cols, vals = _scatter_pattern(register, factors)
    upper = _scatter(register, diagonal, rows, cols, strength * vals)
    lower = _scatter(register, diagonal, cols, rows, strength * np.conj(vals))
    return OperatorMatrix._of(register, *map(np.concatenate, zip(upper, lower)))


def _dense(factor: _Factor) -> np.ndarray:
    dim, rows, cols, vals = factor
    mat = np.zeros((dim, dim), dtype=vals.dtype)
    mat[rows, cols] = vals
    return mat


def _product(f: _Factor, g: _Factor) -> _Factor:
    """The factor f g of two factors on one mode. Factors meet on a mode
    only where a fermion's sign string crosses another fermion's factor,
    so the product is a 2 x 2 matmul."""
    m = _dense(f) @ _dense(g)
    r, c = np.nonzero(m)
    return f[0], r, c, m[r, c]


#: Jordan-Wigner sign factor (-1)**n of an earlier fermion mode.
_PARITY: _Factor = (2, np.arange(2), np.arange(2), np.array([1.0, -1.0]))


def _lowering(dim: int) -> _Factor:
    """Truncated lowering matrix sqrt(n) |n-1><n| of one mode."""
    n = np.arange(1, dim)
    return dim, n - 1, n, np.sqrt(n)


def annihilation(register: ModeRegister, mode: str) -> OperatorMatrix:
    """Annihilation operator of the named mode.

    Bosonic modes get the usual sqrt(n) matrix elements within the cutoff.
    Fermionic modes get matrix elements +/-1 with the sign string over
    earlier-declared fermion modes, which makes distinct fermion operators
    anticommute. Two-level modes are the stringless lowering operator.
    """
    return _embed(register, _annihilation_factors(register, mode))


def _annihilation_factors(register: ModeRegister, mode: str) -> dict[int, _Factor]:
    """The per-mode factors, keyed by mode position, whose :func:`embed` is
    the annihilation operator: the lowering matrix on ``mode`` and, for a
    fermion, the sign string on every earlier-declared fermion mode."""
    p = register.position(mode)
    spec = register.modes[p]
    factors = {}
    if spec.kind is ModeKind.FERMION:
        factors = {
            q: _PARITY for q, m in enumerate(register.modes[:p])
            if m.kind is ModeKind.FERMION
        }
    factors[p] = _lowering(spec.dim)
    return factors


def _creation_factors(register: ModeRegister, mode: str) -> dict[int, _Factor]:
    """The per-mode factors whose :func:`embed` is the creation operator:
    the annihilation factors are real, so these are their transposes."""
    return {q: (dim, cols, rows, vals) for q, (dim, rows, cols, vals)
            in _annihilation_factors(register, mode).items()}


def creation(register: ModeRegister, mode: str) -> OperatorMatrix:
    return _embed(register, _creation_factors(register, mode))


def number_operator(register: ModeRegister, mode: str) -> OperatorMatrix:
    n = np.arange(register.mode(mode).dim)
    return embed(register, {mode: np.diag(n)})


def quadrature(register: ModeRegister, mode: str) -> OperatorMatrix:
    """The hermitian combination a_dag + a of the named mode.

    For a fermion mode this includes the sign string, so quadratures of
    distinct fermion modes do not commute; bosonic ones do.
    """
    return _ladder_hermitian(register, (), (mode,), 1.0)


def pair_exchange(register: ModeRegister, mode1: str, mode2: str) -> OperatorMatrix:
    """Particle-transfer operator x_dag y + y_dag x between two modes.

    Even in each fermion operator pair, so for adjacent modes it is local
    to the pair; its eigenvalues on the one-particle sector are +/-1 with
    eigenstates (|10> +/- |01>)/sqrt(2).
    """
    return _ladder_hermitian(register, (mode1,), (mode2,), 1.0)


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
    return _ladder_hermitian(register, (boson_mode,), (twolevel_mode,), strength)


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

    The Poisson terms exp(n log(m) - m - log(n!)) of the mean m = |alpha|^2
    are summed directly, all positive, over the smaller side: the tail
    above a cutoff at or above m, or else the head up to the cutoff, which
    is subtracted from 1. The sum stops w = 40 sqrt(min(m, cutoff + 1)) + 40
    terms away from the cutoff, where the rest is below exp(-800) of it.
    Within 1e-10 relative of ``scipy.stats.poisson.sf``.

    A cutoff above the largest any mode can have raises ValueError before
    anything is summed. A negative cutoff or a NaN alpha gives NaN, which no
    tail bound admits. A mean beyond the float range leaves all the mass in
    the tail.
    """
    if cutoff > MAX_REGISTER_DIM - 1:
        raise ValueError(
            f"cutoff must be at most {MAX_REGISTER_DIM - 1}, got {cutoff}")
    try:
        mean = abs(alpha) ** 2
    except OverflowError:
        return 1.0
    if cutoff < 0 or math.isnan(mean):
        return math.nan
    if mean == 0.0:
        return 0.0
    if math.isinf(mean):
        return 1.0
    width = math.floor(40.0 * math.sqrt(min(mean, cutoff + 1.0))) + 40
    above = cutoff >= mean
    lo, hi = (cutoff + 1, cutoff + width) if above else (max(0, cutoff - width), cutoff)
    n = np.arange(lo, hi + 1)
    mass = float(np.exp(n * math.log(mean) - mean - _log_factorials(hi)[lo:]).sum())
    return mass if above else 1.0 - mass


def check_tail_bound(alpha: complex, cutoff: int, tail_bound: float) -> None:
    """Raise TailBoundExceededError when the Poisson occupation tail of a
    coherent state above ``cutoff`` exceeds ``tail_bound`` or is NaN. A bound
    outside [0, 1) raises ValueError before any tail is computed: no tail
    exceeds 1, so such a bound would switch the guard off."""
    if not 0.0 <= tail_bound < 1.0:  # a NaN bound fails too
        raise ValueError(f"tail_bound must be in [0, 1), got {tail_bound}")
    check_within(poisson_tail(alpha, cutoff), tail_bound,
                 "occupation tail above cutoff %s for alpha=%s", cutoff, alpha,
                 error=TailBoundExceededError)


# log(n!) for n = 0, 1, ...: read-only, and replaced by a longer copy when a
# caller asks beyond its end
_LOG_FACTORIALS = np.zeros(0)
_LOG_FACTORIALS_LOCK = threading.Lock()


def _log_factorials(cutoff: int) -> np.ndarray:
    """log(n!) for n = 0..cutoff, a view of the shared table."""
    global _LOG_FACTORIALS
    with _LOG_FACTORIALS_LOCK:
        table = _LOG_FACTORIALS
        if len(table) <= cutoff:
            more = [math.lgamma(n + 1.0) for n in range(len(table), cutoff + 1)]
            table = np.concatenate([table, more])
            table.flags.writeable = False
            _LOG_FACTORIALS = table
        return table[: cutoff + 1]


def coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Amplitudes exp(-|a|^2/2) a^n / sqrt(n!) for n = 0..cutoff (not
    renormalized), with log(n!) = ``math.lgamma(n + 1)``: within 1e-10
    relative of the ``scipy.special.gammaln`` formula."""
    n = np.arange(cutoff + 1)
    mag = np.abs(alpha)
    if mag == 0.0:
        amps = np.zeros(cutoff + 1, dtype=complex)
        amps[0] = 1.0
        return amps
    log_mag = -0.5 * mag**2 + n * np.log(mag) - 0.5 * _log_factorials(cutoff)
    phase = n * np.angle(alpha)
    return np.exp(log_mag) * np.exp(1j * phase)


def coherent_state(
    register: ModeRegister, mode: str, alpha: complex, tail_bound: float
) -> StateVector:
    """Truncated, renormalized coherent state on one bosonic mode.

    Fails loudly (TailBoundExceededError, from :func:`check_tail_bound`) if
    the Poisson occupation tail above the mode cutoff exceeds
    ``tail_bound``; silent truncation would corrupt the rotation-rate
    guarantees downstream.
    """
    p = register.position(mode)
    mspec = register.modes[p]
    if mspec.kind is not ModeKind.BOSON:
        raise KindMismatchError(f"{mode!r} must be bosonic for a coherent state")
    check_tail_bound(alpha, mspec.cutoff, tail_bound)
    mode_amps = coherent_amplitudes(alpha, mspec.cutoff)
    mode_amps = mode_amps / math.sqrt(_sq_norm(mode_amps))
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
    return embed(register, {mode: kick})


def evolve(state: StateVector, hamiltonian: OperatorMatrix, t: float) -> StateVector:
    """Exact exp(-iHt)|psi> through the eigendecomposition of each connected
    block of H, which ``OperatorMatrix.eigh`` computes once per operator."""
    _check_same_register(state.register, hamiltonian.register)
    spectrum = hamiltonian.eigh()
    (row,), = spectrum.propagated(state.amplitudes, [t], 1)
    amps = np.empty_like(row)
    amps[spectrum.order] = row
    return StateVector(state.register, amps)


def apply(
    op: OperatorMatrix, state: StateVector, renormalize: bool = False
) -> StateVector:
    """Apply an operator matrix to a state; the result is wrapped by
    ``from_amplitudes(register, amplitudes, normalize=renormalize)``.

    With ``renormalize`` it is rescaled to unit norm (state preparation
    with creation-operator polynomials, isometries), and an operator that
    annihilates the state raises ValueError. Without it, the result must
    already be normalized (unitaries); norm drift raises, signaling a bug
    rather than hiding it.
    """
    _check_same_register(op.register, state.register)
    return from_amplitudes(
        state.register, op._dot(state.amplitudes), normalize=renormalize
    )


def commutator_norm(x: OperatorMatrix, y: OperatorMatrix) -> float:
    """Max-norm of the commutator XY - YX, from the exact products."""
    _check_same_register(x.register, y.register)
    return float(_residuals(x.register.dim, 1, [(0, 1.0, x, y), (0, -1.0, y, x)])[0])

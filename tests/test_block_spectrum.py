"""The block spectrum of ``OperatorMatrix.eigh`` against the dense one.

``eigh`` decomposes each connected block of a hermitian matrix's nonzero
pattern. The dense ``np.linalg.eigh`` propagation it replaced is kept here
as the oracle: exp(-iHt) applied both ways agrees to 1e-12. The block
propagation by ``np.exp`` phases that ``propagated`` replaced is kept as
the oracle of its bits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwave import (
    OperatorMatrix,
    Site,
    boson,
    build_register,
    collective_chain,
    evolve,
    fermion,
    from_amplitudes,
    nucleon_coupler,
    pair_exchange,
    quadrature,
    swap_coupler,
    two_level,
)
from qwave import operators, protocols

TIMES = [0.0, 0.3, 1.7, 5.0]


def _dense_propagate(mat, amplitudes, times):
    w, v = np.linalg.eigh(mat)
    return np.array([v @ (np.exp(-1j * w * t) * (v.conj().T @ amplitudes))
                     for t in times])


def _propagated_by_exp(spectrum, amplitudes, times):
    """The propagation that ``propagated`` replaced, in basis order: phases
    by ``np.exp`` and each group scattered to its basis indices. The
    arithmetic per element is the same, so ``propagated`` keeps its bits."""
    at = np.asarray(times, dtype=float).reshape(-1, 1, 1)
    out = np.empty((len(at), spectrum.dim), dtype=complex)
    for index, w, v in spectrum.groups:
        phases = np.exp(-1j * w * at)
        phases *= operators._coefficients(amplitudes, index, v)
        s = index.shape[1]
        if s == 1:
            out[:, index] = phases
        elif s == 2:
            for i in range(2):
                terms = v[:, i] * phases
                out[:, index[:, i]] = terms[..., 0] + terms[..., 1]
        else:
            out[:, index] = np.matmul(v, phases[..., None])[..., 0]
    return out


def _operator(mat) -> OperatorMatrix:
    return OperatorMatrix(build_register([boson("a", len(mat) - 1)]), mat)


def _assert_matches_dense(op: OperatorMatrix, seed: int = 0):
    rng = np.random.default_rng(seed)
    d = op.register.dim
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi = from_amplitudes(op.register, amps, normalize=True)
    spectrum = op.eigh()
    (blocked,) = spectrum.propagated(psi.amplitudes, TIMES, len(TIMES))
    assert blocked.shape == (len(TIMES), d)
    # the rows come in block order; column j is basis index order[j]
    got = np.empty_like(blocked)
    got[:, spectrum.order] = blocked
    dense = _dense_propagate(op.elements, psi.amplitudes, TIMES)
    assert np.abs(got - dense).max() < 1e-12
    by_exp = _propagated_by_exp(spectrum, psi.amplitudes, TIMES)
    assert np.array_equal(got.view(np.uint64), by_exp.view(np.uint64))
    # slices of fewer times give the same rows, and evolve is the same
    # propagation at one time (a batched matmul of a group larger than
    # 2 x 2 may round differently in a longer array)
    sliced = list(spectrum.propagated(psi.amplitudes, TIMES, 3))
    assert [len(rows) for rows in sliced] == [3, 1]
    assert np.abs(np.concatenate(sliced) - blocked).max() < 1e-15
    for t, row in zip(TIMES, got):
        assert np.abs(evolve(psi, op, t).amplitudes - row).max() < 1e-15


#: Eigenvalues whose phases lose bits most easily: signed zeros, the least
#: subnormal, rabi's sqrt(n), large ones and any in between
EIGENVALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e3, -1e3]),
    st.integers(1, 4096).map(math.sqrt),
    st.floats(-1e3, 1e3),
)
#: Times at which every phase w t stays finite; evolve takes negative ones
PHASE_TIMES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e300, 1e300))


@settings(max_examples=300, deadline=None)
@given(w=st.lists(EIGENVALUES, min_size=1, max_size=12), size=st.integers(1, 3),
       times=st.lists(PHASE_TIMES, min_size=1, max_size=4))
def test_phases_have_the_bits_of_the_complex_exponential(w, size, times):
    blocks = max(1, len(w) // size)
    w = np.resize(np.array(w), (blocks, size))
    at = np.array(times).reshape(-1, 1)
    want = np.exp(-1j * w * at[..., None])
    got = np.empty(want.shape, dtype=complex)
    operators._phases(w, at, False, np.empty(got.size), got)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(w=st.lists(EIGENVALUES, min_size=1, max_size=8),
       flip_zeros=st.booleans(), times=st.lists(PHASE_TIMES, min_size=1, max_size=4))
def test_mirrored_phases_have_the_bits_of_the_complex_exponential(w, flip_zeros, times):
    # rabi's 2 x 2 blocks have eigenvalues -sqrt(n) and sqrt(n); a zero
    # mirrors a zero of either sign
    second = np.array(w)
    first = np.where((second == 0) & flip_zeros, second, -second)
    w = np.stack([first, second], axis=1)
    assert np.array_equal(w[:, 0], -w[:, 1])
    at = np.array(times).reshape(-1, 1)
    want = np.exp(-1j * w * at[..., None])
    got = np.empty(want.shape, dtype=complex)
    operators._phases(w, at, True, np.empty(got.size), got)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _hermitian(rng, s):
    a = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
    return a + a.conj().T


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=2, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_planted_blocks_under_a_permutation_match_dense(sizes, seed):
    rng = np.random.default_rng(seed)
    d = sum(sizes)
    mat = np.zeros((d, d), dtype=complex)
    start = 0
    for s in sizes:
        mat[start:start + s, start:start + s] = _hermitian(rng, s)
        start += s
    perm = rng.permutation(d)
    op = _operator(mat[perm][:, perm])
    spectrum = op.eigh()
    # the search finds the planted blocks, one group per size
    found = [s for index, _, _ in spectrum.groups for s in [index.shape[1]] * len(index)]
    assert sorted(found) == sorted(sizes)
    assert len(spectrum.groups) == len(set(sizes))
    _assert_matches_dense(op, seed)


def test_one_dense_block_matches_dense():
    op = _operator(_hermitian(np.random.default_rng(1), 48))
    assert [index.shape for index, _, _ in op.eigh().groups] == [(1, 48)]
    _assert_matches_dense(op)


def test_tridiagonal_path_under_a_permutation_matches_dense():
    rng = np.random.default_rng(2)
    d = 64
    path = np.diag(rng.normal(size=d - 1) + 1j * rng.normal(size=d - 1), 1)
    mat = path + path.conj().T + np.diag(rng.normal(size=d))
    perm = rng.permutation(d)
    op = _operator(mat[perm][:, perm])
    assert [index.shape for index, _, _ in op.eigh().groups] == [(1, d)]
    _assert_matches_dense(op)


def test_diagonal_matrix_is_all_one_by_one_blocks():
    diag = np.random.default_rng(3).normal(size=32)
    op = _operator(np.diag(diag).astype(complex))
    ((index, w, v),) = op.eigh().groups
    assert index.shape == (32, 1)
    assert np.array_equal(w[:, 0], diag[index[:, 0]])
    assert op.eigh().max_abs_eigenvalue == np.abs(diag).max()
    _assert_matches_dense(op)


def _couplers():
    swap_reg = build_register([
        boson("light_a", 1, Site.A), boson("light_b", 1, Site.B),
        two_level("atom_a", Site.A), two_level("atom_b", Site.B),
    ])
    rabi_reg = build_register([boson("field", 24), two_level("atom")])
    nucleon_reg = build_register([boson("meson", 3), two_level("nucleon")])
    fermions = build_register([fermion("a", Site.A), fermion("b", Site.B),
                               fermion("c", Site.B)])
    yield "photon-swap", (swap_coupler(swap_reg, "light_a", "atom_a", 1.0)
                          + swap_coupler(swap_reg, "light_b", "atom_b", 1.0))
    yield "rabi", swap_coupler(rabi_reg, "field", "atom", 1.0)
    yield "nucleon", nucleon_coupler(nucleon_reg, "meson", "nucleon", 0.7)
    for order in (protocols._CHAIN_SITE_ORDER, protocols._CHAIN_SPECIES_ORDER):
        yield f"collective-chain {order}", protocols._collective_setup(order)[1]
    yield "pair-exchange", pair_exchange(fermions, "a", "c")
    yield "fermion-quadrature", quadrature(fermions, "b")


@pytest.mark.parametrize("name, op", list(_couplers()),
                         ids=[name for name, _ in _couplers()])
def test_every_coupler_matches_dense(name, op):
    _assert_matches_dense(op)


def test_spectrum_is_computed_once_per_operator(monkeypatch):
    op = dict(_couplers())["rabi"]
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    spectrum = op.eigh()
    assert op.eigh() is spectrum
    # 24 blocks {|n, g>, |n-1, e>} in one call; |0, g> and |24, e> are 1 x 1
    # blocks, which need no call
    assert calls == [(24, 2, 2)]
    assert [index.shape for index, _, _ in spectrum.groups] == [(2, 1), (24, 2)]
    # the one spectrum every caller shares cannot be written through
    assert not any(a.flags.writeable for group in spectrum.groups for a in group)
    assert not spectrum.order.flags.writeable


def test_collective_chain_decomposes_its_hamiltonian_once_per_order(monkeypatch):
    # one call per group of equal-size blocks larger than 1 x 1
    groups = [sum(index.shape[1] > 1 for index, _, _ in
                  protocols._collective_setup(order)[1].eigh().groups)
              for order in (protocols._CHAIN_SITE_ORDER,
                            protocols._CHAIN_SPECIES_ORDER)]
    assert groups == [2, 2]
    protocols._collective_setup.cache_clear()
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    # h_total evolves three states per declaration order
    assert collective_chain(0.3, 0, 1).passed
    assert len(calls) == sum(groups)
    # the coupler does not depend on phi: another run keeps its spectrum
    calls.clear()
    assert collective_chain(2.1, 0, 1).passed
    assert calls == []

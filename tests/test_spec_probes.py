"""Spec checks on exact products against the dense products.

``MeasurementSpec`` reads idempotence, orthogonality and completeness, and
``joint_distribution`` reads pairwise commutation, as the largest entry of
a residual formed exactly from the projectors' nonzero entries. The dense
max-element checks are kept here as the oracle: on every constructor's
specs and on random good and bad specs, both name the same first failing
check, or both accept. A perturbation that the fixed two-column probe
block once read as 0 is rejected, and a product beyond the budget raises
before it is formed.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwave import (
    DimensionBudgetError,
    MeasurementSpec,
    NonCommutingSpecsError,
    OperatorMatrix,
    RegisterMismatchError,
    Site,
    boson,
    build_register,
    commutator_norm,
    fermion,
    joint_distribution,
    plus_minus_basis,
    quadrature_basis,
    spin_direction_measurement,
    two_level,
    vacuum_one_superposition_basis,
    vacuum_state,
)
from qwave import measurement
from qwave.measurement import PROJECTOR_ATOL

# each check's name, as the spec's messages and the dense oracle give it
CHECKS = ("not hermitian", "not idempotent", "not orthogonal",
          "do not sum to identity")


def _dense_failure(mats) -> str | None:
    """The first check that dense max-element products fail, in the spec's
    order (each projector's hermiticity; then each one's idempotence; then
    each pair's orthogonality; then completeness), or None."""
    for m in mats:
        if not np.abs(m - m.conj().T).max() <= PROJECTOR_ATOL:
            return "not hermitian"
    for m in mats:
        if not np.abs(m @ m - m).max() <= PROJECTOR_ATOL:
            return "not idempotent"
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if not np.abs(mats[i] @ mats[j]).max() <= PROJECTOR_ATOL:
                return "not orthogonal"
    if not np.abs(sum(mats) - np.eye(len(mats[0]))).max() <= PROJECTOR_ATOL:
        return "do not sum to identity"
    return None


def _spec_failure(register, mats) -> str | None:
    """The check that ``MeasurementSpec`` fails on these projectors, or None."""
    projectors = tuple((str(k), OperatorMatrix(register, m))
                       for k, m in enumerate(mats))
    try:
        MeasurementSpec("s", projectors)
    except ValueError as exc:
        return next(name for name in CHECKS if name in str(exc))
    return None


def _dense_commute(a: MeasurementSpec, b: MeasurementSpec) -> bool:
    return all(np.abs(p.elements @ q.elements - q.elements @ p.elements).max()
               <= PROJECTOR_ATOL
               for _, p in a.projectors for _, q in b.projectors)


def _spec_commute(a: MeasurementSpec, b: MeasurementSpec) -> bool:
    try:
        measurement._check_commuting([a, b])
    except NonCommutingSpecsError:
        return False
    return True


# --- register check comes first -------------------------------------------------

def test_spec_from_two_registers_raises_register_mismatch():
    small = build_register([boson("a", 1)])
    for other in (build_register([boson("a", 2)]), build_register([boson("b", 1)])):
        projectors = (("0", OperatorMatrix(small, np.diag([1.0, 0.0]))),
                      ("1", OperatorMatrix(other, np.eye(other.dim))))
        with pytest.raises(RegisterMismatchError):
            MeasurementSpec("mixed", projectors)


def test_joint_distribution_on_another_register_raises_register_mismatch():
    reg = build_register([two_level("s"), two_level("t")])
    specs = [spin_direction_measurement(reg, m, 0.4, m) for m in ("s", "t")]
    for other in (build_register([two_level("s")]),
                  build_register([two_level("u"), two_level("t")])):
        with pytest.raises(RegisterMismatchError):
            joint_distribution(vacuum_state(other), specs)


# --- constructors, dims 4 to 512 ------------------------------------------------

MODES = st.tuples(st.sampled_from(["boson1", "boson2", "boson3", "fermion",
                                   "two_level"]),
                  st.sampled_from([Site.A, Site.B]))


def _register(modes):
    """The longest prefix of ``modes`` whose register has dim <= 512."""
    specs, dim = [], 1
    for i, (kind, site) in enumerate(modes):
        if kind == "fermion":
            spec = fermion(f"m{i}", site)
        elif kind == "two_level":
            spec = two_level(f"m{i}", site)
        else:
            spec = boson(f"m{i}", int(kind[-1]), site)
        dim *= spec.cutoff + 1
        if dim > 512:
            break
        specs.append(spec)
    return build_register(specs)


def _constructor_specs(reg, theta):
    """Every constructor's spec on every mode, or same-site pair, it takes,
    as (constructor, args) to build on demand."""
    specs = []
    for i, m in enumerate(reg.modes):
        if m.kind.value == "two_level":
            specs.append((spin_direction_measurement, (reg, m.label, theta)))
        else:
            specs.append((vacuum_one_superposition_basis, (reg, m.label)))
        if m.cutoff == 1:
            specs.append((quadrature_basis, (reg, m.label)))
        specs += [(plus_minus_basis, (reg, m.label, n.label))
                  for n in reg.modes[i + 1:]
                  if n.site is m.site and m.cutoff == n.cutoff == 1]
    return specs


@settings(max_examples=15, deadline=None)
@given(modes=st.lists(MODES, min_size=2, max_size=9),
       theta=st.floats(0.0, 2.0 * np.pi), seed=st.integers(0, 2**32 - 1))
@example(modes=[("two_level", Site.A)] * 9, theta=0.7, seed=0)
def test_constructor_specs_agree_with_dense(modes, theta, seed):
    reg = _register(modes)
    assert 4 <= reg.dim <= 512
    # the dense products are O(d^3): build three of the specs, and check
    # them and the commuting verdicts of their pairs
    candidates = _constructor_specs(reg, theta)
    picks = np.random.default_rng(seed).permutation(len(candidates))[:3]
    specs = [make(*args) for make, args in (candidates[k] for k in picks)]
    for spec in specs:
        # the spec was built, so its checks accepted it
        assert _dense_failure([p.elements for _, p in spec.projectors]) is None
    for i, a in enumerate(specs):
        for b in specs[i + 1:]:
            assert _spec_commute(a, b) == _dense_commute(a, b), (a.name, b.name)


def test_fermion_quadratures_read_half_and_are_rejected():
    reg = build_register([fermion("a", Site.A), boson("o", 2, Site.O),
                          fermion("b", Site.B)])
    qa, qb = quadrature_basis(reg, "a"), quadrature_basis(reg, "b")
    assert not _dense_commute(qa, qb)
    message = ("'quad(a)' and 'quad(b)' do not commute, max |PQ - QP|: "
               "5.000e-01 exceeds bound 1e-10")
    with pytest.raises(NonCommutingSpecsError, match=re.escape(message)):
        joint_distribution(vacuum_state(reg), [qa, qb])
    # the bosonic quadratures commute
    breg = build_register([boson("a", 1, Site.A), boson("b", 1, Site.B)])
    specs = [quadrature_basis(breg, m) for m in ("a", "b")]
    assert _spec_commute(*specs) and _dense_commute(*specs)


# --- random specs ---------------------------------------------------------------

def _unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _projectors(u, cuts):
    """Projectors onto consecutive groups of ``u``'s columns."""
    bounds = [0, *cuts, u.shape[1]]
    return [u[:, a:b] @ u[:, a:b].conj().T for a, b in zip(bounds, bounds[1:])]


def _cuts(rng, d, parts):
    return sorted(rng.choice(np.arange(1, d), size=parts - 1, replace=False))


def _bad(kind, rng, mats, d, eps):
    if kind == "oblique":
        s = np.eye(d) + 0.5 * rng.normal(size=(d, d))
        s_inv = np.linalg.inv(s)
        return [s @ m @ s_inv for m in mats]
    if kind == "perturbed":
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return [mats[0] + eps * (h + h.conj().T), *mats[1:]]
    if kind == "incomplete":
        return mats[:-1]
    if kind == "overlapping":
        # a rank-one projector of another basis in place of the first
        return [_projectors(_unitary(rng, d), [1])[0], *mats[1:]]
    return mats


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 48), parts=st.integers(2, 4),
       kind=st.sampled_from(["valid", "oblique", "perturbed", "incomplete",
                             "overlapping"]),
       eps=st.sampled_from([1e-8, 1e-5, 1e-2]), seed=st.integers(0, 2**32 - 1))
# the probe block read this idempotence gap, 8.2e-11 as the largest entry,
# above the bound, and named idempotence before orthogonality (2.5e-8)
@example(d=2, parts=2, kind="perturbed", eps=1e-8, seed=11998)
def test_random_specs_agree_with_dense(d, parts, kind, eps, seed):
    # a perturbation of size eps (100 bounds and up) is caught both ways
    rng = np.random.default_rng(seed)
    parts = min(parts, d)
    mats = _projectors(_unitary(rng, d), _cuts(rng, d, parts))
    mats = _bad(kind, rng, mats, d, eps)
    reg = build_register([boson("a", d - 1)])
    dense = _dense_failure(mats)
    assert _spec_failure(reg, mats) == dense
    assert (dense is None) == (kind == "valid")


@settings(max_examples=40, deadline=None)
@given(d=st.integers(3, 48), seed=st.integers(0, 2**32 - 1),
       shared=st.booleans())
def test_random_commuting_verdicts_agree_with_dense(d, seed, shared):
    # two coarse-grainings of one basis commute; of two bases they do not
    rng = np.random.default_rng(seed)
    reg = build_register([boson("a", d - 1)])
    u = _unitary(rng, d)
    v = u if shared else _unitary(rng, d)
    a, b = (MeasurementSpec(name, tuple((str(k), OperatorMatrix(reg, m))
                                        for k, m in enumerate(
                                            _projectors(w, _cuts(rng, d, 2)))))
            for name, w in (("a", u), ("b", v)))
    assert _spec_commute(a, b) == _dense_commute(a, b) == shared


def test_a_perturbation_the_probe_block_read_as_zero_is_not_idempotent():
    # {P + E, I - P - E} with E hermitian and E R = E P R = 0 for the fixed
    # two-column block R that the checks once read: every probe residual
    # was 0, so the pair was accepted, though P + E is no projector
    d = 8
    key = 0x9E3779B97F4A7C15
    u = np.random.Generator(np.random.Philox(key=key)).random((d, 2))
    r = np.exp(2j * np.pi * u)
    rng = np.random.default_rng(47)
    p = _projectors(_unitary(rng, d), [4])[0]
    span, _ = np.linalg.qr(np.hstack([r, p @ r]))
    q = np.eye(d) - span @ span.conj().T
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    e = 0.1 * q @ (h + h.conj().T) @ q
    mats = [p + e, np.eye(d) - p - e]
    assert np.abs((mats[0] @ mats[0] - mats[0]) @ r).max() < 1e-12
    gap = np.abs(mats[0] @ mats[0] - mats[0]).max()
    assert gap > 0.1
    reg = build_register([boson("a", d - 1)])
    projectors = tuple((str(k), OperatorMatrix(reg, m)) for k, m in enumerate(mats))
    message = re.escape(f"projector '0' of 's' not idempotent: {gap:.3e}")
    with pytest.raises(ValueError, match=message):
        MeasurementSpec("s", projectors)
    assert _dense_failure(mats) == "not idempotent"


def test_a_dense_caller_projector_at_dim_512_exceeds_the_product_budget():
    # P = v v^H is dense and exactly hermitian, so the checks reach the
    # products: P P alone needs 512**3, about 1.3e8, scalar products
    d = 512
    rng = np.random.default_rng(5)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    p = np.outer(v, v.conj())
    reg = build_register([boson("a", d - 1)])
    projectors = (("v", OperatorMatrix(reg, p)),
                  ("rest", OperatorMatrix(reg, np.eye(d) - p)))
    tracemalloc.start()
    try:
        with pytest.raises(DimensionBudgetError, match="scalar products"):
            MeasurementSpec("dense", projectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # raised before the products were formed: they would take gigabytes
    assert peak < 64 << 20
    dense = projectors[0][1]
    for product in (lambda: dense @ dense, lambda: commutator_norm(dense, dense)):
        with pytest.raises(DimensionBudgetError, match="scalar products"):
            product()


# --- hermiticity, read over the nonzero pattern -----------------------------------

def _dense_gap(m) -> float:
    return np.abs(m - m.conj().T).max()


@settings(max_examples=100, deadline=None)
@given(d=st.integers(2, 24),
       kind=st.sampled_from(["dense", "sparse", "hermitian", "sparse hermitian",
                             "nan", "inf", "zero"]),
       seed=st.integers(0, 2**32 - 1))
def test_hermiticity_gap_equals_the_dense_scan(d, kind, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if "hermitian" in kind:
        m = (m + m.conj().T) / 2.0
    if "sparse" in kind:
        # structural zeros on one side of a pair only, and on both
        m[rng.random((d, d)) < 0.6] = 0.0
    if kind == "zero":
        m[:] = 0.0
    if kind in ("nan", "inf"):
        bad = np.nan if kind == "nan" else np.inf
        r, c = rng.integers(d, size=2)
        m[r, c] = complex(bad, 0.0) if rng.random() < 0.5 else complex(0.0, bad)
    reg = build_register([boson("a", d - 1)])
    with np.errstate(invalid="ignore"):  # inf - inf
        gap = OperatorMatrix(reg, m)._hermiticity_gap()
        dense = _dense_gap(m)
    assert gap == dense or (np.isnan(gap) and np.isnan(dense))


def test_oblique_specs_fail_the_hermiticity_check_at_the_dense_gap():
    # idempotent, mutually annihilating and complete, but not hermitian
    oblique = [np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([[0.0, -1.0], [0.0, 1.0]])]
    cases = [(build_register([boson("a", 1)]), oblique)]
    rng = np.random.default_rng(8)
    for d in (12, 128):
        s = np.eye(d) + 0.5 * rng.normal(size=(d, d))
        s_inv = np.linalg.inv(s)
        mats = [s @ m @ s_inv for m in _projectors(_unitary(rng, d), [4, 9])]
        cases.append((build_register([boson("a", d - 1)]), mats))
    for reg, mats in cases:
        projectors = tuple((str(k), OperatorMatrix(reg, m)) for k, m in enumerate(mats))
        message = (f"projector '0' of 'oblique' not hermitian: "
                   f"{_dense_gap(mats[0]):.3e} exceeds bound {PROJECTOR_ATOL!r}")
        with pytest.raises(ValueError, match=re.escape(message)):
            MeasurementSpec("oblique", projectors)

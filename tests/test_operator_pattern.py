"""The nonzero pattern every operator keeps.

Every operator keeps the flat indices of its nonzero entries, ascending,
and their values: ``embed``, the hermitian couplers and ``identity`` from
their builders, sums, differences, products, scalar multiples, ``-x`` and
``dag()`` from their operands, all by ``OperatorMatrix._of``'s one rule
(sort, sum at equal indices, drop exact zeros), and a caller's array by
scanning it once. ``eigh``
and ``MeasurementSpec`` read the kept pattern instead of scanning all
dim^2 entries, products read the kept entries, and ``elements`` is built
afresh on each read and never kept.
``np.flatnonzero(elements)`` is the oracle: the kept pattern equals it, and
the spectrum read through a builder's pattern equals the one read through
the scan, bit for bit. Every operator that a golden run builds, every
operator that reaches ``eigh`` and every spec projector of the golden batch
and of a 9-fermion chain keeps one.
"""

import ast
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwave import (
    DimensionBudgetError,
    MeasurementSpec,
    NotHermitianError,
    OperatorMatrix,
    Site,
    annihilation,
    apply,
    born_probabilities,
    boson,
    build_register,
    commutator_norm,
    creation,
    evolve,
    fermion,
    from_amplitudes,
    identity,
    pair_exchange,
    phase_kick,
    post_select,
    quadrature,
    quadrature_basis,
    spin_direction_measurement,
    swap_coupler,
    two_level,
    vacuum_one_superposition_basis,
    vacuum_state,
)
from qwave import operators, protocols
from qwave.cli import EXIT_OK, RunConfig, run
from qwave.operators import embed

GOLDEN_BATCH = Path(__file__).parent / "golden" / "batch.json"

STRENGTHS = (0.0, 1.0, -0.37, 1j, 0.6 - 1.25j)


def _pattern(op: OperatorMatrix):
    return op.__dict__.get("_pattern")


def _assert_pattern_is_nonzero_set(op: OperatorMatrix):
    # ascending and distinct, and exactly where the elements are nonzero
    pattern = _pattern(op)
    assert pattern is not None
    assert np.array_equal(pattern, np.flatnonzero(op.elements))
    assert np.array_equal(op.__dict__["_values"], op.elements.reshape(-1)[pattern],
                          equal_nan=True)


@st.composite
def _registers(draw):
    """Registers of dimension 4 to 512: modes of every kind, drawn in order
    and kept while the dimension stays within 512."""
    kinds = draw(st.lists(st.sampled_from(["boson", "fermion", "two_level"]),
                          min_size=1, max_size=7))
    modes, dim = [], 1
    for i, kind in enumerate(kinds):
        site = draw(st.sampled_from([Site.A, Site.B]))
        if kind == "boson":
            mode = boson(f"m{i}", draw(st.integers(1, 255)), site)
        elif kind == "fermion":
            mode = fermion(f"m{i}", site)
        else:
            mode = two_level(f"m{i}", site)
        if dim * mode.dim > 512:
            break
        modes.append(mode)
        dim *= mode.dim
    if dim < 4:
        modes.append(boson("pad", 3))
    return build_register(modes)


def _random_factor(rng, dim):
    f = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    f[rng.random((dim, dim)) < 0.6] = 0.0
    return f


@settings(max_examples=40, deadline=None)
@given(reg=_registers(), seed=st.integers(0, 2**32 - 1),
       strength=st.sampled_from(STRENGTHS))
def test_every_builder_keeps_exactly_its_nonzero_pattern(reg, seed, strength):
    rng = np.random.default_rng(seed)
    labels = [m.label for m in reg.modes]
    mode = labels[rng.integers(len(labels))]
    ops = [annihilation(reg, mode), creation(reg, mode), quadrature(reg, mode),
           phase_kick(reg, mode, float(rng.uniform(-4.0, 4.0))), identity(reg)]
    picked = rng.permutation(labels)[: rng.integers(len(labels) + 1)]
    ops.append(embed(reg, {l: _random_factor(rng, reg.mode(l).dim) for l in picked}))
    ops += [p for _, p in vacuum_one_superposition_basis(reg, mode).projectors]
    cutoff_one = [m.label for m in reg.modes if m.cutoff == 1]
    if cutoff_one:
        quad_mode = cutoff_one[rng.integers(len(cutoff_one))]
        ops += [p for _, p in quadrature_basis(reg, quad_mode).projectors]
    if len(labels) > 1:
        a, b = rng.choice(labels, 2, replace=False)
        ops.append(pair_exchange(reg, a, b))
        ops.append(operators._ladder_hermitian(reg, (a,), (b,), strength))
    bosons = [m.label for m in reg.modes if m.kind.value == "boson"]
    atoms = [m.label for m in reg.modes if m.kind.value == "two_level"]
    if bosons and atoms:
        h = swap_coupler(reg, bosons[0], atoms[0], strength)
        ops.append(h)
        if strength == 0.0:
            assert len(_pattern(h)) == 0
        theta = float(rng.choice([0.0, math.pi / 2, rng.uniform(0.0, 2 * math.pi)]))
        ops += [p for _, p in
                spin_direction_measurement(reg, atoms[0], theta).projectors]
    # sums and differences of patterned operators, and a full cancellation
    x, y = ops[rng.integers(len(ops))], ops[rng.integers(len(ops))]
    ops += [x + y, x - y, ops[2] - ops[2]]
    assert len(_pattern(ops[-1])) == 0
    for op in ops:
        _assert_pattern_is_nonzero_set(op)


def test_a_product_of_factors_that_underflows_drops_out_of_the_pattern():
    reg = build_register([boson("a", 1), boson("b", 1)])
    tiny = np.array([[1e-200, 0.0], [0.0, 1.0]])
    op = embed(reg, {"a": tiny, "b": tiny})
    assert op.elements[0, 0] == 0.0
    _assert_pattern_is_nonzero_set(op)


def test_every_operator_keeps_its_nonzero_pattern():
    reg = build_register([boson("field", 3), two_level("atom")])
    a = annihilation(reg, "field")
    h = swap_coupler(reg, "field", "atom", 0.5)
    ha, hh = a.elements, h.elements
    for op, dense in ((OperatorMatrix(reg, hh), hh), (a @ h, ha @ hh),
                      (2.0 * h, 2.0 * hh), (h * 1j, hh * 1j), (0.0 * h, 0.0 * hh),
                      (-h, -hh), (h.dag(), hh.conj().T), (a.dag(), ha.conj().T),
                      (h + 2.0 * a, hh + 2.0 * ha), (h + a, hh + ha)):
        _assert_pattern_is_nonzero_set(op)
        assert np.array_equal(op.elements, dense)
    assert len(_pattern(0.0 * h)) == 0
    # a NaN entry is nonzero, so h * nan keeps h's pattern; neither it nor
    # an all-NaN array is a hermitian operator
    for op in (h * math.nan, OperatorMatrix(reg, hh * math.nan)):
        _assert_pattern_is_nonzero_set(op)
        assert np.isnan(op.__dict__["_values"]).all()
        with pytest.raises(NotHermitianError, match=_not_hermitian("nan")):
            op.eigh()
    assert np.array_equal(_pattern(h * math.nan), _pattern(h))


def _couplers():
    swap_reg = build_register([
        boson("light_a", 1, Site.A), boson("light_b", 1, Site.B),
        two_level("atom_a", Site.A), two_level("atom_b", Site.B),
    ])
    rabi_reg = build_register([boson("field", 160), two_level("atom")])
    fermions = build_register([fermion("a", Site.A), fermion("b", Site.B),
                               fermion("c", Site.B)])
    swap_a = swap_coupler(swap_reg, "light_a", "atom_a", 1.0)
    yield "photon-swap", swap_a + swap_coupler(swap_reg, "light_b", "atom_b", 1.0)
    yield "cancelled", swap_a - swap_a
    yield "rabi", swap_coupler(rabi_reg, "field", "atom", 1.0)
    yield "rabi-shifted", (swap_coupler(rabi_reg, "field", "atom", -0.37)
                           + identity(rabi_reg))
    for order in (protocols._CHAIN_SITE_ORDER, protocols._CHAIN_SPECIES_ORDER):
        yield f"collective-chain {order}", protocols._collective_setup(order)[1]
    yield "pair-exchange", pair_exchange(fermions, "a", "c")
    yield "fermion-quadrature", quadrature(fermions, "b")


@pytest.mark.parametrize("name, op", list(_couplers()),
                         ids=[name for name, _ in _couplers()])
def test_pattern_read_equals_dense_read(name, op):
    assert _pattern(op) is not None
    dense = OperatorMatrix(op.register, op.elements)
    assert op._hermiticity_gap() == dense._hermiticity_gap()
    got, want = op.eigh(), dense.eigh()
    assert len(got.groups) == len(want.groups)
    for g, w in zip(got.groups, want.groups):
        for a, b in zip(g, w):
            assert np.array_equal(a, b)


def _not_hermitian(gap: str) -> str:
    return re.escape(
        f"eigendecomposition requires a hermitian operator: {gap} exceeds bound 1e-10"
    )


@pytest.mark.parametrize("strength, gap", [(math.nan, "nan"), (1j, "2.000e+00")])
def test_a_non_hermitian_coupler_fails_at_eigh_with_either_read(strength, gap):
    reg = build_register([boson("field", 1), two_level("atom")])
    h = swap_coupler(reg, "field", "atom", strength)
    assert _pattern(h) is not None
    for op in (h, OperatorMatrix(reg, h.elements)):
        with pytest.raises(NotHermitianError, match=_not_hermitian(gap)):
            op.eigh()


def test_spec_reads_a_kept_pattern_for_hermiticity():
    reg = build_register([boson("b", 1), two_level("t")])
    skew = np.array([[0.5, 0.5], [0.0, 0.5]])
    bad = embed(reg, {"t": skew})
    rest = embed(reg, {"t": np.eye(2) - skew})
    assert _pattern(bad) is not None
    message = re.escape("projector '0' of 'skew' not hermitian: 5.000e-01")
    for p, q in ((bad, rest), (OperatorMatrix(reg, bad.elements), rest)):
        with pytest.raises(ValueError, match=message):
            MeasurementSpec("skew", (("0", p), ("1", q)))


def test_every_projector_and_every_decomposed_operator_keeps_its_pattern(
        monkeypatch, tmp_path, fresh_specs):
    seen, built = [], []
    post_init, eigh = MeasurementSpec.__post_init__, OperatorMatrix.eigh
    op_post_init = OperatorMatrix.__post_init__

    def recorded_post_init(spec):
        post_init(spec)
        seen.extend(p for _, p in spec.projectors)

    def recorded_eigh(op):
        seen.append(op)
        return eigh(op)

    # every operator, whatever built it
    def recorded_op_post_init(op):
        op_post_init(op)
        built.append(op)

    monkeypatch.setattr(MeasurementSpec, "__post_init__", recorded_post_init)
    monkeypatch.setattr(OperatorMatrix, "eigh", recorded_eigh)
    monkeypatch.setattr(OperatorMatrix, "__post_init__", recorded_op_post_init)
    # the setups that do not depend on phi build their specs afresh, and
    # the spec constructors' memo starts empty (fresh_specs)
    for setup in (protocols._photon_swap_setup, protocols._bell_setup,
                  protocols._aux_setup, protocols._collective_setup,
                  protocols._rabi_setup, protocols._fermion_nogo_setup):
        setup.cache_clear()
    for entry in json.loads(GOLDEN_BATCH.read_text()):
        config = RunConfig(entry["experiment"], entry["params"],
                           shots=entry["shots"], seed=entry["seed"],
                           output_path=str(tmp_path / "report.json"))
        assert run(config) == EXIT_OK
    # the setups hold the creation operators and photon resets that the
    # runs share, and a run splits its particles and kicks its modes on the
    # amplitudes, so the batch builds 241 operators, and checks each
    assert len(seen) > 100 and len(built) >= 241
    for op in seen + built:
        _assert_pattern_is_nonzero_set(op)
    # the fermion chain of the chain pipeline, dim 512: each quadrature's
    # sign string crosses the sites before its mode
    chain = build_register([fermion(f"f{k}", site) for k, site in
                            enumerate([Site.A] * 3 + [Site.O] * 3 + [Site.B] * 3)])
    for k in range(9):
        seen.clear()
        quadrature_basis(chain, f"f{k}")
        assert len(seen) == 2
        for op in seen:
            _assert_pattern_is_nonzero_set(op)


#: The names of an operator's entries.
ENTRIES = {"_pattern", "_values"}


def _entry_setters(tree: ast.AST) -> set[str]:
    """The functions of a module's syntax tree that name an operator's
    entries as a keyword, a string or an attribute assigned to."""
    setters = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            if (isinstance(node, ast.keyword) and node.arg in ENTRIES
                    or isinstance(node, ast.Constant) and node.value in ENTRIES
                    or isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
                    and any(getattr(t, "attr", None) in ENTRIES for t in targets)):
                setters.add(fn.name)
    return setters


def test_only_the_operators_module_handles_a_pattern():
    from qwave import cli, fock, measurement

    for module in (fock, measurement, protocols, cli):
        source = inspect.getsource(module)
        for name in ("._pattern", "._values", "._of(", "_summed"):
            assert name not in source, (module.__name__, name)
    # inside the module, the scan of a caller's array and the one entry
    # rule are all that set an operator's entries
    tree = ast.parse(inspect.getsource(operators))
    assert _entry_setters(tree) == {"__init__", "_of"}
    assert not hasattr(operators, "_sparse")
    for name in ("_kept", "_combined"):
        assert not hasattr(OperatorMatrix, name)
    # and no second hermiticity scan lives beside the data it reads
    assert not hasattr(fock, "_hermiticity_gap")


@settings(max_examples=40, deadline=None)
@given(reg=_registers(), seed=st.integers(0, 2**32 - 1))
def test_of_sums_repeated_indices_as_a_dense_accumulation(reg, seed):
    # small integer parts sum exactly in any order, so runs that cancel
    # leave exactly 0, and the dense accumulation is the oracle bit for bit
    # but for the sign of a zero part, which a run of one keeps and
    # np.add.at's sum onto +0 does not
    rng = np.random.default_rng(seed)
    d2 = reg.dim ** 2
    n = int(rng.integers(0, 200))
    keys = rng.integers(0, min(d2, max(n // 3, 1)), size=n)
    values = rng.integers(-2, 3, size=n) + 1j * rng.integers(-2, 3, size=n)
    order = rng.permutation(n)
    op = OperatorMatrix._of(reg, keys[order], values[order])
    dense = np.zeros(d2, dtype=complex)
    np.add.at(dense, keys, values)
    assert np.array_equal(_pattern(op), np.flatnonzero(dense))
    assert _same_bits(op.elements.reshape(-1) + 0.0, dense + 0.0)
    _assert_pattern_is_nonzero_set(op)
    # a NaN stays, whatever it is summed with
    nan = OperatorMatrix._of(reg, np.array([d2 - 1, 0, d2 - 1]),
                             np.array([1.0, 0.0, math.nan]))
    assert np.array_equal(_pattern(nan), [d2 - 1]) and np.isnan(nan.__dict__["_values"]).all()
    # a - a and 0 * a leave no entry. a + b and a - b have the bits of the
    # dense sum and difference where both hold an entry; where one alone
    # does, the entry keeps the bits of a, of b, or of -b, signed zero
    # parts included (the dense 0 - b would give a +0 where -b has a -0)
    labels = [m.label for m in reg.modes]
    mode, other = (labels[k] for k in rng.integers(len(labels), size=2))
    ops = [annihilation(reg, mode), creation(reg, other), quadrature(reg, mode),
           identity(reg), embed(reg, {other: _random_factor(rng, reg.mode(other).dim)})]
    for a in ops:
        assert len(_pattern(a - a)) == 0 and len(_pattern(0 * a)) == 0
        in_a = np.isin(np.arange(d2), _pattern(a)).reshape(a.elements.shape)
        for b in ops:
            in_b = np.isin(np.arange(d2), _pattern(b)).reshape(in_a.shape)
            for got, dense, right in ((a + b, a.elements + b.elements, b.elements),
                                      (a - b, a.elements - b.elements, -b.elements)):
                _assert_pattern_is_nonzero_set(got)
                want = np.where(in_a & in_b, dense, np.where(in_a, a.elements, right))
                want[want == 0] = 0  # a dropped sum reads +0
                assert _same_bits(got.elements, want)


def _kept_entries_only(op: OperatorMatrix) -> bool:
    return _pattern(op) is not None and "elements" not in op.__dict__


def test_elements_are_built_afresh_on_each_read_and_never_kept():
    reg = build_register([boson("field", 40), two_level("atom")])
    h = swap_coupler(reg, "field", "atom", 0.8)
    spec = spin_direction_measurement(reg, "atom", 0.3)
    psi = evolve(apply(creation(reg, "field"), vacuum_state(reg)), h, 0.7)
    born_probabilities(psi, spec)
    post_select(psi, spec, "+1")
    assert _kept_entries_only(h) and _kept_entries_only(h + h)
    assert all(_kept_entries_only(p) for _, p in spec.projectors)
    dense = np.zeros(reg.dim**2, dtype=complex)
    dense[_pattern(h)] = h.__dict__["_values"]
    first = h.elements
    assert np.array_equal(first, dense.reshape(reg.dim, reg.dim))
    assert not first.flags.writeable and first.flags.c_contiguous
    second = h.elements
    assert second is not first and np.array_equal(second, first)
    # the operator holds no dim x dim array after the reads
    held = [a for a in vars(h).values() if isinstance(a, np.ndarray)]
    assert held and all(a.size < reg.dim**2 for a in held)


def test_operators_and_spectra_compare_and_hash_by_identity():
    # a generated == over the dense elements would raise on the array's
    # truth value and build both matrices
    reg = build_register([boson("field", 40), two_level("atom")])
    h, g = (swap_coupler(reg, "field", "atom", 0.5) for _ in range(2))
    assert (h == g) is False and (h == h) is True
    assert "elements" not in h.__dict__ and "elements" not in g.__dict__
    assert len({h, g, h}) == 2
    spectra = (h.eigh(), g.eigh())
    assert (spectra[0] == spectra[1]) is False and len(set(spectra)) == 2


@settings(max_examples=30, deadline=None)
@given(reg=_registers(), seed=st.integers(0, 2**32 - 1))
def test_products_by_the_entries_match_the_dense_products(reg, seed):
    rng = np.random.default_rng(seed)
    labels = [m.label for m in reg.modes]
    mode = labels[rng.integers(len(labels))]
    # annihilation has an empty last row per mode block, x - x and 0 * x no
    # entry at all, and x * nan a NaN in every row that x has an entry in
    a, q = annihilation(reg, mode), quadrature(reg, mode)
    ops = [a, creation(reg, mode), q, a - a, 0.0 * q, q * math.nan, identity(reg),
           embed(reg, {mode: _random_factor(rng, reg.mode(mode).dim)})]
    assert all(map(_kept_entries_only, ops))
    d = reg.dim
    for x in (rng.normal(size=d) + 1j * rng.normal(size=d),
              rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2))):
        for op in ops:
            got = op._dot(x)
            want = op.elements @ x
            assert got.shape == want.shape
            assert np.array_equal(np.isnan(got), np.isnan(want))
            ok = ~np.isnan(want)
            assert (np.abs(got[ok] - want[ok]).max(initial=0.0)
                    <= 1e-13 * np.abs(want[ok]).max(initial=1.0))


@settings(max_examples=30, deadline=None)
@given(reg=_registers(), seed=st.integers(0, 2**32 - 1))
def test_operator_products_match_the_dense_products(reg, seed):
    # ``@`` and ``commutator_norm`` form the exact products of the entries:
    # each entry sums its terms in a fixed order, so two calls agree bit
    # for bit, and the dense products agree to rounding
    rng = np.random.default_rng(seed)
    labels = [m.label for m in reg.modes]
    mode, other = (labels[k] for k in rng.integers(len(labels), size=2))
    a, q = annihilation(reg, mode), quadrature(reg, other)
    ops = [a, creation(reg, other), q, a - a, identity(reg),
           embed(reg, {mode: _random_factor(rng, reg.mode(mode).dim)})]
    for x in ops:
        for y in ops:
            xy, yx = x.elements @ y.elements, y.elements @ x.elements
            scale = np.abs(xy).max(initial=1.0) + np.abs(yx).max(initial=0.0)
            # the budget counts, over k, the entries of the left factor's
            # column k times those of the right factor's row k
            needs = [int(np.count_nonzero(left.elements, axis=0)
                         @ np.count_nonzero(right.elements, axis=1))
                     for left, right in ((x, y), (y, x))]
            if needs[0] > operators._MAX_PRODUCTS:
                with pytest.raises(DimensionBudgetError, match=f"needs {needs[0]} "):
                    x @ y
            else:
                got, again = x @ y, x @ y
                _assert_pattern_is_nonzero_set(got)
                assert np.array_equal(_pattern(again), _pattern(got))
                assert np.array_equal(again.__dict__["_values"], got.__dict__["_values"])
                assert np.abs(got.elements - xy).max(initial=0.0) <= 1e-13 * scale
            if sum(needs) > operators._MAX_PRODUCTS:
                with pytest.raises(DimensionBudgetError, match=f"needs {sum(needs)} "):
                    commutator_norm(x, y)
            else:
                dense = np.abs(xy - yx).max(initial=0.0)
                assert abs(commutator_norm(x, y) - dense) <= 1e-13 * scale


#: Phases at the edges of phi % 2 pi and between: the quarter turns, a
#: value below the smallest normal float, one just below 2 pi, and phases
#: whose e^{i phi} has components of either sign.
KEPT_PHASES = (0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0,
               2.0 * math.pi - 1e-12, 1e-300, 0.5, 2.2, 5.9)


def _kept_structure_registers():
    """The aux-phase registers (two statistics by two declaration orders),
    the collective chain's (two orders) and one with a cutoff-3 boson."""
    site_of = {"test_a": Site.A, "aux_a": Site.A, "test_b": Site.B, "aux_b": Site.B}
    for make in (lambda label, site: boson(label, 1, site), fermion):
        for order in (protocols._AUX_SITE_ORDER, protocols._AUX_SPECIES_ORDER):
            yield build_register([make(label, site_of[label]) for label in order])
    for order in (protocols._CHAIN_SITE_ORDER, protocols._CHAIN_SPECIES_ORDER):
        yield build_register([protocols._CHAIN_MODES[label] for label in order])
    yield build_register([boson("x_a", 3, Site.A), fermion("f", Site.A),
                          boson("x_b", 2, Site.B)])


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("reg", list(_kept_structure_registers()),
                         ids=lambda reg: reg.modes[0].kind.value + ":"
                         + ",".join(m.label for m in reg.modes))
def test_split_and_kick_on_amplitudes_agree_with_their_operators(reg):
    labels = [m.label for m in reg.modes]
    pairs = [(f"{s}_a", f"{s}_b") for s in {l[:-2] for l in labels}
             if f"{s}_a" in labels and f"{s}_b" in labels]
    assert pairs
    # every creation value is +/-1 on cutoff-1 modes, and the split has the
    # bits of its operator there
    exact = all(m.cutoff == 1 for m in reg.modes)
    rng = np.random.default_rng(5)
    states = [vacuum_state(reg)] + [
        from_amplitudes(reg, rng.normal(size=reg.dim) + 1j * rng.normal(size=reg.dim),
                        normalize=True)
        for _ in range(3)]
    for state in states:
        for mode_a, mode_b in pairs:
            ups = up_a, up_b = creation(reg, mode_a), creation(reg, mode_b)
            for phi in KEPT_PHASES:
                split = (1.0 / math.sqrt(2.0)) * (up_a + np.exp(1j * phi) * up_b)
                want = apply(split, state, renormalize=True).amplitudes
                got = protocols._split(ups, phi, state).amplitudes
                if exact:
                    assert np.array_equal(got, want)
                else:
                    assert np.abs(got - want).max() <= 1e-15
        for mode in labels:
            for phi in KEPT_PHASES:
                want = apply(phase_kick(reg, mode, phi), state).amplitudes
                assert _same_bits(protocols._kicked(state, mode, phi).amplitudes, want)

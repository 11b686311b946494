import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwave import (
    DensityMatrix,
    DimensionBudgetError,
    DuplicateLabelError,
    InvalidCutoffError,
    ModeKind,
    ModeSpec,
    OccupationOutOfRangeError,
    Site,
    StateVector,
    UnknownModeError,
    annihilation,
    apply,
    basis_state,
    boson,
    build_register,
    creation,
    fermion,
    identity,
    from_amplitudes,
    partial_trace,
    prepare_superposition,
    two_level,
    vacuum_state,
)


def test_register_dimensions():
    assert build_register([boson("a", 1, Site.A), boson("b", 1, Site.B)]).dim == 4
    assert build_register([boson("a", 3, Site.A)]).dim == 4
    assert build_register([fermion(l) for l in "abcd"]).dim == 16


def test_dimension_budget():
    assert build_register([boson("a", 4095)]).dim == 4096
    with pytest.raises(DimensionBudgetError, match="4097 exceeds the budget of 4096"):
        build_register([boson("a", 4096)])
    # 2**64 wraps to 0 in int64; the budget must see the exact product
    with pytest.raises(DimensionBudgetError, match=str(2**64)):
        build_register([fermion(f"f{i}") for i in range(64)])


def test_duplicate_labels_rejected():
    with pytest.raises(DuplicateLabelError):
        build_register([boson("a", 1), boson("a", 2)])


def test_invalid_cutoffs_rejected():
    with pytest.raises(InvalidCutoffError):
        ModeSpec("f", ModeKind.FERMION, cutoff=2)
    with pytest.raises(InvalidCutoffError):
        ModeSpec("t", ModeKind.TWO_LEVEL, cutoff=0)
    with pytest.raises(InvalidCutoffError):
        ModeSpec("b", ModeKind.BOSON, cutoff=0)


def test_non_integer_cutoff_rejected_numpy_integer_accepted():
    for cutoff in (2.5, 2.0, "2", None, True, np.True_):
        with pytest.raises(InvalidCutoffError, match="integer"):
            boson("a", cutoff)
    reg = build_register([boson("a", np.int64(2))])
    assert reg.dim == 3 and type(reg.dim) is int
    assert vacuum_state(reg).amplitudes[0] == 1.0


def test_empty_register_rejected():
    with pytest.raises(ValueError):
        build_register([])


def test_index_examples():
    reg = build_register([two_level("u"), two_level("v")])
    assert reg.index_of((0, 0)) == 0
    # first declared mode is the most significant digit
    assert reg.index_of((1, 0)) == 2
    assert reg.index_of((0, 1)) == 1


def test_index_round_trip_dim16():
    reg = build_register([fermion(l) for l in "abcd"])
    table = reg.occupation_table()
    for i in range(reg.dim):
        assert reg.index_of(table[i]) == i


def test_index_bijection_large_register():
    reg = build_register([boson(f"m{i}", 7) for i in range(4)])
    assert reg.dim == 4096
    seen = {reg.index_of(occ) for occ in reg.occupation_table()}
    assert seen == set(range(reg.dim))


def test_index_validation():
    reg = build_register([boson("a", 2), boson("b", 1)])
    with pytest.raises(OccupationOutOfRangeError):
        reg.index_of((3, 0))
    with pytest.raises(OccupationOutOfRangeError):
        reg.index_of((0, 0, 0))


def test_prepare_superposition_amplitudes():
    reg = build_register([boson("a", 1, Site.A), boson("b", 1, Site.B)])
    psi0 = prepare_superposition(reg, "a", "b", 0.0)
    s = 1.0 / np.sqrt(2.0)
    assert psi0.amplitudes[reg.index_of((1, 0))] == pytest.approx(s)
    assert psi0.amplitudes[reg.index_of((0, 1))] == pytest.approx(s)

    psi_pi = prepare_superposition(reg, "a", "b", np.pi)
    assert psi_pi.amplitudes[reg.index_of((0, 1))] == pytest.approx(-s)

    psi_q = prepare_superposition(reg, "a", "b", np.pi / 2.0)
    assert psi0.overlap(psi_q) == pytest.approx((1.0 + 1.0j) / 2.0)


def test_prepare_superposition_unknown_mode():
    reg = build_register([boson("a", 1), boson("b", 1)])
    with pytest.raises(UnknownModeError):
        prepare_superposition(reg, "a", "nope", 0.0)


def test_partial_trace_split_state_is_maximally_mixed():
    reg = build_register([boson("a", 1, Site.A), boson("b", 1, Site.B)])
    for phi in (0.0, 1.0, np.pi):
        rho = partial_trace(prepare_superposition(reg, "a", "b", phi), {"b"})
        assert np.abs(rho.elements - np.diag([0.5, 0.5])).max() < 1e-12


def test_partial_trace_product_state():
    reg = build_register([boson("a", 1, Site.A), boson("b", 1, Site.B)])
    rho = partial_trace(basis_state(reg, (1, 0)), {"b"})
    assert np.abs(rho.elements - np.diag([1.0, 0.0])).max() < 1e-12
    assert np.trace(rho.elements @ rho.elements).real == pytest.approx(1.0, abs=1e-9)


def test_partial_trace_after_remote_outcome():
    # once the particle is found at A, the remote region holds vacuum
    reg = build_register([boson("a", 1, Site.A), boson("b", 1, Site.B)])
    conditional = basis_state(reg, (1, 0))
    rho_b = partial_trace(conditional, {"b"})
    assert np.abs(rho_b.elements - np.diag([1.0, 0.0])).max() < 1e-12


def test_partial_trace_everything():
    reg = build_register([boson("a", 2), fermion("f")])
    rng = np.random.default_rng(3)
    v = rng.normal(size=reg.dim) + 1j * rng.normal(size=reg.dim)
    psi = from_amplitudes(reg, v, normalize=True)
    rho = partial_trace(psi, set())
    assert rho.elements.shape == (1, 1)
    assert rho.elements[0, 0] == pytest.approx(1.0)


def test_partial_trace_matches_einsum_oracle():
    # mixed radix (3, 2, 2); the mode labels double as einsum subscripts:
    # a dropped mode shares its subscript between ket and bra, a kept one
    # gets an upper-case bra subscript
    reg = build_register([boson("x", 2), fermion("y"), two_level("z")])
    rng = np.random.default_rng(11)
    v = rng.normal(size=reg.dim) + 1j * rng.normal(size=reg.dim)
    psi = from_amplitudes(reg, v, normalize=True)
    t = psi.amplitudes.reshape(3, 2, 2)
    for keep in ({"x"}, {"y"}, {"z"}, {"x", "z"}, {"y", "z"}, {"x", "y", "z"}):
        bra = "".join(l.upper() if l in keep else l for l in "xyz")
        kept = "".join(l for l in "xyz" if l in keep)
        oracle = np.einsum(f"xyz,{bra}->{kept}{kept.upper()}", t, t.conj())
        d = int(np.sqrt(oracle.size))
        rho = partial_trace(psi, keep).elements
        assert np.abs(rho - oracle.reshape(d, d)).max() < 1e-12


def test_partial_trace_unknown_mode():
    reg = build_register([boson("a", 1)])
    with pytest.raises(UnknownModeError):
        partial_trace(vacuum_state(reg), {"zz"})


def test_state_vector_rejects_unnormalized():
    reg = build_register([boson("a", 1)])
    message = "state not normalized, |norm - 1|: 4.142e-01 exceeds bound 1e-10"
    with pytest.raises(ValueError, match=re.escape(message)):
        StateVector(reg, np.array([1.0, 1.0]))


def test_state_vector_rejects_nan():
    reg = build_register([boson("a", 1), boson("b", 1)])
    message = "state not normalized, |norm - 1|: nan exceeds bound 1e-10"
    with pytest.raises(ValueError, match=re.escape(message)):
        StateVector(reg, np.array([np.nan, 0.0, 0.0, 0.0]))


def test_state_vector_immutable():
    reg = build_register([boson("a", 1)])
    psi = vacuum_state(reg)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


def test_density_matrix_validation():
    reg = build_register([boson("a", 1)])
    cases = [
        ([[0.5, 0.7], [0.1, 0.5]], "not hermitian: 6.000e-01"),
        (np.diag([0.7, 0.7]), "trace not 1, |trace - 1|: 4.000e-01"),
        (np.diag([1.5, -0.5]), "not positive, -min eigenvalue: 5.000e-01"),
        (np.diag([np.nan, 1.0]), "not hermitian: nan"),
    ]
    for elements, message in cases:
        message = f"density matrix {message} exceeds bound 1e-10"
        with pytest.raises(ValueError, match=re.escape(message)):
            DensityMatrix(reg, np.array(elements))


def test_sub_register_preserves_declaration_order():
    reg = build_register([boson("a", 1), fermion("f"), boson("b", 2)])
    sub = reg.sub_register({"b", "a"})
    assert tuple(m.label for m in sub.modes) == ("a", "b")


# --- fermionic reduction and the declaration order ---------------------------

def _entropy_bits(rho: DensityMatrix) -> float:
    p = np.linalg.eigvalsh(rho.elements)
    p = p[p > 1e-12]
    return float(-np.sum(p * np.log2(p)))


@pytest.mark.parametrize("order", [("A1", "A2", "B1"), ("B1", "A1", "A2"),
                                   ("A1", "B1", "A2")])
def test_a_product_of_fermion_states_reduces_to_a_pure_state_in_any_order(order):
    # (c_dag_A1 + c_dag_A2)(1 + c_dag_B1)|0> / 2 is a state on A times a
    # state on B; declared (A1, B1, A2), the trace once mixed B1's sign into
    # rho_A and read 1 bit
    reg = build_register([fermion(l, Site.A if l[0] == "A" else Site.B)
                          for l in order])
    psi = apply(identity(reg) + creation(reg, "B1"), vacuum_state(reg),
                renormalize=True)
    psi = apply(creation(reg, "A1") + creation(reg, "A2"), psi, renormalize=True)
    rho = partial_trace(psi, {"A1", "A2"})
    assert _entropy_bits(rho) == pytest.approx(0.0, abs=1e-12)


#: One mode of each kind the registers below draw from.
_MODES = {
    "fermion": lambda label: fermion(label),
    "boson": lambda label: boson(label, 2),
    "two_level": lambda label: two_level(label),
}


def _state_by_creation(reg, labels, coefficients) -> StateVector:
    """prod_f (c[f, 0] + sum_l c[f, l] a_dag_l) |0>, normalized, with the
    modes ``labels`` numbered 1, 2, ... in ``c``: operators of the modes,
    not of the register, so one physical state for every declaration
    order."""
    ups = [creation(reg, l).elements for l in labels]
    v = vacuum_state(reg).amplitudes
    for c in coefficients:
        v = c[0] * v + sum(a * (up @ v) for a, up in zip(c[1:], ups))
    return from_amplitudes(reg, v, normalize=True)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kinds=st.lists(st.sampled_from(sorted(_MODES)),
                                      min_size=2, max_size=5))
def test_reduced_states_do_not_depend_on_the_declaration_order(data, kinds):
    labels = [f"m{i}" for i in range(len(kinds))]
    specs = {l: _MODES[k](l) for l, k in zip(labels, kinds)}
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (data.draw(st.integers(1, 3)), len(labels) + 1)
    coefficients = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    kept = data.draw(st.lists(st.booleans(), min_size=len(labels),
                              max_size=len(labels)))
    keep = {l for l, k in zip(labels, kept) if k}
    spectra = []
    for order in (labels, data.draw(st.permutations(labels))):
        reg = build_register([specs[l] for l in order])
        psi = _state_by_creation(reg, labels, coefficients)
        rho = partial_trace(psi, keep)
        spectra.append(np.linalg.eigvalsh(rho.elements))
        # <c_dag_i c_j> of kept fermion modes, on the full register and on
        # the reduced state, with each register's own sign strings
        sub = rho.register
        kept = [l for l in order if l in keep and specs[l].kind is ModeKind.FERMION]
        for i in kept:
            for j in kept:
                full = (creation(reg, i).elements
                        @ annihilation(reg, j).elements)
                reduced = (creation(sub, i).elements
                           @ annihilation(sub, j).elements)
                want = np.vdot(psi.amplitudes, full @ psi.amplitudes)
                got = np.trace(rho.elements @ reduced)
                assert abs(got - want) < 1e-12, (order, keep, i, j)
    assert np.abs(spectra[0] - spectra[1]).max() < 1e-12

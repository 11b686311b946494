import math
import re

import numpy as np
import pytest
from scipy import stats

from qwave import operators, protocols
from qwave.fock import MAX_REGISTER_DIM, ModeKind
from qwave.operators import embed

from qwave import (
    KindMismatchError,
    NotHermitianError,
    RegisterMismatchError,
    Site,
    TailBoundExceededError,
    annihilation,
    apply,
    basis_state,
    boson,
    build_register,
    coherent_state,
    commutator_norm,
    creation,
    evolve,
    fermion,
    from_amplitudes,
    identity,
    number_operator,
    nucleon_coupler,
    phase_kick,
    poisson_tail,
    prepare_superposition,
    quadrature,
    swap_coupler,
    two_level,
    vacuum_state,
)


def test_boson_lowering_matrix_element():
    reg = build_register([boson("a", 2)])
    a = annihilation(reg, "a")
    two = basis_state(reg, (2,))
    lowered = a.elements @ two.amplitudes
    assert lowered[reg.index_of((1,))] == pytest.approx(np.sqrt(2.0))


def test_fermion_sign_string():
    reg = build_register([fermion("f1"), fermion("f2")])
    a2 = annihilation(reg, "f2")
    both = basis_state(reg, (1, 1))
    out = a2.elements @ both.amplitudes
    assert out[reg.index_of((1, 0))] == pytest.approx(-1.0)


def test_fermion_anticommutators_three_modes():
    reg = build_register([fermion("x"), fermion("y"), fermion("z")])
    eye = np.eye(reg.dim)
    ops = {l: annihilation(reg, l).elements for l in "xyz"}
    for i in "xyz":
        for j in "xyz":
            anti = ops[i] @ ops[j].conj().T + ops[j].conj().T @ ops[i]
            expected = eye if i == j else np.zeros_like(eye)
            assert np.abs(anti - expected).max() < 1e-12
            anti2 = ops[i] @ ops[j] + ops[j] @ ops[i]
            assert np.abs(anti2).max() < 1e-12


def test_boson_commutator_below_cutoff():
    reg = build_register([boson("a", 4)])
    a = annihilation(reg, "a").elements
    comm = a @ a.conj().T - a.conj().T @ a
    # canonical on every state below the cutoff; truncated on the edge
    for n in range(4):
        assert comm[n, n] == pytest.approx(1.0)


def test_cross_statistics_commute():
    reg = build_register([fermion("f"), boson("b", 2), two_level("t")])
    pairs = [("f", "b"), ("f", "t"), ("b", "t")]
    for l1, l2 in pairs:
        a1 = annihilation(reg, l1).elements
        a2 = annihilation(reg, l2).elements
        assert np.abs(a1 @ a2 - a2 @ a1).max() < 1e-12
        assert np.abs(a1 @ a2.conj().T - a2.conj().T @ a1).max() < 1e-12


def test_swap_coupler_matrix_elements():
    reg = build_register([boson("field", 1), two_level("atom")])
    h = swap_coupler(reg, "field", "atom", 0.7)
    one_g = reg.index_of((1, 0))
    zero_e = reg.index_of((0, 1))
    assert h.elements[zero_e, one_g] == pytest.approx(0.7)
    assert h.elements[one_g, zero_e] == pytest.approx(0.7)
    # vacuum ground state is dark
    dark = h.elements @ basis_state(reg, (0, 0)).amplitudes
    assert np.abs(dark).max() < 1e-15


def test_swap_coupler_squares_to_identity_on_sector():
    reg = build_register([boson("field", 1), two_level("atom")])
    s = 1.3
    h = swap_coupler(reg, "field", "atom", s)
    h2 = h.elements @ h.elements
    for occ in ((1, 0), (0, 1)):
        i = reg.index_of(occ)
        assert h2[i, i] == pytest.approx(s**2)
    assert abs(h2[reg.index_of((1, 0)), reg.index_of((0, 1))]) < 1e-15


def test_swap_coupler_kind_checks():
    reg = build_register([boson("field", 1), two_level("atom")])
    with pytest.raises(KindMismatchError):
        swap_coupler(reg, "atom", "field", 1.0)
    with pytest.raises(KindMismatchError, match="'atom' must be bosonic"):
        nucleon_coupler(reg, "atom", "field", 1.0)


def test_swap_coupler_conserves_total_excitation():
    reg = build_register([boson("field", 3), two_level("atom")])
    h = swap_coupler(reg, "field", "atom", 1.0)
    n_total = number_operator(reg, "field") + number_operator(reg, "atom")
    assert commutator_norm(h, n_total) < 1e-10


def test_nucleon_coupler_swaps_sector():
    reg = build_register([boson("meson", 1), two_level("nucleon")])
    s = 0.9
    h = nucleon_coupler(reg, "meson", "nucleon", s)
    start = basis_state(reg, (1, 0))  # one meson, proton
    swapped = evolve(start, h, np.pi / (2.0 * s))
    # swapped branch carries factor -i; compare up to global phase
    target = basis_state(reg, (0, 1))
    assert swapped.fidelity(target) == pytest.approx(1.0, abs=1e-12)
    amp = swapped.amplitudes[reg.index_of((0, 1))]
    assert amp == pytest.approx(-1.0j)
    # no meson, proton: stationary
    still = evolve(basis_state(reg, (0, 0)), h, 1.7)
    assert still.fidelity(basis_state(reg, (0, 0))) == pytest.approx(1.0)


def test_nucleon_coupler_two_site_swap_keeps_phase():
    # a charged field quantum split over two sites converts one nucleon
    # per branch; the relative phase survives the double swap
    reg = build_register(
        [
            boson("meson_a", 1, Site.A),
            boson("meson_b", 1, Site.B),
            two_level("nucleon_a", Site.A),
            two_level("nucleon_b", Site.B),
        ]
    )
    phi = 0.9
    psi = prepare_superposition(reg, "meson_a", "meson_b", phi)
    h = nucleon_coupler(reg, "meson_a", "nucleon_a", 1.0) + nucleon_coupler(
        reg, "meson_b", "nucleon_b", 1.0
    )
    out = evolve(psi, h, np.pi / 2.0)
    amp_a = out.amplitudes[reg.index_of((0, 0, 1, 0))]
    amp_b = out.amplitudes[reg.index_of((0, 0, 0, 1))]
    assert abs(abs(amp_a) - 1.0 / np.sqrt(2.0)) < 1e-12
    assert amp_b / amp_a == pytest.approx(np.exp(1j * phi))


def test_coherent_state_alpha_zero_is_vacuum():
    reg = build_register([boson("m", 5)])
    psi = coherent_state(reg, "m", 0.0, 1e-8)
    assert psi.fidelity(vacuum_state(reg)) == pytest.approx(1.0)


def test_coherent_state_mean_occupation():
    reg = build_register([boson("m", 20)])
    psi = coherent_state(reg, "m", 2.0, 1e-8)
    n = number_operator(reg, "m")
    mean = np.vdot(psi.amplitudes, n.elements @ psi.amplitudes).real
    assert abs(mean - 4.0) < 1e-6


def test_coherent_state_tail_bound():
    assert poisson_tail(10.0, 160) < 2e-8
    reg = build_register([boson("m", 20)])
    message = ("occupation tail above cutoff 20 for alpha=10.0: "
               "1.000e+00 exceeds bound 1e-08")
    with pytest.raises(TailBoundExceededError, match=re.escape(message)):
        coherent_state(reg, "m", 10.0, 1e-8)
    with pytest.raises(KindMismatchError):
        coherent_state(build_register([two_level("t")]), "t", 0.1, 1e-8)


def test_nan_alpha_is_a_tail_failure():
    # poisson_tail gives NaN for a NaN mean, and no tail bound admits NaN
    message = "alpha=nan: nan exceeds bound 1e-08"
    with pytest.raises(TailBoundExceededError, match=message):
        operators.check_tail_bound(float("nan"), 10, 1e-8)
    with pytest.raises(TailBoundExceededError, match=message):
        coherent_state(build_register([boson("f", 10)]), "f", float("nan"), 1e-8)


@pytest.mark.parametrize("bound", [-1e-9, 1.0, 3.0, 1e308, float("nan")])
def test_tail_bound_outside_unit_interval_rejected_before_any_tail(
    bound, monkeypatch
):
    # no tail exceeds 1, so such a bound would switch the guard off
    def refuse(alpha, cutoff):
        raise AssertionError("tail computed for an off-range bound")

    monkeypatch.setattr(operators, "poisson_tail", refuse)
    with pytest.raises(ValueError, match=r"tail_bound must be in \[0, 1\)"):
        coherent_state(build_register([boson("m", 10)]), "m", 30.0, bound)


@pytest.mark.parametrize(
    "alpha, cutoff",
    [
        (0.0, 0), (0.0, 5), (1.0, 0), (2.5j, 0),
        # acceptance, golden and benchmark (alpha, cutoff) pairs
        (10.0, 160), (2.0, 24), (3.0, 30), (3.0, 40),
        (15.0, 330), (20.0, 540), (25.0, 800), (1 + 1j, 30),
        # |alpha|^2 far above the cutoff: the tail is (almost) all the mass
        (30.0, 5), (50.0, 100), (12.0, 1),
    ],
)
def test_poisson_tail_matches_scipy_stats_within_1e_10(alpha, cutoff):
    expected = stats.poisson.sf(cutoff, abs(alpha) ** 2)
    assert abs(poisson_tail(alpha, cutoff) - expected) <= 1e-10 * expected


def test_poisson_tail_matches_scipy_stats_on_a_seeded_sweep():
    rng = np.random.default_rng(26)
    n = 20_000
    cutoff = rng.integers(0, MAX_REGISTER_DIM, n)
    third = n // 3
    mean = np.clip(np.concatenate([
        (cutoff[:third] + 1) * rng.uniform(0.65, 1.35, third),  # mean ~ cutoff
        10.0 ** rng.uniform(-3.0, math.log10(4000.0), third),
        (cutoff[2 * third:] + 1) * rng.uniform(0.0, 2.0, n - 2 * third),
    ]), 1e-3, 4000.0)
    alpha = np.sqrt(mean)
    expected = stats.poisson.sf(cutoff, np.abs(alpha) ** 2)
    kept = expected >= 1e-300
    got = np.array([poisson_tail(float(a), int(k))
                    for a, k in zip(alpha[kept], cutoff[kept])])
    rel = np.abs(got - expected[kept]) / expected[kept]
    assert rel.max() <= 1e-10, rel.max()
    # both sides of the sum, the tail above the mean and 1 - head below it
    above = cutoff[kept] >= np.abs(alpha[kept]) ** 2
    assert min(above.sum(), (~above).sum()) >= 3_000


def test_poisson_tail_rejects_a_cutoff_above_any_mode_before_summing():
    size = len(operators._LOG_FACTORIALS)
    with pytest.raises(ValueError, match="cutoff must be at most 4095, got 1000000"):
        poisson_tail(2.0, 10**6)
    assert len(operators._LOG_FACTORIALS) == size
    assert 0.0 < poisson_tail(60.0, MAX_REGISTER_DIM - 1) < 1e-15


def test_phase_kick_identity_and_composition():
    reg = build_register([boson("a", 2), boson("b", 1)])
    assert np.abs(phase_kick(reg, "a", 0.0).elements - np.eye(reg.dim)).max() < 1e-15
    k1 = phase_kick(reg, "a", 0.4)
    k2 = phase_kick(reg, "a", 1.1)
    k12 = phase_kick(reg, "a", 1.5)
    assert np.abs((k1 @ k2).elements - k12.elements).max() < 1e-12


def test_phase_kick_shifts_split_particle_phase():
    reg = build_register([boson("a", 1, Site.A), boson("b", 1, Site.B)])
    psi = prepare_superposition(reg, "a", "b", 0.3)
    kicked = apply(phase_kick(reg, "b", 0.9), psi)
    target = prepare_superposition(reg, "a", "b", 1.2)
    assert np.abs(kicked.amplitudes - target.amplitudes).max() < 1e-12


def test_phase_kick_rotates_coherent_state():
    reg = build_register([boson("m", 25)])
    psi = coherent_state(reg, "m", 2.0, 1e-8)
    kicked = apply(phase_kick(reg, "m", 0.8), psi)
    target = coherent_state(reg, "m", 2.0 * np.exp(0.8j), 1e-8)
    assert kicked.fidelity(target) == pytest.approx(1.0, abs=1e-10)


def test_evolve_identity_at_t_zero():
    reg = build_register([boson("field", 1), two_level("atom")])
    h = swap_coupler(reg, "field", "atom", 1.0)
    psi = prepare_superposition(reg, "field", "atom", 0.5)
    assert evolve(psi, h, 0.0).fidelity(psi) == pytest.approx(1.0)


def test_evolve_swap_preserves_relative_phase():
    reg = build_register(
        [
            boson("light_a", 1, Site.A),
            boson("light_b", 1, Site.B),
            two_level("atom_a", Site.A),
            two_level("atom_b", Site.B),
        ]
    )
    phi = 1.1
    psi = prepare_superposition(reg, "light_a", "light_b", phi)
    h = swap_coupler(reg, "light_a", "atom_a", 1.0) + swap_coupler(
        reg, "light_b", "atom_b", 1.0
    )
    out = evolve(psi, h, np.pi / 2.0)
    amp_a = out.amplitudes[reg.index_of((0, 0, 1, 0))]
    amp_b = out.amplitudes[reg.index_of((0, 0, 0, 1))]
    # each branch picks up -i; the relative phase survives untouched
    assert amp_a == pytest.approx(-1.0j / np.sqrt(2.0))
    assert amp_b / amp_a == pytest.approx(np.exp(1j * phi))


def test_evolve_unitary_on_random_hermitian():
    from qwave import OperatorMatrix

    rng = np.random.default_rng(42)
    reg = build_register([boson("a", 2), two_level("t")])
    d = reg.dim
    for _ in range(100):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = OperatorMatrix(reg, (m + m.conj().T) / 2.0)
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi = from_amplitudes(reg, v, normalize=True)
        out = evolve(psi, h, rng.uniform(0, 3))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-9


def _not_hermitian(gap: str) -> str:
    return re.escape(
        f"eigendecomposition requires a hermitian operator: {gap} exceeds bound 1e-10"
    )


def test_evolve_rejects_non_hermitian():
    reg = build_register([boson("a", 1)])
    bad = annihilation(reg, "a")
    with pytest.raises(NotHermitianError, match=_not_hermitian("1.000e+00")):
        evolve(vacuum_state(reg), bad, 1.0)


def test_eigh_rejects_nan_matrix():
    from qwave import OperatorMatrix

    reg = build_register([boson("a", 1)])
    with pytest.raises(NotHermitianError, match=_not_hermitian("nan")):
        OperatorMatrix(reg, np.full((2, 2), np.nan)).eigh()


def test_complex_coupler_strength_fails_at_evolve():
    # a coupler is not checked when it is built; eigh checks its generator
    reg = build_register([boson("field", 1), two_level("atom")])
    h = swap_coupler(reg, "field", "atom", 1j)
    with pytest.raises(NotHermitianError, match=_not_hermitian("2.000e+00")):
        evolve(vacuum_state(reg), h, 1.0)


def test_quadrature_commutators():
    breg = build_register([boson("a", 1, Site.A), boson("b", 1, Site.B)])
    assert commutator_norm(quadrature(breg, "a"), quadrature(breg, "b")) < 1e-12
    freg = build_register([fermion("a", Site.A), fermion("b", Site.B)])
    assert commutator_norm(quadrature(freg, "a"), quadrature(freg, "b")) > 0.5


def test_fermion_pair_operators_commute():
    reg = build_register(
        [fermion("ua", Site.A), fermion("da", Site.A),
         fermion("ub", Site.B), fermion("db", Site.B)]
    )

    def pair(up, down):
        return creation(reg, up) @ creation(reg, down) + annihilation(
            reg, down
        ) @ annihilation(reg, up)

    assert commutator_norm(pair("ua", "da"), pair("ub", "db")) < 1e-12


def test_commutator_norm_register_mismatch():
    r1 = build_register([boson("a", 1)])
    r2 = build_register([boson("b", 1)])
    with pytest.raises(RegisterMismatchError):
        commutator_norm(identity(r1), identity(r2))


def test_apply_renormalize_guard():
    reg = build_register([boson("a", 1)])
    a = annihilation(reg, "a")
    with pytest.raises(ValueError):
        apply(a, vacuum_state(reg), renormalize=True)


def test_canonical_relations_random_registers():
    rng = np.random.default_rng(7)
    kinds = [
        lambda l: boson(l, int(rng.integers(1, 4))),
        fermion,
        two_level,
    ]
    for _ in range(30):
        n = int(rng.integers(2, 4))
        specs = [kinds[rng.integers(0, 3)](f"m{i}") for i in range(n)]
        reg = build_register(specs)
        ops = {m.label: annihilation(reg, m.label).elements for m in reg.modes}
        for mi in reg.modes:
            for mj in reg.modes:
                ai, aj = ops[mi.label], ops[mj.label]
                both_fermion = (
                    mi.kind.value == "fermion" and mj.kind.value == "fermion"
                )
                if both_fermion:
                    anti = ai @ aj.conj().T + aj.conj().T @ ai
                    expected = np.eye(reg.dim) if mi.label == mj.label else 0.0
                    assert np.abs(anti - expected).max() < 1e-12
                elif mi.label != mj.label:
                    comm = ai @ aj.conj().T - aj.conj().T @ ai
                    assert np.abs(comm).max() < 1e-12


# --- embed -------------------------------------------------------------------

def _random_local(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m[rng.random((d, d)) < 0.3] = 0.0  # some structural zeros
    return m


def test_embed_matches_kron_in_declaration_order():
    reg = build_register(
        [boson("b", 2), fermion("f1"), two_level("t"), fermion("f2")]
    )
    rng = np.random.default_rng(11)
    for labels in (["f2", "b"], ["t", "b", "f2"], ["f1"], ["f2", "f1", "t", "b"]):
        # dict order differs from declaration order on purpose
        factors = {l: _random_local(rng, reg.mode(l).dim) for l in labels}
        ref = np.ones((1, 1))
        for m in reg.modes:
            ref = np.kron(ref, factors.get(m.label, np.eye(m.dim)))
        assert np.abs(embed(reg, factors).elements - ref).max() < 1e-14
    assert np.array_equal(embed(reg, {}).elements, np.eye(reg.dim))


def test_embed_rejects_wrong_factor_shape():
    reg = build_register([boson("b", 2), two_level("t")])
    # too small, and not square; the message names the mode and both shapes
    for label, shape, expected in (("b", (2, 2), (3, 3)), ("t", (3, 2), (2, 2))):
        message = f"factor for {label!r} has shape {shape}, expected {expected}"
        with pytest.raises(ValueError, match=re.escape(message)):
            embed(reg, {label: np.ones(shape)})


# --- builders: the same matrices, one frozen buffer each ------------------------

def _mixed_register():
    return build_register([
        boson("b", 2, Site.A), fermion("f1", Site.A), two_level("t", Site.B),
        fermion("f2", Site.B), boson("c", 1, Site.B),
    ])


def test_hermitian_builders_match_their_dense_formulas():
    reg = _mixed_register()
    raise_b = np.diag(np.sqrt(np.arange(1.0, 3.0)), -1)
    lower_t = np.array([[0.0, 1.0], [0.0, 0.0]])
    h = embed(reg, {"b": raise_b, "t": lower_t}).elements
    for strength in (1.0, -0.37, 2.5, 1j, 0.6 - 1.25j):
        dense = strength * (h + h.conj().T)
        assert np.array_equal(swap_coupler(reg, "b", "t", strength).elements, dense)
        assert np.array_equal(nucleon_coupler(reg, "b", "t", strength).elements, dense)
    for mode in ("b", "f1", "t", "f2", "c"):
        a = annihilation(reg, mode).elements
        assert np.array_equal(quadrature(reg, mode).elements, a + a.conj().T)
        assert np.array_equal(creation(reg, mode).elements, a.conj().T)
    # ladder products with sign strings, as the collective chain's couplers
    for create, annihilate in ((("b",), ("f1", "f2")), (("c",), ("f2", "f1")),
                               (("f2", "t"), ("b",)), (("f1",), ("c", "t", "f2"))):
        h = np.eye(reg.dim)
        for mode in create:
            h = h @ creation(reg, mode).elements
        for mode in annihilate:
            h = h @ annihilation(reg, mode).elements
        for strength in (1.0, -0.5j):
            built = operators._ladder_hermitian(reg, create, annihilate, strength)
            assert np.array_equal(built.elements, strength * (h + h.conj().T))
    # particle transfer x_dag y + h.c.: fermions with f2 declared between
    # them (a sign string), a cutoff-2 boson pair and a boson-fermion pair
    wide = build_register([fermion("f1"), fermion("f2"), boson("b", 2),
                           fermion("f3"), boson("c", 2)])
    for pair in (("f1", "f3"), ("f3", "f1"), ("b", "c"), ("c", "b"),
                 ("b", "f3"), ("f1", "c")):
        x, y = (annihilation(wide, m).elements for m in pair)
        t = x.conj().T @ y
        assert np.array_equal(operators.pair_exchange(wide, *pair).elements,
                              t + t.conj().T)
    # fermion-nogo's same-site pair operator c_dag(up) c_dag(down) + c(down) c(up)
    pairs = build_register([fermion("ua", Site.A), fermion("da", Site.A),
                            fermion("ub", Site.B), fermion("db", Site.B)])
    for up, down in (("ua", "da"), ("ub", "db"), ("da", "ub")):
        cu, cd = (annihilation(pairs, m).elements for m in (up, down))
        dense = cu.conj().T @ cd.conj().T + cd @ cu
        built = operators._ladder_hermitian(pairs, (up, down), (), 1.0)
        assert np.array_equal(built.elements, dense)


def test_a_repeated_mode_is_rejected_before_any_build():
    from qwave import UnknownModeError, plus_minus_basis

    reg = build_register([fermion("a", Site.A), fermion("b", Site.A)])
    with pytest.raises(UnknownModeError, match="the two modes must be distinct"):
        operators.pair_exchange(reg, "a", "a")
    with pytest.raises(UnknownModeError, match="the two modes must be distinct"):
        plus_minus_basis(reg, "a", "a")
    with pytest.raises(UnknownModeError, match="the two modes must be distinct"):
        operators._ladder_hermitian(reg, ("a", "b"), ("b",), 1.0)


def test_spec_projectors_match_their_dense_formulas():
    from qwave import plus_minus_basis, quadrature_basis

    reg = _mixed_register()
    eye = np.eye(reg.dim)
    for mode in ("f1", "t", "f2", "c"):
        x = quadrature(reg, mode).elements
        spec = quadrature_basis(reg, mode)
        assert np.array_equal(spec.projector("+1").elements, (eye + x) / 2.0)
        assert np.array_equal(spec.projector("-1").elements, (eye - x) / 2.0)
    pairs = [(reg, ("t", "f2")), (reg, ("f2", "c"))]
    # aux-phase's registers; in species order test_b sits between test_a and
    # aux_a, so the sign string of the first pair's transfer crosses it
    for kind in (ModeKind.BOSON, ModeKind.FERMION):
        for order in (protocols._AUX_SITE_ORDER, protocols._AUX_SPECIES_ORDER):
            aux = protocols._aux_setup(kind, order)[0]
            pairs += [(aux, ("test_a", "aux_a")), (aux, ("test_b", "aux_b"))]
    for reg, pair in pairs:
        x, y = (annihilation(reg, m).elements for m in pair)
        t = x.conj().T @ y
        t = t + t.conj().T
        t2 = t @ t
        spec = plus_minus_basis(reg, *pair)
        assert np.array_equal(spec.projector("+").elements, (t2 + t) / 2.0)
        assert np.array_equal(spec.projector("-").elements, (t2 - t) / 2.0)
        assert np.array_equal(spec.projector("other").elements,
                              np.eye(reg.dim) - t2)


def test_operator_copies_caller_arrays():
    from qwave import OperatorMatrix

    reg = build_register([boson("a", 2)])
    # complex and C-contiguous, float, and Fortran-ordered caller arrays
    for arr in (np.zeros((3, 3), dtype=complex), np.zeros((3, 3)),
                np.asfortranarray(np.arange(9.0).reshape(3, 3))):
        before = arr.astype(complex)
        op = OperatorMatrix(reg, arr)
        assert not np.shares_memory(op.elements, arr)
        arr[0, 1] = 7.0
        assert np.array_equal(op.elements, before)
        assert arr.flags.writeable


def test_builders_hand_over_one_read_only_c_contiguous_matrix(monkeypatch, fresh_specs):
    from qwave import (OperatorMatrix, plus_minus_basis, quadrature_basis,
                       spin_direction_measurement, vacuum_one_superposition_basis)

    reg = _mixed_register()
    inits = []
    post_init = OperatorMatrix.__post_init__

    def counted(op):
        post_init(op)
        inits.append(op)

    monkeypatch.setattr(OperatorMatrix, "__post_init__", counted)
    a, n = annihilation(reg, "b"), number_operator(reg, "b")
    ops = [
        identity(reg), a, creation(reg, "f2"), n, quadrature(reg, "f1"),
        operators.pair_exchange(reg, "f1", "f2"), swap_coupler(reg, "b", "t", 0.5),
        nucleon_coupler(reg, "b", "t", 2.0), phase_kick(reg, "c", 0.3),
        embed(reg, {"t": np.eye(2), "c": np.ones((2, 2))}),
        a + n, a - n, a @ n, 2.0 * a, a * 1j, -a, a.dag(),
        OperatorMatrix(reg, np.asfortranarray(np.eye(reg.dim))),
    ]
    specs = [spin_direction_measurement(reg, "t", 0.7),
             plus_minus_basis(reg, "f2", "c"),
             vacuum_one_superposition_basis(reg, "b"), quadrature_basis(reg, "f1")]
    ops += [p for spec in specs for _, p in spec.projectors]
    # every handed-over matrix still passes through __post_init__
    assert set(map(id, ops)) <= set(map(id, inits))
    for op in ops:
        m = op.elements
        assert m.dtype == complex and m.flags.c_contiguous
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


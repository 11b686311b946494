import itertools
import re
import sys
import threading

import numpy as np
import pytest

from qwave import measurement, protocols
from qwave.fock import _sq_norm
from qwave.measurement import PROJECTOR_ATOL
from qwave import (
    MeasurementSpec,
    ImpossibleOutcomeError,
    NonCommutingSpecsError,
    OperatorMatrix,
    SimulationError,
    Site,
    SiteMismatchError,
    StateVector,
    basis_state,
    born_probabilities,
    boson,
    build_register,
    fermion,
    from_amplitudes,
    identity,
    joint_distribution,
    partial_trace,
    plus_minus_basis,
    post_select,
    prepare_superposition,
    quadrature_basis,
    sample,
    sample_counts,
    site_locality_gap,
    spin_direction_measurement,
    two_level,
    vacuum_one_superposition_basis,
    vacuum_state,
)


def _two_site_pair(kind=boson):
    if kind is fermion:
        return build_register([fermion("a", Site.A), fermion("b", Site.B)])
    return build_register([boson("a", 1, Site.A), boson("b", 1, Site.B)])


def _aux_register(kind=boson):
    labels = [("ta", Site.A), ("ra", Site.A), ("tb", Site.B), ("rb", Site.B)]
    if kind is fermion:
        return build_register([fermion(l, s) for l, s in labels])
    return build_register([boson(l, 1, s) for l, s in labels])


def _labels(spec):
    return [label for label, _ in spec.projectors]


# --- spin direction ---------------------------------------------------------

def test_spin_direction_z_basis():
    reg = build_register([two_level("s")])
    spec = spin_direction_measurement(reg, "s", 0.0)
    up = basis_state(reg, (1,))
    down = basis_state(reg, (0,))
    assert born_probabilities(up, spec) == pytest.approx({"+1": 1.0, "-1": 0.0})
    assert born_probabilities(down, spec) == pytest.approx({"+1": 0.0, "-1": 1.0})


def test_spin_direction_half_turn_swaps_labels():
    reg = build_register([two_level("s")])
    s0 = spin_direction_measurement(reg, "s", 0.0)
    s_pi = spin_direction_measurement(reg, "s", np.pi)
    assert np.abs(
        s0.projector("+1").elements - s_pi.projector("-1").elements
    ).max() < 1e-12
    assert np.abs(
        s0.projector("-1").elements - s_pi.projector("+1").elements
    ).max() < 1e-12


def test_spin_direction_x_basis():
    reg = build_register([two_level("s")])
    spec = spin_direction_measurement(reg, "s", np.pi / 2.0)
    plus = from_amplitudes(reg, np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert born_probabilities(plus, spec)["+1"] == pytest.approx(1.0)


def test_spin_direction_kind_check():
    reg = build_register([boson("b", 2)])
    from qwave import KindMismatchError

    with pytest.raises(KindMismatchError):
        spin_direction_measurement(reg, "b", 0.0)


# --- plus/minus pair basis --------------------------------------------------

def test_plus_minus_on_single_occupied_mode():
    reg = _aux_register()
    spec = plus_minus_basis(reg, "ta", "ra")
    one_in_ta = basis_state(reg, (1, 0, 0, 0))
    probs = born_probabilities(one_in_ta, spec)
    assert probs["+"] == pytest.approx(0.5)
    assert probs["-"] == pytest.approx(0.5)
    assert probs["other"] == pytest.approx(0.0)


def test_plus_minus_eigenstate():
    reg = _aux_register()
    spec = plus_minus_basis(reg, "ta", "ra")
    amps = np.zeros(reg.dim, dtype=complex)
    amps[reg.index_of((1, 0, 0, 0))] = 1.0 / np.sqrt(2.0)
    amps[reg.index_of((0, 1, 0, 0))] = 1.0 / np.sqrt(2.0)
    plus_state = from_amplitudes(reg, amps)
    assert born_probabilities(plus_state, spec)["+"] == pytest.approx(1.0)


def test_plus_minus_double_occupation_is_other():
    reg = _aux_register()
    spec = plus_minus_basis(reg, "ta", "ra")
    both = basis_state(reg, (1, 1, 0, 0))
    assert born_probabilities(both, spec)["other"] == pytest.approx(1.0)
    vac = vacuum_state(reg)
    assert born_probabilities(vac, spec)["other"] == pytest.approx(1.0)


def test_plus_minus_site_mismatch():
    reg = _aux_register()
    with pytest.raises(SiteMismatchError):
        plus_minus_basis(reg, "ta", "tb")


# --- vacuum/one superposition basis ------------------------------------------

def test_vacuum_one_basis_probabilities():
    reg = build_register([boson("m", 2)])
    spec = vacuum_one_superposition_basis(reg, "m")
    vac = basis_state(reg, (0,))
    assert born_probabilities(vac, spec)["+"] == pytest.approx(0.5)
    amps = np.zeros(reg.dim, dtype=complex)
    amps[reg.index_of((0,))] = 1.0 / np.sqrt(2.0)
    amps[reg.index_of((1,))] = 1.0 / np.sqrt(2.0)
    plus = from_amplitudes(reg, amps)
    assert born_probabilities(plus, spec)["+"] == pytest.approx(1.0)
    two = basis_state(reg, (2,))
    assert born_probabilities(two, spec)["other"] == pytest.approx(1.0)


def test_plus_minus_basis_not_local_for_stringed_fermion_pairs():
    # with another fermion mode declared between the pair, the transfer
    # operator carries a sign string across it: the construction is no
    # longer site-local
    interleaved = build_register(
        [fermion("ta", Site.A), fermion("tb", Site.B),
         fermion("ra", Site.A), fermion("rb", Site.B)]
    )
    spec = plus_minus_basis(interleaved, "ta", "ra")
    assert site_locality_gap(spec, Site.A) > PROJECTOR_ATOL
    # adjacent declaration keeps it local
    adjacent = plus_minus_basis(_aux_register(fermion), "ta", "ra")
    assert site_locality_gap(adjacent, Site.A) <= PROJECTOR_ATOL


def test_quadrature_basis_requires_cutoff_one():
    from qwave import InvalidCutoffError

    reg = build_register([boson("m", 3)])
    with pytest.raises(InvalidCutoffError):
        quadrature_basis(reg, "m")


# --- born rule, spec validation ----------------------------------------------

def test_born_split_state_occupation():
    reg = _two_site_pair()
    psi = prepare_superposition(reg, "a", "b", 0.7)
    found = np.zeros((reg.dim, reg.dim), dtype=complex)
    occ_b = reg.occupation_table()[:, reg.position("b")]
    found[np.diag_indices(reg.dim)] = occ_b == 1
    empty = np.eye(reg.dim) - found
    spec = MeasurementSpec(
        "occupation_b",
        (
            ("found", OperatorMatrix(reg, found)),
            ("empty", OperatorMatrix(reg, empty)),
        ),
    )
    probs = born_probabilities(psi, spec)
    assert probs == pytest.approx({"found": 0.5, "empty": 0.5})
    conditional, p = post_select(psi, spec, "found")
    assert p == pytest.approx(0.5)
    assert born_probabilities(conditional, spec) == pytest.approx(
        {"found": 1.0, "empty": 0.0}
    )


def test_identity_spec_trivial():
    reg = _two_site_pair()
    spec = MeasurementSpec("all", (("all", identity(reg)),))
    psi = prepare_superposition(reg, "a", "b", 1.0)
    assert born_probabilities(psi, spec) == pytest.approx({"all": 1.0})


def test_spec_validation_rejects_bad_projectors():
    reg = build_register([boson("a", 1)])
    half = OperatorMatrix(reg, 0.5 * np.eye(reg.dim))
    upper = OperatorMatrix(reg, np.diag([1.0, 0.0]))
    # oblique: idempotent, mutually annihilating and complete, not hermitian
    p = OperatorMatrix(reg, np.array([[1.0, 1.0], [0.0, 0.0]]))
    q = OperatorMatrix(reg, np.array([[0.0, -1.0], [0.0, 1.0]]))
    cases = [
        (("bad", (("h", half),)), "projector 'h' of 'bad' not idempotent: 2.500e-01"),
        (("oblique", (("p", p), ("q", q))),
         "projector 'p' of 'oblique' not hermitian: 1.000e+00"),
        (("twice", (("x", upper), ("y", upper))),
         "projectors 'x', 'y' of 'twice' not orthogonal: 1.000e+00"),
        (("part", (("x", upper),)),
         "projectors of 'part' do not sum to identity: 1.000e+00"),
    ]
    for args, message in cases:
        message += f" exceeds bound {PROJECTOR_ATOL!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            MeasurementSpec(*args)


def test_a_spec_keeps_its_projectors_when_the_given_list_changes():
    reg = build_register([two_level("t")])
    z = spin_direction_measurement(reg, "t", 0.0)
    given = [["1", z.projector("+1")], ["0", z.projector("-1")]]
    spec = MeasurementSpec("z", given)
    before = spec.projectors
    # replace outcome "1" by "0"'s projector after validation
    given[0] = ["1", z.projector("-1")]
    given[1][1] = z.projector("+1")
    assert spec.projectors is before and isinstance(before, tuple)
    assert spec.projector("1") is z.projector("+1")
    assert spec.projector("0") is z.projector("-1")
    psi = from_amplitudes(reg, [0.6, 0.8])
    assert born_probabilities(psi, spec) == pytest.approx({"1": 0.64, "0": 0.36})


def test_joint_distribution_extends_prefixes_in_product_order():
    reg = build_register([two_level("t0", Site.A), boson("a", 1, Site.B),
                          boson("b", 1, Site.B), two_level("t1", Site.A)])
    specs = [spin_direction_measurement(reg, "t0", 0.0, "z0"),
             plus_minus_basis(reg, "a", "b", "pm"),
             spin_direction_measurement(reg, "t1", 0.9, "s1")]
    assert [len(s.projectors) for s in specs] == [2, 3, 2]
    # t0 always excited: every outcome after "-1" of z0 has probability 0
    excited = reg.occupation_table()[:, reg.position("t0")] == 1
    amps = np.random.default_rng(5).normal(size=(reg.dim, 2)) @ [1.0, 1j]
    psi = from_amplitudes(reg, np.where(excited, amps, 0.0), normalize=True)
    dist = joint_distribution(psi, specs)
    assert list(dist) == list(itertools.product(*map(_labels, specs)))
    for (l1, l2, l3), prob in dist.items():
        p1, p2, p3 = (s.projector(l) for s, l in zip(specs, (l1, l2, l3)))
        v = p3.elements @ (p2.elements @ (p1.elements @ psi.amplitudes))
        assert prob == _sq_norm(v)
        assert (prob == 0.0) == (l1 == "-1")


def _counted_dots(monkeypatch) -> list:
    dots = []
    dot = OperatorMatrix._dot
    monkeypatch.setattr(OperatorMatrix, "_dot",
                        lambda op, x: dots.append(op) or dot(op, x))
    return dots


def test_a_state_keeps_its_last_joint_law(monkeypatch):
    reg = _aux_register()
    psi = prepare_superposition(reg, "ta", "tb", 0.7)
    specs = [plus_minus_basis(reg, "ta", "ra", "a"),
             plus_minus_basis(reg, "tb", "rb", "b")]
    other = [vacuum_one_superposition_basis(reg, "ta", "va")]
    law = joint_distribution(psi, specs)
    counts = sample_counts(psi, specs, 1000, seed=4)
    dots = _counted_dots(monkeypatch)
    # the same specs: a fresh copy of the kept law, and no product
    again = joint_distribution(psi, specs)
    assert again == law and again is not law and dots == []
    again[("+", "+")] = 5.0
    again.clear()
    law.clear()
    assert joint_distribution(psi, list(specs)) == joint_distribution(psi, specs)
    assert dots == []
    # a histogram drawn after the law reads it: no product either
    assert sample_counts(psi, specs, 1000, seed=4) == counts and dots == []
    # other specs, or the same specs in another order, compute their own law
    fresh = StateVector(reg, psi.amplitudes)
    assert joint_distribution(psi, other) == joint_distribution(fresh, other)
    assert dots
    dots.clear()
    swapped = joint_distribution(psi, specs[::-1])
    assert dots and swapped == joint_distribution(fresh, specs[::-1])
    expected = joint_distribution(fresh, specs)
    dots.clear()
    assert joint_distribution(psi, specs) == expected and dots
    assert sample_counts(psi, specs, 1000, seed=4) == counts


def test_threads_sharing_a_state_get_the_serial_laws_and_counts():
    # the bell-chain singlet is held by its setup and shared by every run
    # in the process, whatever thread runs it
    singlet, directions, _ = protocols._bell_setup(4)
    pairs = [[directions[i], directions[j]]
             for i in range(len(directions)) for j in range(len(directions))
             if i % 2 == 0 and j % 2 == 1]

    def both(psi, k):
        specs = pairs[k]
        return (joint_distribution(psi, specs),
                sample_counts(psi, specs, 1000, seed=9, stream=k))

    serial = [both(StateVector(singlet.register, singlet.amplitudes), k)
              for k in range(len(pairs))]
    threads = 4
    barrier = threading.Barrier(threads)
    results = [None] * threads

    def work(slot):
        barrier.wait()
        order = [(k + slot) % len(pairs) for k in range(len(pairs))] * 3
        results[slot] = [(k, both(singlet, k)) for k in order]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(slot,))
                   for slot in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(w.is_alive() for w in workers)
    for got in results:
        assert [serial[k] for k, _ in got] == [r for _, r in got]


def test_spec_rejects_nan_projector():
    reg = build_register([boson("a", 1)])
    nan = OperatorMatrix(reg, np.array([[np.nan, 0.0], [0.0, 0.0]]))
    rest = OperatorMatrix(reg, np.diag([0.0, 1.0]))
    message = "projector 'p' of 'nan' not hermitian: nan exceeds bound 1e-10"
    with pytest.raises(ValueError, match=re.escape(message)):
        MeasurementSpec("nan", (("p", nan), ("q", rest)))


def test_locality_gap_at_the_wrong_site_exceeds_the_bound():
    reg = build_register([fermion("a", Site.A), fermion("b", Site.B)])
    assert site_locality_gap(quadrature_basis(reg, "b"), Site.B) > PROJECTOR_ATOL
    local = vacuum_one_superposition_basis(
        build_register([boson("a", 1, Site.A), boson("b", 1, Site.B)]), "a"
    )
    assert site_locality_gap(local, Site.A) <= PROJECTOR_ATOL
    assert site_locality_gap(local, Site.B) > PROJECTOR_ATOL


def test_completeness_on_random_states():
    rng = np.random.default_rng(5)
    reg = _aux_register()
    specs = [
        plus_minus_basis(reg, "ta", "ra"),
        plus_minus_basis(reg, "tb", "rb"),
        vacuum_one_superposition_basis(reg, "ta"),
    ]
    for _ in range(20):
        v = rng.normal(size=reg.dim) + 1j * rng.normal(size=reg.dim)
        psi = from_amplitudes(reg, v, normalize=True)
        for spec in specs:
            total = sum(born_probabilities(psi, spec).values())
            assert abs(total - 1.0) < 1e-9


# --- sampling ----------------------------------------------------------------

def test_sample_deterministic_and_binomial():
    reg = _two_site_pair()
    psi = prepare_superposition(reg, "a", "b", 0.0)
    spec = vacuum_one_superposition_basis(reg, "b", "vb")
    shots = 100_000
    counts = sample_counts(psi, [spec], shots, seed=123)
    # fair binary outcome: within 4 sigma of half
    assert abs(counts[("+",)] - shots / 2) < 4.0 * np.sqrt(shots * 0.25)
    assert sample_counts(psi, [spec], shots, seed=123) == counts
    assert set(sample_counts(psi, [spec], 0, seed=1).values()) == {0}


def test_sample_counts_matches_sample_stream():
    from collections import Counter

    reg = _two_site_pair()
    psi = prepare_superposition(reg, "a", "b", 0.3)
    spec = vacuum_one_superposition_basis(reg, "b", "vb")
    for stream in (0, 1, 5):
        records = sample(psi, [spec], 5000, seed=77, stream=stream)
        hist = Counter((r.outcomes["vb"],) for r in records)
        counts = sample_counts(psi, [spec], 5000, seed=77, stream=stream)
        assert counts == {k: hist.get(k, 0) for k in counts}
        assert [r.shot_index for r in records] == list(range(5000))
        # shuffled, not grouped by outcome
        assert records != sorted(records, key=lambda r: r.outcomes["vb"])
        again = sample(psi, [spec], 5000, seed=77, stream=stream)
        assert [r.outcomes for r in again] == [r.outcomes for r in records]
    assert sample(psi, [spec], 0, seed=1) == []


def _four_outcome_law():
    """Two commuting spin measurements on a product state whose joint law
    has four distinct outcome probabilities."""
    reg = build_register([two_level("s", Site.A), two_level("t", Site.B)])
    up = basis_state(reg, (1, 1))
    specs = [
        spin_direction_measurement(reg, "s", 0.7, "s"),
        spin_direction_measurement(reg, "t", 1.9, "t"),
    ]
    return up, specs


def test_sample_counts_mean_matches_the_joint_law():
    psi, specs = _four_outcome_law()
    law = joint_distribution(psi, specs)
    assert len(law) == 4 and len({round(p, 6) for p in law.values()}) == 4
    shots, seeds = 10_000, 200
    draws = [sample_counts(psi, specs, shots, seed) for seed in range(seeds)]
    for outcome, p in law.items():
        mean = sum(d[outcome] for d in draws) / seeds
        sigma = np.sqrt(shots * p * (1.0 - p) / seeds)
        assert abs(mean - shots * p) < 5.0 * sigma, outcome


def test_sample_counts_neighbouring_streams_differ():
    # with a seed-plus-offset scheme, (s, 1) would replay (s + 1, 0)
    psi, specs = _four_outcome_law()
    for s in range(20):
        counts = {
            key: sample_counts(psi, specs, 1000, s + key[0], stream=key[1])
            for key in ((0, 0), (0, 1), (1, 0))
        }
        assert counts[(0, 0)] != counts[(0, 1)], s
        assert counts[(0, 1)] != counts[(1, 0)], s


@pytest.mark.parametrize(
    "probs, message",
    [
        ((1.2, -0.2),
         "negative joint probability, -min: 2.000e-01 exceeds bound 1e-10"),
        ((0.5, 0.49), "joint probabilities do not sum to 1, |total - 1|: "
                      "1.000e-02 exceeds bound 1e-09"),
        ((float("nan"), 1.0),
         "negative joint probability, -min: nan exceeds bound 1e-10"),
    ],
    ids=["negative", "total", "nan"],
)
def test_sample_rejects_invalid_distribution(monkeypatch, probs, message):
    reg = build_register([two_level("s")])
    spec = spin_direction_measurement(reg, "s", 0.0)
    bad = {("+1",): probs[0], ("-1",): probs[1]}
    monkeypatch.setattr(measurement, "joint_distribution", lambda state, specs: bad)
    with pytest.raises(SimulationError) as info:
        sample_counts(vacuum_state(reg), [spec], 10, seed=1)
    assert str(info.value) == message


def test_sample_rejects_noncommuting():
    reg = build_register([two_level("s")])
    sz = spin_direction_measurement(reg, "s", 0.0, "z")
    sx = spin_direction_measurement(reg, "s", np.pi / 2.0, "x")
    psi = basis_state(reg, (1,))
    message = ("'z' and 'x' do not commute, max |PQ - QP|: 5.000e-01 "
               "exceeds bound 1e-10")
    with pytest.raises(NonCommutingSpecsError, match=re.escape(message)):
        sample(psi, [sz, sx], 10, seed=0)


def test_sample_requires_unique_names():
    reg = _two_site_pair()
    psi = prepare_superposition(reg, "a", "b", 0.0)
    s1 = vacuum_one_superposition_basis(reg, "a", "same")
    s2 = vacuum_one_superposition_basis(reg, "b", "same")
    with pytest.raises(ValueError):
        sample(psi, [s1, s2], 1, seed=0)


def test_empirical_frequencies_converge():
    reg = _aux_register()
    rng = np.random.default_rng(17)
    v = rng.normal(size=reg.dim) + 1j * rng.normal(size=reg.dim)
    psi = from_amplitudes(reg, v, normalize=True)
    spec = plus_minus_basis(reg, "ta", "ra", "pm_a")
    probs = born_probabilities(psi, spec)
    shots = 100_000
    counts = sample_counts(psi, [spec], shots, seed=99)
    for label, p in probs.items():
        freq = counts[(label,)] / shots
        assert abs(freq - p) < 5.0 * np.sqrt(p * (1.0 - p) / shots) + 1e-9


# --- post-selection -----------------------------------------------------------

def test_post_select_eigenstate():
    reg = build_register([two_level("s")])
    spec = spin_direction_measurement(reg, "s", 0.0)
    up = basis_state(reg, (1,))
    state, p = post_select(up, spec, "+1")
    assert p == pytest.approx(1.0)
    assert state.fidelity(up) == pytest.approx(1.0)
    with pytest.raises(ImpossibleOutcomeError):
        post_select(up, spec, "-1")


def test_post_select_then_measure_matches_joint_conditional():
    rng = np.random.default_rng(31)
    reg = _aux_register()
    s1 = plus_minus_basis(reg, "ta", "ra", "m1")
    s2 = plus_minus_basis(reg, "tb", "rb", "m2")
    for _ in range(10):
        v = rng.normal(size=reg.dim) + 1j * rng.normal(size=reg.dim)
        psi = from_amplitudes(reg, v, normalize=True)
        joint = joint_distribution(psi, [s1, s2])
        for o1 in _labels(s1):
            p1 = born_probabilities(psi, s1)[o1]
            if p1 < 1e-9:
                continue
            conditional, p = post_select(psi, s1, o1)
            assert p == pytest.approx(p1, abs=1e-12)
            cond_probs = born_probabilities(conditional, s2)
            for o2 in _labels(s2):
                assert joint[(o1, o2)] == pytest.approx(
                    p1 * cond_probs[o2], abs=1e-10
                )


def test_sequential_collapse_reproduces_joint_law():
    # measuring one spec, collapsing, then measuring the next gives the
    # same joint distribution as the simultaneous Born rule
    rng = np.random.default_rng(8)
    reg = _aux_register(fermion)
    s1 = plus_minus_basis(reg, "ta", "ra", "m1")
    s2 = plus_minus_basis(reg, "tb", "rb", "m2")
    v = rng.normal(size=reg.dim) + 1j * rng.normal(size=reg.dim)
    psi = from_amplitudes(reg, v, normalize=True)
    joint = joint_distribution(psi, [s1, s2])
    for o1 in _labels(s1):
        p1 = born_probabilities(psi, s1)[o1]
        if p1 < 1e-9:
            for o2 in _labels(s2):
                assert joint[(o1, o2)] == pytest.approx(0.0, abs=1e-9)
            continue
        collapsed, _ = post_select(psi, s1, o1)
        seq = born_probabilities(collapsed, s2)
        for o2 in _labels(s2):
            assert joint[(o1, o2)] == pytest.approx(p1 * seq[o2], abs=1e-10)


# --- locality ----------------------------------------------------------------

def test_site_local_measurement_leaves_remote_state_alone():
    # bosonic and two-level constructions: measuring at A cannot change
    # the reduced state at B
    reg = build_register(
        [boson("a", 1, Site.A), two_level("s", Site.A), boson("b", 1, Site.B)]
    )
    rng = np.random.default_rng(2)
    v = rng.normal(size=reg.dim) + 1j * rng.normal(size=reg.dim)
    psi = from_amplitudes(reg, v, normalize=True)
    rho_before = partial_trace(psi, {"b"}).elements
    for spec in (
        vacuum_one_superposition_basis(reg, "a"),
        spin_direction_measurement(reg, "s", 0.9),
    ):
        assert site_locality_gap(spec, Site.A) < 1e-12
        rho_after = np.zeros_like(rho_before)
        for label in _labels(spec):
            try:
                state, p = post_select(psi, spec, label)
            except ImpossibleOutcomeError:
                continue
            rho_after = rho_after + p * partial_trace(state, {"b"}).elements
        assert np.abs(rho_after - rho_before).max() < 1e-10


def test_fermionic_quadrature_basis_is_not_local():
    # the sign string makes the remote quadrature measurement disturb the
    # near side: asserted as a feature, it is what forbids local fermionic
    # phase readout
    reg = build_register([fermion("a", Site.A), fermion("b", Site.B)])
    spec_b = quadrature_basis(reg, "b")
    # the construction reaches across sites
    assert site_locality_gap(spec_b, Site.B) > PROJECTOR_ATOL

    amps = np.zeros(reg.dim, dtype=complex)
    amps[reg.index_of((0, 0))] = 1.0 / np.sqrt(2.0)
    amps[reg.index_of((1, 0))] = 1.0 / np.sqrt(2.0)
    psi = from_amplitudes(reg, amps)  # coherent across occupation at A
    rho_before = partial_trace(psi, {"a"}).elements
    rho_after = np.zeros_like(rho_before)
    for label in _labels(spec_b):
        state, p = post_select(psi, spec_b, label)
        rho_after = rho_after + p * partial_trace(state, {"a"}).elements
    assert np.abs(rho_after - rho_before).max() > 0.4

    # bosonic counterpart stays local
    breg = build_register([boson("a", 1, Site.A), boson("b", 1, Site.B)])
    bspec = quadrature_basis(breg, "b")
    assert site_locality_gap(bspec, Site.B) <= PROJECTOR_ATOL


def test_site_locality_gap_zero_for_local_projectors_on_split_site():
    # site A modes are declared non-contiguously; projectors P_S (x) I
    # built from a random hermitian matrix on them have no gap
    reg = build_register(
        [boson("a1", 2, Site.A), fermion("b1", Site.B), two_level("a2", Site.A),
         boson("o", 1, Site.O), fermion("a3", Site.A)]
    )
    inside = [q for q, m in enumerate(reg.modes) if m.site is Site.A]
    outside = [q for q, m in enumerate(reg.modes) if m.site is not Site.A]
    d_in = int(np.prod([reg.dims[q] for q in inside]))
    d_out = reg.dim // d_in
    rng = np.random.default_rng(4)
    h = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
    _, v = np.linalg.eigh(h + h.conj().T)
    # back from (inside, outside) order to declaration order
    dims = [reg.dims[q] for q in inside + outside]
    back = np.argsort(inside + outside)
    projectors = []
    for k, cols in enumerate((v[:, :5], v[:, 5:])):
        p_full = np.kron(cols @ cols.conj().T, np.eye(d_out)).reshape(dims * 2)
        p_full = p_full.transpose(list(back) + [len(dims) + q for q in back])
        projectors.append((str(k), OperatorMatrix(reg, p_full.reshape(reg.dim, -1))))
    spec = MeasurementSpec("local", tuple(projectors))
    assert site_locality_gap(spec, Site.A) < 1e-12


def test_site_gap_of_boundary_crossing_fermion_quadrature():
    reg = build_register(
        [fermion("a", Site.A), boson("o", 1, Site.O), fermion("b", Site.B)]
    )
    spec = quadrature_basis(reg, "b")
    assert site_locality_gap(spec, Site.B) >= 0.5
    # the bosonic quadrature has no string and stays local
    breg = build_register(
        [boson("a", 1, Site.A), boson("o", 1, Site.O), boson("b", 1, Site.B)]
    )
    bspec = quadrature_basis(breg, "b")
    assert site_locality_gap(bspec, Site.B) <= PROJECTOR_ATOL

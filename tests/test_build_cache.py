"""The process-wide store of builds that do not depend on phi.

The four spec constructors, the absence measurement and the photon-swap
and collective-chain setups keep their results in one least-recently-used
store (``operators._CACHE``), keyed by builder and arguments, for registers
of dim <= ``_CACHE_MAX_DIM`` and within ``_CACHE_BYTES``. Specs compare and
hash by identity and remember which specs they have passed the commuting
check with. Each build is charged the bytes of the distinct arrays it
holds, a spec's probe products among them.
"""

import math
import re
import sys
import threading

import numpy as np
import pytest

from qwave import (
    InvalidCutoffError,
    MeasurementSpec,
    NonCommutingSpecsError,
    Site,
    boson,
    build_register,
    fermion,
    joint_distribution,
    plus_minus_basis,
    quadrature_basis,
    spin_direction_measurement,
    two_level,
    vacuum_one_superposition_basis,
    vacuum_state,
)
from qwave import operators, protocols
from qwave.operators import _CACHE, _CACHE_BYTES, _CACHE_MAX_DIM


def _atoms(n: int):
    """A register of n two-level atoms, dim 2**n."""
    return build_register([two_level(f"t{i}") for i in range(n)])


@pytest.fixture(autouse=True)
def empty_store():
    _CACHE.clear()
    yield
    _CACHE.clear()


def _held_bytes() -> int:
    return sum(nbytes for _, nbytes in _CACHE._entries.values())


def _assert_same_projectors(a, b):
    for (_, p), (_, q) in zip(a.projectors, b.projectors):
        assert np.array_equal(p.elements, q.elements)


def test_the_store_never_holds_more_than_its_budget():
    reg = _atoms(6)
    assert reg.dim == _CACHE_MAX_DIM
    # every angle in (0, 2] gives projectors of the same size
    first = spin_direction_measurement(reg, "t0", 2.0)
    one = operators._charge(first)[1]
    count = 2 * _CACHE_BYTES // one
    for k in range(1, count + 1):
        spin_direction_measurement(reg, "t0", k / count)
        assert _CACHE.nbytes == _held_bytes() <= _CACHE_BYTES
    # full, and the oldest went first
    assert _CACHE.nbytes > _CACHE_BYTES - one
    assert len(_CACHE._entries) < count
    assert spin_direction_measurement(reg, "t0", 2.0) is not first


def test_a_kept_build_is_reused_and_the_least_recent_goes_first(monkeypatch):
    reg = _atoms(2)
    a = spin_direction_measurement(reg, "t0", 0.3)
    one = operators._charge(a)[1]
    monkeypatch.setattr(operators, "_CACHE_BYTES", 2 * one)
    b = spin_direction_measurement(reg, "t0", 0.4)
    assert spin_direction_measurement(reg, "t0", 0.3) is a  # a is now the newest
    spin_direction_measurement(reg, "t0", 0.5)  # evicts b
    assert spin_direction_measurement(reg, "t0", 0.3) is a
    assert spin_direction_measurement(reg, "t0", 0.4) is not b


def test_a_register_above_the_limit_is_built_afresh_on_every_call():
    big = _atoms(7)
    assert big.dim == 128 > _CACHE_MAX_DIM
    first = spin_direction_measurement(big, "t0", 0.3)
    again = spin_direction_measurement(big, "t0", 0.3)
    assert again is not first
    _assert_same_projectors(first, again)
    assert _CACHE.nbytes == 0
    small = _atoms(6)
    assert spin_direction_measurement(small, "t0", 0.3) is (
        spin_direction_measurement(small, "t0", 0.3))


def test_every_constructor_keeps_its_specs():
    reg = build_register([boson("a", 1, Site.A), boson("b", 1, Site.A),
                          fermion("f", Site.B), two_level("t", Site.B)])
    builds = [
        lambda: spin_direction_measurement(reg, "t", 0.7, "spin"),
        lambda: plus_minus_basis(reg, "a", "b"),
        lambda: vacuum_one_superposition_basis(reg, "a"),
        lambda: quadrature_basis(reg, "f"),
        lambda: protocols._absence_measurement(reg, ("a", "f"), "absent"),
    ]
    for build in builds:
        assert build() is build()
    # an equal register built again finds the same spec
    twin = build_register(list(reg.modes))
    assert twin is not reg
    assert quadrature_basis(twin, "f") is quadrature_basis(reg, "f")


def test_signed_zero_angles_share_a_key_and_projectors():
    reg = _atoms(2)
    plus = spin_direction_measurement(reg, "t1", 0.0)
    assert spin_direction_measurement(reg, "t1", -0.0) is plus
    _CACHE.clear()
    minus = spin_direction_measurement(reg, "t1", -0.0)
    assert minus is not plus
    _assert_same_projectors(plus, minus)


def test_arguments_of_other_types_get_their_own_keys():
    reg = _atoms(2)
    assert spin_direction_measurement(reg, "t0", 1) is not (
        spin_direction_measurement(reg, "t0", 1.0))
    # a keyword and a positional name are different keys, equal specs
    named = spin_direction_measurement(reg, "t0", 1.0, name="x")
    assert named is spin_direction_measurement(reg, "t0", 1.0, name="x")
    assert named.name == spin_direction_measurement(reg, "t0", 1.0, "x").name


def test_an_unhashable_argument_builds_without_the_store():
    reg = _atoms(2)
    theta = np.array(0.3)
    with pytest.raises(TypeError):
        hash(theta)
    first = spin_direction_measurement(reg, "t0", theta)
    assert spin_direction_measurement(reg, "t0", theta) is not first
    assert _CACHE.nbytes == 0
    _assert_same_projectors(first, spin_direction_measurement(reg, "t0", 0.3))


def test_a_failed_build_is_not_kept():
    reg = build_register([boson("a", 2), two_level("t")])
    for _ in range(2):
        with pytest.raises(InvalidCutoffError):
            quadrature_basis(reg, "a")
    assert _CACHE.nbytes == 0


def _build_in_threads(build, threads=4):
    """Run ``build(slot)`` in more threads than cores, switching threads
    often, and return the results by slot."""
    barrier = threading.Barrier(threads)
    results = [None] * threads

    def run(slot):
        barrier.wait()
        results[slot] = build(slot)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(slot,)) for slot in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(w.is_alive() for w in workers)
    return results


def test_threads_building_the_same_keys_get_equal_arrays():
    reg = _atoms(6)
    psi = vacuum_state(reg)
    other = spin_direction_measurement(reg, "t5", 0.0)

    def build(thetas):
        specs = [spin_direction_measurement(reg, "t3", t) for t in thetas]
        return specs, [joint_distribution(psi, [s, other]) for s in specs]

    # within the budget every thread gets the one build kept first
    thetas = [k * math.pi / 16 for k in range(16)]
    results = _build_in_threads(lambda slot: build(thetas))
    for specs, dists in results[1:]:
        assert all(a is b for a, b in zip(specs, results[0][0]))
        assert dists == results[0][1]
    assert _CACHE.nbytes == _held_bytes() <= _CACHE_BYTES
    assert len(_CACHE._entries) == len(thetas) + 1
    # past it, builds are evicted while other threads look them up
    thetas = [k * math.pi / 64 for k in range(64)]
    results = _build_in_threads(lambda slot: build(thetas[slot:] + thetas[:slot]))
    for slot, (specs, dists) in enumerate(results):
        for spec, theta, dist in zip(specs, thetas[slot:] + thetas[:slot], dists):
            k = thetas.index(theta)
            _assert_same_projectors(spec, results[0][0][k])
            assert dist == results[0][1][k]
    assert _CACHE.nbytes == _held_bytes() <= _CACHE_BYTES


def test_specs_compare_and_hash_by_identity():
    reg = _atoms(1)
    spec = spin_direction_measurement(reg, "t0", 0.0, "z")
    same_values = MeasurementSpec("z", spec.projectors)
    assert spec == spec and hash(spec) == hash(spec)
    assert spec != same_values
    assert len({spec, same_values, spec}) == 2


def test_a_passed_pair_is_remembered_and_a_failing_pair_raises_every_time():
    reg = _atoms(2)
    sz = spin_direction_measurement(reg, "t0", 0.0, "z")
    sx = spin_direction_measurement(reg, "t0", math.pi / 2.0, "x")
    other = spin_direction_measurement(reg, "t1", 0.0, "z1")
    psi = vacuum_state(reg)
    joint_distribution(psi, [sz, other])
    assert other in sz._commutes and sz in other._commutes
    message = re.escape("'z' and 'x' do not commute, max |(PQ - QP)R|: "
                        "5.000e-01 exceeds bound 1e-10")
    for _ in range(2):
        with pytest.raises(NonCommutingSpecsError, match=message):
            joint_distribution(psi, [sz, sx])
    assert sx not in sz._commutes


def test_the_setups_keep_their_coupler_spectra():
    reg, h, spec_a, spec_b = protocols._photon_swap_setup()
    assert "_spectrum" in h.__dict__
    assert protocols._photon_swap_setup()[1] is h
    assert protocols.photon_swap_experiment(0.4, 0, 1).passed
    reg, h, leptons = protocols._collective_setup(protocols._CHAIN_SITE_ORDER)
    assert "_spectrum" in h.__dict__
    assert protocols._collective_setup(protocols._CHAIN_SITE_ORDER)[2] is leptons


def _op_arrays(op):
    spectrum = op.__dict__.get("_spectrum")
    groups = spectrum.groups if spectrum is not None else ()
    pattern = op.__dict__.get("_pattern")
    return [op.elements, *([] if pattern is None else [pattern]),
            *(a for group in groups for a in group)]


def _spec_arrays(spec):
    return [a for _, p in spec.projectors for a in _op_arrays(p)] + list(spec._probed)


def _distinct_bytes(arrays) -> int:
    return sum({id(a): a.nbytes for a in arrays}.values())


def test_the_store_charges_a_specs_probe_products():
    reg = _atoms(3)
    spec = spin_direction_measurement(reg, "t1", 0.4)
    probes = sum(pr.nbytes for pr in spec._probed)
    assert probes == 2 * reg.dim * 2 * 16  # two (dim, 2) complex products
    assert operators._charge(spec) == (reg.dim, _distinct_bytes(_spec_arrays(spec)))
    assert _CACHE.nbytes == _held_bytes() == _distinct_bytes(_spec_arrays(spec))
    without = _distinct_bytes(a for _, p in spec.projectors for a in _op_arrays(p))
    assert _CACHE.nbytes == without + probes


def test_the_store_charges_every_array_of_the_photon_swap_setup():
    setup = reg, h, spec_a, spec_b = protocols._photon_swap_setup()
    held = _op_arrays(h) + _spec_arrays(spec_a) + _spec_arrays(spec_b)
    assert operators._charge(setup) == (reg.dim, _distinct_bytes(held))
    # the setup, and each spec it built through the store
    assert len(_CACHE._entries) == 3
    assert _CACHE.nbytes == _held_bytes() == (
        _distinct_bytes(held) + _distinct_bytes(_spec_arrays(spec_a))
        + _distinct_bytes(_spec_arrays(spec_b)))

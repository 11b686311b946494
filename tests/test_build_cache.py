"""The six setups that do not depend on phi, built once per process.

photon-swap, bell-chain, aux-phase with gauge-check, collective-chain,
fermion-nogo and rabi take their registers, couplers and specs from six
private setups in ``qwave.protocols``. Five are kept by
``functools.cache``: one photon-swap key, seven bell-chain keys (n = 2..8,
checked before the setup is reached), four aux-phase keys (two statistics
by two declaration orders), two collective-chain keys (two declaration
orders) and one fermion-nogo key, 15 in all. rabi's setup, its register,
coupler spectrum and excited-atom places, is kept per cutoff by
``functools.lru_cache``, for at most ``_RABI_SETUPS`` cutoffs. The
aux-phase and collective-chain setups hold creation operators and the
states a run splits its particle on, so a second run builds no operator.
The public spec constructors keep the specs they built most recently, at
most ``measurement._KEPT_SPECS`` of them: equal arguments of equal types on
equal registers get back the one validated spec. Specs compare and hash by
identity and remember which specs they have passed the commuting check
with, so a kept pair is read once per process.
"""

import json
import math
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from qwave import (
    InvalidCutoffError,
    MeasurementSpec,
    NonCommutingSpecsError,
    NTooLargeError,
    OperatorMatrix,
    Site,
    StateVector,
    ab_gauge_check,
    aux_particle_phase,
    bell_chain,
    boson,
    build_register,
    collective_chain,
    fermion_nogo,
    from_amplitudes,
    joint_distribution,
    photon_swap_experiment,
    quadrature_basis,
    rabi_rotation,
    spin_direction_measurement,
    two_level,
    vacuum_state,
)
from qwave import measurement, operators, protocols
from qwave.cli import EXIT_OK, RunConfig, canonical_json, run
from qwave.fock import MAX_REGISTER_DIM, ModeKind

GOLDEN_BATCH = Path(__file__).parent / "golden" / "batch.json"

SETUPS = (protocols._photon_swap_setup, protocols._bell_setup,
          protocols._aux_setup, protocols._collective_setup,
          protocols._fermion_nogo_setup, protocols._rabi_setup)

#: The alphas and cutoffs of the golden batch's rabi reports.
RABI_CONFIGS = ((2.0, 24), (10.0, 160))

#: Every argument tuple each setup can be called with; for rabi's, the
#: golden batch's cutoffs.
SETUP_KEYS = (
    [(protocols._photon_swap_setup, ())]
    + [(protocols._bell_setup, (n,)) for n in range(2, 9)]
    + [(protocols._aux_setup, (kind, order))
       for kind in (ModeKind.BOSON, ModeKind.FERMION)
       for order in (protocols._AUX_SITE_ORDER, protocols._AUX_SPECIES_ORDER)]
    + [(protocols._collective_setup, (order,))
       for order in (protocols._CHAIN_SITE_ORDER, protocols._CHAIN_SPECIES_ORDER)]
    + [(protocols._fermion_nogo_setup, ())]
    + [(protocols._rabi_setup, (cutoff,)) for _, cutoff in RABI_CONFIGS]
)


def _clear_setups():
    for setup in SETUPS:
        setup.cache_clear()


def _kept_keys() -> int:
    return sum(setup.cache_info().currsize for setup in SETUPS)


def _atoms(n: int):
    """A register of n two-level atoms, dim 2**n."""
    return build_register([two_level(f"t{i}") for i in range(n)])


def _assert_same_projectors(a, b):
    for (_, p), (_, q) in zip(a.projectors, b.projectors):
        assert np.array_equal(p.elements, q.elements)


def _specs(value):
    """The specs a setup's value holds, in order."""
    if isinstance(value, tuple):
        for item in value:
            yield from _specs(item)
    elif isinstance(value, MeasurementSpec):
        yield value


def test_equal_arguments_on_equal_registers_get_the_one_spec(fresh_specs):
    # at dim 64 and 128, two distinct registers of equal modes share the
    # spec that the first call built
    for n in (6, 7):
        first = spin_direction_measurement(_atoms(n), "t0", 0.3)
        again = spin_direction_measurement(_atoms(n), "t0", 0.3)
        assert again is first
    # another theta, name or type of theta is another key
    reg = _atoms(6)
    spec = spin_direction_measurement(reg, "t0", 0.3)
    assert spin_direction_measurement(reg, "t0", 0.4) is not spec
    assert spin_direction_measurement(reg, "t0", 0.3, "z") is not spec
    typed = spin_direction_measurement(reg, "t0", np.float64(0.3))
    assert typed is not spec
    _assert_same_projectors(typed, spec)


# a 0-d array cannot be a key, so it builds afresh; a scalar is kept
@pytest.mark.parametrize("theta, kept", [(np.array(0.3), False),
                                         (np.float64(0.3), True), (0.3, True)],
                         ids=["0d-array", "float64", "float"])
def test_a_0d_array_or_numpy_scalar_theta_builds_its_spec(theta, kept, fresh_specs):
    reg = _atoms(2)
    spec = spin_direction_measurement(reg, "t0", theta)
    _assert_same_projectors(spec, spin_direction_measurement(_atoms(2), "t0", 0.3))
    again = spin_direction_measurement(reg, "t0", theta)
    assert (again is spec) == kept
    _assert_same_projectors(again, spec)


def test_a_nan_theta_raises_on_every_call_and_a_bool_theta_as_it_did(fresh_specs):
    reg = _atoms(2)
    for theta in (float("nan"), np.nan, np.float64("nan")):
        for _ in range(2):
            with pytest.raises(ValueError, match="'[+]1' of 'spin[(]t0[)]' not hermitian: nan"):
                spin_direction_measurement(reg, "t0", theta)
    assert measurement._memo.cache_info().currsize == 0
    # True equals 1 but computes its cosine in float16, which fails the
    # idempotence check: a kept theta 1 is not handed back for it
    assert spin_direction_measurement(reg, "t0", 1).name == "spin(t0)"
    for _ in range(2):
        with pytest.raises(ValueError, match="not idempotent"):
            spin_direction_measurement(reg, "t0", True)
    assert measurement._memo.cache_info().currsize == 1


def _swap_pipeline_specs(phis):
    """perfbench's swap pipeline up to its measurement: a fresh register of
    one light mode and one atom per site, the photon on the atoms, and the
    transverse spin spec of each atom."""
    sites = [Site.A, Site.B, Site.O, Site.GLOBAL]
    reg = build_register([boson(f"light{k}", 1, s) for k, s in enumerate(sites)]
                         + [two_level(f"atom{k}", s) for k, s in enumerate(sites)])
    amps = np.zeros(reg.dim, dtype=complex)
    for k, phi in enumerate(phis):
        amps[reg.index_of([0] * 4 + [int(j == k) for j in range(4)])] = np.exp(1j * phi)
    specs = [spin_direction_measurement(reg, f"atom{k}", math.pi / 2.0) for k in range(4)]
    return from_amplitudes(reg, amps, normalize=True), specs


def test_a_repeated_swap_pipeline_validates_and_multiplies_nothing(monkeypatch,
                                                                    fresh_specs):
    psi, specs = _swap_pipeline_specs([0.1, 0.7, 1.9, 4.0])
    first = joint_distribution(psi, specs)
    calls = []
    post_init, sums = MeasurementSpec.__post_init__, operators._sums

    def counted_post_init(spec):
        calls.append("__post_init__")
        post_init(spec)

    def counted_sums(*args):
        calls.append("_sums")
        return sums(*args)

    monkeypatch.setattr(MeasurementSpec, "__post_init__", counted_post_init)
    monkeypatch.setattr(operators, "_sums", counted_sums)
    # another phi on a fresh register and state: the same specs come back,
    # and their pairs have passed the commuting check
    psi, again = _swap_pipeline_specs([2.5, 0.3, 5.1, 1.2])
    law = joint_distribution(psi, again)
    assert calls == []
    assert all(a is b for a, b in zip(again, specs))
    assert law.keys() == first.keys() and law != first


#: The bytes of a spin spec at MAX_REGISTER_DIM, row layouts included: two
#: projectors of 2 entries per row. No public constructor's spec holds more
#: there (a quadrature or a vacuum-one spec of a cutoff-1 mode holds as
#: much).
WORST_SPEC_BYTES = 655_376


def test_the_memo_keeps_its_most_recent_specs_within_its_bound(fresh_specs):
    reg = _atoms(12)
    assert reg.dim == MAX_REGISTER_DIM
    bound = measurement._KEPT_SPECS
    thetas = [0.1 * k for k in range(bound + 2)]
    specs = [spin_direction_measurement(reg, "t0", theta) for theta in thetas]
    assert max(_distinct_bytes(_spec_arrays(s)) for s in specs) == WORST_SPEC_BYTES
    # the two least recently used are dropped
    info = measurement._memo.cache_info()
    assert info.currsize == info.maxsize == bound
    kept = [spin_direction_measurement(reg, "t0", theta) for theta in thetas[2:]]
    assert all(a is b for a, b in zip(kept, specs[2:]))
    assert measurement._memo.cache_info().misses == info.misses
    assert _distinct_bytes(a for s in kept for a in _spec_arrays(s)) <= (
        bound * WORST_SPEC_BYTES)
    # reading the oldest kept spec again keeps it past the next build, which
    # drops the next oldest instead
    assert spin_direction_measurement(reg, "t0", thetas[2]) is specs[2]
    spin_direction_measurement(reg, "t0", 9.0)
    assert spin_direction_measurement(reg, "t0", thetas[2]) is specs[2]
    assert spin_direction_measurement(reg, "t0", thetas[3]) is not specs[3]


def test_every_constructor_keeps_its_specs():
    # every setup constructor, at each of its keys, hands back the specs
    # it built first; rabi's setup holds none
    _clear_setups()
    kept = [list(_specs(setup(*args))) for setup, args in SETUP_KEYS]
    holds_specs = [setup is not protocols._rabi_setup for setup, _ in SETUP_KEYS]
    assert [bool(specs) for specs in kept] == holds_specs
    for (setup, args), specs in zip(SETUP_KEYS, kept):
        again = list(_specs(setup(*args)))
        assert len(again) == len(specs)
        assert all(a is b for a, b in zip(again, specs))
    # the bell-chain setup holds the 2n + 1 direction specs
    assert [len(specs) for specs in kept[1:8]] == [2 * n + 1 for n in range(2, 9)]
    assert _kept_keys() == len(SETUP_KEYS)


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
    message = re.escape("'z' and 'x' do not commute, max |PQ - QP|: "
                        "5.000e-01 exceeds bound 1e-10")
    for _ in range(2):
        with pytest.raises(NonCommutingSpecsError, match=message):
            joint_distribution(psi, [sz, sx])
    assert sx not in sz._commutes


def test_a_failed_build_is_not_kept():
    reg = build_register([boson("a", 2), two_level("t")])
    for _ in range(2):
        with pytest.raises(InvalidCutoffError):
            quadrature_basis(reg, "a")
    # a chain length out of range is refused before its setup is reached
    protocols._bell_setup.cache_clear()
    for n, error in ((1, ValueError), (9, NTooLargeError), (2.5, ValueError),
                     (3.0, ValueError), (True, ValueError)):
        with pytest.raises(error):
            bell_chain(n, 0, 1)
    assert protocols._bell_setup.cache_info().currsize == 0


#: One run, at shots 0, of each experiment that takes a setup; together
#: they ask for every key of SETUP_KEYS.
RUNS = (
    [lambda: photon_swap_experiment(0.4, 0, 1)]
    + [lambda n=n: bell_chain(n, 0, 1) for n in range(2, 9)]
    + [lambda: aux_particle_phase(0.4, "boson", 0, 1),
       lambda: aux_particle_phase(0.4, "fermion", 0, 1),
       lambda: collective_chain(0.4, 0, 1),
       fermion_nogo]
    + [lambda a=alpha, c=cutoff: rabi_rotation(a, c) for alpha, cutoff in RABI_CONFIGS]
)


def _run_in_threads(work, threads=4):
    """Run ``work(slot)`` in more threads than cores, switching threads
    often, and return the results by slot."""
    barrier = threading.Barrier(threads)
    results = [None] * threads

    def target(slot):
        barrier.wait()
        results[slot] = work(slot)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=target, args=(slot,))
                   for slot in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(w.is_alive() for w in workers)
    return results


def test_threads_building_the_same_keys_get_equal_arrays():
    _clear_setups()

    def work(slot):
        # each thread starts at its own run, so threads build keys at once
        order = list(range(slot, len(RUNS))) + list(range(slot))
        return {k: RUNS[k]().to_dict() for k in order}

    results = _run_in_threads(work)
    assert all(reports == results[0] for reports in results[1:])
    assert all(report["pass"] for report in results[0].values())
    # one kept setup per key, whichever thread built it
    assert _kept_keys() == len(SETUP_KEYS)
    assert {k: run_once().to_dict() for k, run_once in enumerate(RUNS)} == results[0]


def test_the_setups_keep_their_coupler_spectra():
    protocols._photon_swap_setup.cache_clear()
    h = protocols._photon_swap_setup()[1]
    # the first evolve computes the spectrum and the coupler keeps it
    assert "_spectrum" not in h.__dict__
    assert photon_swap_experiment(0.4, 0, 1).passed
    assert "_spectrum" in h.__dict__
    assert protocols._photon_swap_setup()[1] is h
    protocols._collective_setup.cache_clear()
    setup = protocols._collective_setup(protocols._CHAIN_SITE_ORDER)
    assert "_spectrum" not in setup[1].__dict__
    assert collective_chain(0.4, 0, 1).passed
    assert "_spectrum" in setup[1].__dict__
    assert protocols._collective_setup(protocols._CHAIN_SITE_ORDER) is setup


@pytest.mark.parametrize("first, second", [
    (lambda: photon_swap_experiment(0.4, 0, 1),
     lambda: photon_swap_experiment(2.2, 1000, 3)),
    (lambda: bell_chain(3, 0, 1), lambda: bell_chain(3, 1000, 3)),
    (lambda: aux_particle_phase(0.4, "boson", 0, 1),
     lambda: aux_particle_phase(2.2, "boson", 1000, 3)),
    (lambda: aux_particle_phase(0.4, "fermion", 0, 1),
     lambda: aux_particle_phase(2.2, "fermion", 1000, 3)),
    (lambda: ab_gauge_check(0.4, 0.3, 0, 1),
     lambda: ab_gauge_check(2.2, 1.1, 1000, 3)),
    (lambda: collective_chain(0.4, 0, 1), lambda: collective_chain(2.2, 1000, 3)),
    (fermion_nogo, fermion_nogo),
    (lambda: rabi_rotation(2.0, 24), lambda: rabi_rotation(1.5, 24, times=[0.3, 0.9])),
], ids=["photon-swap", "bell-chain", "aux-phase-boson", "aux-phase-fermion",
        "gauge-check", "collective-chain", "fermion-nogo", "rabi"])
def test_a_second_run_validates_no_spec_and_decomposes_nothing(
    first, second, monkeypatch
):
    _clear_setups()
    assert first().passed
    specs, eighs = [], []
    post_init, eigh = MeasurementSpec.__post_init__, np.linalg.eigh

    def counted_post_init(spec):
        specs.append(spec.name)
        post_init(spec)

    monkeypatch.setattr(MeasurementSpec, "__post_init__", counted_post_init)
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: eighs.append(a.shape) or eigh(a))
    # at another phi (bell-chain: another seed; rabi: another alpha and
    # other times), with shots drawn
    assert second().passed
    assert specs == [] and eighs == []


#: The protocol builders of what the setups hold besides their specs: the
#: registers, the creation operators of the split particles,
#: collective-chain's photon resets and coupler, bell-chain's enumerated
#: LHV maximum, fermion-nogo's quadratures, split particles and pair
#: operators, and rabi's coupler.
HELD_BUILDERS = ("build_register", "creation", "_superposition_reset",
                 "lhv_max_satisfied", "quadrature", "prepare_superposition",
                 "_ladder_hermitian", "swap_coupler")

#: What a run builds afresh because it depends on phi: collective-chain's
#: photon targets and positron target.
PER_RUN = {"collective-chain": {"prepare_superposition"}}


@pytest.mark.parametrize("first, second", [
    (lambda: aux_particle_phase(0.4, "boson", 0, 1),
     lambda: aux_particle_phase(2.2, "boson", 1000, 3)),
    (lambda: aux_particle_phase(0.4, "fermion", 0, 1),
     lambda: aux_particle_phase(2.2, "fermion", 1000, 3)),
    (lambda: ab_gauge_check(0.4, 0.3, 0, 1),
     lambda: ab_gauge_check(2.2, 1.1, 1000, 3)),
    (lambda: collective_chain(0.4, 0, 1), lambda: collective_chain(2.2, 1000, 3)),
    (lambda: bell_chain(3, 0, 1), lambda: bell_chain(3, 1000, 3)),
    (fermion_nogo, fermion_nogo),
    (lambda: rabi_rotation(2.0, 24), lambda: rabi_rotation(1.5, 24, times=[0.3, 0.9])),
], ids=["aux-phase-boson", "aux-phase-fermion", "gauge-check",
        "collective-chain", "bell-chain", "fermion-nogo", "rabi"])
def test_a_second_run_builds_nothing_its_setup_holds(first, second, monkeypatch,
                                                      request):
    calls = []
    for name in HELD_BUILDERS:
        def counted(*args, _build=getattr(protocols, name), _name=name):
            calls.append(_name)
            return _build(*args)

        monkeypatch.setattr(protocols, name, counted)
    _clear_setups()
    assert first().passed
    # the first run builds its setup, so the counters see its builds
    assert calls
    calls.clear()
    # at another phi (bell-chain: another seed; rabi: another alpha and
    # other times), with shots drawn
    assert second().passed
    assert set(calls) == PER_RUN.get(request.node.callspec.id, set())


@pytest.mark.parametrize("first, second", [
    (lambda: aux_particle_phase(0.4, "boson", 0, 1),
     lambda: aux_particle_phase(2.2, "boson", 1000, 3)),
    (lambda: aux_particle_phase(0.4, "fermion", 0, 1),
     lambda: aux_particle_phase(2.2, "fermion", 1000, 3)),
    (lambda: ab_gauge_check(0.4, 0.3, 0, 1),
     lambda: ab_gauge_check(2.2, 1.1, 1000, 3)),
    (lambda: collective_chain(0.4, 0, 1), lambda: collective_chain(2.2, 1000, 3)),
], ids=["aux-phase-boson", "aux-phase-fermion", "gauge-check", "collective-chain"])
def test_a_second_run_lays_out_adds_and_kicks_nothing(first, second, monkeypatch):
    # a run splits its particles and kicks its modes on the amplitudes with
    # the operators its setup holds, so it builds no operator, no row
    # layout, no sum of operators and no phase kick
    calls = []
    patched = [(operators, "_row_layout"), (OperatorMatrix, "__add__"),
               (OperatorMatrix, "__sub__"), (OperatorMatrix, "__post_init__")]
    patched += [(module, "phase_kick") for module in (operators, protocols)
                if hasattr(module, "phase_kick")]
    for owner, name in patched:
        def counted(*args, _build=getattr(owner, name), _name=name):
            calls.append(_name)
            return _build(*args)

        monkeypatch.setattr(owner, name, counted)
    _clear_setups()
    assert first().passed
    assert calls
    calls.clear()
    # at another phi and kick, with shots drawn
    assert second().passed
    assert calls == []


def test_a_setup_held_operator_cannot_be_written():
    _clear_setups()
    held = [protocols._aux_setup(kind, protocols._AUX_SITE_ORDER)[2]
            for kind in (ModeKind.BOSON, ModeKind.FERMION)]
    el, _, _, resets = protocols._collective_setup(protocols._CHAIN_SITE_ORDER)[5:]
    held += [el, resets]
    pairs, pair_ops = protocols._fermion_nogo_setup()
    held += [[xa, xb] for _, xa, xb, *_ in pairs] + [pair_ops]
    ops = [op for pair in held for op in pair]
    assert len(ops) == 14
    for op in ops:
        for name in ("_values", "_pattern"):
            entries = op.__dict__[name]
            with pytest.raises(ValueError, match="read-only"):
                entries[0] = entries[-1]
    # every other array a setup holds, once every experiment has run: the
    # row layouts of the creation operators that a run's splits read, the
    # states they split on, spectra and rabi's excited-atom places
    for run_once in RUNS + [lambda: ab_gauge_check(0.4, 0.3, 0, 1)]:
        assert run_once().passed
    arrays = list(_held_arrays(tuple(setup(*args) for setup, args in SETUP_KEYS)))
    for kind in (ModeKind.BOSON, ModeKind.FERMION):
        test, aux = protocols._aux_setup(kind, protocols._AUX_SITE_ORDER)[2:]
        assert {id(up.__dict__["_layout"][0]) for up in test} | {
            id(aux.amplitudes)} <= {id(a) for a in arrays}
    states = protocols._collective_setup(protocols._CHAIN_SITE_ORDER)[6:8]
    assert {id(s.amplitudes) for s in states} <= {id(a) for a in arrays}
    for _, cutoff in RABI_CONFIGS:
        _, spectrum, excited = protocols._rabi_setup(cutoff)
        assert {id(a) for a in _spectrum_arrays(spectrum)} | {id(excited)} <= {
            id(a) for a in arrays}
    for a in arrays:
        if a.size:
            with pytest.raises(ValueError, match="read-only"):
                a.reshape(-1)[0] = a.reshape(-1)[-1]


@pytest.mark.parametrize("statistics", ["boson", "fermion"])
def test_aux_phase_runs_at_two_phases_give_their_solo_bytes_in_either_order(
    statistics
):
    def report(phi):
        return canonical_json(aux_particle_phase(phi, statistics, 1000, 3).to_dict())

    solo = {}
    for phi in (0.4, 2.2):
        _clear_setups()
        solo[phi] = report(phi)
    assert solo[0.4] != solo[2.2]
    for order in ((0.4, 2.2), (2.2, 0.4)):
        _clear_setups()
        assert [report(phi) for phi in order] == [solo[phi] for phi in order]


def _held_arrays(value):
    """The arrays a setup's value holds: the entries, row layouts and
    spectra of its operators, the spectra it holds without their operator,
    the amplitudes of its states and its own arrays."""
    if isinstance(value, tuple):
        for item in value:
            yield from _held_arrays(item)
    elif isinstance(value, OperatorMatrix):
        yield from _op_arrays(value)
    elif isinstance(value, MeasurementSpec):
        for _, p in value.projectors:
            yield from _held_arrays(p)
    elif isinstance(value, StateVector):
        yield value.amplitudes
    elif isinstance(value, operators.BlockSpectrum):
        yield from _spectrum_arrays(value)
    elif isinstance(value, np.ndarray):
        yield value


def _op_arrays(op):
    """The arrays an operator holds, read without building any: its
    entries, their row layout and its spectrum."""
    held = op.__dict__
    spectrum = held.get("_spectrum")
    layout = [a for a in held.get("_layout", ()) if a is not None]
    return [held["_pattern"], held["_values"], *layout,
            *(_spectrum_arrays(spectrum) if spectrum is not None else ())]


def _spectrum_arrays(spectrum):
    """A spectrum's block order and its groups' eigenvalues and
    eigenvectors; the groups' index arrays are views of the block order."""
    assert all(index.base is spectrum.order for index, _, _ in spectrum.groups)
    return [spectrum.order, *(a for _, w, v in spectrum.groups for a in (w, v))]


def _spec_arrays(spec):
    return [a for _, p in spec.projectors for a in _op_arrays(p)]


def _distinct_bytes(arrays) -> int:
    return sum({id(a): a.nbytes for a in arrays}.values())


def test_the_store_charges_every_array_of_the_photon_swap_setup():
    _clear_setups()
    assert photon_swap_experiment(0.4, 0, 1).passed
    setup = reg, h, spec_a, spec_b = protocols._photon_swap_setup()
    # the spectrum the first evolve computed is counted with the rest
    assert "_spectrum" in h.__dict__
    held = _op_arrays(h) + _spec_arrays(spec_a) + _spec_arrays(spec_b)
    assert {id(a) for a in _held_arrays(setup)} == {id(a) for a in held}
    assert _distinct_bytes(_held_arrays(setup)) == _distinct_bytes(held)


def _golden_store(tmp_path) -> list:
    """Every setup key's value, once the golden batch and every bell-chain
    length have run, each key kept already."""
    _clear_setups()
    for entry in json.loads(GOLDEN_BATCH.read_text()):
        config = RunConfig(
            experiment=entry["experiment"], params=entry["params"],
            shots=entry["shots"], seed=entry["seed"],
            output_path=str(tmp_path / Path(entry["out"]).name),
        )
        assert run(config) == EXIT_OK
    for n in range(2, 9):
        assert bell_chain(n, 0, 1).passed
    assert _kept_keys() == len(SETUP_KEYS) == 17
    misses = [setup.cache_info().misses for setup in SETUPS]
    values = [setup(*args) for setup, args in SETUP_KEYS]
    # every key was kept already
    assert [setup.cache_info().misses for setup in SETUPS] == misses
    return values


def test_the_store_never_holds_more_than_its_budget(tmp_path):
    """The store is the six setups' caches; its budget is 4 MiB over all
    17 keys, once every experiment has run."""
    values = _golden_store(tmp_path)
    # the runs computed every spectrum the protocols read
    keyed = dict(zip(SETUP_KEYS, values))
    assert "_spectrum" in keyed[protocols._photon_swap_setup, ()][1].__dict__
    assert all("_spectrum" in keyed[protocols._collective_setup, (order,)][1].__dict__
               for order in (protocols._CHAIN_SITE_ORDER,
                             protocols._CHAIN_SPECIES_ORDER))
    held = {id(a): a.nbytes for a in _held_arrays(tuple(values))}
    assert sum(held.values()) <= 4 << 20


def test_rabi_keeps_its_most_recent_setups_within_the_budget(tmp_path):
    """The worst case: the golden store, with rabi's cache filled at the
    largest cutoffs, whose setups hold the most."""
    values = _golden_store(tmp_path)
    largest = MAX_REGISTER_DIM // 2 - 1
    cutoffs = range(largest, largest - protocols._RABI_SETUPS - 2, -1)
    for cutoff in cutoffs:
        protocols._rabi_setup(cutoff)
    # the two least recently used are dropped
    info = protocols._rabi_setup.cache_info()
    assert info.currsize == info.maxsize == protocols._RABI_SETUPS
    kept = [protocols._rabi_setup(c) for c in cutoffs[-protocols._RABI_SETUPS:]]
    assert protocols._rabi_setup.cache_info().misses == info.misses
    others = [v for (setup, _), v in zip(SETUP_KEYS, values)
              if setup is not protocols._rabi_setup]
    held = {id(a): a.nbytes for a in _held_arrays(tuple(others + kept))}
    assert sum(held.values()) <= 4 << 20

"""The benchmark's tracer binds qwave names that must keep existing.

``perfbench/tracer.py`` wraps qwave's functions and methods by name for the
benchmark's traced run. Installing and uninstalling it here turns a deleted
or renamed name into a test failure, and checks that every binding it
replaced is restored. While it is installed, one operator is built and
decomposed afresh, so that the tracer's own reads of an operator (the
``elements`` that ``eigh``'s span fingerprints, the register that its
operator count charges) run on the class as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from qwave import boson, build_register, cli, fock, measurement, operators, protocols

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
CLASSES = (fock.StateVector, fock.DensityMatrix, operators.OperatorMatrix,
           measurement.MeasurementSpec, cli.RunConfig, protocols.ExperimentReport)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(modules, names) -> dict:
    found = {(m.__name__, n): getattr(m, n) for m in modules for n in names
             if hasattr(m, n)}
    for cls in CLASSES:
        found.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    found.update({("runner", k): d.runner for k, d in cli.EXPERIMENTS.items()})
    return found


def test_tracer_binds_existing_names_and_restores_them():
    tracer = _load_tracer()
    modules = [importlib.import_module(m) for m in tracer.MODULES]
    names = [n for group in tracer.FUNCTIONS.values() for n in group]
    missing = [n for n in names if not any(hasattr(m, n) for m in modules)]
    assert not missing

    before = _bindings(modules, names)
    derived = {k: (d.takes, d.defaults) for k, d in cli.EXPERIMENTS.items()}
    t = tracer.Tracer()
    try:
        t.install()
        installed = _bindings(modules, names)
        # what the registry read from the runners' signatures outlives the swap
        assert {k: (d.takes, d.defaults)
                for k, d in cli.EXPERIMENTS.items()} == derived
        assert cli.EXPERIMENTS["photon-swap"].run({"phi": 0.5}, 10, 1).shots == 10
        reg = build_register([boson("a", 3)])
        built = t.matrices
        op = operators.OperatorMatrix(reg, np.diag([0.0, 1.0, 2.0, 3.0]))
        assert t.matrices == built + 1
        assert t.matrix_bytes >= 16 * reg.dim**2
        op.eigh()
        (span,) = [rec for rec in t.spans if rec[1] == "operators.eigh"
                   and rec[6].get("dim") == reg.dim]
        assert len(span[6]["fingerprint"]) == 32
    finally:
        t.uninstall()
    assert installed != before
    assert _bindings(modules, names) == before

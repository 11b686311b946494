"""The benchmark's tracer binds qwave names that must keep existing.

``perfbench/tracer.py`` wraps qwave's functions and methods by name for the
benchmark's traced run. Installing and uninstalling it here turns a deleted
or renamed name into a test failure, and checks that every binding it
replaced is restored.
"""

import importlib
import importlib.util
from pathlib import Path

from qwave import cli, fock, measurement, operators, protocols

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
    finally:
        t.uninstall()
    assert installed != before
    assert _bindings(modules, names) == before

"""Spans recorded from outside qwave, at the bindings its callers use.

``Tracer.install()`` wraps qwave's public functions and methods, module by
module, wherever a caller looks them up (``qwave.protocols.evolve``,
``qwave.measurement.annihilation``, ``qwave.evolve``, ...), plus the
registered experiment runners and a few class methods. Each call becomes a
span: name, start, end, parent and op id, kept in memory and written out
with ``dump``. A call nested inside a span of the same name (one operator
constructor calling another, ``canonical_json`` recursing) joins the outer span.
``uninstall()`` restores every binding. Nothing under ``src/`` changes.

Self time is a span's duration minus its children's and minus the time the
tracer spent on the span's own bookkeeping (matrix fingerprints).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import threading
import time

# span name -> public functions of qwave recorded under it
FUNCTIONS = {
    "fock.register": ("build_register",),
    "fock.state": ("vacuum_state", "basis_state", "from_amplitudes",
                   "prepare_superposition"),
    "fock.partial_trace": ("partial_trace",),
    "operators.build": ("identity", "annihilation", "creation",
                        "number_operator", "quadrature", "pair_exchange",
                        "swap_coupler", "nucleon_coupler", "phase_kick",
                        "coherent_state", "coherent_amplitudes"),
    "operators.poisson_tail": ("poisson_tail",),
    "operators.commutator": ("commutator_norm",),
    "operators.evolve": ("evolve",),
    "operators.apply": ("apply",),
    "measurement.spec": ("spin_direction_measurement", "plus_minus_basis",
                         "vacuum_one_superposition_basis", "quadrature_basis",
                         "site_locality_gap"),
    "measurement.born": ("born_probabilities",),
    "measurement.joint": ("joint_distribution",),
    "measurement.sample": ("sample", "sample_counts"),
    "measurement.post_select": ("post_select",),
    "cli.serialize": ("canonical_json", "render_csv"),
    "cli.run": ("run",),
}

MODULES = ("qwave", "qwave.fock", "qwave.operators", "qwave.measurement",
           "qwave.protocols", "qwave.cli")

LAYERS = ("import", "fock", "operators", "measurement", "protocols", "cli")

EXPERIMENTS = ("photon-swap", "rabi", "bell-chain", "aux-phase", "fermion-nogo",
               "coherent-factorization", "collective-chain", "gauge-check")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent, op, attrs]
        self.matrices = 0
        self.matrix_bytes = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, on_exit=None):
        """``fn`` recorded as span ``name``; ``on_exit(attrs, args, result)``
        runs after the span ends and its cost is charged to nobody."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            rec = [span_id, name, 0.0, 0.0,
                   parent[0] if parent else None,
                   parent[5] if parent else span_id, {}]
            stack.append(rec)
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
                tracer.spans.append(rec)
            if on_exit is not None:
                t0 = time.perf_counter()
                on_exit(rec[6], args, result)
                if parent is not None:
                    parent[6]["excluded"] = (parent[6].get("excluded", 0.0)
                                             + time.perf_counter() - t0)
            return result

        return traced

    def add_span(self, name: str, start: float, end: float, **attrs) -> None:
        """A root span the caller timed itself (the import of qwave)."""
        span_id = next(self._ids)
        self.spans.append([span_id, name, start, end, None, span_id, attrs])

    # -- installing ------------------------------------------------------

    def _set(self, owner, attr, value, frozen=False) -> None:
        self._undo.append((owner, attr, getattr(owner, attr), frozen))
        if frozen:
            object.__setattr__(owner, attr, value)
        else:
            setattr(owner, attr, value)

    def install(self) -> None:
        import importlib

        from qwave import cli, fock, measurement, operators, protocols

        modules = [importlib.import_module(m) for m in MODULES]
        for name, functions in FUNCTIONS.items():
            on_exit = _ON_EXIT.get(name)
            for fname in functions:
                original = next(getattr(m, fname) for m in modules
                                if hasattr(m, fname))
                wrapped = self.wrap(name, original, on_exit)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        self._set(module, fname, wrapped)

        methods = [
            (fock.StateVector, "__post_init__", "fock.state", None),
            (fock.DensityMatrix, "__post_init__", "fock.partial_trace", None),
            (operators.OperatorMatrix, "eigh", "operators.eigh", _eigh_attrs),
            (measurement.MeasurementSpec, "__post_init__", "measurement.spec",
             None),
            (cli.RunConfig, "resolve", "cli.resolve", None),
            (protocols.ExperimentReport, "to_dict", "cli.serialize", None),
        ]
        methods += [(operators.OperatorMatrix, m, "operators.algebra", None)
                    for m in ("__add__", "__sub__", "__mul__", "__rmul__",
                              "__matmul__", "__neg__", "dag")]
        for cls, attr, name, on_exit in methods:
            self._set(cls, attr, self.wrap(name, getattr(cls, attr), on_exit))

        matrix_init = operators.OperatorMatrix.__post_init__

        def counted_init(matrix):
            matrix_init(matrix)
            with self._lock:
                self.matrices += 1
                self.matrix_bytes += 16 * matrix.register.dim ** 2

        self._set(operators.OperatorMatrix, "__post_init__", counted_init)

        for defn in cli.EXPERIMENTS.values():
            self._set(defn, "runner",
                      self.wrap(f"protocols.{defn.name}", defn.runner),
                      frozen=True)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value, frozen = self._undo.pop()
            if frozen:
                object.__setattr__(owner, attr, value)
            else:
                setattr(owner, attr, value)

    # -- output ----------------------------------------------------------

    @property
    def counters(self) -> dict:
        return {"matrices": self.matrices, "matrix_bytes": self.matrix_bytes}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.counters) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _eigh_attrs(attrs, args, result) -> None:
    elements = args[0].elements
    attrs["dim"] = int(elements.shape[0])
    attrs["fingerprint"] = hashlib.blake2b(elements.tobytes(),
                                           digest_size=16).hexdigest()


def _sample_attrs(attrs, args, result) -> None:
    attrs["shots"] = int(args[2])


def _post_select_attrs(attrs, args, result) -> None:
    attrs["kept"] = float(result[1])


_ON_EXIT = {"measurement.sample": _sample_attrs,
            "measurement.post_select": _post_select_attrs}


def load(path: str, offset: int = 0) -> tuple[dict, list[list]]:
    """Counters and spans written by ``Tracer.dump``, span ids shifted by
    ``offset`` so that spans of several processes can be pooled."""
    with open(path, encoding="utf-8") as fh:
        counters = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    for rec in spans:
        rec[0] += offset
        rec[5] += offset
        if rec[4] is not None:
            rec[4] += offset
    return counters, spans


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus children and excluded bookkeeping."""
    own = {rec[0]: rec[3] - rec[2] - rec[6].get("excluded", 0.0)
           for rec in spans}
    for rec in spans:
        if rec[4] is not None and rec[4] in own:
            own[rec[4]] -= rec[3] - rec[2]
    return own


def aggregate(spans: list[list], counters: dict, units: float) -> dict:
    """Per-layer metrics from spans, with counts and times per unit of work
    (per pass, or per CLI process). ``units`` is that number of units."""
    own = self_times(spans)
    by_name: dict[str, list] = {}
    for rec in spans:
        by_name.setdefault(rec[1], []).append(rec)

    def self_s(name):
        return sum(own[r[0]] for r in by_name.get(name, ())) / units

    def calls(name):
        return len(by_name.get(name, ())) / units

    m = {}
    for name in ("operators.evolve", "operators.eigh", "operators.build",
                 "measurement.joint", "measurement.post_select",
                 "measurement.born"):
        m[f"{name}.calls"] = calls(name)
    for name in ("measurement.spec", "fock.state"):
        m[f"{name}.count"] = calls(name)
    names = set(FUNCTIONS) | {"operators.eigh", "operators.algebra",
                              "cli.resolve"}
    for name in sorted(names):
        m[f"{name}.self_s"] = self_s(name)
    eighs = by_name.get("operators.eigh", ())
    m["operators.eigh.max_dim"] = max((r[6]["dim"] for r in eighs), default=0)
    distinct = {(r[5], r[6]["fingerprint"]) for r in eighs}
    m["operators.eigh.distinct_ratio"] = (
        len(distinct) / len(eighs) if eighs else 0.0
    )
    m["operators.matrix.count"] = counters["matrices"] / units
    m["operators.matrix.bytes"] = counters["matrix_bytes"] / units
    shots = sum(r[6]["shots"] for r in by_name.get("measurement.sample", ()))
    m["measurement.sample.shots"] = shots / units
    m["measurement.sample.ns_per_shot"] = (
        1e9 * self_s("measurement.sample") * units / shots if shots else 0.0
    )
    kept = [r[6]["kept"] for r in by_name.get("measurement.post_select", ())]
    m["measurement.post_select.kept_ratio"] = (
        sum(kept) / len(kept) if kept else 0.0
    )
    for experiment in EXPERIMENTS:
        m[f"protocols.{experiment}.self_s"] = self_s(f"protocols.{experiment}")

    layer_self = {layer: 0.0 for layer in LAYERS}
    for rec in spans:
        layer = rec[1].split(".")[0]
        if layer in layer_self:
            layer_self[layer] += own[rec[0]]
    total = sum(own.values())
    for layer, value in layer_self.items():
        m[f"share.{layer}"] = value / total if total else 0.0
    return m

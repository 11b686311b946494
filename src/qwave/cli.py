"""Batch front-end: parse run configurations, execute protocols, write reports.

Reports serialize to a canonical JSON form (sorted keys, floats printed
with 17 significant digits) so identical configurations produce
byte-identical files. CSV output flattens the same content to one row per
named quantity. Exit codes: 0 success, 2 configuration error, 3 protocol
error, 4 I/O error. Set QWAVE_LOG=debug|info|warning for logging.
"""

from __future__ import annotations

import cmath
import contextlib
import inspect
import json
import logging
import operator
import os
import stat
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import click
import numpy as np

from . import protocols
from .errors import ConfigError, SimulationError
from .protocols import ExperimentReport

logger = logging.getLogger("qwave")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROTOCOL = 3
EXIT_IO = 4


# ---------------------------------------------------------------------------
# experiment registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: str  # "float" | "int" | "complex" | "choice" | "float_list"
    choices: tuple[str, ...] = ()
    help: str = ""

    def parse(self, raw):
        try:
            # float() and int() would read a JSON true as 1
            if isinstance(raw, (bool, np.bool_)):
                raise TypeError(f"must not be a bool, got {raw}")
            if self.kind == "float":
                return _finite(float(raw))
            if self.kind == "int":
                # int() would truncate 2.9; only strings use it
                return int(raw) if isinstance(raw, str) else operator.index(raw)
            if self.kind == "complex":
                return _finite(complex(str(raw).replace(" ", "")))
            if self.kind == "choice":
                value = str(raw).lower()
                if value not in self.choices:
                    raise ValueError(f"must be one of {self.choices}")
                return value
            if self.kind == "float_list":
                if not isinstance(raw, (list, tuple)):
                    raw = [x for x in str(raw).split(",") if x.strip()]
                return [ParamSpec(self.name, "float").parse(x) for x in raw]
        # float() of an integer beyond the float range raises OverflowError
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"parameter {self.name!r}: {exc}") from exc
        raise ConfigError(f"parameter {self.name!r}: unknown kind {self.kind!r}")

    def schema(self, defaults: dict) -> dict:
        entry = {"type": self.kind, "required": self.name not in defaults}
        if self.name in defaults:
            entry["default"] = defaults[self.name]
        if self.choices:
            entry["choices"] = list(self.choices)
        return entry


def _finite(x):
    if not cmath.isfinite(x):
        raise ValueError(f"must be finite, got {x}")
    return x


@dataclass(frozen=True)
class ExperimentDef:
    """A registered experiment. Whether the runner takes shots and seed, its
    parameters (from ``PARAMS``) and each optional parameter's default are
    read once from its signature."""

    name: str
    runner: Callable[..., ExperimentReport]
    description: str
    topic: str
    takes: frozenset[str] = field(init=False)  # subset of {"shots", "seed"}
    params: tuple[ParamSpec, ...] = field(init=False)
    defaults: dict = field(init=False, compare=False)  # optional name -> default

    def __post_init__(self):
        signature = inspect.signature(self.runner).parameters
        object.__setattr__(self, "takes", frozenset(signature) & {"shots", "seed"})
        object.__setattr__(self, "params", tuple(
            PARAMS[name] for name in signature if name not in self.takes
        ))
        object.__setattr__(self, "defaults", {
            name: p.default for name, p in signature.items()
            if p.default is not p.empty
        })

    def run(self, params: dict, shots: int, seed: int) -> ExperimentReport:
        run_args = {"shots": shots, "seed": seed}
        return self.runner(**params, **{k: run_args[k] for k in self.takes})


#: Every run parameter, keyed by name: one kind and one help text per name,
#: whichever experiments take it.
PARAMS: dict[str, ParamSpec] = {spec.name: spec for spec in (
    ParamSpec("phi", "float",
              help="relative phase of the split photon; phase of the test "
                   "particle; phase of the split electron"),
    ParamSpec("alpha", "complex",
              help="coherent drive amplitude; delocalized-mode amplitude"),
    ParamSpec("cutoff", "int",
              help="field occupation cutoff; per-mode occupation cutoff"),
    ParamSpec("times", "float_list",
              help="comma-separated times; defaults to a quarter-period grid"),
    ParamSpec("tail_bound", "float",
              help="allowed occupation tail above the cutoff"),
    ParamSpec("n", "int", help="half the number of chained relations"),
    ParamSpec("statistics", "choice", choices=("boson", "fermion"),
              help="particle statistics"),
    ParamSpec("kick", "float", help="phase kick applied at site B"),
)}


EXPERIMENTS: dict[str, ExperimentDef] = {}


def _register(defn: ExperimentDef) -> None:
    EXPERIMENTS[defn.name] = defn


_register(ExperimentDef(
    name="photon-swap",
    runner=protocols.photon_swap_experiment,
    description="Swap a split single photon onto two remote two-level atoms "
                "and read the phase out of transverse-basis coincidences.",
    topic="single-particle entanglement correlations",
))
_register(ExperimentDef(
    name="rabi",
    runner=protocols.rabi_rotation,
    description="Coherent-field-driven rotation of a two-level system vs the "
                "classical rotation formula.",
    topic="coherent-state phase reference",
))
_register(ExperimentDef(
    name="bell-chain",
    runner=protocols.bell_chain,
    description="Chained singlet anti-correlations against exhaustively "
                "enumerated deterministic local assignments.",
    topic="nonlocal correlations without local causes",
))
_register(ExperimentDef(
    name="aux-phase",
    runner=protocols.aux_particle_phase,
    description="Phase readout from local correlations given an auxiliary "
                "identical particle with known phase.",
    topic="auxiliary-particle phase estimation",
))
_register(ExperimentDef(
    name="fermion-nogo",
    runner=protocols.fermion_nogo,
    description="Quadrature commutators, the fermion-pair loophole and the "
                "signaling cost of pretending fermionic quadratures are local.",
    topic="fermionic phase obstruction",
))
_register(ExperimentDef(
    name="coherent-factorization",
    runner=protocols.coherent_factorization,
    description="A delocalized-mode coherent state equals a product of local "
                "coherent states: entanglement-free phase reference.",
    topic="coherent-state phase reference",
))
_register(ExperimentDef(
    name="collective-chain",
    runner=protocols.collective_chain,
    description="Pair-annihilation and post-selection chain transferring a "
                "split electron's phase to a positron and then to photons "
                "with a known phase.",
    topic="collective measurements and post-selection",
))
_register(ExperimentDef(
    name="gauge-check",
    runner=protocols.ab_gauge_check,
    description="Correlations are unchanged when a potential pulse kicks "
                "every charge at one site; kicking the test particle alone "
                "shifts the effective phase.",
    topic="gauge invariance of phase correlations",
))


def list_experiments() -> list[dict]:
    """Machine-readable catalog of the registered experiments."""
    catalog = []
    for name in sorted(EXPERIMENTS):
        defn = EXPERIMENTS[name]
        catalog.append({
            "name": defn.name,
            "description": defn.description,
            "topic": defn.topic,
            "uses_shots": "shots" in defn.takes,
            "uses_seed": "seed" in defn.takes,
            "params": {p.name: p.schema(defn.defaults) for p in defn.params},
        })
    return catalog


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """One experiment invocation: raw parameters plus shots, seed and output."""

    experiment: str
    params: dict = field(default_factory=dict)
    shots: int = 0
    seed: int | None = None
    output_path: str | None = None
    format: str = "json"

    def resolve(self) -> tuple[ExperimentDef, dict, int, int]:
        """Validate every field and parse parameter types, shots and seed;
        returns the experiment, the parameters given, shots and seed. The
        runner supplies the defaults of parameters left out."""
        if not isinstance(self.experiment, str) or self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; "
                f"known: {sorted(EXPERIMENTS)}"
            )
        if not isinstance(self.params, dict):
            raise ConfigError(f"params must be an object, got {self.params!r}")
        out = self.output_path
        if out is not None and not _is_file_path(out):
            raise ConfigError(f"out must be a file path, got {out!r}")
        defn = EXPERIMENTS[self.experiment]
        schema = {p.name: p for p in defn.params}
        unknown = sorted(set(self.params) - set(schema))
        if unknown:
            raise ConfigError(
                f"experiment {self.experiment!r} does not take parameters "
                f"{unknown}; schema: {sorted(schema)}"
            )
        parsed = {}
        for pname, pspec in schema.items():
            if self.params.get(pname) is not None:
                parsed[pname] = pspec.parse(self.params[pname])
            elif pname not in defn.defaults:
                raise ConfigError(
                    f"experiment {self.experiment!r} requires parameter {pname!r}"
                )
        if self.seed is None:
            raise ConfigError("seed is required (no wall-clock default)")
        seed = ParamSpec("seed", "int").parse(self.seed)
        # a seed is the entropy of the sampler's SeedSequence, which takes
        # any int >= 0; it is capped at 128 bits, the size of a Philox key
        if not 0 <= seed < 2**128:
            raise ConfigError(f"seed must be in [0, 2**128), got {seed}")
        shots = ParamSpec("shots", "int").parse(self.shots)
        if shots < 0:
            raise ConfigError("shots must be >= 0")
        # the sampler's multinomial draw counts shots in a 64-bit integer
        if shots >= 2**63:
            raise ConfigError(f"shots must be below 2**63, got {shots}")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"unknown format {self.format!r}")
        return defn, parsed, shots, seed


#: The keys of a run object (a batch entry, or the options of ``qwave run``)
#: and the RunConfig field each one sets.
_RUN_KEYS = {"experiment": "experiment", "params": "params", "shots": "shots",
             "seed": "seed", "out": "output_path", "format": "format"}


def _run_config(entry, where: str) -> RunConfig:
    """The RunConfig of one run object; ``where`` names it in errors. Only
    the keys are checked here: ``RunConfig.resolve`` checks the values."""
    if not isinstance(entry, dict) or "experiment" not in entry:
        raise ConfigError(f"{where} must be an object with 'experiment'")
    unknown = sorted(set(entry) - set(_RUN_KEYS))
    if unknown:
        raise ConfigError(
            f"{where} has unknown keys {unknown}; known: {sorted(_RUN_KEYS)}"
        )
    return RunConfig(**{_RUN_KEYS[key]: value for key, value in entry.items()})


def _is_file_path(out) -> bool:
    """Whether an output names a file: a non-empty str or PathLike with no
    NUL byte."""
    if not isinstance(out, (str, os.PathLike)):
        return False
    name = os.fsdecode(out)
    return bool(name) and "\0" not in name


def _file_keys(path) -> list:
    """The keys a file is known by: its absolute path with symlinks
    resolved and, when it exists, its device and inode (so hard links to
    one file share a key)."""
    keys: list = [os.path.realpath(path)]
    try:
        st = os.stat(path)
    except OSError:
        return keys
    return keys + [(st.st_dev, st.st_ino)]


def _claim_output(writers: dict, config: RunConfig, i: int) -> None:
    """Record batch entry ``i`` as the writer of its output file in
    ``writers``, which maps the batch file's keys to None. Two entries
    writing the same file would lose one report, and an entry writing the
    batch file would overwrite its input. ``resolve`` rejects an output
    that is not a file path."""
    if not _is_file_path(config.output_path):
        return
    keys = _file_keys(config.output_path)
    for key in keys:
        if key not in writers:
            continue
        if writers[key] is None:
            raise ConfigError(f"batch entry {i} writes the batch file {keys[0]!r}")
        raise ConfigError(
            f"batch entries {writers[key]} and {i} share the output "
            f"file {keys[0]!r}"
        )
    writers.update(dict.fromkeys(keys, i))


def run(config: RunConfig, entry: int | None = None) -> int:
    """Execute one configuration; returns the process exit code. A report
    that cannot be rendered (a NaN, say) exits 3 and writes nothing. A
    batch passes the ``entry`` index, which its error object carries."""
    try:
        defn, params, shots, seed = config.resolve()
        logger.info("running %s params=%s shots=%s seed=%s",
                    config.experiment, params, shots, seed)
        report = defn.run(params, shots, seed)
        report.seed = seed
        if config.format == "csv":
            text = render_csv(report)
        else:
            text = canonical_json(report.to_dict()) + "\n"
        if config.output_path is not None:
            _write_in_place(config.output_path, text)
        else:
            sys.stdout.write(text)
    except ConfigError as exc:
        return _emit_error("ConfigError", EXIT_CONFIG, str(exc), entry)
    except (SimulationError, ValueError) as exc:
        return _emit_error(type(exc).__name__, EXIT_PROTOCOL, str(exc), entry)
    except OSError as exc:
        return _emit_error("IoError", EXIT_IO, str(exc), entry)
    return EXIT_OK


def _write_in_place(path, text: str) -> None:
    """Write ``text`` over the file at ``path``, created if missing. The
    file is opened without truncating it and cut to the new length after
    the write: on ext4, a file truncated to 0 bytes and rewritten has its
    writeback started on close. Nothing is synced, so a crash mid-write can
    leave the old report, the new one or a mix of both. Only a regular file
    is cut; ``/dev/null`` cannot be."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _emit_error(err_type: str, code: int, message: str, entry=None) -> int:
    """Write the error object to stderr as one JSON line, with the batch
    ``entry`` index when one is given; returns ``code``."""
    error = {"type": err_type, "code": code, "message": message}
    if entry is not None:
        error["entry"] = entry
    sys.stderr.write(json.dumps({"error": error}, sort_keys=True) + "\n")
    return code


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("reports must not contain NaN or infinities")
    return f"{x:.17g}"


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits.

    Accepts numpy scalars alongside native Python types; everything else
    is rejected rather than guessed at.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            rendered = canonical_json(obj[key], indent + 1)
            items.append(f"{inner}{json.dumps(str(key))}: {rendered}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [inner + canonical_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_csv(report: ExperimentReport) -> str:
    """One row per named quantity: kind,name,value,count."""
    rows = ["kind,name,value,count"]
    rows.append(f"meta,experiment,{report.experiment},")
    rows.append(f"meta,seed,{report.seed},")
    rows.append(f"meta,shots,{report.shots},")
    rows.append(f"meta,pass,{str(report.passed).lower()},")
    for name in sorted(report.params):
        value = report.params[name]
        if isinstance(value, float):
            value = _format_float(value)
        elif isinstance(value, list):
            value = '"' + ";".join(_format_float(float(v)) for v in value) + '"'
        rows.append(f"param,{name},{value},")
    for name in sorted(report.analytic):
        rows.append(f"analytic,{name},{_format_float(report.analytic[name])},")
    for name in sorted(report.empirical):
        stat = report.empirical[name]
        rows.append(
            f"empirical,{name},{_format_float(stat.value)},{stat.count}"
        )
    for name, gap in sorted(report.discrepancies.items()):
        rows.append(f"discrepancy,{name},{_format_float(gap)},")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _configure_logging() -> None:
    # only a level name sets the level (logging.BASIC_FORMAT is a format)
    level = logging.getLevelName(os.environ.get("QWAVE_LOG", "warning").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
                        format="%(name)s %(levelname)s %(message)s")


class _Commands(click.Group):
    """The command group. A usage error of click (an unknown option, an
    extra or missing argument, a bad ``--jobs`` or a batch file that is not
    there) is a configuration error: one JSON error line and exit 2. Bare
    ``qwave`` still prints its help."""

    def make_context(self, *args, **kwargs):
        with _usage_errors_as_json():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_errors_as_json():
            return super().invoke(ctx)


@contextlib.contextmanager
def _usage_errors_as_json():
    try:
        yield
    except click.exceptions.NoArgsIsHelpError:
        raise
    except click.UsageError as exc:
        sys.exit(_emit_error("ConfigError", EXIT_CONFIG, exc.format_message()))


@click.group(cls=_Commands)
def main():
    """Exact simulator of split-particle nonlocality experiments."""
    _configure_logging()


def _parameter_options(command):
    """One option per entry of ``PARAMS``, ``--`` plus the name with ``_``
    as ``-``. Values stay raw strings: the chosen experiment's ParamSpec
    parses them."""
    # click lists options in reverse order of application
    for spec in reversed(PARAMS.values()):
        command = click.option("--" + spec.name.replace("_", "-"), spec.name,
                               default=None, help=spec.help)(command)
    return command


@main.command(name="run")
@click.argument("experiment")
@_parameter_options
@click.option("--shots", help="number of sampled shots, 0 for analytic only "
                             f"[default: {RunConfig.shots}]")
@click.option("--seed", help="experiment seed (required)")
@click.option("--out", help="output file (default stdout)")
@click.option("--format", "fmt",
              help=f"json or csv [default: {RunConfig.format}]")
def run_command(experiment, shots, seed, out, fmt, **params):
    """Run one experiment and write its report."""
    # options not given are None and left out; RunConfig.resolve parses the rest
    entry = {"experiment": experiment, "shots": shots, "seed": seed,
             "out": out, "format": fmt,
             "params": {k: v for k, v in params.items() if v is not None}}
    config = _run_config({k: v for k, v in entry.items() if v is not None},
                         "qwave run")
    sys.exit(run(config))


@main.command(name="list")
def list_command():
    """Print the machine-readable experiment catalog."""
    sys.stdout.write(canonical_json(list_experiments()) + "\n")


@main.command(name="batch")
@click.argument("config_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--jobs", default=1, type=click.IntRange(min=1),
              show_default=True, help="parallel runs (>= 1)")
def batch_command(config_file, jobs):
    """Run every configuration in a JSON array file."""
    try:
        with open(config_file, "r", encoding="utf-8") as fh:
            entries = json.load(fh)
        if not isinstance(entries, list):
            raise ValueError("batch file must hold a JSON array")
    except (OSError, ValueError) as exc:
        sys.exit(_emit_error("ConfigError", EXIT_CONFIG, f"bad batch file: {exc}"))

    # every key is checked before any output; an error names entry i
    try:
        configs = []
        for i, entry in enumerate(entries):
            configs.append(_run_config(entry, f"batch entry {i}"))
        writers = dict.fromkeys(_file_keys(config_file))
        for i, config in enumerate(configs):
            _claim_output(writers, config, i)
    except ConfigError as exc:
        sys.exit(_emit_error("ConfigError", EXIT_CONFIG, str(exc), i))

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        codes = list(pool.map(run, configs, range(len(configs))))
    for config, code in zip(configs, codes):
        status = "ok" if code == EXIT_OK else f"failed({code})"
        click.echo(f"{config.experiment}: {status}", err=True)
    failures = [c for c in codes if c != EXIT_OK]
    sys.exit(failures[0] if failures else EXIT_OK)


if __name__ == "__main__":
    main()

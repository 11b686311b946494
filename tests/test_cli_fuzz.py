"""Every config value maps to a documented exit code.

Batch files and ``qwave run`` options are drawn with JSON values of every
type in every field, and options with names that no parameter has: bools, integers beyond 2**63 and beyond the float
range, NaN and infinity literals, nested containers, and non-ASCII and NUL
strings. Output paths name new files, existing files (the batch file
itself among them), ``/dev/null``, directories and missing directories.
Each run, in process through click's ``CliRunner``, exits 0, 2, 3 or 4
with no traceback; each error is one JSON line with its ``code``, a batch
exits with the code of its first failed entry, and an exit 0 leaves reports
that parse back.
"""

import csv
import io
import json
import os
import tempfile

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qwave.cli import (
    EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_PROTOCOL, EXPERIMENTS, main,
)

EXIT_CODES = {EXIT_OK, EXIT_CONFIG, EXIT_PROTOCOL, EXIT_IO}

#: Integers at the edges: the 64-bit limits, a 128-bit seed's and beyond
#: the float range.
_EDGE_INTS = [2**63 - 1, 2**63, 2**64 + 1, 2**128, -(2**63), 10**400, -(10**400)]

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    # small enough to run fast where they are valid (a cutoff, n, shots)
    st.integers(-3, 40),
    st.sampled_from(_EDGE_INTS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.sampled_from(["0.5", "1+1j", "nan", "inf", "-inf", "1e400", "0.1,0.2",
                     "boson", "FERMION", "a\0b", "φ", ""]),
)

_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)

#: What an ``out`` names, relative to a fresh directory: a new file, an
#: existing one, the batch file, ``/dev/null``, the directory, a file in a
#: missing directory, or a name drawn with non-ASCII characters.
_OUT_KINDS = ["new", "existing", "batch", "devnull", "dir", "missing-dir"]

_NAME = st.text(st.characters(blacklist_characters="/\0"), min_size=1, max_size=6)


@st.composite
def _out(draw):
    kind = draw(st.sampled_from(_OUT_KINDS + ["named", "json"]))
    if kind == "named":
        return ("named", draw(_NAME))
    if kind == "json":
        # any other JSON value: a non-path, an empty path or one with NUL
        return ("raw", draw(st.one_of(_VALUES, st.sampled_from(["", "a\0b"]))))
    return (kind, None)


def _path(out, root: str):
    """The ``out`` value of a drawn output. A drawn path lies inside
    ``root``; an empty one or one with NUL stays, since neither is opened."""
    kind, value = out
    if kind == "raw" and isinstance(value, str) and value and "\0" not in value:
        kind, value = "named", value.replace("/", "_")
    return {
        "new": lambda: os.path.join(root, "new.out"),
        "existing": lambda: os.path.join(root, "existing.out"),
        "batch": lambda: os.path.join(root, "batch.json"),
        "devnull": lambda: os.devnull,
        "dir": lambda: root,
        "missing-dir": lambda: os.path.join(root, "missing", "x.out"),
        "named": lambda: os.path.join(root, value),
        "raw": lambda: value,
    }[kind]()


def _often(n: int):
    """True n times in n + 1."""
    return st.sampled_from([True] * n + [False])


def _wild(typical):
    """Mostly a value from ``typical``; one time in five any JSON value."""
    return _often(4).flatmap(lambda usual: typical if usual else _VALUES)


_PHASE = st.floats(-10.0, 10.0)

#: Values each experiment's parameters typically take, so that many drawn
#: runs get past parsing to a report.
_TYPICAL = {
    "photon-swap": {"phi": _PHASE},
    "rabi": {"alpha": st.sampled_from([2, "1.5+0.5j", 1.8]),
             "cutoff": st.integers(28, 34),
             "times": st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4),
             "tail_bound": st.sampled_from([1e-7, 1e-3])},
    "bell-chain": {"n": st.integers(2, 8)},
    "aux-phase": {"phi": _PHASE, "statistics": st.sampled_from(["boson", "fermion"])},
    "fermion-nogo": {},
    "coherent-factorization": {"alpha": st.sampled_from([1.5, "1-1j", 0.5]),
                               "cutoff": st.integers(20, 26)},
    "collective-chain": {"phi": _PHASE},
    "gauge-check": {"phi": _PHASE, "kick": _PHASE},
}


@st.composite
def _run_object(draw):
    """The keys and values of a run object: each key present or not, each
    value typical of its field or any JSON value."""
    experiment = draw(_wild(st.sampled_from(sorted(EXPERIMENTS))))
    typical = _TYPICAL.get(experiment, {}) if isinstance(experiment, str) else {}
    params = {name: draw(_wild(values)) for name, values in typical.items()
              if draw(_often(6))}
    if not draw(_often(9)):
        params[draw(st.text(max_size=4))] = draw(_VALUES)
    entry = {"experiment": experiment, "params": draw(_wild(st.just(params)))}
    for key, typical in (("shots", st.integers(0, 200)),
                         ("seed", st.integers(0, 2**32)),
                         ("format", st.sampled_from(["json", "csv"]))):
        if draw(_often(6)):
            entry[key] = draw(_wild(typical))
    if draw(st.booleans()):
        entry["out"] = draw(_out())
    return entry


@st.composite
def _entry(draw):
    """A batch entry: a run object, now and then with an unknown key or
    without its experiment."""
    entry = draw(_run_object())
    if not draw(_often(9)):
        entry[draw(st.text(max_size=4))] = draw(_VALUES)
    if not draw(_often(9)):
        del entry["experiment"]
    return entry


def _errors(stderr: str) -> list[dict]:
    """The error objects among stderr's lines, each checked to be one JSON
    line with a documented code."""
    errors = []
    for line in stderr.splitlines():
        if line.startswith('{"error"'):
            error = json.loads(line)["error"]
            assert error["code"] in EXIT_CODES - {EXIT_OK}, line
            assert isinstance(error["type"], str) and isinstance(error["message"], str)
            errors.append(error)
    return errors


def _assert_parses(path: str, fmt) -> None:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["kind", "name", "value", "count"]
    else:
        assert isinstance(json.loads(text)["pass"], bool)


def _assert_clean(result) -> None:
    assert result.exit_code in EXIT_CODES, (result.exit_code, result.output)
    assert "Traceback" not in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        repr(result.exception)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(entries=st.one_of(st.lists(_entry(), max_size=3), _VALUES))
def test_any_batch_file_exits_with_a_documented_code(entries):
    with tempfile.TemporaryDirectory() as root:
        with open(os.path.join(root, "existing.out"), "w") as fh:
            fh.write("an older and longer file " * 40)
        if isinstance(entries, list):
            entries = [
                {**e, "out": _path(e["out"], root)} if isinstance(e, dict) and "out" in e
                else e for e in entries
            ]
        batch = os.path.join(root, "batch.json")
        with open(batch, "w", encoding="utf-8") as fh:
            json.dump(entries, fh)
        result = CliRunner().invoke(main, ["batch", batch])
        _assert_clean(result)
        errors = _errors(result.stderr)
        if result.exit_code != EXIT_OK:
            assert errors
            # the batch exits with the code of its first failed entry
            first = min(errors, key=lambda e: e.get("entry", -1))
            assert result.exit_code == first["code"]
            return
        assert errors == []
        for entry in entries:
            out = entry.get("out")
            if out is not None and out != os.devnull:
                _assert_parses(out, entry.get("format"))


def _option_value(value) -> str:
    """A drawn value as ``qwave run`` takes it: a string as it is, a list
    of numbers comma-separated, anything else as its JSON text."""
    if isinstance(value, str):
        return value
    if isinstance(value, list) and all(type(v) in (int, float) for v in value):
        return ",".join(map(str, value))
    return json.dumps(value)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(run_object=_run_object())
def test_any_run_options_exit_with_a_documented_code(run_object):
    with tempfile.TemporaryDirectory() as root:
        with open(os.path.join(root, "existing.out"), "w") as fh:
            fh.write("an older and longer file " * 40)
        # the values are drawn; the option names are click's, one per
        # parameter, and now and then a drawn name that no option has
        params = run_object.get("params")
        options = dict(params) if isinstance(params, dict) else {}
        options.update({k: run_object[k] for k in ("shots", "seed", "format")
                        if k in run_object})
        path = None
        if "out" in run_object:
            path = _path(run_object["out"], root)
            if not isinstance(path, str):
                path = _path(("raw", json.dumps(path)), root)
            options["out"] = path
        args = ["run"]
        for name, value in options.items():
            args.append(f"--{str(name).replace('_', '-')}={_option_value(value)}")
        # after "--", an experiment that reads like an option is the argument
        args += ["--", _option_value(run_object["experiment"])]
        result = CliRunner().invoke(main, args)
        _assert_clean(result)
        errors = _errors(result.stderr)
        fmt = options.get("format")
        if result.exit_code != EXIT_OK:
            assert len(errors) == 1 and errors[0]["code"] == result.exit_code, \
                result.stderr
            assert result.stdout == ""
            return
        assert errors == [] and result.stderr == ""
        if path is None:
            if fmt == "csv":
                assert result.stdout.startswith("kind,name,value,count\n")
            else:
                assert isinstance(json.loads(result.stdout)["pass"], bool)
        elif path != os.devnull:
            _assert_parses(path, fmt)

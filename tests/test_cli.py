import cmath
import inspect
import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qwave

from qwave import measurement
from qwave.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PROTOCOL,
    EXPERIMENTS,
    RunConfig,
    canonical_json,
    list_experiments,
    main,
    run,
)
from qwave.errors import ConfigError


def _run_cli(args):
    return CliRunner().invoke(main, args)


def test_run_bell_chain_writes_expected_json(tmp_path):
    out = tmp_path / "bell.json"
    result = _run_cli(
        ["run", "bell-chain", "--n", "2", "--shots", "5000",
         "--seed", "7", "--out", str(out)]
    )
    assert result.exit_code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["experiment"] == "bell-chain"
    assert data["seed"] == 7
    assert abs(data["analytic"]["satisfaction_probability"] - 0.853553) < 1e-6
    assert data["pass"] is True


def test_run_zero_shots_gives_analytic_only_report(tmp_path):
    out = tmp_path / "swap.json"
    result = _run_cli(
        ["run", "photon-swap", "--phi", "0", "--shots", "0",
         "--seed", "1", "--out", str(out)]
    )
    assert result.exit_code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["empirical"] == {}
    assert data["discrepancies"] == {}
    assert data["analytic"]["coincidence"] == 1.0


def test_unknown_experiment_exits_config_error(tmp_path):
    out = tmp_path / "never.json"
    result = _run_cli(["run", "nope", "--seed", "1", "--out", str(out)])
    assert result.exit_code == EXIT_CONFIG
    assert not out.exists()
    err = json.loads(result.stderr)
    assert err["error"]["type"] == "ConfigError"


def test_unknown_parameter_rejected():
    result = _run_cli(
        ["run", "rabi", "--alpha", "2", "--cutoff", "24",
         "--phi", "1.0", "--seed", "1"]
    )
    assert result.exit_code == EXIT_CONFIG


def test_seed_is_mandatory():
    result = _run_cli(["run", "photon-swap", "--phi", "0"])
    assert result.exit_code == EXIT_CONFIG


def test_missing_required_parameter():
    result = _run_cli(["run", "bell-chain", "--seed", "1"])
    assert result.exit_code == EXIT_CONFIG


def test_byte_identical_reports(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["run", "aux-phase", "--phi", "0.5", "--statistics", "fermion",
            "--shots", "5000", "--seed", "3"]
    assert _run_cli(args + ["--out", str(out1)]).exit_code == EXIT_OK
    assert _run_cli(args + ["--out", str(out2)]).exit_code == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    result = _run_cli(
        ["run", "fermion-nogo", "--seed", "2", "--format", "csv",
         "--out", str(out)]
    )
    assert result.exit_code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "kind,name,value,count"
    kinds = {line.split(",")[0] for line in lines[1:]}
    assert {"meta", "analytic"} <= kinds


def test_catalog_contains_all_protocols():
    catalog = list_experiments()
    assert len(catalog) == 8
    names = {entry["name"] for entry in catalog}
    assert names == set(EXPERIMENTS)
    for entry in catalog:
        assert entry["description"]
        assert entry["topic"]


def test_catalog_schema_round_trips_through_config_parsing():
    # building a config straight from the printed schema parses cleanly
    for entry in list_experiments():
        params = {}
        for pname, schema in entry["params"].items():
            if not schema["required"]:
                continue
            if schema["type"] == "float":
                params[pname] = "0.5"
            elif schema["type"] == "int":
                params[pname] = "2"
            elif schema["type"] == "complex":
                params[pname] = "1.5"
            elif schema["type"] == "choice":
                params[pname] = schema["choices"][0]
        config = RunConfig(entry["name"], params, shots=0, seed=1)
        defn, parsed, _, _ = config.resolve()
        assert defn.name == entry["name"]
        assert set(parsed) >= set(params)


def test_run_accepts_every_registered_parameter(monkeypatch):
    # each ParamSpec name reaches the run configuration as an option
    seen = []
    monkeypatch.setattr("qwave.cli.run", lambda config: seen.append(config) or EXIT_OK)
    for name, defn in EXPERIMENTS.items():
        params = {p.name: f"{p.name}-value" for p in defn.params}
        args = ["run", name, "--seed", "1"]
        for pname, value in params.items():
            args += ["--" + pname.replace("_", "-"), value]
        result = _run_cli(args)
        assert result.exit_code == EXIT_OK, result.output
        assert seen.pop().params == params


def test_param_specs_match_runner_signatures():
    # a spec with no matching argument would only fail at run time
    for name, defn in EXPERIMENTS.items():
        arguments = set(inspect.signature(defn.runner).parameters)
        assert {p.name for p in defn.params} == arguments - {"shots", "seed"}, name


@pytest.mark.parametrize("n", [2, "2", " 2 ", np.int64(2), np.int32(2)])
def test_int_parameter_accepts_integers(n):
    _, parsed, _, _ = RunConfig("bell-chain", {"n": n}, shots=0, seed=1).resolve()
    assert parsed["n"] == 2 and type(parsed["n"]) is int


@pytest.mark.parametrize(
    "n", [2.9, 2.0, True, False, np.float64(2.0), "2.5"],
    ids=["2.9", "2.0", "True", "False", "float64", "str-2.5"],
)
def test_int_parameter_rejects_non_integers(n):
    with pytest.raises(ConfigError, match="'n'"):
        RunConfig("bell-chain", {"n": n}, shots=0, seed=1).resolve()
    with pytest.raises(ConfigError, match="'cutoff'"):
        RunConfig("rabi", {"alpha": 1, "cutoff": n}, shots=0, seed=1).resolve()


@pytest.mark.parametrize("value", [7, "7", np.int64(7)],
                         ids=["int", "str", "int64"])
def test_shots_and_seed_accept_integers(value):
    _, _, shots, seed = RunConfig(
        "bell-chain", {"n": 2}, shots=value, seed=value
    ).resolve()
    assert shots == seed == 7 and type(shots) is int and type(seed) is int


@pytest.mark.parametrize(
    "value", [1.5, 2.0, True, "2.5", None],
    ids=["1.5", "2.0", "True", "str-2.5", "None"],
)
def test_shots_and_seed_reject_non_integers(value):
    with pytest.raises(ConfigError, match="'shots'"):
        RunConfig("bell-chain", {"n": 2}, shots=value, seed=1).resolve()
    if value is not None:  # a missing seed has its own message
        with pytest.raises(ConfigError, match="'seed'"):
            RunConfig("bell-chain", {"n": 2}, shots=0, seed=value).resolve()


def test_batch_with_non_integer_seed_exits_config_error(tmp_path):
    entries = [{"experiment": "photon-swap", "params": {"phi": 0.5},
                "shots": 100, "seed": 1.5, "out": str(tmp_path / "x.json")}]
    batch_file = tmp_path / "batch.json"
    batch_file.write_text(json.dumps(entries))
    result = _run_cli(["batch", str(batch_file)])
    assert result.exit_code == EXIT_CONFIG
    assert '"ConfigError"' in result.stderr and "'seed'" in result.stderr
    assert not (tmp_path / "x.json").exists()


def test_run_reports_the_parsed_seed(tmp_path):
    out = tmp_path / "x.json"
    config = RunConfig("photon-swap", {"phi": 0.5}, shots="100", seed="7",
                       output_path=str(out))
    assert run(config) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["seed"] == 7 and data["shots"] == 100


def test_batch_with_non_integer_cutoff_exits_config_error(tmp_path):
    entries = [{"experiment": "rabi", "params": {"alpha": 2, "cutoff": 24.5},
                "shots": 0, "seed": 1, "out": str(tmp_path / "x.json")}]
    batch_file = tmp_path / "batch.json"
    batch_file.write_text(json.dumps(entries))
    result = _run_cli(["batch", str(batch_file)])
    assert result.exit_code == EXIT_CONFIG
    assert '"ConfigError"' in result.stderr and "'cutoff'" in result.stderr
    assert not (tmp_path / "x.json").exists()


def test_run_config_validation_direct():
    with pytest.raises(ConfigError):
        RunConfig("bell-chain", {"n": "not-an-int"}, shots=0, seed=1).resolve()
    with pytest.raises(ConfigError):
        RunConfig("bell-chain", {"n": 2}, shots=-1, seed=1).resolve()
    with pytest.raises(ConfigError, match="below 2\\*\\*63"):
        RunConfig("bell-chain", {"n": 2}, shots=2**63, seed=1).resolve()
    result = _run_cli(["run", "photon-swap", "--phi", "0.5", "--shots",
                       str(10**20), "--seed", "1"])
    assert result.exit_code == EXIT_CONFIG
    with pytest.raises(ConfigError):
        RunConfig("bell-chain", {"n": 2}, shots=0, seed=1,
                  format="yaml").resolve()


def test_run_function_protocol_error_exit_code(tmp_path):
    # tail bound impossible for the requested cutoff: protocol error, code 3
    config = RunConfig(
        "coherent-factorization",
        {"alpha": "6.0", "cutoff": "8"},
        shots=0,
        seed=1,
        output_path=str(tmp_path / "x.json"),
    )
    assert run(config) == 3
    # semantically invalid parameter values rejected by the protocol
    assert run(RunConfig("bell-chain", {"n": "1"}, shots=0, seed=1)) == 3
    assert run(RunConfig("bell-chain", {"n": "9"}, shots=0, seed=1)) == 3


def test_batch_runs_all_entries(tmp_path):
    entries = [
        {"experiment": "photon-swap", "params": {"phi": 0.0},
         "shots": 100, "seed": 1, "out": str(tmp_path / "one.json")},
        {"experiment": "bell-chain", "params": {"n": 2},
         "shots": 0, "seed": 2, "out": str(tmp_path / "two.json")},
    ]
    batch_file = tmp_path / "batch.json"
    batch_file.write_text(json.dumps(entries))
    result = _run_cli(["batch", str(batch_file)])
    assert result.exit_code == EXIT_OK
    assert (tmp_path / "one.json").exists()
    assert (tmp_path / "two.json").exists()


def test_batch_parallel_jobs(tmp_path):
    entries = [
        {"experiment": "bell-chain", "params": {"n": n},
         "shots": 0, "seed": n, "out": str(tmp_path / f"n{n}.json")}
        for n in (2, 3, 4)
    ]
    batch_file = tmp_path / "batch.json"
    batch_file.write_text(json.dumps(entries))
    result = _run_cli(["batch", str(batch_file), "--jobs", "2"])
    assert result.exit_code == EXIT_OK
    for n in (2, 3, 4):
        data = json.loads((tmp_path / f"n{n}.json").read_text())
        assert data["analytic"]["lhv_max_satisfied"] == 2 * n - 1


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_batch_jobs_below_one_exits_config_error(jobs, tmp_path):
    out = tmp_path / "x.json"
    batch_file = tmp_path / "batch.json"
    batch_file.write_text(json.dumps([{"experiment": "fermion-nogo", "seed": 1,
                                       "out": str(out)}]))
    result = _run_cli(["batch", str(batch_file), "--jobs", jobs])
    assert result.exit_code == EXIT_CONFIG
    assert "--jobs" in result.stderr and "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_rejects_entries_sharing_an_output_file(jobs, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("link").symlink_to(tmp_path)
    for other in ("./same.json", "link/same.json"):
        entries = [
            {"experiment": "bell-chain", "params": {"n": n}, "seed": 1, "out": out}
            for n, out in ((2, "same.json"), (3, other))
        ]
        Path("batch.json").write_text(json.dumps(entries))
        result = _run_cli(["batch", "batch.json", "--jobs", jobs])
        assert result.exit_code == EXIT_CONFIG
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "ConfigError"
        assert "batch entries 0 and 1" in error["message"]
        assert not Path("same.json").exists()


def test_batch_rejects_an_entry_writing_the_batch_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for out in ("b.json", "./b.json"):
        entries = [{"experiment": "fermion-nogo", "seed": 1, "out": "first.json"},
                   {"experiment": "fermion-nogo", "seed": 1, "out": out}]
        text = json.dumps(entries)
        Path("b.json").write_text(text)
        result = _run_cli(["batch", "b.json"])
        assert result.exit_code == EXIT_CONFIG
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "ConfigError"
        assert "batch entry 1 writes the batch file" in error["message"]
        assert Path("b.json").read_text() == text
        assert not Path("first.json").exists()


def test_batch_rejects_hard_linked_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("x.json").write_text("old")
    os.link("x.json", "y.json")
    entries = [{"experiment": "bell-chain", "params": {"n": n}, "seed": 1,
                "out": out} for n, out in ((2, "x.json"), (3, "y.json"))]
    Path("batch.json").write_text(json.dumps(entries))
    result = _run_cli(["batch", "batch.json"])
    assert result.exit_code == EXIT_CONFIG
    assert "batch entries 0 and 1" in json.loads(result.stderr)["error"]["message"]
    assert Path("x.json").read_text() == "old"
    # a hard link to the batch file is the batch file
    os.link("batch.json", "c.json")
    Path("batch.json").write_text(json.dumps(
        [{"experiment": "fermion-nogo", "seed": 1, "out": "c.json"}]))
    result = _run_cli(["batch", "batch.json"])
    assert result.exit_code == EXIT_CONFIG
    assert "writes the batch file" in json.loads(result.stderr)["error"]["message"]


def test_empty_output_path_exits_config_error(tmp_path):
    for out in ("", "a\0b"):
        result = _run_cli(["run", "fermion-nogo", "--seed", "1", "--out", out])
        assert result.exit_code == EXIT_CONFIG
        assert result.stdout == ""
        assert json.loads(result.stderr)["error"]["type"] == "ConfigError"
        batch_file = tmp_path / "batch.json"
        batch_file.write_text(json.dumps([{"experiment": "fermion-nogo",
                                           "seed": 1, "out": out}]))
        result = _run_cli(["batch", str(batch_file)])
        assert result.exit_code == EXIT_CONFIG
        assert result.stdout == ""
        with pytest.raises(ConfigError):
            RunConfig("fermion-nogo", seed=1, output_path=out).resolve()


def _random_entry(rng: random.Random, experiment: str) -> dict:
    """A valid run object for ``experiment`` with parameters, shots and seed
    drawn from ``rng``."""
    phi = lambda: rng.uniform(-10.0, 10.0)
    alpha = lambda top: str(cmath.rect(rng.uniform(0.5, top), rng.uniform(0.0, 7.0)))
    params = {
        "photon-swap": lambda: {"phi": phi()},
        "rabi": lambda: {"alpha": alpha(2.5), "cutoff": rng.randint(26, 32)},
        "bell-chain": lambda: {"n": rng.randint(2, 6)},
        "aux-phase": lambda: {"phi": phi(),
                              "statistics": rng.choice(["boson", "fermion"])},
        "fermion-nogo": lambda: {},
        "coherent-factorization": lambda: {"alpha": alpha(1.5),
                                           "cutoff": rng.randint(16, 22)},
        "collective-chain": lambda: {"phi": phi()},
        "gauge-check": lambda: {"phi": phi(), "kick": phi()},
    }[experiment]()
    return {"experiment": experiment, "params": params,
            "shots": rng.randint(0, 2000), "seed": rng.randrange(2**31)}


def test_random_configs_give_the_same_bytes_through_run_and_batch(tmp_path):
    rng = random.Random(0)
    names = sorted(EXPERIMENTS)
    entries = [_random_entry(rng, names[i % len(names)]) for i in range(16)]
    for i, entry in enumerate(entries):
        config = RunConfig(entry["experiment"], entry["params"], entry["shots"],
                           entry["seed"], output_path=str(tmp_path / f"run{i}.json"))
        assert run(config) == EXIT_OK, entry
    for jobs in ("1", "2"):
        batch = [dict(e, out=str(tmp_path / f"jobs{jobs}-{i}.json"))
                 for i, e in enumerate(entries)]
        batch_file = tmp_path / f"batch{jobs}.json"
        batch_file.write_text(json.dumps(batch))
        result = _run_cli(["batch", str(batch_file), "--jobs", jobs])
        assert result.exit_code == EXIT_OK, result.output
        for i, entry in enumerate(entries):
            expected = (tmp_path / f"run{i}.json").read_bytes()
            assert (tmp_path / f"jobs{jobs}-{i}.json").read_bytes() == expected, entry


def test_batch_propagates_failure(tmp_path):
    entries = [{"experiment": "mystery", "seed": 1}]
    batch_file = tmp_path / "batch.json"
    batch_file.write_text(json.dumps(entries))
    result = _run_cli(["batch", str(batch_file)])
    assert result.exit_code == EXIT_CONFIG


def test_times_and_complex_alpha_parse(tmp_path):
    out = tmp_path / "r.json"
    result = _run_cli(
        ["run", "rabi", "--alpha", "1+1j", "--cutoff", "30",
         "--times", "0.0,0.2,0.5", "--seed", "6", "--out", str(out)]
    )
    assert result.exit_code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["params"]["times"] == [0.0, 0.2, 0.5]
    assert complex(data["params"]["alpha"]) == 1 + 1j


@pytest.mark.parametrize("times", [",", ""])
def test_rabi_with_empty_times_exits_protocol_error(times):
    result = _run_cli(["run", "rabi", "--alpha", "2", "--cutoff", "24",
                       "--times", times, "--seed", "1"])
    assert result.exit_code == EXIT_PROTOCOL
    error = json.loads(result.stderr)["error"]
    assert error["type"] == "ValueError" and "empty" in error["message"]
    assert run(RunConfig("rabi", {"alpha": 2, "cutoff": 24, "times": []},
                         shots=0, seed=1)) == EXIT_PROTOCOL


def test_run_without_out_prints_to_stdout():
    result = _run_cli(
        ["run", "fermion-nogo", "--seed", "8"]
    )
    assert result.exit_code == EXIT_OK
    data = json.loads(result.output)
    assert data["experiment"] == "fermion-nogo"
    assert data["pass"] is True


def test_canonical_json_float_formatting():
    text = canonical_json({"x": 1.0 / 3.0, "flag": True, "n": 3})
    assert "0.33333333333333331" in text
    assert '"flag": true' in text
    with pytest.raises(ValueError):
        canonical_json({"bad": float("nan")})


def _child_env():
    """Environment under which a child process imports the same qwave,
    installed or not."""
    package_root = str(Path(qwave.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "cli.json"
    proc = subprocess.run(
        [sys.executable, "-m", "qwave.cli", "run", "photon-swap",
         "--phi", "0.25", "--shots", "0", "--seed", "4", "--out", str(out)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["experiment"] == "photon-swap"


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats costs about 1 s of a cold start; qwave needs only scipy.special
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qwave.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_register_over_dimension_budget_exits_protocol_error():
    result = _run_cli(["run", "rabi", "--alpha", "1", "--cutoff", "100000",
                       "--seed", "1"])
    assert result.exit_code == EXIT_PROTOCOL
    error = json.loads(result.stderr)["error"]
    assert error["type"] == "DimensionBudgetError"
    assert "200002" in error["message"] and "4096" in error["message"]


@pytest.mark.parametrize("alpha", ["1e300", "1e308+1e308j"])
@pytest.mark.parametrize("experiment", ["rabi", "coherent-factorization"])
def test_alpha_whose_square_overflows_exits_protocol_error(experiment, alpha):
    # |alpha|**2 is beyond the float range: the whole Poisson mass is in the
    # tail, so the tail bound fails without a traceback or a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = _run_cli(["run", experiment, "--alpha", alpha, "--cutoff", "10",
                           "--seed", "1"])
    assert result.exit_code == EXIT_PROTOCOL, result.output
    error = json.loads(result.stderr)["error"]
    assert error["type"] == "TailBoundExceededError"
    assert "tail 1.000e+00" in error["message"]


def test_no_run_computes_a_site_locality_gap(monkeypatch, tmp_path):
    # locality is a query for callers that ask it; no experiment pays for it
    def refuse(*args):
        raise AssertionError("site locality gap computed during a run")

    monkeypatch.setattr(measurement, "_site_gap", refuse)
    params = {
        "photon-swap": {"phi": 0.5},
        "rabi": {"alpha": 2, "cutoff": 30},
        "bell-chain": {"n": 3},
        "aux-phase": {"phi": 0.5, "statistics": "fermion"},
        "fermion-nogo": {},
        "coherent-factorization": {"alpha": 1.5, "cutoff": 20},
        "collective-chain": {"phi": 0.5},
        "gauge-check": {"phi": 0.5, "kick": 0.3},
    }
    assert params.keys() == EXPERIMENTS.keys()
    for experiment, values in params.items():
        config = RunConfig(experiment, values, shots=100, seed=1,
                           output_path=str(tmp_path / f"{experiment}.json"))
        assert run(config) == EXIT_OK, experiment


@pytest.mark.parametrize("phi", ["nan", "inf", "-inf"])
def test_non_finite_float_parameter_exits_config_error(phi):
    result = _run_cli(["run", "photon-swap", "--phi", phi, "--seed", "1"])
    assert result.exit_code == EXIT_CONFIG
    assert json.loads(result.stderr)["error"]["type"] == "ConfigError"


def test_non_finite_complex_and_list_parameters_rejected():
    bad = [
        {"alpha": "nan+1j", "cutoff": 10},
        {"alpha": "1+infj", "cutoff": 10},
        {"alpha": "1", "cutoff": 10, "times": "0.1,inf"},
        {"alpha": "1", "cutoff": 10, "times": [0.1, float("nan")]},
    ]
    for params in bad:
        with pytest.raises(ConfigError):
            RunConfig("rabi", params, shots=0, seed=1).resolve()


def test_seed_outside_philox_key_range_exits_config_error(tmp_path):
    result = _run_cli(
        ["run", "photon-swap", "--phi", "0", "--shots", "10", "--seed", "-1"]
    )
    assert result.exit_code == EXIT_CONFIG
    assert "seed" in json.loads(result.stderr)["error"]["message"]
    with pytest.raises(ConfigError):
        RunConfig("photon-swap", {"phi": 0}, shots=10, seed=2**128).resolve()
    # the whole key range stays usable
    out = tmp_path / "big.json"
    big = RunConfig("photon-swap", {"phi": 0}, shots=10, seed=2**64,
                    output_path=str(out))
    assert run(big) == EXIT_OK
    assert json.loads(out.read_text())["seed"] == 2**64


def test_batch_with_negative_seed_exits_config_error(tmp_path):
    entries = [{"experiment": "photon-swap", "params": {"phi": 0.5},
                "shots": 100, "seed": -1, "out": str(tmp_path / "x.json")}]
    batch_file = tmp_path / "batch.json"
    batch_file.write_text(json.dumps(entries))
    result = _run_cli(["batch", str(batch_file)])
    assert result.exit_code == EXIT_CONFIG
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "entry",
    [
        {"experiment": "bell-chain", "params": None, "seed": 1,
         "out": "x.json"},
        {"experiment": ["x"], "seed": 1, "out": "x.json"},
        {"experiment": "bell-chain", "params": {"n": 2}, "seed": 1, "out": 5},
        {"experiment": "bell-chain", "params": {"n": 2}, "seed": 1,
         "out": True},
        {"experiment": "bell-chain", "params": {"n": 2}, "shot": 1000,
         "seed": 1, "out": "x.json"},
    ],
    ids=["params-null", "experiment-list", "out-int", "out-true", "shot-key"],
)
def test_batch_rejects_bad_entry_and_keeps_stdout(entry, tmp_path):
    # a fresh process, so a stray open() of fd 1 or fd 5 would show
    batch = [entry, {"experiment": "fermion-nogo", "seed": 1}]
    (tmp_path / "batch.json").write_text(json.dumps(batch))
    proc = subprocess.run(
        [sys.executable, "-m", "qwave.cli", "batch", "batch.json"],
        capture_output=True, text=True, env=_child_env(), cwd=tmp_path,
    )
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    error, _ = json.JSONDecoder().raw_decode(proc.stderr)
    assert error["error"]["type"] == "ConfigError"
    assert [p.name for p in tmp_path.iterdir()] == ["batch.json"]
    if "shot" in entry:
        # a bad key stops the batch before any entry runs
        assert "batch entry 0" in error["error"]["message"]
        assert "'shot'" in error["error"]["message"]
        assert proc.stdout == ""
    else:
        assert json.loads(proc.stdout)["experiment"] == "fermion-nogo"
        assert proc.stderr.endswith("fermion-nogo: ok\n")


@pytest.mark.parametrize(
    "option, value", [("--seed", "abc"), ("--shots", "2.5"),
                      ("--format", "yaml")],
)
def test_run_options_parse_like_batch_keys(option, value, tmp_path):
    out = tmp_path / "x.json"
    args = ["run", "fermion-nogo", "--seed", "1", "--out", str(out)]
    result = _run_cli(args + [option, value])
    assert result.exit_code == EXIT_CONFIG
    assert json.loads(result.stderr)["error"]["type"] == "ConfigError"
    assert not out.exists()

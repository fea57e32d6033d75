"""Config parsing and command-line behavior."""

import contextlib
import inspect
import io
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trades import algorithm, cli
from trades.cli import _check_sizes, _dense_bytes, assemble_game, main
from trades.config import (_DERIVED, _FLAG, _FLOATS, _KEYS, _OR_NONE,
                           _REQUIRED, SCENARIOS, SPEC_VERSION, AffineSettings,
                           VoltageSettings, _fmt, canonical_text, load_config,
                           parse_config, seed_streams)
from trades.errors import ConfigError, MaxIterExceeded
from trades.games import _oracle_stepsize
from trades.network import WeightedDigraph

AFFINE_TEXT = """
[experiment]
spec_version = 1
scenario = affine
seed = 42
output_dir = {out}

[graph]
n_agents = 5
edge_prob = 0.6

[trades]
gamma = 0.02
stop_tol = 1e-9
max_iter = 4000

[affine]
strategy_dim = 2
agg_dim = 1
"""

VOLTAGE_TEXT = """
[experiment]
spec_version = 1
scenario = voltage
seed = 3

[graph]
n_agents = 6
edge_prob = 0.5

[voltage]
n_buses = 5
horizon = 12
penalty_weight = 1.0
active_weight = 1.0
reactive_weight = 10.0
"""


def _affine_cfg_file(tmp_path, out_name="out", extra=""):
    path = tmp_path / "exp.ini"
    path.write_text(AFFINE_TEXT.format(out=tmp_path / out_name) + extra)
    return str(path)


# ----------------------------------------------------------------- parsing


def test_parse_minimal_affine_defaults():
    cfg = parse_config(AFFINE_TEXT.format(out="out"))
    assert cfg.scenario == "affine"
    assert cfg.seed == 42
    assert cfg.oracle is True
    assert cfg.trades.gamma == 0.02
    assert cfg.trades.delta == 0.5
    assert cfg.trades.tracker == "consensus"
    assert cfg.graph.weight_method == "metropolis_symmetrized"
    assert type(cfg.settings) is AffineSettings
    assert cfg.settings.coupling == 0.3
    assert cfg.settings.box_halfwidth == 5.0
    assert cfg.sweep is None


def test_component_seeds_derived_and_stable():
    g1, s1, i1 = seed_streams(42, 3)
    g2, s2, i2 = seed_streams(42, 3)
    assert (g1, s1, i1) == (g2, s2, i2)
    assert len({g1, s1, i1}) == 3
    assert seed_streams(43, 3) != (g1, s1, i1)
    cfg = parse_config(AFFINE_TEXT.format(out="out"))
    assert cfg.graph.seed == g1
    assert cfg.settings.seed == s1
    assert cfg.trades.seed == i1
    assert seed_streams(7, 4) == seed_streams(7, 4)
    assert len(seed_streams(7, 4)) == 4


def test_explicit_section_seed_wins():
    text = AFFINE_TEXT.format(out="out").replace(
        "[graph]", "[graph]\nseed = 123")
    cfg = parse_config(text)
    assert cfg.graph.seed == 123
    assert cfg.settings.seed == seed_streams(42, 3)[1]


@pytest.mark.parametrize("mutation", [
    ("spec_version = 1", "spec_version = 9"),
    ("scenario = affine", "scenario = mystery"),
    ("seed = 42", "seed = -3"),
    ("gamma = 0.02", "gamma = -0.5"),
    ("gamma = 0.02", "gamma = lots"),
    ("max_iter = 4000", "max_iter = 0"),
    ("edge_prob = 0.6", "edge_prob = 1.5"),
    ("n_agents = 5", "n_agents = 1"),
    ("strategy_dim = 2", "strategy_dim = 0"),
    ("[graph]", "[grid]"),
    ("edge_prob = 0.6", "edge_probability = 0.6"),
    ("max_iter = 4000", "max_iter = 4000\ntracker = exact_recomposed"),
    ("penalty_weight = 1.0", "penalty_weight = 0"),
    ("penalty_weight = 1.0", "penalty_weight = -1.0"),
    ("active_weight = 1.0", "active_weight = 0.0"),
    ("reactive_weight = 10.0", "reactive_weight = -2"),
    ("agg_dim = 1", "agg_dim = 1\ngame_file = game.txt"),
])
def test_parse_rejections(mutation):
    old, new = mutation
    # each mutation edits whichever base config holds the line it replaces
    base = next(text for text in (AFFINE_TEXT.format(out="out"), VOLTAGE_TEXT)
                if old in text)
    with pytest.raises(ConfigError) as err:
        parse_config(base.replace(old, new))
    if "_weight" in old:
        assert f"[voltage] {old.split()[0]} must be > 0" in str(err.value)


def test_scenario_section_pairing():
    text = AFFINE_TEXT.format(out="out") + "\n[voltage]\nn_buses = 5\nhorizon = 12\n"
    with pytest.raises(ConfigError):
        parse_config(text)
    missing = AFFINE_TEXT.format(out="out").replace("[affine]", "[sweep]") \
        .replace("strategy_dim = 2", "gamma = 0.01").replace("agg_dim = 1", "delta = 0.5")
    with pytest.raises(ConfigError):
        parse_config(missing)


def test_voltage_parse_and_file_checks():
    text = """
[experiment]
spec_version = 1
scenario = voltage
seed = 3

[graph]
n_agents = 6
edge_prob = 0.5

[voltage]
n_buses = 5
horizon = 12
"""
    cfg = parse_config(text)
    assert type(cfg.settings) is VoltageSettings
    assert cfg.settings.penalty_weight == 1.0
    assert cfg.settings.active_weight == 1.0
    assert cfg.settings.reactive_weight == 10.0
    with pytest.raises(ConfigError, match=r"^\[voltage\] horizon must be "
                       ">= 10, got 6$"):
        parse_config(text.replace("horizon = 12", "horizon = 6"))
    # a voltage scenario comes from its seed alone: no key names a data file
    with pytest.raises(ConfigError, match="unknown keys: .'network_file'.$"):
        parse_config(text + "network_file = nowhere.csv\n")


def test_sweep_parse_and_rejections():
    base = AFFINE_TEXT.format(out="out")
    cfg = parse_config(base + "\n[sweep]\ngamma = 0.01, 0.02\ndelta = 0.5\n")
    assert cfg.sweep.gamma == (0.01, 0.02)
    assert cfg.sweep.delta == (0.5,)
    assert cfg.sweep.max_iter == 4000
    with pytest.raises(ConfigError):
        parse_config(base + "\n[sweep]\ngamma = ,\ndelta = 0.5\n")
    with pytest.raises(ConfigError):
        parse_config(base + "\n[sweep]\ngamma = 0.01\ndelta = 2.0\n")
    # nan slips past a plain `g <= 0` check
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match=r"^\[sweep\] gamma"):
            parse_config(base + f"\n[sweep]\ngamma = 0.01, {bad}\ndelta = 0.5\n")


def test_canonical_text_round_trips():
    text = AFFINE_TEXT.format(out="out") + "\n[sweep]\ngamma = 0.01\ndelta = 0.5,1.0\n"
    cfg = parse_config(text)
    assert parse_config(canonical_text(cfg)) == cfg
    vtext = """
[experiment]
spec_version = 1
scenario = voltage
seed = 9
oracle = off

[graph]
n_agents = 4
edge_prob = 0.4
weight_method = sinkhorn

[voltage]
n_buses = 4
horizon = 16
penalty_weight = 0.0625
"""
    vcfg = parse_config(vtext)
    assert parse_config(canonical_text(vcfg)) == vcfg


def test_configs_pickle():
    # a record class made from the key table pickles only under the
    # module name it is exported from
    for text in (AFFINE_TEXT.format(out="out")
                 + "\n[sweep]\ngamma = 0.01\ndelta = 0.5,1.0\n",
                 VOLTAGE_TEXT):
        cfg = parse_config(text)
        assert pickle.loads(pickle.dumps(cfg)) == cfg


# the echo's exact bytes: section and key order, number format, derived
# seeds written out
ECHO_CASES = {
    "affine": (AFFINE_TEXT.format(out="out")
               .replace("[graph]", "[graph]\nseed = 11")
               .replace("agg_dim = 1", "agg_dim = 1\nbox_halfwidth = none\n"
                        "seed = 77")
               + "\n[sweep]\ngamma = 0.01, 0.03\ndelta = 0.5,1\n", """\
[experiment]
spec_version = 1
scenario = affine
seed = 42
output_dir = out
oracle = on

[graph]
n_agents = 5
edge_prob = 0.6
weight_method = metropolis_symmetrized
seed = 11

[trades]
gamma = 0.02
delta = 0.5
stop_tol = 1e-09
max_iter = 4000
tracker = consensus

[affine]
strategy_dim = 2
agg_dim = 1
coupling = 0.3
box_halfwidth = none
seed = 77

[sweep]
gamma = 0.01,0.03
delta = 0.5,1.0
max_iter = 4000
"""),
    "voltage": (VOLTAGE_TEXT.replace("seed = 3", "seed = 3\noracle = off")
                .replace("edge_prob = 0.5", "edge_prob = 0.5\n"
                         "weight_method = sinkhorn")
                .replace("horizon = 12", "horizon = 10")
                + "\n[trades]\ntracker = exact\n", """\
[experiment]
spec_version = 1
scenario = voltage
seed = 3
output_dir = out
oracle = off

[graph]
n_agents = 6
edge_prob = 0.5
weight_method = sinkhorn
seed = 1576890651

[trades]
gamma = 0.01
delta = 0.5
stop_tol = 1e-10
max_iter = 50000
tracker = exact

[voltage]
n_buses = 5
horizon = 10
penalty_weight = 1.0
active_weight = 1.0
reactive_weight = 10.0
seed = 2902887791
"""),
}


@pytest.mark.parametrize("case", sorted(ECHO_CASES))
def test_canonical_text_bytes(case):
    text, expected = ECHO_CASES[case]
    assert canonical_text(parse_config(text)) == expected


def test_readme_names_every_config_key():
    # both ways: every key of a section is in its bullet, and every
    # backticked token there is a key, a word or a default the table knows
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir,
                               "README.md")).read()
    for section, keys in _KEYS.items():
        bullet = re.search(rf"^\* `\[{section}\]`:(.*?)(?=^\* |^$)", readme,
                           re.M | re.S)
        assert bullet is not None, section
        missing = [key for key in keys if f"`{key}`" not in bullet.group(1)]
        assert not missing, (section, missing)
        known = {"none", str(SPEC_VERSION), *keys}
        for kind, default, _ in keys.values():
            if isinstance(kind, tuple):
                known.update(kind)
            if default not in (_REQUIRED, _DERIVED):
                known.add(_fmt(default))
        stray = set(re.findall(r"`([^`]*)`", bullet.group(1))) - known
        assert not stray, (section, sorted(stray))


def test_load_config_overrides(tmp_path):
    path = _affine_cfg_file(tmp_path)
    base = load_config(path)
    assert load_config(path) == base
    reseeded = load_config(path, seed=7)
    assert reseeded.seed == 7
    assert reseeded.graph.seed == seed_streams(7, 3)[0]
    assert reseeded.graph.seed != base.graph.seed
    redirected = load_config(path, output_dir="elsewhere", oracle="off")
    assert redirected.output_dir == "elsewhere"
    assert redirected.oracle is False


# --------------------------------------------------------------- commands


def test_run_outputs_and_determinism(tmp_path):
    path = _affine_cfg_file(tmp_path, out_name="run1")
    assert main(["run", path]) == 0
    out = tmp_path / "run1"
    trace = (out / "trace.csv").read_text()
    assert trace.startswith("t,err_x,est_err_max,disagreement,step_norm\n")
    report = json.loads((out / "report.json").read_text())
    assert report["result"]["converged"] is True
    assert report["result"]["verdict"] == "PASS"
    assert report["result"]["a2"] > 0
    assert report["seeds"]["master"] == 42
    assert report["spec_version"] == 1
    echoed = load_config(out / "config.echo")
    assert echoed.seed == 42 and echoed.trades.gamma == 0.02

    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["timing_seconds"] >= 0
    assert "timing_seconds" not in report
    # the scenario files are a voltage run's; an affine run has none
    assert sorted(os.listdir(out)) == ["config.echo", "metrics.json",
                                       "report.json", "trace.csv"]

    assert main(["run", path, "--out", str(tmp_path / "run2")]) == 0
    # config.echo differs here only by the --out directory it records
    for name in ("trace.csv", "report.json"):
        assert (tmp_path / "run2" / name).read_bytes() == \
            (out / name).read_bytes()
    assert main(["run", path, "--out", str(tmp_path / "run3"),
                 "--seed", "43"]) == 0
    assert (tmp_path / "run3" / "trace.csv").read_bytes() != \
        (out / "trace.csv").read_bytes()


def test_metrics_record_the_blas_build_and_the_thread_count(tmp_path):
    # the OS threads the process runs when the run ends: this one's
    path = _affine_cfg_file(tmp_path, out_name="m")
    assert main(["run", path, "--oracle", "off"]) == 0
    metrics = json.loads((tmp_path / "m" / "metrics.json").read_text())
    assert set(metrics) == {"timing_seconds", "blas", "threads"}
    assert metrics["threads"] == algorithm._threads()
    if np.lib.NumpyVersion(np.__version__) < "1.26.0":
        # show_config takes no mode before numpy 1.26
        assert metrics["blas"] is None
    else:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert metrics["blas"] == {"name": build["name"],
                                   "version": build["version"]}


@pytest.mark.skipif(sys.platform != "linux", reason="threads come from /proc")
def test_metrics_count_the_blas_threads_numpy_started(tmp_path):
    # a command runs one thread plus numpy's BLAS workers: OpenBLAS, held
    # to one thread by OPENBLAS_NUM_THREADS, starts its pool on the usable
    # CPUs under MKL_NUM_THREADS = 1, a variable it does not read
    path = _affine_cfg_file(tmp_path)
    unset = {k: v for k, v in os.environ.items()
             if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")}
    threads = {}
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "trades", "run", path, "--oracle", "off",
             "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env={**unset, name: "1"})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        metrics = json.loads((out / "metrics.json").read_text())
        threads[name] = metrics["threads"]
    assert threads["OPENBLAS_NUM_THREADS"] == 1
    if "openblas" in str(metrics["blas"]) and len(os.sched_getaffinity(0)) > 1:
        assert threads["MKL_NUM_THREADS"] > 1


def test_run_oracle_off_skips_fit(tmp_path):
    path = _affine_cfg_file(tmp_path, out_name="noq")
    assert main(["run", path, "--oracle", "off"]) == 0
    report = json.loads((tmp_path / "noq" / "report.json").read_text())
    assert report["oracle_enabled"] is False
    assert report["result"]["a2"] is None
    assert report["result"]["verdict"] == "N/A"
    assert report["result"]["err_x_final"] is None


def test_run_malformed_config_no_partial_outputs(tmp_path, capsys):
    path = tmp_path / "broken.ini"
    path.write_text(AFFINE_TEXT.format(out=tmp_path / "never")
                    .replace("scenario = affine", "scenario = affine\nbogus = 1"))
    assert main(["run", str(path)]) == 1
    assert "bogus" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_run_divergence_exit_and_report(tmp_path):
    path = tmp_path / "div.ini"
    path.write_text(AFFINE_TEXT.format(out=tmp_path / "divout")
                    .replace("gamma = 0.02", "gamma = 1e4")
                    .replace("[affine]", "[affine]\nbox_halfwidth = none"))
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", str(path)])
    assert code == 2
    report = json.loads((tmp_path / "divout" / "report.json").read_text())
    assert report["result"]["diverged"] is True
    assert report["result"]["divergence_iteration"] >= 1
    assert (tmp_path / "divout" / "config.echo").exists()


def test_run_stall_is_a_failed_verdict(tmp_path):
    # gamma = 50 makes the iteration cycle at a fixed error until max_iter:
    # the fitted rate is ~0 with no fit at all, which is not convergence
    path = tmp_path / "stall.ini"
    path.write_text(AFFINE_TEXT.format(out=tmp_path / "stall")
                    .replace("gamma = 0.02", "gamma = 50"))
    assert main(["run", str(path)]) == 2
    result = json.loads((tmp_path / "stall" / "report.json").read_text())["result"]
    assert result["verdict"] == "FAIL"
    assert result["stop_reason"] == "max_iter"
    assert result["diverged"] is False


# the benchmark's 10-agent affine config (perfbench/workloads.py), with
# gamma and max_iter to fill in
BENCH_TEXT = """
[experiment]
spec_version = 1
scenario = affine
seed = 0

[graph]
n_agents = 10
edge_prob = 0.7
seed = 7

[trades]
gamma = {gamma}
delta = 0.5
stop_tol = 1e-10
max_iter = {max_iter}

[affine]
strategy_dim = 2
agg_dim = 2
seed = 42
"""


@pytest.mark.parametrize("gamma, max_iter, stop_reason, line", [
    ("1e-9", 2000, "max_iter",
     "fitted decay exponent 1.06003e-09 (R^2 = 1), verdict FAIL"),
    ("1e-13", 50000, "stop_tol", "no fitted decay, verdict FAIL"),
])
def test_a_run_short_of_the_equilibrium_fails(tmp_path, capsys, gamma,
                                              max_iter, stop_reason, line):
    # at gamma = 1e-9 the error decays log-linearly (R^2 = 1) until max_iter
    # runs out at err_x 4.661; at 1e-13 the first step norm, which scales
    # with gamma, is already below stop_tol, and there is no fit.  With the
    # oracle neither is a PASS; without it neither has a verdict
    path = tmp_path / "short.ini"
    path.write_text(BENCH_TEXT.format(gamma=gamma, max_iter=max_iter))
    assert main(["run", str(path), "--out", str(tmp_path / "on")]) == 2
    assert line in capsys.readouterr().out.splitlines()
    result = json.loads((tmp_path / "on" / "report.json").read_text())["result"]
    assert result["verdict"] == "FAIL" and result["stop_reason"] == stop_reason
    assert round(result["err_x_final"], 3) == 4.661
    assert main(["run", str(path), "--out", str(tmp_path / "off"),
                 "--oracle", "off"]) == 0
    assert "verdict" not in capsys.readouterr().out
    result = json.loads((tmp_path / "off" / "report.json").read_text())["result"]
    assert result["verdict"] == "N/A" and result["err_x_final"] is None


OVERFLOW_TEXT = """
[experiment]
spec_version = 1
scenario = affine
seed = 0

[graph]
n_agents = 10
edge_prob = 0.7
seed = 7

[trades]
gamma = 5
delta = 1
stop_tol = 1e-10
max_iter = 500

[affine]
strategy_dim = 2
agg_dim = 2
seed = 42
box_halfwidth = 1e300
"""


@pytest.mark.parametrize("oracle", ["off", "on"])
def test_overflowing_run_exits_two_with_the_oracle_on_or_off(tmp_path, capsys,
                                                            oracle):
    # gamma = 5 on the 10-agent benchmark game overflows; the huge boxes
    # keep every strategy finite, but the step norm of the sweep that
    # produces iteration 123 overflows, so the run stops there with the
    # oracle on or off, and its trace holds the 122 finite rows before it
    path = tmp_path / "overflow.ini"
    path.write_text(OVERFLOW_TEXT)
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", str(path), "--oracle", oracle, "--seed", "5",
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "DIVERGED at iteration 123" in capsys.readouterr().out
    trace = np.loadtxt(tmp_path / "out" / "trace.csv", delimiter=",",
                       skiprows=1, ndmin=2)
    assert trace.shape[0] == 122 and np.isfinite(trace[:, 2:]).all()
    assert np.isfinite(trace[:, 1]).all() == (oracle == "on")
    result = json.loads((tmp_path / "out" / "report.json").read_text())["result"]
    assert result["diverged"] and result["divergence_iteration"] == 123
    # a divergence is the run's stop reason, counting the 122 finite sweeps
    assert result["stop_reason"] == "diverged" and result["iterations"] == 122
    assert result["verdict"] == "FAIL" and result["converged"] is False


@pytest.mark.parametrize("oracle", ["off", "on"])
def test_overflowing_run_leaves_stderr_empty(tmp_path, oracle):
    # a command line run silences numpy's overflow warnings as a sweep cell
    # does: the divergence is reported once, on stdout
    path = tmp_path / "overflow.ini"
    path.write_text(OVERFLOW_TEXT)
    proc = subprocess.run(
        [sys.executable, "-m", "trades", "run", str(path), "--oracle", oracle,
         "--seed", "5", "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "DIVERGED at iteration 123" in proc.stdout
    assert proc.stderr == ""


def test_oracle_failure_exit_and_report(tmp_path, monkeypatch, capsys):
    # looked up through trades.cli, where the benchmark's phase timer also
    # wraps it
    def failing_oracle(game, **kwargs):
        raise MaxIterExceeded("fixed-point residual 1.250e-03 after 7 "
                              "iterations", residual=1.25e-3, iterations=7)

    monkeypatch.setattr("trades.cli.solve_ne_oracle", failing_oracle)
    path = _affine_cfg_file(tmp_path, out_name="noref")
    assert main(["run", path]) == 3
    out = tmp_path / "noref"
    report = json.loads((out / "report.json").read_text())
    assert report["oracle"] == {"converged": False, "residual": 1.25e-3,
                                "iterations": 7}
    assert report["result"]["diverged"] is False
    assert "verdict" not in report["result"]
    assert json.loads((out / "metrics.json").read_text())["timing_seconds"] >= 0
    assert (out / "config.echo").exists()
    assert not (out / "trace.csv").exists()
    assert "reference equilibrium" in capsys.readouterr().out

    sweep = tmp_path / "sweep.ini"
    sweep.write_text(AFFINE_TEXT.format(out=tmp_path / "sw")
                     + "\n[sweep]\ngamma = 0.02\ndelta = 0.5\n")
    assert main(["sweep", str(sweep)]) == 3
    assert "reference equilibrium" in capsys.readouterr().err


def test_report_result_keys_are_declared(tmp_path, monkeypatch):
    # report.json's "result" holds exactly these keys in each outcome; the
    # fit's keys are the report's fields, so a new field fails here until
    # it is declared
    always = {"diverged", "divergence_iteration"}
    fit = {"a1", "a2", "r_squared", "contraction_ratio", "n_fit_points",
           "iterations", "stop_reason", "err_x_final", "converged", "verdict"}
    traced = {"est_err_final", "est_err_peak", "disagreement_final",
              "feas_residual_max", "z_mean_residual_max"}

    def result(name, *flags, path=None):
        path = path or _affine_cfg_file(tmp_path, out_name=name)
        with np.errstate(over="ignore", invalid="ignore"):
            main(["run", str(path), *flags])
        return json.loads((tmp_path / name / "report.json").read_text())["result"]

    assert set(result("pass")) == always | fit | traced
    assert set(result("noq", "--oracle", "off")) == always | fit | traced
    diverging = tmp_path / "div.ini"
    diverging.write_text(AFFINE_TEXT.format(out=tmp_path / "div")
                         .replace("gamma = 0.02", "gamma = 1e4")
                         .replace("[affine]", "[affine]\nbox_halfwidth = none"))
    assert set(result("div", path=diverging)) == always | fit | traced
    # a run that diverges at its first sweep records no row
    diverging.write_text(AFFINE_TEXT.format(out=tmp_path / "first")
                         .replace("gamma = 0.02", "gamma = 1e308")
                         .replace("[affine]", "[affine]\nbox_halfwidth = none"))
    assert set(result("first", path=diverging)) == always | fit

    def failing_oracle(game, **kwargs):
        raise MaxIterExceeded("no equilibrium", residual=1.0, iterations=1)

    monkeypatch.setattr("trades.cli.solve_ne_oracle", failing_oracle)
    assert set(result("noref")) == always


def test_validate_passes_on_affine(tmp_path, capsys):
    path = _affine_cfg_file(tmp_path)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "monotonicity modulus" in out
    assert "spectral gap" in out
    assert "FAIL" not in out
    assert not (tmp_path / "out").exists()  # validate never writes


@pytest.mark.parametrize("scenario", ["affine", "voltage"])
def test_validate_names_the_oracle_step(tmp_path, capsys, scenario):
    # a voltage game's A is symmetric, so its reference solve adds
    # momentum to the 1/L step; the affine game's A is not
    text = (AFFINE_TEXT.format(out="unused") if scenario == "affine"
            else VOLTAGE_TEXT)
    path = tmp_path / "exp.ini"
    path.write_text(text)
    assert main(["validate", str(path)]) == 0
    game, _ = assemble_game(load_config(str(path)))
    gamma, beta = _oracle_stepsize(game)
    kappa = game.affine.exact_lipschitz() / game.affine.exact_modulus()
    line = capsys.readouterr().out.splitlines()[-1]
    if scenario == "voltage":
        assert gamma == 1.0 / game.affine.exact_lipschitz() and beta > 0
        assert line == (f"reference oracle: step 1/L = {gamma:.3g}, momentum "
                        f"{beta:.3g} (potential game, kappa {kappa:.3g})")
    else:
        assert line == (f"reference oracle: step {gamma:.3g}, no momentum "
                        f"(kappa {kappa:.3g})")


@pytest.mark.parametrize("excess, verdict, code", [(0.9e-9, "PASS", 0),
                                                   (1.1e-9, "FAIL", 2)])
def test_validate_allows_a_stochasticity_residual_of_1e_9(
        tmp_path, capsys, monkeypatch, excess, verdict, code):
    # weights whose first row sums to 1 + excess: validate's doubly
    # stochastic check passes them up to a residual of 1e-9
    real = cli.build_graph

    def off_by_excess(cfg):
        weights = real(cfg).weights.copy()
        weights[0, 0] += excess
        return WeightedDigraph(weights)

    monkeypatch.setattr(cli, "build_graph", off_by_excess)
    path = tmp_path / "exp.ini"
    path.write_text(AFFINE_TEXT.format(out="unused"))
    assert main(["validate", str(path)]) == code
    assert (f"doubly stochastic weights: residual {excess:.3g} ({verdict})"
            in capsys.readouterr().out.splitlines())


def test_validate_passes_with_no_random_edges(tmp_path, capsys):
    path = tmp_path / "ring.ini"
    path.write_text(AFFINE_TEXT.format(out="unused")
                    .replace("edge_prob = 0.6", "edge_prob = 0.0"))
    assert main(["validate", str(path)]) == 0
    assert "strongly connected: PASS" in capsys.readouterr().out


def test_validate_indefinite_penalty_fails(tmp_path, capsys):
    path = tmp_path / "volt.ini"
    path.write_text("""
[experiment]
spec_version = 1
scenario = voltage
seed = 3

[graph]
n_agents = 6
edge_prob = 0.5

[voltage]
n_buses = 5
horizon = 12
penalty_weight = -1.0
""")
    # rejected when the config is parsed, as a usage error naming the key
    assert main(["validate", str(path)]) == 1
    assert "[voltage] penalty_weight must be > 0" in capsys.readouterr().err


def test_validate_bounds_the_modulus_by_its_rounding(tmp_path, capsys):
    path = tmp_path / "desk.ini"
    path.write_text(DESK_TEXT)
    assert main(["validate", str(path)]) == 0
    assert "monotonicity modulus: 2 (rounding bound 4.41e-13)" in \
        capsys.readouterr().out.splitlines()
    # at active_weight = 1e300 the desk's modulus (at least 20, as E G is
    # positive semidefinite) is lost in the eigensolve's rounding, which
    # the modulus line bounds by N p eps L instead of calling it exact
    path.write_text(DESK_TEXT.replace("[voltage]",
                                      "[voltage]\nactive_weight = 1e300"))
    assert main(["validate", str(path)]) == 2
    game, _ = assemble_game(load_config(str(path)))
    bound = 80 * np.finfo(float).eps * game.affine.exact_lipschitz()
    mu = game.affine.exact_modulus()
    assert abs(mu) <= bound
    lines = capsys.readouterr().out.splitlines()
    assert (f"monotonicity modulus: {mu:.6g} (rounding bound {bound:.3g}: "
            f"sign not resolved)") in lines
    assert "assumptions: FAIL" in lines
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "not strongly monotone" in capsys.readouterr().err


def test_sweep_summary_and_parallel_determinism(tmp_path):
    extra = "\n[sweep]\ngamma = 0.02,0.08\ndelta = 0.5,1.0\nmax_iter = 1500\n"
    path = tmp_path / "sweep.ini"
    path.write_text(AFFINE_TEXT.format(out=tmp_path / "sw1") + extra)
    assert main(["sweep", str(path)]) == 0
    summary = (tmp_path / "sw1" / "summary.csv").read_text()
    lines = summary.strip().splitlines()
    assert lines[0] == "gamma,delta,converged,a2,iters"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[0]) == 0.02 and float(first[1]) == 0.5
    assert first[2] in ("0", "1")
    cell = tmp_path / "sw1" / "cell-00-00" / "trace.csv"
    assert cell.exists()

    assert main(["sweep", str(path), "--out", str(tmp_path / "sw2")]) == 0
    assert (tmp_path / "sw2" / "summary.csv").read_text() == summary
    for name in ("cell-00-00", "cell-01-01"):
        assert (tmp_path / "sw2" / name / "trace.csv").read_bytes() == \
            (tmp_path / "sw1" / name / "trace.csv").read_bytes()


def test_sweep_starts_a_worker_per_usable_cpu(tmp_path, monkeypatch):
    # under one usable CPU (as under taskset -c 0) a 2-cell sweep starts
    # one worker, and writes the summary of a sweep on every CPU
    import concurrent.futures
    path = tmp_path / "sweep.ini"
    path.write_text(AFFINE_TEXT.format(out=tmp_path / "every")
                    + "\n[sweep]\ngamma = 0.02,0.08\ndelta = 0.5\n")
    assert main(["sweep", str(path)]) == 0
    sizes, pool = [], concurrent.futures.ProcessPoolExecutor

    def sized(max_workers):
        sizes.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", sized)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert main(["sweep", str(path), "--out", str(tmp_path / "one")]) == 0
    assert sizes == [1]
    assert (tmp_path / "one" / "summary.csv").read_bytes() == \
        (tmp_path / "every" / "summary.csv").read_bytes()


def test_sweep_cell_is_the_run_of_its_stepsizes(tmp_path):
    # each cell runs the sweep's one game with the cell's gamma, delta and
    # max_iter, so its trace is that of `trades run` with those settings
    gammas, deltas, max_iter = (0.02, 0.08), (0.5, 1.0), 700
    text = AFFINE_TEXT.format(out=tmp_path / "unused")
    path = tmp_path / "sweep.ini"
    path.write_text(text + f"\n[sweep]\ngamma = {gammas[0]},{gammas[1]}\n"
                    f"delta = {deltas[0]},{deltas[1]}\nmax_iter = {max_iter}\n")
    assert main(["sweep", str(path), "--out", str(tmp_path / "sw")]) == 0
    for i, gamma in enumerate(gammas):
        for j, delta in enumerate(deltas):
            cell = tmp_path / f"cell-{i}{j}.ini"
            cell.write_text(text.replace("gamma = 0.02", f"gamma = {gamma}\n"
                                         f"delta = {delta}")
                            .replace("max_iter = 4000", f"max_iter = {max_iter}"))
            out = tmp_path / f"run-{i}{j}"
            assert main(["run", str(cell), "--out", str(out)]) in (0, 2)
            assert (out / "trace.csv").read_bytes() == \
                (tmp_path / "sw" / f"cell-{i:02d}-{j:02d}" / "trace.csv").read_bytes()


def test_sweep_without_grid_is_usage_error(tmp_path, capsys):
    path = _affine_cfg_file(tmp_path)
    assert main(["sweep", path]) == 1
    assert "sweep" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
def test_an_output_path_that_cannot_be_a_directory_stops_before_any_solve(
        tmp_path, monkeypatch, capsys, command, under):
    # `--out` at an existing file, or at a path under one, is one error
    # line naming the file, before the graph, the oracle or a run
    path = _affine_cfg_file(tmp_path, extra="\n[sweep]\ngamma = 0.02\n"
                            "delta = 0.5\n")
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")

    def no_solve(*args, **kwargs):
        raise AssertionError("solved")

    for name in ("build_graph", "solve_ne_oracle", "run"):
        monkeypatch.setattr(cli, name, no_solve)
    out = blocker / "sub" if under else blocker
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main([command, path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: output directory {out} cannot "
                                       f"be made: {blocker} is not a "
                                       "directory\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("source", ["flag", "key"])
def test_an_empty_output_directory_stops_before_any_solve(
        tmp_path, monkeypatch, capsys, command, source):
    # `--out ''` or `output_dir =` would resolve to the working directory
    # and fail only at the first write, after the whole solve
    path = tmp_path / "exp.ini"
    text = AFFINE_TEXT.format(out="out") + "\n[sweep]\ngamma = 0.02\n" \
        "delta = 0.5\n"
    if source == "key":
        text = text.replace("output_dir = out", "output_dir =")
    path.write_text(text)

    def no_solve(*args, **kwargs):
        raise AssertionError("solved")

    for name in ("build_graph", "solve_ne_oracle", "run"):
        monkeypatch.setattr(cli, name, no_solve)
    monkeypatch.chdir(tmp_path)
    flag = ["--out", ""] if source == "flag" else []
    assert main([command, str(path), *flag]) == 1
    assert capsys.readouterr().err == ("error: the output directory "
                                       "([experiment] output_dir or --out) "
                                       "is empty\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


def test_case_study_small_instance(tmp_path):
    path = tmp_path / "volt.ini"
    path.write_text(f"""
[experiment]
spec_version = 1
scenario = voltage
seed = 3
output_dir = {tmp_path / "cs"}
oracle = off

[graph]
n_agents = 6
edge_prob = 0.5

[trades]
max_iter = 300
stop_tol = 1e-6

[voltage]
n_buses = 5
horizon = 12
""")
    assert main(["run", str(path)]) == 0
    out = tmp_path / "cs"
    report = json.loads((out / "report.json").read_text())
    assert report["scenario"] == "voltage"
    assert report["voltage"]["base_score"] > 0
    assert sorted(report["voltage"]) == ["base_score", "deviation_score",
                                         "improvement_ratio"]
    assert sorted(os.listdir(out)) == ["config.echo", "metrics.json",
                                       "report.json", "trace.csv"]


def test_a_voltage_run_replays_from_its_config_echo(tmp_path):
    # the echo is the scenario's one record: its seeds regenerate the
    # network, prices and agents, so a run of it writes the same bytes
    path = tmp_path / "volt.ini"
    path.write_text(VOLTAGE_TEXT.replace("n_agents = 6", "n_agents = 3")
                    .replace("edge_prob = 0.5", "edge_prob = 0.6")
                    + "\n[trades]\nmax_iter = 2000\nstop_tol = 1e-6\n")
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["run", str(path), "--out", str(first)]) == 0
    assert main(["run", str(first / "config.echo"), "--out", str(second)]) == 0
    for name in ("trace.csv", "report.json"):
        assert (second / name).read_bytes() == (first / name).read_bytes()
    echoes = [(out / "config.echo").read_text().replace(
        f"output_dir = {out}\n", "") for out in (first, second)]
    assert echoes[0] == echoes[1] and "output_dir" not in echoes[0]


def test_case_study_writes_every_file_atomically(tmp_path, monkeypatch):
    # each output file arrives by renaming a finished temporary sibling; the
    # run reaches stop_tol after 1,122 sweeps, so it PASSes and exits 0
    path = tmp_path / "volt.ini"
    path.write_text("""
[experiment]
spec_version = 1
scenario = voltage
seed = 3

[graph]
n_agents = 3
edge_prob = 0.6

[trades]
max_iter = 2000
stop_tol = 1e-6

[voltage]
n_buses = 5
horizon = 12
""")
    replaced = []
    real_replace = os.replace

    def spy(src, dst):
        replaced.append((os.fspath(src), os.fspath(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    out = tmp_path / "cs"
    assert main(["run", str(path), "--out", str(out)]) == 0
    names = ("trace.csv", "report.json", "metrics.json", "config.echo")
    targets = {dst for _, dst in replaced}
    assert targets == {str(out / name) for name in names}
    assert all(src.startswith(dst + ".tmp.") for src, dst in replaced)
    assert sorted(os.listdir(out)) == sorted(names)


def _usage_error_of_both_commands(capsys, path, out):
    """The one stderr line that `run` and `validate` each print for the
    config at path, checking their exit 1 and that run wrote nothing."""
    assert main(["run", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert not out.exists()
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def _without_section(text, name):
    return re.sub(rf"\[{name}\]\n(?:.+\n)*", "", text)


@pytest.mark.parametrize("text, message", [
    (AFFINE_TEXT.replace("n_agents = 5\n", ""),
     "[graph] missing required key 'n_agents'"),
    (AFFINE_TEXT.replace("seed = 42\n", "seed = 42\noracle = maybe\n"),
     "[experiment] oracle = 'maybe'; expected on or off"),
    (AFFINE_TEXT + "\n[sweep]\ngamma = 0.01, x\ndelta = 0.5\n",
     "[sweep] gamma = '0.01, x' is not a comma-separated list of numbers"),
    (_without_section(AFFINE_TEXT, "experiment"),
     "missing required section [experiment]"),
    (_without_section(AFFINE_TEXT, "graph"), "missing required section [graph]"),
    (VOLTAGE_TEXT + "agents_file = a.csv\nnetwork_file = n.csv\n"
     "prices_file = p.csv\n", "[voltage] has unknown keys: ['agents_file', "
     "'network_file', 'prices_file']"),
    # the voltage model's units are constants of trades.grid, not keys
    (VOLTAGE_TEXT + "voltage_scale = 2400.0\n",
     "[voltage] has unknown keys: ['voltage_scale']"),
    (VOLTAGE_TEXT + "power_base_kw = 1000.0\n",
     "[voltage] has unknown keys: ['power_base_kw']"),
    # trace_stride is no key: every sweep is a trace row
    (AFFINE_TEXT.replace("max_iter = 4000\n", "max_iter = 4000\ntrace_stride = 1\n"),
     "[trades] has unknown keys: ['trace_stride']"),
    # configparser copies a [DEFAULT] section's keys into every section; it
    # is refused like any other unknown section, [trades] present or not
    ("[DEFAULT]\nseed = 3\n" + _without_section(AFFINE_TEXT, "trades"),
     "unknown section [DEFAULT]; expected ['affine', 'experiment', 'graph', "
     "'sweep', 'trades', 'voltage']"),
    ("[DEFAULT]\nseed = 3\n" + AFFINE_TEXT,
     "unknown section [DEFAULT]; expected ['affine', 'experiment', 'graph', "
     "'sweep', 'trades', 'voltage']"),
    # a [sweep] step is checked by TradesConfig's own rule
    (AFFINE_TEXT + "\n[sweep]\ngamma = 0.01, inf\ndelta = 0.5\n",
     "[sweep] gamma must be > 0 and finite, got inf"),
    (AFFINE_TEXT + "\n[sweep]\ngamma = 0.01\ndelta = 0.5, 0\n",
     "[sweep] delta must lie in (0, 1], got 0.0"),
    (AFFINE_TEXT + "\n[sweep]\ngamma = -1\ndelta = 2\n",
     "[sweep] gamma must be > 0 and finite, got -1.0"),
    (AFFINE_TEXT + "\n[sweep]\ngamma = 0.01\ndelta = 1.5\n",
     "[sweep] delta must lie in (0, 1], got 1.5"),
], ids=["required-key", "flag", "float-list", "no-experiment", "no-graph",
        "data-file-keys", "voltage-scale-key", "power-base-key",
        "trace-stride-key", "default-section", "default-section-with-trades",
        "sweep-gamma-inf", "sweep-delta-zero", "sweep-gamma-first",
        "sweep-delta-above-one"])
def test_config_errors_name_the_key_or_section(tmp_path, capsys, text, message):
    path = tmp_path / "exp.ini"
    path.write_text(text.format(out=tmp_path / "out"))
    assert _usage_error_of_both_commands(capsys, path, tmp_path / "out") == \
        f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    (b"hello world\n", "cannot parse config {}: line 1 comes before any "
     "[section] header"),
    (b"[experiment]\nspec_version\nseed\n", "cannot parse config {}: line 2 is "
     "neither a [section] header nor key = value"),
    (b"[experiment]\nseed = 1\n[experiment]\n", "cannot parse config {}: "
     "line 3: section 'experiment' already exists"),
    (b"[experiment]\n\xff\xfe = 1\n", "cannot read config {}: "),
], ids=["no-header", "no-equals", "repeated-section", "not-utf-8"])
def test_unreadable_config_is_one_error_line_naming_the_file(tmp_path, capsys,
                                                             text, message):
    # configparser's own messages span several lines and name no file, and
    # a decoding error names no file: each of these is one line naming it
    path = tmp_path / "exp.ini"
    path.write_bytes(text)
    err = _usage_error_of_both_commands(capsys, path, tmp_path / "out")
    assert err.startswith(f"error: {message.format(path)}")


def _no_graph(*args):
    raise AssertionError("the graph was drawn")


@pytest.mark.parametrize("size", ["huge", "least"])
@pytest.mark.parametrize("section, key", [
    ("graph", "n_agents"), ("affine", "strategy_dim"), ("affine", "agg_dim"),
    ("voltage", "n_buses"), ("voltage", "horizon")])
def test_too_large_a_size_is_an_error_naming_its_key(tmp_path, capsys,
                                                     monkeypatch, section,
                                                     key, size):
    # 10^20 meets numpy's dimension limit, and the least value the check
    # refuses would, unchecked, allocate ~2 GiB; each is one error line
    # naming its key, before the graph is drawn or any scenario data
    text = VOLTAGE_TEXT if section == "voltage" else AFFINE_TEXT
    old = re.search(rf"^{key} = (\d+)$", text, re.M)

    def with_value(value):
        return text.format(out=tmp_path / "out").replace(
            old.group(), f"{key} = {value}")

    def refused(value):
        try:
            _check_sizes(parse_config(with_value(value)))
        except ConfigError:
            return True
        return False

    value = 10 ** 20
    if size == "least":
        low = int(old.group(1))
        assert not refused(low) and refused(value)
        while value - low > 1:
            mid = (low + value) // 2
            low, value = (low, mid) if refused(mid) else (mid, value)
    monkeypatch.setattr("trades.cli.gen_digraph", _no_graph)
    path = tmp_path / "large.ini"
    path.write_text(with_value(value))
    err = _usage_error_of_both_commands(capsys, path, tmp_path / "out")
    assert err.startswith(f"error: [{section}] {key} = {value} needs ")


@pytest.mark.parametrize("agg_dim", [1, 2])
def test_the_readme_size_bound_at_two_strategies(agg_dim):
    # README § Config format: "N ≤ 3,662 at p = 2 and q = 1 or 2"
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir,
                               "README.md")).read()
    assert "N ≤ 3,662 at p = 2 and q = 1 or 2" in " ".join(readme.split())
    text = AFFINE_TEXT.format(out="out").replace(
        "agg_dim = 1", f"agg_dim = {agg_dim}")
    _check_sizes(parse_config(text.replace("n_agents = 5", "n_agents = 3662")))
    with pytest.raises(ConfigError, match=r"^\[graph\] n_agents = 3663 needs "):
        _check_sizes(parse_config(text.replace("n_agents = 5",
                                               "n_agents = 3663")))


@pytest.mark.parametrize("n_agents", [40, 500])
def test_the_desk_case_passes_the_size_check(n_agents):
    # the desk (15 buses, 24 h) peaks near 69 MB at N = 500
    cfg = parse_config(VOLTAGE_TEXT.replace("n_agents = 6", f"n_agents = {n_agents}")
                       .replace("n_buses = 5", "n_buses = 15")
                       .replace("horizon = 12", "horizon = 24"))
    _check_sizes(cfg)
    assert _dense_bytes(n_agents, 2, 15, 24, 15) < 2 ** 26


# raw values that a key reads as a wrong kind, a value out of bounds or
# at an edge, or a size far above the size check
_ODD_VALUES = ("", "x", "1.5", "1e3", "-1", "0", "1", "nan", "inf", "-inf",
               "1e-320", "1e-300", "1e300", "1e308", "on", "none", "0x10",
               "1,2", str(10 ** 20), "missing.csv")
# accepted sizes stay small, since validate factorizes A of side N p
_SIZE_DRAWS = {"n_agents": (2, 5), "strategy_dim": (1, 3), "agg_dim": (1, 3),
               "n_buses": (2, 6), "horizon": (10, 14)}


def _valid_value(section, key):
    """A raw value that the key accepts (a data file key has none here)."""
    kind = _KEYS[section][key][0]
    if key in _SIZE_DRAWS and section != "sweep":
        return st.integers(*_SIZE_DRAWS[key]).map(str)
    if key == "spec_version":
        return st.just(str(SPEC_VERSION))
    if kind is int:                      # seeds and iteration counts
        return st.integers(1, 2 ** 64).map(str)
    if kind in (float, _OR_NONE):        # in (0, 1], which every bound takes
        return st.floats(1e-3, 1.0).map(repr)
    if kind == _FLOATS:
        return st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=3).map(
            lambda v: ",".join(map(repr, v)))
    if kind == _FLAG:
        return st.sampled_from(("on", "off"))
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    return st.just("out")                # output_dir


@st.composite
def _config_texts(draw):
    """Config text drawn from the key table: the scenario's sections with
    most of their keys valid, then at most one odd value (any float repr
    too, nan and inf among them) and at most one edit (a duplicate, an
    unknown name, or text that configparser cannot read)."""
    scenario = draw(st.sampled_from(SCENARIOS))
    names = ["experiment", "graph", "trades", scenario]
    names += [name for name in ("sweep", "affine", "voltage")
              if name not in names and draw(st.integers(0, 4)) == 0]
    sections = {name: {key: draw(_valid_value(name, key))
                       for key in _KEYS[name] if draw(st.integers(0, 15)) > 0}
                for name in names}
    sections["experiment"]["scenario"] = scenario
    if draw(st.integers(0, 2)) == 0:
        name = draw(st.sampled_from(names))
        sections[name][draw(st.sampled_from(list(_KEYS[name])))] = draw(
            st.sampled_from(_ODD_VALUES)
            | st.floats(allow_nan=True, allow_infinity=True).map(repr))
    lines = [line for name, values in sections.items()
             for line in (f"[{name}]",
                          *(f"{key} = {value}" for key, value in values.items()))]
    edit = draw(st.sampled_from((None,) * 10 + ("key", "section", "unknown key",
                                             "unknown section", "unreadable")))
    at = draw(st.integers(1, len(lines)))
    if edit == "key":
        lines.insert(at, lines[at - 1] if "=" in lines[at - 1] else "seed = 1")
    elif edit == "section":
        lines.append(draw(st.sampled_from([line for line in lines
                                           if line.startswith("[")])))
    elif edit == "unknown key":
        lines.insert(at, "colour = red")
    elif edit == "unknown section":
        lines.insert(draw(st.sampled_from((0, len(lines)))), "[extra]")
    elif edit == "unreadable":
        lines.insert(draw(st.sampled_from((0, at))), draw(st.sampled_from(
            ("just words", "= 3", "\udcff\x00\x01", "[unclosed"))))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(text=_config_texts())
def test_validate_on_any_config_text_exits_with_a_known_code(tmp_path_factory,
                                                            text):
    # a config from the key table, valid or not, gives one of the four
    # exit codes and no traceback; exit 1 is one line on stderr
    path = tmp_path_factory.mktemp("drawn") / "drawn.ini"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", str(path)])
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1


@pytest.mark.parametrize("text, edit", [
    (AFFINE_TEXT, ("agg_dim = 1", "agg_dim = 1\ncoupling = -1e308")),
    (VOLTAGE_TEXT, ("penalty_weight = 1.0", "penalty_weight = 1.7e308"))],
    ids=["coupling", "penalty"])
def test_a_scale_that_overflows_the_game_is_an_error_line(tmp_path, capsys,
                                                         text, edit):
    path = tmp_path / "scaled.ini"
    path.write_text(text.format(out=tmp_path / "out").replace(*edit))
    section = "affine" if text is AFFINE_TEXT else "voltage"
    err = _usage_error_of_both_commands(capsys, path, tmp_path / "out")
    assert err.startswith(f"error: the [{section}] scales and weights make "
                          "the game's factors overflow (")


def test_too_large_a_coupling_is_an_error_naming_it(tmp_path, capsys):
    path = tmp_path / "coupled.ini"
    path.write_text(AFFINE_TEXT.format(out=tmp_path / "out")
                    .replace("n_agents = 5", "n_agents = 4")
                    .replace("agg_dim = 1", "agg_dim = 1\ncoupling = 50"))
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: coupling = 50.0 ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().out.startswith("assembly: FAIL (coupling = 50.0 ")


def test_usage_errors_exit_one(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:   # a voltage scenario is a `run`
        main(["case-study", _affine_cfg_file(tmp_path)])
    assert exc.value.code == 1
    assert main(["run", str(tmp_path / "missing.ini")]) == 1


def test_module_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "trades"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "usage" in proc.stderr.lower()


@pytest.mark.parametrize("penalty_weight, side", [(1.0, "more than"),
                                                  (100.0, "less than")])
def test_voltage_run_states_what_its_ratio_means(tmp_path, capsys,
                                                 penalty_weight, side):
    path = tmp_path / "volt.ini"
    path.write_text(f"""
[experiment]
spec_version = 1
scenario = voltage
seed = 3
output_dir = {tmp_path / "out"}
oracle = off

[graph]
n_agents = 6
edge_prob = 0.5

[trades]
max_iter = 300
stop_tol = 1e-6

[voltage]
n_buses = 5
horizon = 12
penalty_weight = {penalty_weight}
""")
    assert main(["run", str(path)]) == 0
    printed = capsys.readouterr().out
    ratio = json.loads((tmp_path / "out" / "report.json").read_text())[
        "voltage"]["improvement_ratio"]
    assert (ratio > 1) == (side == "more than")
    assert (f"improvement ratio {ratio:.6g}: the equilibrium deviates "
            f"{side} doing nothing") in printed


def test_run_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # the determinism above holds across interpreters too, whose string
    # hashes, and so the order of any set of strings, differ by hash seed
    path, out = _affine_cfg_file(tmp_path), tmp_path / "out"
    names = ("trace.csv", "report.json", "config.echo")
    outputs = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "trades", "run", path, "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append([(out / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]


DESK_TEXT = """
[experiment]
spec_version = 1
scenario = voltage
seed = 0

[graph]
n_agents = 40
edge_prob = 0.3
seed = 11

[trades]
max_iter = 300

[voltage]
n_buses = 15
horizon = 24
seed = 2026
"""


def test_desk_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the README's byte-for-byte claim holds for one numpy/BLAS build at
    # one thread count; at the desk's size (40 agents) it holds at one and
    # at two BLAS threads as well
    path, out = tmp_path / "desk.ini", tmp_path / "out"
    path.write_text(DESK_TEXT)
    names = ("trace.csv", "report.json", "config.echo")
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "trades",
             "run", str(path), "--seed", "5", "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode in (0, 2), proc.stdout + proc.stderr
        outputs.append([(out / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]


def _children_of(pid):
    """Pids of the live (not zombie) processes whose parent is pid."""
    found = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except (OSError, ValueError):
            continue                      # not a process, or gone meanwhile
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == pid and state != "Z":
            found.append(int(entry))
    return found


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(sys.platform != "linux" or os.uname().machine != "x86_64"
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="the trace replay forks on Linux x86-64 with two CPUs")
def test_a_killed_desk_run_leaves_no_replay_process(tmp_path):
    # a desk run with one BLAS thread measures its rows in one forked
    # child; SIGKILL to the run leaves that child to see its parent gone
    path = tmp_path / "desk.ini"
    path.write_text(DESK_TEXT.replace("max_iter = 300",
                                      "max_iter = 50000\nstop_tol = 1e-300"))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "trades", "run", str(path), "--oracle", "off",
         "--out", str(tmp_path / "out")],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)
    children = []
    try:
        deadline = time.monotonic() + 60.0
        while not (children := _children_of(proc.pid)):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        assert len(children) == 1
        proc.kill()
        proc.wait()
        gone_by = time.monotonic() + 2.0
        while _alive(children[0]) and time.monotonic() < gone_by:
            time.sleep(0.01)
        assert not _alive(children[0])
    finally:
        proc.kill()
        proc.wait()
        for pid in filter(_alive, children):     # a failed check's leftover
            os.kill(pid, signal.SIGKILL)


def test_run_leaves_numpy_ma_unloaded(tmp_path):
    # np.median imports numpy.ma on its first call (~13 ms and ~1 MB per
    # command); the fit takes its median without it, so a whole run with
    # the oracle on, fit included, never loads it
    script = ("import sys\n"
              "from trades.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "sys.exit(code or 10 * ('numpy.ma' in sys.modules))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, "run", _affine_cfg_file(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["result"]["contraction_ratio"] > 0


# the package's public names, the voltage module's among them
PACKAGE_NAMES = (
    "AffineGameSpec", "AssumptionReport", "BoundaryLayerResult", "Box",
    "ConfigError", "ConsensusSpectrum", "ConvergenceReport", "DiskPairs",
    "DistFlowModel", "EvAgentSpec", "ExperimentConfig", "FeasibleSetProjector",
    "GameDefinition", "InfeasibleSpec", "IterationTrace", "MaxIterExceeded",
    "MaxSweepsExceeded", "RadialNetwork",
    "SinkhornStalled", "TRACE_COLUMNS", "TRACKER_MODES", "TradesConfig",
    "TradesError", "TradesState", "VoltageGameConfig", "VoltageSummary",
    "WeightedDigraph", "boundary_layer_budget", "boundary_layer_probe",
    "build_ev_projector", "build_radial_network", "build_voltage_game",
    "canonical_text", "consensus_step", "default_voltage_config",
    "distflow_sensitivities", "evaluate_voltages", "exact_tracker_values",
    "fit_convergence", "gen_agents", "gen_baseline_profile", "gen_digraph",
    "gen_prices", "init", "is_strongly_connected", "load_config",
    "local_operator", "make_doubly_stochastic", "parse_config", "phi_stack",
    "pseudo_gradient", "quadratic_aggregative_game",
    "random_strongly_monotone_game", "reduced_system_run", "run",
    "solve_ne_oracle", "spectrum", "validate_assumptions",
    "grid", "__version__")


def _fresh_python(script, *args):
    """Run script in a new interpreter; fail the test on a nonzero exit."""
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c",
                           script, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_affine_run_never_loads_the_voltage_module(tmp_path):
    _fresh_python("import sys\n"
                  "import trades.cli as cli\n"
                  "assert 'trades.grid' not in sys.modules\n"
                  "assert cli.main(['run', sys.argv[1]]) == 0\n"
                  "assert 'trades.grid' not in sys.modules\n",
                  _affine_cfg_file(tmp_path))
    assert (tmp_path / "out" / "trace.csv").stat().st_size > 0


# an atexit handler registered first runs last, after any hook of the CLI
_REPORT_FREEZE_AT_EXIT = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n")


def test_a_command_exits_with_its_heap_frozen(tmp_path):
    # the exit-time collections skip what is alive once a command ran, and
    # the output the command printed still comes first
    out = _fresh_python(_REPORT_FREEZE_AT_EXIT
                        + "from trades.cli import main\n"
                        "sys.exit(main(sys.argv[1:]))\n",
                        "run", _affine_cfg_file(tmp_path), "--oracle", "off")
    assert out.endswith(f"outputs in {tmp_path / 'out'}\nfrozen True\n")


def test_importing_the_cli_registers_no_exit_hook():
    out = _fresh_python(_REPORT_FREEZE_AT_EXIT
                        + "count = atexit._ncallbacks()\n"
                        "import trades.cli\n"
                        "assert atexit._ncallbacks() == count\n")
    assert out == "frozen False\n"


def test_repeated_commands_register_the_exit_hook_once(tmp_path):
    _fresh_python("import atexit, sys\n"
                  "from trades.cli import main\n"
                  "count = atexit._ncallbacks()\n"
                  "for _ in range(3):\n"
                  "    assert main(['validate', sys.argv[1]]) == 0\n"
                  "    assert atexit._ncallbacks() == count + 1\n",
                  _affine_cfg_file(tmp_path))


def test_package_names_resolve_in_a_fresh_interpreter():
    _fresh_python("import sys, trades\n"
                  "assert 'trades.grid' not in sys.modules\n"
                  "from trades import build_voltage_game, RadialNetwork\n"
                  "import trades.grid as grid\n"
                  "assert build_voltage_game is grid.build_voltage_game\n"
                  "assert RadialNetwork is grid.RadialNetwork\n"
                  "for name in sys.argv[1:]:\n"
                  "    getattr(trades, name)\n", *PACKAGE_NAMES)
    _fresh_python("import trades\n"
                  "assert trades.grid.RadialNetwork is trades.RadialNetwork\n"
                  "try:\n"
                  "    trades.no_such_name\n"
                  "except AttributeError:\n"
                  "    pass\n"
                  "else:\n"
                  "    raise SystemExit('trades.no_such_name resolved')\n")


def test_projection_primitives_stay_in_their_modules():
    # the set primitives and Dykstra's certificate error are read from
    # trades.projections and trades.errors, not from the package
    import trades
    from trades import errors, projections
    for module, names in ((projections, ("ConvexSet", "Hyperplane", "Halfspace")),
                          (errors, ("EmptyIntersectionSuspected",))):
        for name in names:
            assert inspect.isclass(getattr(module, name))
            assert not hasattr(trades, name)


def test_grid_names_are_every_public_grid_name():
    # trades._GRID_NAMES is kept by hand: a public class or function of
    # trades.grid missing from it would not resolve as trades.<name>
    import trades
    import trades.grid as grid
    public = {name for name, obj in vars(grid).items()
              if (inspect.isclass(obj) or inspect.isfunction(obj))
              and obj.__module__ == "trades.grid" and not name.startswith("_")}
    assert public == trades._GRID_NAMES
    for name in trades._GRID_NAMES:
        assert getattr(trades, name) is getattr(grid, name)


def test_voltage_run_loads_the_voltage_module(tmp_path):
    path = tmp_path / "volt.ini"
    path.write_text(VOLTAGE_TEXT.replace(
        "n_agents = 6", "n_agents = 3").replace(
        "[voltage]", "[trades]\nmax_iter = 200\nstop_tol = 1e-6\n\n[voltage]"))
    _fresh_python("import sys\n"
                  "import trades.cli as cli\n"
                  "assert cli.main(['run', sys.argv[1], '--oracle', 'off',\n"
                  "                 '--out', sys.argv[2]]) == 0\n"
                  "assert 'trades.grid' in sys.modules\n",
                  str(path), str(tmp_path / "volt"))
    assert (tmp_path / "volt" / "trace.csv").stat().st_size > 0

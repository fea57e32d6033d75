"""Tests for the distributed equilibrium-seeking iteration.

The hand-computed step values below were derived with pencil and paper
from the update rule before the module existed; the remaining expected
values come from the independent oracles in oracles.py or from direct
re-evaluation of the defining formulas inside the test body.
"""

import errno
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trades import algorithm
from trades.algorithm import (
    BoundaryLayerResult,
    ConvergenceReport,
    IterationTrace,
    TRACE_COLUMNS,
    TRACKER_MODES,
    TradesConfig,
    _Recorder,
    _advance,
    _checked_step_norm,
    boundary_layer_budget,
    boundary_layer_probe,
    exact_tracker_values,
    fit_convergence,
    init,
    reduced_system_run,
    run,
)
from trades.grid import (
    build_radial_network,
    build_voltage_game,
    default_voltage_config,
    distflow_sensitivities,
    gen_agents,
    gen_baseline_profile,
    gen_prices,
)
from trades.games import (
    GameDefinition,
    phi_stack,
    quadratic_aggregative_game,
    random_strongly_monotone_game,
    solve_ne_oracle,
)
from trades.projections import Box, FeasibleSetProjector
from trades.network import (
    WeightedDigraph,
    gen_digraph,
    make_doubly_stochastic,
    spectrum,
)

from oracles import (ConsensusBasis, aggregate, consensus_basis,
                     kron_consensus_oracle)


def _graph(n, p, seed, method="metropolis_symmetrized"):
    return make_doubly_stochastic(gen_digraph(n, p, seed), method=method)


def _single_agent_graph():
    return WeightedDigraph([[1.0]])


def _two_agent_game():
    # scalar agents, identity contribution maps, coupling through the mean
    return quadratic_aggregative_game(
        quadratics=[np.array([[1.0]]), np.array([[2.0]])],
        linears=[np.array([-1.0]), np.array([0.0])],
        coupling=1.0,
        couplers=[np.array([[1.0]]), np.array([[0.5]])],
        aggregators=[np.array([[1.0]]), np.array([[1.0]])],
        boxes=[(np.array([-10.0]), np.array([10.0]))] * 2,
    )


# ----------------------------------------------------------- configuration


def test_config_validation():
    TradesConfig(gamma=0.01, delta=0.5)
    TradesConfig(delta=1.0)  # closed upper boundary is a meaningful case
    with pytest.raises(ValueError):
        TradesConfig(gamma=0.0)
    with pytest.raises(ValueError):
        TradesConfig(gamma=-1.0)
    with pytest.raises(ValueError):
        TradesConfig(delta=0.0)
    with pytest.raises(ValueError):
        TradesConfig(delta=1.5)
    with pytest.raises(ValueError):
        TradesConfig(stop_tol=0.0)
    with pytest.raises(ValueError):
        TradesConfig(max_iter=0)


@pytest.mark.parametrize("field", ["gamma", "stop_tol"])
def test_config_rates_are_finite(field):
    # gamma = inf ran every sweep to a FAIL verdict, and stop_tol = inf
    # stopped a run after one sweep as converged
    for value in (math.inf, -math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match=f"{field} must be > 0 and finite"):
            TradesConfig(**{field: value})
    assert getattr(TradesConfig(**{field: 1e300}), field) == 1e300


@pytest.mark.parametrize("field", ["max_iter"])
def test_config_counts_are_integers(field):
    # a float count ran fractional sweeps (max_iter = 2.5 gave
    # 3 sweeps), a string one failed only inside run, and True ran one sweep
    for value in (2.5, 6.0, "10", None, True, False):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TradesConfig(**{field: value})
    with pytest.raises(ValueError, match=f"{field} must be at least 1"):
        TradesConfig(**{field: np.int64(0)})
    assert getattr(TradesConfig(**{field: np.int64(3)}), field) == 3


def test_records_behave_as_declared():
    cfg = TradesConfig(0.02, tracker="exact")
    assert cfg == TradesConfig(gamma=0.02, tracker="exact") != TradesConfig()
    assert hash(cfg) == hash(TradesConfig(gamma=0.02, tracker="exact"))
    assert repr(cfg).startswith("TradesConfig(gamma=0.02, delta=0.5, ")
    with pytest.raises(AttributeError, match="cannot assign to field 'gamma'"):
        cfg.gamma = 1.0
    with pytest.raises(AttributeError, match="cannot delete field 'gamma'"):
        del cfg.gamma
    assert cfg._replace(delta=1.0) == TradesConfig(0.02, 1.0, tracker="exact")
    with pytest.raises(ValueError, match="delta"):   # the copy is checked
        cfg._replace(delta=2.0)
    for args, kwargs in (((0.02,), {"gamma": 0.02}), ((), {"bogus": 1}),
                         ((1,) * 8, {})):
        with pytest.raises(TypeError):
            TradesConfig(*args, **kwargs)
    with pytest.raises(TypeError):
        IterationTrace(np.arange(2))     # a field without a default
    report = ConvergenceReport(a2=0.5)
    report.a2 = 0.25                    # an unfrozen record takes assignment
    assert report == ConvergenceReport(a2=0.25)
    with pytest.raises(TypeError):
        hash(report)


@pytest.mark.parametrize("stop_reason, converged, verdicts", [
    ("stop_tol", True, ("PASS", "FAIL", "N/A")),
    ("max_iter", False, ("FAIL", "FAIL", "N/A")),
    ("diverged", False, ("FAIL", "FAIL", "FAIL")),
])
def test_the_stop_reason_sets_converged_and_a_diverged_verdict(
        stop_reason, converged, verdicts):
    # converged is read off the stop reason, not stored; a divergence FAILs
    # whatever its fit says, a decaying fit, a flat one, or none, and so
    # does a decaying fit of a run that spent its max_iter; with a final
    # error (the oracle on) a run with no fit FAILs too, instead of N/A
    fits = ({"a2": 0.1, "r_squared": 0.99}, {"a2": 0.1, "r_squared": 0.5}, {})
    for fit, verdict in zip(fits, verdicts):
        report = ConvergenceReport(stop_reason=stop_reason, **fit)
        assert report.converged is converged and report.verdict == verdict
        assert report._replace(err_x_final=3e-8).verdict == (
            "FAIL" if verdict == "N/A" else verdict)
    assert "converged" not in ConvergenceReport._fields


@pytest.mark.parametrize("stop_reason", ["stop_tol", "max_iter", "diverged"])
def test_a_run_with_no_fit_is_judged_by_its_final_error(stop_reason):
    # with the oracle on and no fit (a run that stopped before its fit
    # window held three rows), a run stopped by stop_tol PASSes when its
    # final error is within criterion 1's 1e-8 and FAILs above it or at nan
    report = ConvergenceReport(stop_reason=stop_reason, err_x_final=1e-8)
    assert report.verdict == ("PASS" if stop_reason == "stop_tol" else "FAIL")
    for err in (np.nextafter(1e-8, 1.0), math.nan):
        assert report._replace(err_x_final=err).verdict == "FAIL"


def test_a_fit_whose_r_squared_is_the_bound_passes():
    # the verdict asks R^2 of at least 0.9: 0.9 itself passes, the float
    # below it fails
    fit = {"a2": 0.1, "stop_reason": "stop_tol"}
    assert ConvergenceReport(r_squared=0.9, **fit).verdict == "PASS"
    assert ConvergenceReport(r_squared=np.nextafter(0.9, 0.0),
                             **fit).verdict == "FAIL"


# -------------------------------------------------------------------- init


def test_init_feasible_start_unchanged():
    game = _two_agent_game()
    state = init(game, np.array([[0.25], [-0.5]]))
    assert state.x[0, 0] == 0.25
    assert state.x[1, 0] == -0.5
    assert state.z.shape == (2, 1)
    assert np.all(state.z == 0.0)


def test_init_projects_infeasible_start():
    game = _two_agent_game()
    state = init(game, np.array([[25.0], [-11.0]]))
    assert state.x[0, 0] == 10.0
    assert state.x[1, 0] == -10.0


def test_init_seeded_draw_deterministic():
    game = random_strongly_monotone_game(4, 3, 2, seed=0)
    a = init(game, 77)
    b = init(game, 77)
    assert np.array_equal(a.x, b.x)
    c = init(game, 78)
    assert not np.array_equal(a.x, c.x)


# ------------------------------------------------------------------- sweep


def test_hand_computed_step_two_agents():
    """One iteration checked against pencil-and-paper arithmetic.

    x = (1, -1), z = (0.2, -0.2), gamma = 0.1, delta = 0.5, uniform
    half-half weights.  Estimates: s1 = 1 + 0.2, s2 = -1 - 0.2.
    Directions: d1 = 1*1 - 1 + 1*1*1.2 + 1*1*1/2   = 1.7
                d2 = 2*(-1) + 0 + 0.5*(-1.2) + 0.5*(-1)/2 = -2.85
    Both inner points stay inside the boxes, so the projection is the
    identity here and the damped update is a plain average.
    """
    game = _two_agent_game()
    graph = _graph(2, 1.0, 0)
    assert np.array_equal(graph.weights, np.full((2, 2), 0.5))
    blocks = [np.array([1.0]), np.array([-1.0])]
    new_blocks, new_z, *_ = _advance(game, graph, 0.1, 0.5, blocks,
                                    np.array([[0.2], [-0.2]]), "consensus")
    expected_x1 = 1.0 + 0.5 * ((1.0 - 0.1 * 1.7) - 1.0)
    expected_x2 = -1.0 + 0.5 * ((-1.0 - 0.1 * (-2.85)) - (-1.0))
    assert abs(new_blocks[0][0] - expected_x1) <= 1e-14
    assert abs(new_blocks[1][0] - expected_x2) <= 1e-14
    # tracker: W z cancels, W phi cancels, leaving -phi(x) exactly
    assert np.array_equal(new_z, np.array([[-1.0], [1.0]]))
    # a one-iteration run is exactly this sweep from z = 0, at time 1
    cfg = TradesConfig(gamma=0.1, delta=0.5, max_iter=1)
    state, _, report = run(game, graph, cfg, x0=np.array([[1.0], [-1.0]]))
    first_blocks, first_z, *_ = _advance(game, graph, 0.1, 0.5, blocks,
                                        np.zeros((2, 1)), "consensus")
    assert np.array_equal(state.x, first_blocks)
    assert np.array_equal(state.z, first_z)
    assert report.iterations == 1


def test_step_tracker_reads_pre_update_strategies():
    # the tracker half of the sweep must consume time-t contributions,
    # not the freshly updated ones; the Kronecker oracle pins this down
    rng = np.random.default_rng(31)
    game = random_strongly_monotone_game(5, 2, 3, seed=8)
    graph = _graph(5, 0.6, 2, method="sinkhorn")
    blocks = init(game, 99).x
    z = rng.normal(size=(5, 3))
    z -= z.mean(axis=0)
    new_blocks, new_z, *_ = _advance(game, graph, 0.05, 0.5, blocks, z,
                                    "consensus")
    phix_old = phi_stack(game, blocks)
    expected = kron_consensus_oracle(graph.weights, z, phix_old)
    assert np.max(np.abs(new_z - expected)) <= 1e-13
    phix_new = phi_stack(game, new_blocks)
    wrong = kron_consensus_oracle(graph.weights, z, phix_new)
    assert np.max(np.abs(wrong - expected)) > 1e-6


def test_equilibrium_is_fixed_point():
    game = random_strongly_monotone_game(6, 2, 2, seed=3)
    xstar = solve_ne_oracle(game)
    graph = _graph(6, 0.5, 1)
    blocks = xstar
    z = exact_tracker_values(game, blocks)
    for _ in range(5):
        blocks, z, *_ = _advance(game, graph, 0.05, 0.5, blocks, z, "consensus")
    assert np.linalg.norm(blocks - xstar) <= 1e-9


def test_single_agent_is_projected_gradient():
    # N = 1 with delta = 1: trackers are identically zero and the sweep
    # collapses to a plain projected gradient step on the own cost
    game = random_strongly_monotone_game(1, 3, 2, seed=5)
    graph = _single_agent_graph()
    cfg = TradesConfig(gamma=0.07, delta=1.0, max_iter=1)
    state = init(game, 42)
    new, _, report = run(game, graph, cfg, x0=42)
    assert report.iterations == 1
    assert np.all(new.z == 0.0)

    x = state.x[0]
    data = game.quadratic_data
    q, r, c, g = (data[key][0] for key in
                  ("quadratics", "linears", "couplers", "aggregators"))
    kappa = data["coupling"]
    s = g @ x  # with N = 1 the aggregate is the own contribution
    # own gradient Q x + r + kappa C s, plus G' (kappa C' x) through s
    direction = q @ x + r + kappa * (c @ s) + g.T @ (kappa * (c.T @ x))
    expected = game.projector(x - cfg.gamma * direction)
    assert np.max(np.abs(new.x[0] - expected)) <= 1e-14


def test_step_nonfinite_raises_with_iteration_index():
    # a divergence names the iteration the offending sweep produced,
    # counted here by hand with the bare sweep: the first whose squared
    # step norm or squared tracker column sum is not finite; the growth
    # takes several sweeps to overflow, so an off-by-one would show
    game = random_strongly_monotone_game(3, 2, 2, seed=6, box_halfwidth=None)
    graph = _graph(3, 1.0, 0)
    cfg = TradesConfig(gamma=1e100, delta=1.0, stop_tol=1e-300)
    x, z = init(game, 1).x, np.zeros((3, 2))
    produced, finite = 0, True
    with np.errstate(over="ignore", invalid="ignore"):
        while finite:
            new_x, z, *_ = _advance(game, graph, cfg.gamma, cfg.delta,
                                    x, z, "consensus")
            d, z_sum = (new_x - x).ravel(), z.sum(axis=0)
            finite = np.isfinite(d @ d) and np.isfinite(z_sum @ z_sum)
            last_finite, x, produced = x, new_x, produced + 1
        state, trace, report = run(game, graph, cfg, x0=1)
    assert produced > 1
    assert report.stop_reason == "diverged" and report.verdict == "FAIL"
    assert not report.converged
    assert report.iterations + 1 == produced
    assert len(trace) == produced - 1
    # the returned state is the last finite iterate
    assert np.array_equal(state.x, last_finite)


def test_a_nonfinite_first_sweep_carries_an_empty_trace():
    # no row is recorded before the first sweep is checked; the empty
    # trace still has the recorded dtypes and writes the header alone
    game = random_strongly_monotone_game(3, 2, 2, seed=6, box_halfwidth=None)
    cfg = TradesConfig(gamma=1e308, delta=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        state, trace, report = run(game, _graph(3, 1.0, 0), cfg, x0=1)
    assert report.stop_reason == "diverged"
    assert report.iterations + 1 == 1 and len(trace) == 0
    assert report.a2 is None and report.verdict == "FAIL"
    assert np.array_equal(state.x, init(game, 1).x)
    for name in (*TRACE_COLUMNS[1:], "z_mean_residual", "feas_residual"):
        assert getattr(trace, name).dtype == np.float64
    assert trace.csv_text() == ",".join(TRACE_COLUMNS) + "\n"


def _one_recorded_row():
    game = _two_agent_game()
    x, z = init(game, 0).x, np.zeros((2, 1))
    recorder = _Recorder(game, None)
    phix = phi_stack(game, x)
    recorder.add(x, z, phix, z + phix, 0.0)
    return x, z, recorder


def _run_replacing_sweep(monkeypatch, at, replace, x0=1):
    """(state, trace, report) of a 3-agent run whose sweep that
    produces iteration `at` has its (new x, new z) swapped for
    replace(new x, new z); with no replace, an unaltered run."""
    real, calls = algorithm._advance, []

    def advance(*args):
        new_x, new_z, *rest = real(*args)
        calls.append(None)
        if len(calls) == at and replace is not None:
            new_x, new_z = replace(new_x, new_z)
        return (new_x, new_z, *rest)

    monkeypatch.setattr(algorithm, "_advance", advance)
    game = random_strongly_monotone_game(3, 2, 2, seed=6, box_halfwidth=None)
    cfg = TradesConfig(stop_tol=1e-300, max_iter=50)
    with np.errstate(over="ignore", invalid="ignore"):
        return run(game, _graph(3, 1.0, 0), cfg, x0=x0)


def _diverged_at(out, at):
    """True when a run stopped as diverged at the sweep producing `at`,
    with the state and rows before it."""
    state, trace, report = out
    return (report.stop_reason == "diverged" and report.verdict == "FAIL"
            and report.iterations + 1 == at
            and len(trace) == at - 1)


def _with_entry(value, entry):
    def set_entry(a):
        a = a.copy()
        a[entry] = value
        return a
    return set_entry


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checked_step_norm_scans_the_tracker_stack(monkeypatch, bad):
    # the strategies are finite, so only the tracker scan can catch this
    x, z, _ = _one_recorded_row()
    new_z = _with_entry(bad, (1, 0))(z)
    assert _checked_step_norm(x, x + 1.0, 0.5, new_z) is None
    out = _run_replacing_sweep(monkeypatch, 7, lambda new_x, new_z: (
        new_x, _with_entry(bad, (1, 0))(new_z)))
    assert _diverged_at(out, 7)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checked_step_norm_catches_a_nonfinite_strategy(monkeypatch, bad):
    x, z, _ = _one_recorded_row()
    new_x = _with_entry(bad, (0, 0))(x)
    assert _checked_step_norm(x, new_x, 0.5, z) is None
    assert _checked_step_norm(x, new_x, 0.5) is None
    out = _run_replacing_sweep(monkeypatch, 3, lambda new_x, new_z: (
        _with_entry(bad, (0, 0))(new_x), new_z))
    assert _diverged_at(out, 3)


def test_checked_step_norm_stops_finite_stacks_whose_norm_overflows(
        monkeypatch):
    # finite strategies whose squared norm, or whose difference itself,
    # overflows: an infinite step is a divergence, as a non-finite entry is
    z = np.zeros((2, 1))
    for x, new_x in [(np.zeros((2, 1)), np.full((2, 1), 1e200)),
                     (np.full((2, 1), -1e308), np.full((2, 1), 1e308))]:
        with np.errstate(over="ignore"):
            for args in ((z,), ()):
                assert _checked_step_norm(x, new_x, 0.5, *args) is None
        out = _run_replacing_sweep(
            monkeypatch, 1, lambda _, new_z: (np.full((3, 2), new_x[0, 0]),
                                              new_z),
            x0=np.full((3, 2), x[0, 0]))
        assert _diverged_at(out, 1)


def test_checked_step_norm_stops_a_tracker_stack_whose_column_sum_overflows(
        monkeypatch):
    # every entry finite and the step finite, yet the column sums overflow
    # to inf: a divergence, stopping the run with the rows recorded before it
    x, z, _ = _one_recorded_row()
    new_z = np.full((3, 2), 1e308)
    with np.errstate(over="ignore"):
        assert math.isfinite(_checked_step_norm(x, x + 1.0, 0.5))
        assert _checked_step_norm(x, x + 1.0, 0.5, new_z) is None
    out = _run_replacing_sweep(monkeypatch, 5,
                               lambda new_x, _: (new_x, new_z.copy()))
    assert _diverged_at(out, 5) and len(out[1]) == 4


def test_recorded_row_reads_the_tracker_column_sum_square():
    # the check hands on the step norm alone; the row that records a tracker
    # stack reads |sum_i z_i|^2 from it, with nothing left on the recorder
    x, z, recorder = _one_recorded_row()
    new_z = np.array([[1.5], [-0.25]])
    step_norm = _checked_step_norm(x, x + 1.0, 0.5, new_z)
    assert step_norm == math.sqrt(x.size) / 0.5
    phix = phi_stack(_two_agent_game(), x)
    recorder.add(x, new_z, phix, new_z + phix, step_norm)
    # the column sum is 1.25 and the stack's norm sqrt(1.5^2 + 0.25^2) > 1
    trace = recorder.build()
    assert trace.z_mean_residual[1] == 1.25 / math.sqrt(1.5 ** 2 + 0.25 ** 2)
    assert not hasattr(recorder, "z_sum_sq")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (1, 1), (2, 0)])
def test_checked_step_norm_finds_any_nonfinite_tracker_entry(monkeypatch, bad,
                                                             entry):
    # among entries whose column sums overflow or cancel, one nan or inf
    # still stops the run, at the produced iteration and with the rows
    # recorded before it
    new_z = np.array([[1e308, -1e308], [1e308, 1e308], [-1e308, 1e308]])
    new_z[entry] = bad
    x, _, _ = _one_recorded_row()
    with np.errstate(over="ignore", invalid="ignore"):
        assert _checked_step_norm(x, x + 1.0, 0.5, new_z) is None
    out = _run_replacing_sweep(monkeypatch, 5,
                               lambda new_x, _: (new_x, new_z.copy()))
    assert _diverged_at(out, 5)
    recorded = _run_replacing_sweep(monkeypatch, 5, None)[1]
    for name in (*TRACE_COLUMNS[1:], "z_mean_residual", "feas_residual"):
        assert np.array_equal(getattr(out[1], name),
                              getattr(recorded, name)[:4], equal_nan=True)


def test_unknown_tracker_mode_rejected():
    for mode in ("oracle", "centralized"):
        with pytest.raises(ValueError, match=re.escape(str(TRACKER_MODES))):
            TradesConfig(tracker=mode)


# --------------------------------------------------------------------- run


def _bench_instance():
    game = random_strongly_monotone_game(10, 2, 2, seed=42)
    graph = _graph(10, 0.7, 7)
    return game, graph


def test_run_linear_convergence_affine_family():
    game, graph = _bench_instance()
    xstar = solve_ne_oracle(game)
    cfg = TradesConfig(gamma=0.01, delta=0.5, stop_tol=1e-10,
                       max_iter=50000)
    state, trace, report = run(game, graph, cfg, x0=2024, oracle=xstar)
    assert report.converged
    assert report.iterations <= 50000
    assert report.a2 is not None and report.a2 > 0
    assert report.r_squared >= 0.98
    assert report.verdict == "PASS"
    assert trace.err_x[-1] <= 1e-8
    assert report.contraction_ratio < 1.0


def test_run_tracker_mean_invariance():
    game, graph = _bench_instance()
    cfg = TradesConfig(gamma=0.01, delta=0.5, stop_tol=1e-12,
                       max_iter=800)
    _, trace, _ = run(game, graph, cfg, x0=5)
    assert len(trace) >= 100
    assert np.max(trace.z_mean_residual) <= 1e-10


def test_run_feasibility_invariance():
    game, graph = _bench_instance()
    cfg = TradesConfig(gamma=0.02, delta=0.9, stop_tol=1e-12,
                       max_iter=600)
    _, trace, _ = run(game, graph, cfg, x0=6)
    assert np.max(trace.feas_residual) <= 1e-8


def test_run_divergence_is_flagged():
    # without compact constraints a grossly oversized stepsize blows up;
    # either outcome named by the contract is accepted, but never PASS
    game = random_strongly_monotone_game(6, 2, 2, seed=13, box_halfwidth=None)
    graph = _graph(6, 0.6, 3)
    xstar = solve_ne_oracle(game)
    cfg = TradesConfig(gamma=10.0, delta=0.5, stop_tol=1e-12, max_iter=3000)
    with np.errstate(over="ignore", invalid="ignore"):
        _, trace, report = run(game, graph, cfg, x0=4, oracle=xstar)
    assert report.verdict != "PASS"
    if report.stop_reason == "diverged":
        assert report.iterations + 1 >= 1 and len(trace) == report.iterations


def test_run_seed_determinism_bitwise():
    game, graph = _bench_instance()
    cfg = TradesConfig(gamma=0.01, delta=0.5, stop_tol=1e-10,
                       max_iter=300, seed=4)
    out = [run(game, graph, cfg, keep_iterates=True) for _ in range(2)]
    assert out[0][1].csv_text() == out[1][1].csv_text()
    assert np.array_equal(out[0][1].iterates, out[1][1].iterates)
    assert np.array_equal(out[0][0].z, out[1][0].z)


def test_run_requires_start_point_or_seed():
    game, graph = _bench_instance()
    with pytest.raises(ValueError):
        run(game, graph, TradesConfig())


def test_run_reads_oracle_through_split():
    # the (N, m) oracle fills the error column; its stacked vector, or an
    # array of another shape, is split's ValueError, before any sweep
    game, graph = _bench_instance()
    cfg = TradesConfig(gamma=0.01, delta=0.5, stop_tol=1e-12, max_iter=40)
    xstar = solve_ne_oracle(game)
    assert xstar.shape == (game.N, game.m)
    assert "nan" not in run(game, graph, cfg, x0=5, oracle=xstar)[1].csv_text()
    for bad in (xstar.reshape(-1), xstar[:-1], xstar.T):
        with pytest.raises(ValueError, match=rf"shape \({bad.shape[0]},"):
            run(game, graph, cfg, x0=5, oracle=bad)


@pytest.mark.parametrize("call", [
    lambda game, graph, x: init(game, x),
    lambda game, graph, x: run(game, graph, TradesConfig(), x0=x),
    lambda game, graph, x: run(game, graph, TradesConfig(), x0=0, oracle=x),
    lambda game, graph, x: boundary_layer_probe(graph, game, x, steps=2),
], ids=["init", "run x0", "run oracle", "boundary_layer_probe"])
def test_a_flat_strategy_vector_is_refused(call):
    # strategies are (N, m) arrays only: a stacked vector of the same
    # numbers is a ValueError that names both shapes
    game, graph = _bench_instance()
    with pytest.raises(ValueError, match=r"shape \(20,\), expected \(10, 2\)"):
        call(game, graph, np.zeros(game.n))


def test_trace_quantities_match_direct_evaluation():
    game, graph = _bench_instance()
    cfg = TradesConfig(gamma=0.01, delta=0.5, stop_tol=1e-12,
                       max_iter=3)
    state0 = init(game, 11)
    _, trace, _ = run(game, graph, cfg, x0=11)
    # row 0 describes the start state, where z = 0
    blocks = state0.x
    phix = phi_stack(game, blocks)
    sigma = phix.mean(axis=0)
    est_direct = max(np.linalg.norm(phix[i] - sigma) for i in range(game.N))
    assert abs(trace.est_err_max[0] - est_direct) <= 1e-13
    # disagreement at z = 0 is the norm of the contribution stack's
    # coordinates in the orthonormal basis; the recorder centers the stack
    # instead, so the basis is the second route
    basis_norm = np.linalg.norm(consensus_basis(game.N).to_disagreement(phix))
    assert abs(trace.disagreement[0] - basis_norm) <= 1e-12
    assert np.isnan(trace.err_x[0])


def _small_voltage_instance():
    net = build_radial_network(6, seed=12)
    model = distflow_sensitivities(net, gen_baseline_profile(net, 12, seed=13))
    agents = gen_agents(6, net, 12, seed=14)
    cfg = default_voltage_config(model, gen_prices(12, seed=15))
    return build_voltage_game(model, agents, cfg), _graph(6, 0.7, 3)


def _assert_row_is_direct(trace, k, game, x, z, reference):
    phix = phi_stack(game, x)
    sigma = phix.mean(axis=0)
    est = max(np.linalg.norm(phix[i] + z[i] - sigma) for i in range(game.N))
    assert abs(trace.est_err_max[k] - est) <= 1e-13
    basis_norm = np.linalg.norm(consensus_basis(game.N).to_disagreement(z + phix))
    assert abs(trace.disagreement[k] - basis_norm) <= 1e-12
    z_mean = np.linalg.norm(z.sum(axis=0)) / max(1.0, np.linalg.norm(z))
    assert z_mean > 0 and abs(trace.z_mean_residual[k] - z_mean) <= 1e-12 * z_mean
    feas = np.linalg.norm(x - game.projector(x))
    assert abs(trace.feas_residual[k] - feas) <= 1e-12
    assert abs(trace.err_x[k] - np.linalg.norm(x - reference)) <= 1e-12


@pytest.mark.parametrize("instance", [_bench_instance, _small_voltage_instance])
def test_final_trace_row_matches_direct_evaluation(instance):
    # the final row describes the returned state, where z != 0 and its
    # column sums are rounding; any vector serves as the error reference
    game, graph = instance()
    reference = np.random.default_rng(3).normal(size=(game.N, game.m))
    cfg = TradesConfig(gamma=0.01, delta=0.5, stop_tol=1e-14, max_iter=20)
    state, trace, report = run(game, graph, cfg, x0=11, oracle=reference)
    x, z = state.x, state.z
    assert len(trace) == report.iterations + 1 == 21 and np.linalg.norm(z) > 1.0
    _assert_row_is_direct(trace, -1, game, x, z, reference)
    # off the zero-column-mean invariant the disagreement is still the
    # norm of the centred estimate stack
    shifted = z + np.linspace(-1.0, 2.0, game.d)
    recorder = _Recorder(game, reference)
    phix = phi_stack(game, x)
    recorder.add(x, shifted, phix, shifted + phix, 0.0)
    _assert_row_is_direct(recorder.build(), 0, game, x, shifted, reference)


def test_trace_csv_format():
    game, graph = _bench_instance()
    cfg = TradesConfig(gamma=0.01, delta=0.5, stop_tol=1e-12, max_iter=23)
    _, trace, _ = run(game, graph, cfg, x0=1)
    text = trace.csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert lines[0] == "t,err_x,est_err_max,disagreement,step_norm"
    assert len(lines) == len(trace) + 1
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 5
        float(fields[0])
        [float(f) for f in fields[1:]]
    ts = [int(line.split(",")[0]) for line in lines[1:]]
    assert ts == list(range(len(trace)))


@pytest.mark.parametrize("instance", [_bench_instance, _small_voltage_instance])
def test_rows_measured_in_blocks_are_the_rows_measured_alone(instance,
                                                             monkeypatch):
    # the column sums a row reads, batched over a block of rows, are the
    # bits of the row's own tracker stack summed afresh, as a row measured
    # alone does; every state of the run is a row, the final one included
    game, graph = instance()
    reference = np.random.default_rng(3).normal(size=(game.N, game.m))
    fields = (*TRACE_COLUMNS[1:], "z_mean_residual", "feas_residual")

    def columns():
        cfg = TradesConfig(gamma=0.01, delta=0.5, stop_tol=1e-14, max_iter=150)
        trace = run(game, graph, cfg, x0=11, oracle=reference)[1]
        assert len(trace) == 151
        return [getattr(trace, name).tobytes() for name in fields]

    assert _Recorder(game, None).block >= 2
    in_blocks = columns()
    monkeypatch.setattr(algorithm, "_BLOCK_BYTES", 0)
    assert columns() == in_blocks


def test_rows_past_the_einsum_buffer_are_measured_one_by_one():
    # flush's batched einsum over |z|^2 gives the per-row bits only while a
    # row's N d stays under numpy's 8,192-element iterator buffer (past it,
    # batches of such rows differed in the last bits); the smallest such
    # row, N = 2 and d = 4,096, must not share a block with another
    game = random_strongly_monotone_game(2, 1, 4096, seed=0)
    assert game.N * game.d == 8192
    assert _Recorder(game, None).block < 2


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from(TRACKER_MODES), st.booleans(),
       st.integers(1, 60), st.integers(0, 2 ** 16))
def test_replayed_strategies_give_the_runs_rows(n_agents, m, d, tracker,
                                                block, steps, seed):
    # _replay_rows, the forked replay's driver, fed a run's own strategies
    # and step norms gives bit for bit the run's rows, recorded in blocks
    # or (_BLOCK_BYTES = 0) row by row; no process is forked
    game = random_strongly_monotone_game(n_agents, m, d, seed=seed)
    graph = _graph(n_agents, 0.6, seed)
    reference = np.random.default_rng(seed).normal(size=(game.N, game.m))
    fields = (*TRACE_COLUMNS[1:], "z_mean_residual", "feas_residual")

    def columns(trace):
        return [getattr(trace, name).tobytes() for name in fields]

    cfg = TradesConfig(stop_tol=1e-300, max_iter=steps, tracker=tracker)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algorithm, "_replays_apart", lambda recorder: False)
        if not block:
            patch.setattr(algorithm, "_BLOCK_BYTES", 0)
        every = run(game, graph, cfg, x0=seed, oracle=reference,
                    keep_iterates=True)[1]
        assert len(every.iterates) == len(every) == steps + 1
        recorder = _Recorder(game, reference)
        assert (recorder.block >= 2) == block
        algorithm._replay_rows(game, graph, tracker, recorder, (
            (x.copy(), float(step_norm))
            for x, step_norm in zip(every.iterates, every.step_norm)))
        assert columns(recorder.build()) == columns(every)


@pytest.mark.parametrize("n_rows", [0, 1, 255, 256, 257, 600])
def test_trace_csv_text_across_row_blocks(n_rows):
    # rows are formatted in blocks of 256; every row, on either side of a
    # block edge, is the repr of its fields, and err_x is nan without oracle
    # and each row's t is its index
    rng = np.random.default_rng(n_rows)
    floats = [rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
              for _ in range(5)]
    trace = IterationTrace(np.full(n_rows, np.nan), *floats)
    rows = zip(range(n_rows), [np.nan] * n_rows, *(f.tolist() for f in floats[:3]))
    expected = [",".join(TRACE_COLUMNS)] + [",".join(map(repr, r)) for r in rows]
    assert trace.csv_text() == "\n".join(expected) + "\n"


def test_recorder_holds_under_80_bytes_per_row():
    # a row is six float64 fields in a flat buffer: 48 B, plus the
    # buffer's growth slack and the arrays of the rows held for the block
    # being filled, ~56 B in all; a per-row int64 t would take it past
    # 60 B, and a tuple of Python numbers ~270 B
    game = _two_agent_game()
    x, z = init(game, 0).x, np.zeros((2, 1))
    phix = phi_stack(game, x)
    recorder = _Recorder(game, np.zeros(game.n))
    recorder.add(x, z, phix, z + phix, 0.5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for t in range(1, 20001):
            recorder.add(x, z, phix, z + phix, 1.0 / t)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(recorder.build()) == 20001
    assert held / 20000 <= 60


def test_trace_csv_text_peaks_near_twice_its_size():
    # the blocks and their one join are the two copies of the text; a list
    # of every line, or a final + "\n", would each add one more
    n_rows = 20000
    rng = np.random.default_rng(5)
    trace = IterationTrace(*rng.standard_normal((6, n_rows)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        text = trace.csv_text()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert text.count("\n") == n_rows + 1
    assert peak <= 2.2 * len(text)


def test_trace_recording_pattern():
    # every state the run reaches is a row, the start and the final one too
    game, graph = _bench_instance()
    cfg = TradesConfig(gamma=0.01, delta=0.5, stop_tol=1e-14, max_iter=23)
    _, trace, report = run(game, graph, cfg, x0=1)
    assert report.iterations == 23 and len(trace) == 24


# -------------------------------------------- rows measured in a fork


@pytest.fixture(scope="module")
def desk_game():
    """The desk's game (15 buses, 40 chargers, 24 h), measured row by row."""
    net = build_radial_network(15, seed=3)
    model = distflow_sensitivities(net, gen_baseline_profile(net, 24, seed=4))
    agents = gen_agents(40, net, 24, seed=5)
    game = build_voltage_game(model, agents,
                              default_voltage_config(model, gen_prices(24, seed=6)))
    return game, _graph(40, 0.3, 11)


def _wide_game():
    """Three scalar agents over a 10,000-step horizon: a replay record of
    8 (n + 2) = 240 KB, some 30 times the desk's and past a page."""
    horizon, rng = 10_000, np.random.default_rng(8)
    n = 3 * horizon
    game = GameDefinition(np.full((3, 1, 1), 2.0), np.full((3, 1, 1), 0.5),
                          rng.normal(size=(3, 1, horizon)), np.ones((3, 1, 1)),
                          FeasibleSetProjector(Box(-np.ones(n), np.ones(n))))
    return game, _graph(3, 0.9, 1)


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _run_on_path(monkeypatch, forked, game, graph, cfg, **kwargs):
    """run() with its rows measured in a forked replay or in process, by
    the selection monkeypatched; returns the outputs and the forks made."""
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(None)
        return fork()

    with monkeypatch.context() as patch, np.errstate(over="ignore",
                                                     invalid="ignore"):
        patch.setattr(os, "fork", counted_fork)
        patch.setattr(algorithm, "_replays_apart", lambda recorder: forked)
        out = run(game, graph, cfg, **kwargs)
    return out, len(forks)


def _run_bytes(out):
    state, trace, report = out
    fields = (*TRACE_COLUMNS[1:], "z_mean_residual", "feas_residual")
    return ([getattr(trace, f).tobytes() for f in fields],
            state.x.tobytes(), state.z.tobytes(), report)


@pytest.mark.parametrize("tracker", TRACKER_MODES)
def test_forked_rows_are_the_in_process_rows(monkeypatch, desk_game, tracker):
    # the replay rebuilds the tracker stack from the strategies alone and
    # holds the run's bits: every column of every row, the final one of a
    # run that spends max_iter (t = 40) included, for the desk and for a
    # game with 240 KB records
    for game, graph in (desk_game, _wide_game()):
        assert _Recorder(game, None).block < 2
        reference = np.random.default_rng(3).normal(size=(game.N, game.m))
        cfg = TradesConfig(gamma=0.01, delta=0.5, stop_tol=1e-300,
                           max_iter=40, tracker=tracker)
        fds = _open_fds()
        forked, forks = _run_on_path(monkeypatch, True, game, graph, cfg,
                                     x0=11, oracle=reference)
        assert _open_fds() == fds
        here, none = _run_on_path(monkeypatch, False, game, graph, cfg,
                                  x0=11, oracle=reference)
        assert (forks, none) == (1, 0)
        assert forked[2].stop_reason == "max_iter" and len(forked[1]) == 41
        assert _run_bytes(forked) == _run_bytes(here)


def test_a_forked_run_prints_an_unflushed_write_once():
    # the replay child ends by os._exit: it writes nothing and flushes
    # none of the buffers it inherits, here stdout's, held by a pipe
    script = (
        "import os\n"
        "from trades import algorithm\n"
        "from trades.games import random_strongly_monotone_game\n"
        "from trades.network import gen_digraph, make_doubly_stochastic\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(None) or fork()\n"
        "algorithm._replays_apart = lambda recorder: True\n"
        "game = random_strongly_monotone_game(40, 2, 40, seed=0)\n"
        "graph = make_doubly_stochastic(gen_digraph(40, 0.6, 0),\n"
        "                               method='metropolis_symmetrized')\n"
        "print('before the run')\n"
        "algorithm.run(game, graph, algorithm.TradesConfig(max_iter=20, seed=1))\n"
        "print('forks', len(forks))\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "before the run\nforks 1\n"


def test_forked_rows_of_a_diverging_run(monkeypatch):
    # gamma = 5 overflows a game measured row by row: the replay records
    # the rows before the divergence, each finite, and no final row
    game = random_strongly_monotone_game(40, 2, 40, seed=0, box_halfwidth=1e300)
    assert algorithm._Recorder(game, None).block < 2
    graph = _graph(40, 0.6, 0)
    cfg = TradesConfig(gamma=5.0, delta=1.0, max_iter=500, seed=1)
    forked, forks = _run_on_path(monkeypatch, True, game, graph, cfg)
    here, _ = _run_on_path(monkeypatch, False, game, graph, cfg)
    assert forks == 1 and forked[2].stop_reason == "diverged"
    assert _run_bytes(forked) == _run_bytes(here)
    trace = forked[1]
    assert len(trace) == forked[2].iterations
    assert np.isfinite(trace.step_norm).all()


# the desk's game, built as desk_game builds it
_DESK_GAME = """\
import numpy as np
from trades import algorithm
from trades.grid import (build_radial_network, build_voltage_game,
                         default_voltage_config, distflow_sensitivities,
                         gen_agents, gen_baseline_profile, gen_prices)
net = build_radial_network(15, seed=3)
model = distflow_sensitivities(net, gen_baseline_profile(net, 24, seed=4))
game = build_voltage_game(model, gen_agents(40, net, 24, seed=5),
                          default_voltage_config(model, gen_prices(24, seed=6)))
"""
# whether a run of the desk would fork its row replay, in the interpreter
# that runs this script
_DESK_FORK_CHOICE = _DESK_GAME + """\
print(algorithm._replays_apart(algorithm._Recorder(game, None)))
"""
# the fields of ten desk-size rows of random states, measured row by row
_DESK_ROWS = _DESK_GAME + """\
recorder = algorithm._Recorder(game, np.zeros((game.N, game.m)))
assert recorder.block < 2
rng = np.random.default_rng(7)
for t in range(10):
    x = rng.standard_normal((game.N, game.m))
    z, phix = rng.standard_normal((2, game.N, game.d))
    recorder.add(x, z, phix, z + phix, 1.0)
print(np.frombuffer(recorder.fields).tobytes().hex())
"""
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_the_fork_is_chosen_for_rows_measured_one_by_one(desk_game):
    # only the per-row path forks, and only from a process of one OS
    # thread (a BLAS pool spinning on every CPU leaves the child none).
    # numpy's OpenBLAS starts its pool at import, sized by
    # OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS (MKL_NUM_THREADS is not
    # its), so each setting gets a fresh interpreter
    if (sys.platform != "linux" or os.uname().machine != "x86_64"
            or len(os.sched_getaffinity(0)) < 2):
        pytest.skip("the replay forks on Linux x86-64 with two CPUs")
    unset = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    for setting, forks in (({"OPENBLAS_NUM_THREADS": "1"}, True),
                           ({"OPENBLAS_NUM_THREADS": "1",
                             "OMP_NUM_THREADS": "4"}, True),
                           ({"MKL_NUM_THREADS": "1"}, False),
                           ({}, False),
                           ({"OPENBLAS_NUM_THREADS": "2"}, False)):
        proc = subprocess.run([sys.executable, "-c", _DESK_FORK_CHOICE],
                              capture_output=True, text=True, timeout=120,
                              env={**unset, **setting})
        assert (proc.returncode, proc.stdout) == (0, f"{forks}\n"), \
            (setting, proc.stderr)
    # in this process: not for a game measured in blocks
    desk = _Recorder(desk_game[0], None)
    assert not algorithm._replays_apart(_Recorder(_bench_instance()[0], None))
    # nor beside a second thread, which the count sees
    import threading
    threads, release = algorithm._threads(), threading.Event()
    second = threading.Thread(target=release.wait)
    second.start()
    try:
        assert algorithm._threads() == threads + 1
        assert not algorithm._replays_apart(desk)
    finally:
        release.set()
        second.join(timeout=10)
    assert not second.is_alive()
    # a sweep's cells run in pool workers, which measure in process
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert not pool.submit(_forks_for, desk_game[0]).result()


def test_desk_rows_do_not_depend_on_the_blas_thread_count():
    # a desk row sums 40 x 360 tracker floats for |z|^2; a threaded BLAS
    # dot would sum them in an order that depends on the thread count
    unset = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    fields = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", _DESK_ROWS],
                              capture_output=True, text=True, timeout=120,
                              env={**unset, "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        fields.append(proc.stdout)
    assert fields[0] == fields[1]


def _forks_for(game):
    return algorithm._replays_apart(_Recorder(game, None))


@pytest.mark.parametrize("max_iter", [3, 5000])
def test_a_run_raises_when_its_replay_dies(monkeypatch, desk_game, max_iter):
    # the replay exits at its 2nd row: a long run raises once the ring is
    # full, a short one when no rows come back, with the dead child reaped
    # and its pipe closed
    game, graph = desk_game
    calls, residual = [], FeasibleSetProjector.membership_residual

    def dying(self, v):
        calls.append(None)
        if len(calls) == 2:
            os._exit(3)
        return residual(self, v)

    monkeypatch.setattr(FeasibleSetProjector, "membership_residual", dying)
    monkeypatch.setattr(algorithm, "_replays_apart", lambda recorder: True)
    cfg = TradesConfig(stop_tol=1e-300, max_iter=max_iter)
    fds = _open_fds()
    with pytest.raises(RuntimeError, match="trace replay process died"):
        run(game, graph, cfg, x0=11)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


def test_a_run_whose_fork_fails_measures_its_rows_in_process(monkeypatch,
                                                            desk_game):
    # no process to spare (fork raises EAGAIN), or no file for the result
    # pipe (EMFILE): the rows stay in process, with no pipe left open
    game, graph = desk_game
    cfg = TradesConfig(stop_tol=1e-300, max_iter=20)
    here, _ = _run_on_path(monkeypatch, False, game, graph, cfg, x0=11)

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    def no_pipe():
        raise OSError(errno.EMFILE, "Too many open files")

    attempts = []
    for name, refusal in (("fork", no_fork), ("pipe", no_pipe)):
        with monkeypatch.context() as patch:
            patch.setattr(os, name, refusal)
            fds = _open_fds()
            out, forks = _run_on_path(monkeypatch, True, game, graph, cfg,
                                      x0=11)
            assert _open_fds() == fds
        assert _run_bytes(out) == _run_bytes(here)
        attempts.append(forks)
    assert attempts == [1, 0]   # a refused fork; no fork tried without a pipe


class _ResidualFailed(Exception):
    pass


def test_a_run_that_raises_leaves_no_process(monkeypatch, desk_game):
    # a projector error at sweep 50 stops the run, which reaps its replay
    game, graph = desk_game
    calls, project = [], FeasibleSetProjector.__call__

    def failing(self, v):
        calls.append(None)
        if len(calls) == 51:          # the start point, then 50 sweeps
            raise _ResidualFailed("sweep 50")
        return project(self, v)

    monkeypatch.setattr(FeasibleSetProjector, "__call__", failing)
    monkeypatch.setattr(algorithm, "_replays_apart", lambda recorder: True)
    cfg = TradesConfig(stop_tol=1e-300, max_iter=200)
    fds = _open_fds()
    with pytest.raises(_ResidualFailed, match="sweep 50"):
        run(game, graph, cfg, x0=11)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


def test_an_error_in_the_replay_is_raised_by_run(monkeypatch, desk_game):
    # the replay's residual fails at its 30th row: run finishes its loop,
    # then raises that error's type, with the replay reaped
    game, graph = desk_game
    calls, residual = [], FeasibleSetProjector.membership_residual

    def failing(self, v):
        calls.append(None)
        if len(calls) == 30:
            raise _ResidualFailed("row 29")
        return residual(self, v)

    monkeypatch.setattr(FeasibleSetProjector, "membership_residual", failing)
    monkeypatch.setattr(algorithm, "_replays_apart", lambda recorder: True)
    cfg = TradesConfig(stop_tol=1e-300, max_iter=100)
    fds = _open_fds()
    with pytest.raises(_ResidualFailed, match="row 29"):
        run(game, graph, cfg, x0=11)
    assert not calls                   # the residual ran in the replay only
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


# ------------------------------------------- exact trackers vs centralized


def test_exact_tracker_matches_reduced_system_bitwise():
    game = random_strongly_monotone_game(6, 2, 3, seed=11)
    graph = _graph(6, 0.5, 3)
    cfg = TradesConfig(gamma=0.02, delta=0.5, stop_tol=1e-300, max_iter=1000,
                       tracker="exact")
    _, trace, _ = run(game, graph, cfg, x0=123, keep_iterates=True)
    trajectory = reduced_system_run(game, cfg, 123)
    assert trace.iterates.shape == trajectory.shape
    assert np.array_equal(trace.iterates, trajectory)
    assert np.max(np.abs(trace.iterates - trajectory)) <= 1e-12


@pytest.mark.parametrize("tracker", TRACKER_MODES)
def test_a_step_norm_equal_to_stop_tol_stops(tracker):
    # the stop rule is step_norm <= stop_tol: a first sweep whose step norm
    # is exactly stop_tol ends the run, and the exact-tracker run's first
    # step is reduced_system_run's, which then holds two rows
    game = random_strongly_monotone_game(6, 2, 3, seed=11)
    graph = _graph(6, 0.5, 3)
    cfg = TradesConfig(gamma=0.02, delta=0.5, max_iter=1, tracker=tracker)
    first = run(game, graph, cfg, x0=123)[1].step_norm[0]
    assert first > 0
    cfg = cfg._replace(stop_tol=float(first), max_iter=1000)
    _, trace, report = run(game, graph, cfg, x0=123)
    assert (report.stop_reason, report.iterations, len(trace)) == ("stop_tol", 1, 2)
    if tracker == "exact":
        assert reduced_system_run(game, cfg, 123).shape[0] == 2


def test_reduced_system_monotone_error_decay():
    game = random_strongly_monotone_game(8, 2, 2, seed=21)
    xstar = solve_ne_oracle(game)
    cfg = TradesConfig(gamma=0.02, delta=0.5, stop_tol=1e-300, max_iter=400)
    trajectory = reduced_system_run(game, cfg, 77)
    errs = np.linalg.norm((trajectory - xstar).reshape(len(trajectory), -1),
                          axis=1)
    tail = errs[10:]
    assert np.all(np.diff(tail) <= 1e-15)
    assert tail[-1] < tail[0]


def test_reduced_system_stationary_at_equilibrium():
    game = random_strongly_monotone_game(5, 2, 2, seed=23)
    xstar = solve_ne_oracle(game)
    cfg = TradesConfig(gamma=0.05, delta=0.5, stop_tol=1e-9, max_iter=50)
    trajectory = reduced_system_run(game, cfg, xstar)
    assert trajectory.shape[0] <= 3
    assert np.max(np.abs(trajectory - xstar)) <= 1e-9


# --------------------------------------------------- tracker decomposition


def test_basis_properties():
    for n in (2, 3, 10, 33):
        basis = consensus_basis(n)
        r = basis.matrix
        assert r.shape == (n, n - 1)
        assert np.max(np.abs(r.T @ r - np.eye(n - 1))) <= 1e-13
        assert np.max(np.abs(r @ r.T - (np.eye(n) - 1.0 / n))) <= 1e-13
        assert np.max(np.abs(r.T @ np.ones(n))) <= 1e-13
    assert consensus_basis(10) is consensus_basis(10)
    single = ConsensusBasis(1)
    assert single.matrix.shape == (1, 0)


def test_decompose_pure_consensus_component():
    c = np.array([1.5, -2.0, 0.25])
    z = np.tile(c, (7, 1))
    basis = consensus_basis(7)
    z_perp = basis.to_disagreement(z)
    assert np.max(np.abs(z.mean(axis=0) - c)) <= 1e-14
    assert z_perp.shape == (6, 3)
    assert np.max(np.abs(z_perp)) <= 1e-13
    assert basis.n_agents == 7


def test_decompose_zero_mean_stack():
    rng = np.random.default_rng(17)
    z = rng.normal(size=(9, 4))
    z -= z.mean(axis=0)
    # a zero-mean stack lives entirely in the disagreement coordinates
    z_perp = consensus_basis(9).to_disagreement(z)
    assert np.max(np.abs(z.mean(axis=0))) <= 1e-14
    assert abs(np.linalg.norm(z_perp) - np.linalg.norm(z)) <= 1e-12


def test_decompose_norm_identity_and_reconstruction():
    rng = np.random.default_rng(18)
    for _ in range(20):
        n, d = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        z = rng.normal(size=(n, d)) * rng.uniform(0.1, 10)
        basis = consensus_basis(n)
        z_bar = z.mean(axis=0)
        z_perp = basis.to_disagreement(z)
        lhs = np.linalg.norm(z) ** 2
        rhs = n * np.linalg.norm(z_bar) ** 2 + np.linalg.norm(z_perp) ** 2
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, lhs)
        rebuilt = np.tile(z_bar, (n, 1)) + basis.matrix @ z_perp
        assert np.max(np.abs(rebuilt - z)) <= 1e-12


# ----------------------------------------------------------- boundary layer


def test_budget_rule_values():
    assert boundary_layer_budget(0.0) == 1
    assert boundary_layer_budget(0.1) == 10
    assert boundary_layer_budget(0.5) == 34  # ceil(10 / log10(2))
    for rho in (0.05, 0.3, 0.77, 0.95):
        assert rho ** boundary_layer_budget(rho) <= 1e-10
    with pytest.raises(ValueError):
        boundary_layer_budget(1.0)
    with pytest.raises(ValueError):
        boundary_layer_budget(-0.2)


def test_boundary_layer_complete_graph_single_sweep():
    game = random_strongly_monotone_game(8, 2, 3, seed=2)
    graph = _graph(8, 1.0, 0, method="sinkhorn")
    assert spectrum(graph).rho_disagreement <= 1e-8
    x = init(game, 55).x
    result = boundary_layer_probe(graph, game, x)
    assert result.steps <= 2
    assert result.final_gap_max <= 1e-12
    # equilibrium is reached after the very first sweep
    assert result.errors[1] <= 1e-12


def test_boundary_layer_single_agent_trivial():
    game = random_strongly_monotone_game(1, 3, 2, seed=4)
    graph = _single_agent_graph()
    result = boundary_layer_probe(graph, game, init(game, 3).x, steps=5)
    assert result.final_gap_max <= 1e-15
    assert np.all(result.errors <= 1e-15)


def test_boundary_layer_er_graph_decay():
    game = random_strongly_monotone_game(10, 2, 2, seed=12)
    graph = _graph(10, 0.35, 9)
    rho = spectrum(graph).rho_disagreement
    assert 0 < rho < 1

    # scale the frozen point so the initial disagreement sits below 0.2,
    # making the budget's 1e-10 shrink factor land under the target
    x = init(game, 31).x
    phix = phi_stack(game, x)
    basis = consensus_basis(10)
    err0 = np.linalg.norm(basis.to_disagreement(phix))
    scale = 0.15 / max(err0, 1e-12)
    frozen = scale * x

    result = boundary_layer_probe(graph, game, frozen)
    assert result.steps == boundary_layer_budget(rho)
    assert result.errors[0] <= 0.2
    assert result.final_gap_max <= 1e-10

    # symmetric weights make the frozen-x tracker map self-adjoint on the
    # disagreement subspace, so every post-transient step contracts
    for t in range(10, min(40, result.steps)):
        if result.errors[t] > 1e-12 and np.isfinite(result.ratios[t]):
            assert result.ratios[t] <= rho + 0.01

    # limit check: trackers reach aggregate minus own contribution
    sigma = aggregate(game, frozen)
    phif = phi_stack(game, frozen)
    z = np.zeros((10, 2))
    from trades.network import consensus_step
    for _ in range(result.steps):
        z = consensus_step(graph, z, phif)
    gap = np.max(np.linalg.norm(z - (sigma[None, :] - phif), axis=1))
    assert abs(gap - result.final_gap_max) <= 1e-14


@pytest.mark.parametrize("steps", [-1, 2.5, np.float64(3.0), "3", True])
def test_boundary_layer_probe_refuses_steps_that_are_not_a_count(steps):
    # steps = -1 raised a bare IndexError from the empty trace, and
    # steps = 2.5 ran two steps without a word
    game = random_strongly_monotone_game(3, 2, 2, seed=1)
    graph, x = _graph(3, 1.0, 0), init(game, 1).x
    with pytest.raises(ValueError, match="steps must be a non-negative integer"):
        boundary_layer_probe(graph, game, x, steps=steps)
    result = boundary_layer_probe(graph, game, x, steps=np.int64(0))
    assert result.steps == 0 and result.errors.shape == (1,)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 3), st.integers(1, 3),
       st.floats(0.2, 1.0), st.integers(0, 2 ** 16), st.integers(0, 30))
def test_boundary_layer_error_has_two_routes(n_agents, m, d, edge_prob, seed,
                                             steps):
    # the probe's disagreement error, the norm of the centred estimates,
    # must agree with the norm of their orthonormal-basis coordinates, and
    # its final gap with the worst agent's distance from the aggregate
    from trades.network import consensus_step
    game = random_strongly_monotone_game(n_agents, m, d, seed=seed)
    graph = (_graph(n_agents, edge_prob, seed) if n_agents > 1
             else _single_agent_graph())
    x = init(game, seed).x
    phix = phi_stack(game, x)
    result = boundary_layer_probe(graph, game, x, steps=steps)
    assert result.errors.shape == (steps + 1,)
    z = np.zeros_like(phix)
    for k, error in enumerate(result.errors):
        if k:
            z = consensus_step(graph, z, phix)
        direct = np.linalg.norm(
            consensus_basis(n_agents).to_disagreement(z + phix))
        assert abs(error - direct) <= 1e-12 * max(1.0, direct)
    sigma = phix.mean(axis=0)
    gap = max(np.linalg.norm(z[i] + phix[i] - sigma) for i in range(n_agents))
    assert abs(result.final_gap_max - gap) <= 1e-14


# ------------------------------------------------------------------ fitting


def test_fit_recovers_planted_rate():
    # every fifth row is measured, the others masked (nan), so each ratio
    # spans a gap of five rows
    ts = np.arange(2000)
    errs = np.where(ts % 5 == 0, 3.0 * np.exp(-0.004 * ts), np.nan)
    a1, a2, r2, ratio, n = fit_convergence(errs, 2000)
    assert abs(a1 - 3.0) <= 1e-9
    assert abs(a2 - 0.004) <= 1e-12
    assert r2 >= 1.0 - 1e-12
    assert abs(ratio - np.exp(-0.004)) <= 1e-12
    assert n == 400 - 20  # transient cut at t >= 100 drops 20 samples


def test_fit_skips_at_least_the_first_fifty_iterations():
    # on a short run 5 % of the iterations is below the 50-iteration floor
    # of the transient cut: a 100-point history keeps t = 50..99
    n = fit_convergence(np.exp(-0.1 * np.arange(100)), 100)[4]
    assert n == 50


def test_fit_needs_three_points_past_the_transient():
    # 52 rows keep t = 50 and 51 past the cut, too few for a fit; a 53rd
    # row makes one
    assert fit_convergence(np.exp(-0.1 * np.arange(52)), 52) == (
        None, None, None, None, 2)
    a1, a2, r2, ratio, n = fit_convergence(np.exp(-0.1 * np.arange(53)), 53)
    assert n == 3 and abs(a2 - 0.1) <= 1e-12 and r2 == 1.0


def test_fit_of_a_constant_error_explains_it_fully():
    # a flat history has no spread to explain and no residual: R^2 is 1,
    # with no decay and a unit ratio
    assert fit_convergence(np.ones(100), 100) == (1.0, 0.0, 1.0, 1.0, 50)


def test_fit_ignores_floor_and_short_windows():
    errs = np.full(300, 1e-15)
    a1, a2, r2, ratio, n = fit_convergence(errs, 300)
    assert a1 is None and a2 is None and r2 is None and ratio is None
    assert n == 0

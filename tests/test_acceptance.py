"""End-to-end acceptance checks.

One test per delivered guarantee, each printing a single verdict line
(run with -s to see them all; any failure shows its line in the
captured output).  Tolerances are stated inline next to each check.
"""

import json
import time

import numpy as np
import pytest

import oracles
from oracles import consensus_basis
from trades.algorithm import (TradesConfig, boundary_layer_budget,
                              boundary_layer_probe, init, reduced_system_run,
                              run)
from trades.cli import main
from trades.games import (phi_stack, random_strongly_monotone_game,
                          solve_ne_oracle)
from trades.grid import (build_radial_network, build_voltage_game,
                         default_voltage_config, distflow_sensitivities,
                         evaluate_voltages, gen_agents, gen_baseline_profile,
                         gen_prices)
from trades.network import gen_digraph, make_doubly_stochastic, spectrum
from trades.projections import (Box, DiskPairs, Halfspace, Hyperplane,
                                Intersection, build_ev_projector,
                                project_dykstra)

_RUNS = {}  # run label -> in-memory trace, consumed by criteria 2 and 8


def _verdict(number, name, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _metropolis(n, p, seed):
    return make_doubly_stochastic(gen_digraph(n, p, seed))


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def bench():
    """10 agents, 2-dim strategies, 2-dim aggregate, dense random graph."""
    game = random_strongly_monotone_game(10, 2, 2, seed=42)
    graph = _metropolis(10, 0.7, 7)
    xstar = solve_ne_oracle(game)
    return game, graph, xstar


@pytest.fixture(scope="module")
def bench_run(bench):
    game, graph, xstar = bench
    cfg = TradesConfig(gamma=0.01, delta=0.5, stop_tol=1e-10,
                       max_iter=50000, seed=2026)
    started = time.perf_counter()
    state, trace, report = run(game, graph, cfg, oracle=xstar)
    elapsed = time.perf_counter() - started
    _RUNS["affine benchmark"] = trace
    return state, trace, report, elapsed


@pytest.fixture(scope="module")
def exact_run(bench):
    game, graph, _ = bench
    cfg = TradesConfig(gamma=0.01, delta=0.5, stop_tol=1e-300, max_iter=1000,
                       tracker="exact")
    _, trace, _ = run(game, graph, cfg, x0=123, keep_iterates=True)
    _RUNS["exact-tracker run"] = trace
    return game, cfg, trace


@pytest.fixture(scope="module")
def desk():
    """Radial feeder, 15 buses, 40 vehicle agents, 24-hour horizon."""
    net = build_radial_network(15, seed=3)
    baseline = gen_baseline_profile(net, 24, seed=4)
    model = distflow_sensitivities(net, baseline)
    prices = gen_prices(24, seed=6)
    agents = gen_agents(40, net, 24, seed=5)
    cfg = default_voltage_config(model, prices)
    game = build_voltage_game(model, agents, cfg)
    graph = _metropolis(40, 0.3, 11)
    xstar = solve_ne_oracle(game, tol=1e-10, max_iter=100000)
    return model, agents, cfg, game, graph, xstar


@pytest.fixture(scope="module")
def desk_run(desk):
    model, agents, cfg, game, graph, xstar = desk
    tcfg = TradesConfig(gamma=0.01, delta=0.5, stop_tol=1e-10,
                        max_iter=20000, seed=0)
    state, trace, report = run(game, graph, tcfg, oracle=xstar)
    _RUNS["voltage case study"] = trace
    return state, trace, report


# ---------------------------------------------------------------- criteria


def test_criterion_1_linear_convergence(bench, bench_run):
    game, _, xstar = bench
    state, _, report, elapsed = bench_run
    final_err = float(np.linalg.norm(state.x - xstar))
    ok = (report.a2 is not None and report.a2 > 0
          and report.r_squared >= 0.98
          and final_err <= 1e-8
          and report.iterations <= 50000
          and elapsed < 10.0)
    _verdict(1, "linear convergence", ok,
             f"a2={report.a2:.4g} R2={report.r_squared:.6f} "
             f"err={final_err:.3g} iters={report.iterations} "
             f"time={elapsed:.2f}s")


def test_criterion_2_tracker_mean_invariance(bench_run, exact_run, desk_run):
    worst_name, worst = max(((name, float(np.max(tr.z_mean_residual)))
                             for name, tr in _RUNS.items()),
                            key=lambda kv: kv[1])
    rows = sum(len(tr) for tr in _RUNS.values())
    ok = worst <= 1e-10
    _verdict(2, "tracker mean invariance", ok,
             f"worst |sum z|/max(1,|z|) = {worst:.3g} "
             f"({worst_name}; {rows} logged rows over {len(_RUNS)} runs)")


def test_criterion_3_boundary_layer_tracking(bench):
    game, graph, _ = bench
    rho = spectrum(graph).rho_disagreement
    x = init(game, 31).x
    phix = phi_stack(game, x)
    err0 = np.linalg.norm(consensus_basis(10).to_disagreement(phix))
    frozen = (0.1 / max(err0, 1e-12)) * x
    result = boundary_layer_probe(graph, game, frozen)

    within_budget = (result.steps == boundary_layer_budget(rho)
                     and result.final_gap_max <= 1e-10)
    ratio_ok = True
    worst_ratio = 0.0
    for t in range(10, result.steps):
        if result.errors[t] > 1e-12 and np.isfinite(result.ratios[t]):
            worst_ratio = max(worst_ratio, float(result.ratios[t]))
            ratio_ok &= result.ratios[t] <= rho + 0.01
    ok = within_budget and ratio_ok
    _verdict(3, "boundary-layer tracking", ok,
             f"gap={result.final_gap_max:.3g} after {result.steps} steps "
             f"(rho={rho:.4f}), post-transient ratio max {worst_ratio:.4f} "
             f"<= {rho + 0.01:.4f}")


def test_criterion_4_reduced_system_equivalence(exact_run):
    game, cfg, trace = exact_run
    trajectory = reduced_system_run(game, cfg, 123)
    gap = float(np.max(np.abs(trace.iterates - trajectory)))
    ok = trace.iterates.shape == trajectory.shape and gap <= 1e-12
    _verdict(4, "reduced-system equivalence", ok,
             f"per-iterate gap {gap:.3g} over {trajectory.shape[0] - 1} steps")


def test_criterion_5_projection_correctness():
    rng = np.random.default_rng(999)
    # independent exhaustive-active-set reference on random intersections
    qp_worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        anchor = rng.normal(size=dim)
        lower = anchor - rng.uniform(0.3, 2.0, size=dim)
        upper = anchor + rng.uniform(0.3, 2.0, size=dim)
        members = [Box(lower, upper)]
        eqs = []
        ineqs = oracles.box_constraints(lower, upper)
        for _ in range(int(rng.integers(1, 3))):
            a = rng.normal(size=dim)
            b = float(a @ anchor + rng.uniform(0.1, 1.0))
            members.append(Halfspace(a, b))
            ineqs.append((a, b))
        if rng.random() < 0.3:
            a = rng.normal(size=dim)
            b = float(a @ anchor)
            members.append(Hyperplane(a, b))
            eqs.append((a, b))
        v = anchor + rng.normal(scale=3.0, size=dim)
        got = project_dykstra(Intersection(members), v)
        ref = oracles.projection_qp_oracle(v, eqs, ineqs)
        qp_worst = max(qp_worst, float(np.linalg.norm(got - ref)))

    # idempotence and nonexpansiveness on every projector family
    ev_members = build_ev_projector([1, 1, 0, 1], 4.0, 7.0)
    zoo = [
        ("box", Box([-1.0, 0.0, 2.0], [1.0, 3.0, 2.5]).project, 3),
        ("hyperplane", Hyperplane([1.0, -2.0, 0.5], 1.2).project, 3),
        ("halfspace", Halfspace([0.3, 1.0], -0.4).project, 2),
        ("disk pairs", DiskPairs([1.7, 1.7]).project, 4),
        ("intersection", ev_members, 8),
    ]
    idem_worst = 0.0
    expand_worst = 0.0
    for _, proj, dim in zoo:
        for _ in range(200):
            v = rng.normal(scale=4.0, size=dim)
            w = rng.normal(scale=4.0, size=dim)
            pv, pw = proj(v), proj(w)
            idem_worst = max(idem_worst, float(np.linalg.norm(proj(pv) - pv)))
            slack = np.linalg.norm(pv - pw) - np.linalg.norm(v - w)
            expand_worst = max(expand_worst, float(slack))

    # stationarity of the vehicle feasible set via multiplier recovery
    kkt_worst = 0.0
    for _ in range(25):
        plugged = rng.random(24) < 0.6
        if not plugged.any():
            plugged[0] = True
        target = float(rng.uniform(0.0, 0.8 * 7.0 * plugged.sum()))
        proj = build_ev_projector(plugged, target, 7.0)
        v = rng.normal(scale=4.0, size=48)
        kkt_worst = max(kkt_worst, float(
            oracles.ev_kkt_residual(v, proj(v), plugged, 7.0)))

    ok = qp_worst <= 1e-6 and idem_worst <= 1e-8 \
        and expand_worst <= 1e-10 and kkt_worst <= 1e-6
    _verdict(5, "projection correctness", ok,
             f"vs-reference worst {qp_worst:.3g}, idempotence {idem_worst:.3g}, "
             f"expansion slack {expand_worst:.3g}, stationarity {kkt_worst:.3g}")


def test_criterion_6_estimate_error_decay(desk_run):
    _, trace, report = desk_run
    est = trace.est_err_max
    peak = float(np.max(est))
    final = float(est[-1])
    tail = est[-min(20, len(est)):]
    ok = (final <= 1e-3 * peak and final <= 1e-9
          and bool(np.all(tail <= 1e-8)))
    _verdict(6, "estimate-error decay", ok,
             f"peak {peak:.3g} -> final {final:.3g} "
             f"({peak / max(final, 1e-300):.2g}x, "
             f"{report.iterations} iterations)")


def test_criterion_7_voltage_improvement(desk):
    model, agents, cfg, _, _, xstar = desk
    summary = evaluate_voltages(model, agents, xstar, cfg)
    ok = summary.deviation_score < summary.base_score
    _verdict(7, "voltage improvement at equilibrium", ok,
             f"deviation {summary.deviation_score:.6g} < base "
             f"{summary.base_score:.6g} "
             f"(ratio {summary.deviation_score / summary.base_score:.4f})")


def test_criterion_8_feasibility_invariance(bench_run, exact_run, desk_run):
    worst_name, worst = max(((name, float(np.max(tr.feas_residual)))
                             for name, tr in _RUNS.items()),
                            key=lambda kv: kv[1])
    ok = worst <= 1e-8
    _verdict(8, "feasibility invariance", ok,
             f"worst membership residual {worst:.3g} ({worst_name})")


# the config of criterion 9, with its output directory to fill in; the
# golden-output manifest (test_golden.py) digests its run and sweep too
CRITERION_9_CONFIG = """
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

[sweep]
gamma = 0.01,0.03
delta = 0.5,1.0
max_iter = 1200
"""


def test_criterion_9_determinism(tmp_path):
    run_a = tmp_path / "a.ini"
    run_a.write_text(CRITERION_9_CONFIG.format(out=tmp_path / "ra"))
    run_b = tmp_path / "b.ini"
    run_b.write_text(CRITERION_9_CONFIG.format(out=tmp_path / "rb"))
    assert main(["run", str(run_a)]) == 0
    assert main(["run", str(run_b)]) == 0
    single = (tmp_path / "ra" / "trace.csv").read_bytes() == \
        (tmp_path / "rb" / "trace.csv").read_bytes()

    assert main(["sweep", str(run_a), "--out", str(tmp_path / "sa")]) == 0
    assert main(["sweep", str(run_b), "--out", str(tmp_path / "sb")]) == 0
    swept = (tmp_path / "sa" / "summary.csv").read_bytes() == \
        (tmp_path / "sb" / "summary.csv").read_bytes()
    cells = 0
    for cell in sorted(p.name for p in (tmp_path / "sa").iterdir()
                       if p.name.startswith("cell-")):
        swept &= (tmp_path / "sa" / cell / "trace.csv").read_bytes() == \
            (tmp_path / "sb" / cell / "trace.csv").read_bytes()
        cells += 1
    ok = single and swept and cells == 4
    _verdict(9, "determinism", ok,
             f"single-run traces identical: {single}; parallel sweep "
             f"summary and {cells} cell traces identical: {swept}")

"""Command-line experiment runner.

Three subcommands, each taking a config file:

    trades run      <config>   iterate and persist trace + report
    trades validate <config>   structural checks only, no iteration
    trades sweep    <config>   stepsize grid, one cell per (gamma, delta)

Common flags: --out DIR replaces the configured output directory,
--seed N replaces the master seed, --oracle on|off toggles the
reference-equilibrium solve.

Exit codes: 0 success, 1 usage or validation failure, 2 a FAIL
convergence verdict (a divergence, at a non-finite step norm or tracker
sum, and with the oracle on a run that ends short of stop_tol or without
a decaying fit, among them) or failed assumption checks under validate,
3 the reference equilibrium solve missed its tolerance.
"""

import argparse
import atexit
import gc
import json
import os
import sys
import time

import numpy as np

from ._base import _write_atomic
from .algorithm import _threads, run
from .config import (_KEYS, SPEC_VERSION, canonical_text, load_config,
                     seed_streams)
from .errors import ConfigError, MaxIterExceeded, TradesError
from .games import (_oracle_stepsize, random_strongly_monotone_game,
                    solve_ne_oracle, validate_assumptions)
from .network import (gen_digraph, is_strongly_connected,
                      make_doubly_stochastic, spectrum)

ERR_TARGET_SWEEP = 1e-6
_EXIT_HOOK = []   # gc.freeze once main registered it (README § Command line)
# the dense arrays of one run, in bytes: a config that needs more is refused
MAX_DENSE_BYTES = 2 ** 31
# each scenario's size keys, and the dimensions (N, p, q, T, buses) they set
_SIZE_KEYS = {
    "affine": ((("graph", "n_agents"), ("affine", "strategy_dim"),
                ("affine", "agg_dim")), lambda n, p, q: (n, p, q, 1, 0)),
    "voltage": ((("graph", "n_agents"), ("voltage", "n_buses"),
                 ("voltage", "horizon")), lambda n, b, t: (n, 2, b, t, b)),
}


# ---------------------------------------------------------------- assembly


def _dense_bytes(n, p, q, t, buses):
    """Bytes of a run's dense float arrays, about as many as are live at
    once: four of side N (the graph, the weights and the spectrum's
    copies) and of side N p (the game's A and the copies of its modulus
    and Lipschitz solves), five of side buses (the feeder's path and
    sensitivity matrices), four (N, p, q) factors and eight (N, (p + q) T)
    strategy and tracker stacks of a sweep; p = 2 and q = buses for a
    voltage game, T = 1 for an affine one."""
    return 8 * (4 * n * n + 4 * (n * p) ** 2 + 5 * buses * buses
                + 4 * n * p * q + 8 * n * (p + q) * t)


def _check_sizes(cfg):
    """Refuse a config whose dense arrays pass MAX_DENSE_BYTES, naming the
    size key whose least allowed value shrinks the estimate most."""
    keys, dims = _SIZE_KEYS[cfg.scenario]
    values = [getattr(getattr(cfg, section), key) for section, key in keys]
    dense = _dense_bytes(*dims(*values))
    if dense <= MAX_DENSE_BYTES:
        return

    def shrunk(k):
        section, key = keys[k]
        least = dict(_KEYS[section][key][2])[">="]   # the table's bound
        return _dense_bytes(*dims(*values[:k], least, *values[k + 1:]))

    k = min(range(len(keys)), key=shrunk)
    from decimal import Decimal   # a float overflows past ~1e308 bytes
    raise ConfigError(f"[{keys[k][0]}] {keys[k][1]} = {values[k]} needs "
                      f"~{Decimal(dense) / 2 ** 30:.3g} GiB of dense arrays, "
                      f"above the {MAX_DENSE_BYTES / 2 ** 30:g} GiB limit")


def build_graph(cfg):
    """The config's weighted graph, once the run's dense arrays fit."""
    _check_sizes(cfg)
    support = gen_digraph(cfg.graph.n_agents, cfg.graph.edge_prob, cfg.graph.seed)
    return make_doubly_stochastic(support, method=cfg.graph.weight_method)


def assemble_game(cfg):
    """Game instance plus scenario data (empty dict for affine); a scale or
    weight that makes the game's factors overflow is a ConfigError."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _scenario_game(cfg)
    except FloatingPointError as exc:
        raise ConfigError(f"the [{cfg.scenario}] scales and weights make the "
                          f"game's factors overflow ({exc})") from None


def _scenario_game(cfg):
    if cfg.scenario == "affine":
        a = cfg.affine
        return random_strongly_monotone_game(
            cfg.graph.n_agents, a.strategy_dim, a.agg_dim, seed=a.seed,
            coupling=a.coupling, box_halfwidth=a.box_halfwidth), {}

    # the voltage module loads on first use; a name looked up here at call
    # time is the one the module holds then
    from .grid import (build_radial_network, build_voltage_game,
                       default_voltage_config, distflow_sensitivities,
                       gen_agents, gen_baseline_profile, gen_prices)
    v = cfg.voltage
    net_seed, base_seed, price_seed, agent_seed = seed_streams(v.seed, 4)
    net = build_radial_network(v.n_buses, seed=net_seed)
    baseline = gen_baseline_profile(net, v.horizon, seed=base_seed)
    model = distflow_sensitivities(net, baseline)
    prices = gen_prices(v.horizon, seed=price_seed)
    agents = gen_agents(cfg.graph.n_agents, net, v.horizon, seed=agent_seed)
    game_cfg = default_voltage_config(
        model, prices, penalty_weight=v.penalty_weight,
        active_weight=v.active_weight, reactive_weight=v.reactive_weight)
    game = build_voltage_game(model, agents, game_cfg)
    return game, {"model": model, "agents": agents, "game_config": game_cfg}


# ----------------------------------------------------------------- outputs


def _finite_or_none(value):
    if value is None:
        return None
    value = float(value)
    return value if np.isfinite(value) else None


def _blas_build():
    """Name and version of numpy's BLAS, or None where numpy cannot say."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas["name"], "version": blas["version"]}
    except (TypeError, KeyError):   # numpy before 1.26 takes no mode
        return None


def _report_payload(cfg, graph, game, report, trace):
    spec = spectrum(graph)
    diverged = report is not None and report.stop_reason == "diverged"
    # the sweep that diverged would have produced iteration iterations + 1
    result = {"diverged": diverged,
              "divergence_iteration": report.iterations + 1 if diverged else None}
    if report is not None:
        result.update(vars(report), converged=report.converged,
                      verdict=report.verdict)
        for key in ("a1", "a2", "r_squared", "contraction_ratio",
                    "err_x_final"):
            result[key] = _finite_or_none(result[key])
    if trace is not None and len(trace) > 0:
        result["est_err_final"] = _finite_or_none(trace.est_err_max[-1])
        result["est_err_peak"] = _finite_or_none(np.max(trace.est_err_max))
        result["disagreement_final"] = _finite_or_none(trace.disagreement[-1])
        result["feas_residual_max"] = _finite_or_none(np.max(trace.feas_residual))
        result["z_mean_residual_max"] = _finite_or_none(
            np.max(trace.z_mean_residual))
    return {
        "spec_version": SPEC_VERSION,
        "scenario": cfg.scenario,
        "tracker": cfg.trades.tracker,
        "oracle_enabled": cfg.oracle,
        "seeds": {"master": cfg.seed, "graph": cfg.graph.seed,
                  "scenario": (cfg.affine if cfg.scenario == "affine"
                               else cfg.voltage).seed,
                  "init": cfg.trades.seed},
        "graph": {"n_agents": cfg.graph.n_agents,
                  "edge_prob": cfg.graph.edge_prob,
                  "weight_method": cfg.graph.weight_method,
                  "stochasticity_residual": graph.stochasticity_residual(),
                  "rho_disagreement": spec.rho_disagreement,
                  "sigma_disagreement": spec.sigma_disagreement},
        "game": {"agents": game.N, "strategy_dim_total": game.n,
                 "aggregate_dim": game.d, "mu": game.affine.exact_modulus(),
                 "lipschitz": game.affine.exact_lipschitz()},
        "trades": {"gamma": cfg.trades.gamma, "delta": cfg.trades.delta,
                   "stop_tol": cfg.trades.stop_tol,
                   "max_iter": cfg.trades.max_iter},
        "result": result,
    }


# ------------------------------------------------------------ subcommands


def _check_out_dir(path):
    """Refuse, before any solve, an output path that cannot be made a
    directory: the path, or its nearest existing ancestor, is not one."""
    if not path:   # abspath would make it the working directory
        raise ConfigError("the output directory ([experiment] output_dir "
                          "or --out) is empty")
    found = os.path.abspath(path)
    while not os.path.lexists(found):
        found = os.path.dirname(found)
    if not os.path.isdir(found):
        raise ConfigError(f"output directory {path} cannot be made: "
                          f"{found} is not a directory")


def _guarded_run(game, graph, trades, oracle):
    """run() with the overflow warnings of a diverging run silenced."""
    with np.errstate(over="ignore", invalid="ignore"):
        return run(game, graph, trades, oracle=oracle)


def cmd_run(cfg):
    started = time.perf_counter()
    _check_out_dir(cfg.output_dir)
    graph = build_graph(cfg)
    game, extras = assemble_game(cfg)
    oracle_failure = state = trace = report = None
    try:
        oracle = solve_ne_oracle(game) if cfg.oracle else None
    except MaxIterExceeded as exc:
        oracle_failure = exc
    else:
        state, trace, report = _guarded_run(game, graph, cfg.trades, oracle)
    elapsed = time.perf_counter() - started

    payload = _report_payload(cfg, graph, game, report, trace)
    divergence = payload["result"]["divergence_iteration"]
    if oracle_failure is not None:
        payload["oracle"] = {"converged": False,
                             "residual": oracle_failure.residual,
                             "iterations": oracle_failure.iterations}
    if cfg.scenario == "voltage" and state is not None and divergence is None:
        from .grid import evaluate_voltages
        summary = evaluate_voltages(extras["model"], extras["agents"],
                                    state.x, extras["game_config"])
        payload["voltage"] = {
            "deviation_score": summary.deviation_score,
            "base_score": summary.base_score,
            "improvement_ratio": summary.deviation_score / summary.base_score
            if summary.base_score > 0 else None,
        }

    out_dir = cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    if trace is not None:
        _write_atomic(os.path.join(out_dir, "trace.csv"), trace.csv_text())
    _write_atomic(os.path.join(out_dir, "report.json"),
                  json.dumps(payload, indent=2, sort_keys=True) + "\n")
    # measurements live apart from report.json, which stays deterministic
    metrics = {"timing_seconds": round(elapsed, 3), "blas": _blas_build(),
               "threads": _threads()}
    _write_atomic(os.path.join(out_dir, "metrics.json"),
                  json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    _write_atomic(os.path.join(out_dir, "config.echo"), canonical_text(cfg))

    if oracle_failure is not None:
        print(f"reference equilibrium not found: {oracle_failure}; "
              f"outputs in {out_dir}")
        return 3
    if divergence is not None:
        print(f"DIVERGED at iteration {divergence}; outputs in {out_dir}")
        return 2
    print(f"stopped after {report.iterations} iterations ({report.stop_reason})")
    if report.a2 is not None:
        print(f"fitted decay exponent {report.a2:.6g} "
              f"(R^2 = {report.r_squared:.6g}), verdict {report.verdict}")
    elif report.verdict == "FAIL":
        print("no fitted decay, verdict FAIL")
    if "voltage" in payload:
        v = payload["voltage"]
        print(f"voltage deviation score {v['deviation_score']:.6g} "
              f"vs do-nothing {v['base_score']:.6g}")
        ratio = v["improvement_ratio"]
        if ratio is not None:
            side = ("less than" if ratio < 1 else
                    "more than" if ratio > 1 else "as much as")
            print(f"improvement ratio {ratio:.6g}: the equilibrium deviates "
                  f"{side} doing nothing")
    print(f"outputs in {out_dir}")
    return 2 if report.verdict == "FAIL" else 0


def cmd_validate(cfg):
    try:
        graph = build_graph(cfg)
        game, _ = assemble_game(cfg)
    except ConfigError:
        raise
    except (ValueError, TradesError) as exc:
        print(f"assembly: FAIL ({exc})")
        return 2

    ok = True
    connected = is_strongly_connected(graph.support)
    ok &= connected
    print(f"graph strongly connected: {'PASS' if connected else 'FAIL'}")
    residual = graph.stochasticity_residual()
    stochastic = residual <= 1e-9
    ok &= stochastic
    print(f"doubly stochastic weights: residual {residual:.3g} "
          f"({'PASS' if stochastic else 'FAIL'})")
    spec = spectrum(graph)
    gap = 1.0 - spec.rho_disagreement
    contracting = gap > 0
    ok &= contracting
    print(f"consensus spectral gap: {gap:.6g} "
          f"({'PASS' if contracting else 'FAIL'})")

    report = validate_assumptions(game, rng=cfg.trades.seed)
    for line in report.summary_lines():
        print(line)
    if report.monotone:
        gamma, beta = _oracle_stepsize(game)
        kappa = report.lipschitz_pseudo_gradient / report.mu
        print(f"reference oracle: step 1/L = {gamma:.3g}, momentum {beta:.3g} "
              f"(potential game, kappa {kappa:.3g})" if beta else
              f"reference oracle: step {gamma:.3g}, no momentum "
              f"(kappa {kappa:.3g})")
    ok &= report.passed
    return 0 if ok else 2


def _sweep_cell(game, graph, trades, cell_dir, oracle_x):
    """One grid cell: a deterministic run of the sweep's game, own trace file."""
    _, trace, report = _guarded_run(game, graph, trades, oracle_x)
    os.makedirs(cell_dir, exist_ok=True)
    _write_atomic(os.path.join(cell_dir, "trace.csv"), trace.csv_text())
    a2 = float("nan") if report.a2 is None else report.a2
    with np.errstate(invalid="ignore"):
        hits = np.nonzero(trace.err_x <= ERR_TARGET_SWEEP)[0]
    iters = int(hits[0]) if hits.size else -1
    return trades.gamma, trades.delta, report.converged, a2, iters


def cmd_sweep(cfg):
    if cfg.sweep is None:
        raise ConfigError("sweep requires a [sweep] section")
    _check_out_dir(cfg.output_dir)
    graph = build_graph(cfg)
    game, _ = assemble_game(cfg)
    # two of the three per-cell metrics are errors to the equilibrium,
    # so the reference solve is not optional here
    try:
        oracle_x = solve_ne_oracle(game)
    except MaxIterExceeded as exc:
        print(f"error: reference equilibrium not found: {exc}", file=sys.stderr)
        return 3
    out_dir = cfg.output_dir
    cells = [(os.path.join(out_dir, f"cell-{i:02d}-{j:02d}"),
              cfg.trades._replace(gamma=g, delta=d,
                                  max_iter=cfg.sweep.max_iter))
             for i, g in enumerate(cfg.sweep.gamma)
             for j, d in enumerate(cfg.sweep.delta)]
    os.makedirs(out_dir, exist_ok=True)
    _write_atomic(os.path.join(out_dir, "config.echo"), canonical_text(cfg))

    from concurrent.futures import ProcessPoolExecutor   # only sweep uses it
    workers = min(len(cells), len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_sweep_cell, game, graph, trades, cell_dir,
                               oracle_x)
                   for cell_dir, trades in cells]
        rows = [f.result() for f in futures]

    lines = ["gamma,delta,converged,a2,iters"]
    for gamma, delta, converged, a2, iters in rows:
        lines.append(f"{float(gamma)!r},{float(delta)!r},"
                     f"{1 if converged else 0},{float(a2)!r},{iters}")
    _write_atomic(os.path.join(out_dir, "summary.csv"),
                  "\n".join(lines) + "\n")
    n_conv = sum(1 for row in rows if row[2])
    print(f"swept {len(rows)} cells, {n_conv} converged; "
          f"summary in {os.path.join(out_dir, 'summary.csv')}")
    return 0


# --------------------------------------------------------------- argparse


class _Parser(argparse.ArgumentParser):
    """Usage problems exit 1; code 2 is reserved for divergence."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="trades",
                     description="Distributed equilibrium-seeking experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("run", "iterate one configured experiment"),
            ("validate", "structural checks without iterating"),
            ("sweep", "grid of stepsize pairs")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="experiment config file")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--oracle", choices=("on", "off"),
                       help="toggle the reference equilibrium solve")
    return parser


def main(argv=None):
    if not _EXIT_HOOK:   # the exit's collections skip what is alive then
        _EXIT_HOOK.append(atexit.register(gc.freeze))
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "validate": cmd_validate, "sweep": cmd_sweep}
    try:
        cfg = load_config(args.config, seed=args.seed, output_dir=args.out,
                          oracle=args.oracle)
        return handlers[args.command](cfg)
    except (TradesError, ValueError, OSError) as exc:  # ConfigError too
        print(f"error: {exc}", file=sys.stderr)
        return 1

"""Voltage support on a desk-scale distribution feeder.

Forty electric vehicles sit on a 15-bus radial network.  Overnight the
feeder is lightly loaded and voltages ride high; in the evening the
baseline load drags them down.  Each vehicle must absorb a fixed amount
of energy while plugged in, pays time-of-use prices for it, and can
lend reactive power through its converter at any hour.  A shared
penalty prices the squared voltage deviation the fleet causes, so every
vehicle's cost couples to everyone else's schedule through the
aggregate injection.

The vehicles never share their schedules.  Each one talks to a few
neighbors over a sparse random graph, whose links the default
metropolis_symmetrized weights make two-way, tracks the aggregate
through consensus, and descends its own cost.  The script builds the
instance, computes the exact equilibrium with a centralized solver for
reference, runs the distributed iteration, and compares the voltage
profile at the equilibrium against doing nothing.

It runs in about two seconds.
"""

import numpy as np

from trades import (TradesConfig, build_radial_network, build_voltage_game,
                    default_voltage_config, distflow_sensitivities,
                    evaluate_voltages, gen_agents, gen_baseline_profile,
                    gen_digraph, gen_prices, make_doubly_stochastic, run,
                    solve_ne_oracle, validate_assumptions)

N_BUSES = 15
N_AGENTS = 40
HORIZON = 24

net = build_radial_network(N_BUSES, seed=3)
baseline = gen_baseline_profile(net, HORIZON, seed=4)
model = distflow_sensitivities(net, baseline)
prices = gen_prices(HORIZON, seed=6)
agents = gen_agents(N_AGENTS, net, HORIZON, seed=5)

cfg = default_voltage_config(model, prices)
game = build_voltage_game(model, agents, cfg)
print(f"{N_AGENTS} vehicles on {N_BUSES} buses, {HORIZON} h horizon, "
      f"{game.n} decision variables")

graph = make_doubly_stochastic(gen_digraph(N_AGENTS, 0.3, seed=11))

report = validate_assumptions(game)
for line in report.summary_lines():
    print(" ", line)
assert report.passed

print("\nsolving for the exact equilibrium (reference only)...")
xstar = solve_ne_oracle(game, tol=1e-10)

print("running the distributed iteration...")
trades_cfg = TradesConfig(gamma=0.01, delta=0.5, stop_tol=1e-10,
                          max_iter=20000, seed=0)
state, trace, fit = run(game, graph, trades_cfg, oracle=xstar)

print(f"  stopped after {fit.iterations} steps ({fit.stop_reason})")
print(f"  distance to equilibrium: {trace.err_x[-1]:.2e}")
print(f"  aggregate-tracking error: peak {trace.est_err_max.max():.2e}, "
      f"final {trace.est_err_max[-1]:.2e}")

# what the equilibrium buys, in voltage terms
idle = evaluate_voltages(model, agents, np.zeros((game.N, game.m)), cfg)
ne = evaluate_voltages(model, agents, xstar, cfg)
print("\nweighted squared voltage deviation over the day:")
print(f"  all vehicles idle:  {ne.base_score:.1f}")
print(f"  at the equilibrium: {ne.deviation_score:.1f}  "
      f"({ne.deviation_score / ne.base_score:.1%} of the idle score)")

worst_idle = np.abs(idle.voltages - 1.0).max()
worst_ne = np.abs(ne.voltages - 1.0).max()
print(f"  worst bus excursion from 1 p.u.: {worst_idle:.4f} -> {worst_ne:.4f}")

# the energy targets are met exactly while the converters lend support
p, q = xstar[:, :HORIZON], xstar[:, HORIZON:]   # (N_AGENTS, 2 HORIZON)
print(f"  energy charged: {-p.sum():.1f} kWh "
      f"(target {agents.target_energy.sum():.1f})")
print(f"  reactive support across the fleet: [{q.min():.2f}, {q.max():.2f}] kvar")

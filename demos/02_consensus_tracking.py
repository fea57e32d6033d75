"""How the aggregate estimate chases a moving target.

The distributed iteration runs two coupled processes at different
speeds: strategies move slowly (damped by delta), while the consensus
trackers race to keep every agent's estimate of the population
aggregate current.  This script isolates the fast process, then shows
what the slow process looks like when the fast one is replaced by an
all-knowing shortcut.
"""

import numpy as np

from trades import (TradesConfig, boundary_layer_budget,
                    boundary_layer_probe, gen_digraph, init,
                    make_doubly_stochastic, random_strongly_monotone_game,
                    reduced_system_run, run, spectrum)

game = random_strongly_monotone_game(10, strategy_dim=2, agg_dim=2, seed=12)
graph = make_doubly_stochastic(gen_digraph(10, 0.35, seed=9))
rho = spectrum(graph).rho_disagreement

# Part 1: freeze the strategies and watch the trackers settle.  Their
# error contracts geometrically at the graph's disagreement rate, so a
# fixed step budget derived from that rate lands them at 1e-10.
budget = boundary_layer_budget(rho)
print(f"disagreement rate rho = {rho:.4f}, settle budget = {budget} steps")

frozen = init(game, 31).x
result = boundary_layer_probe(graph, game, frozen)
print("worst-agent estimate error while strategies stay frozen:")
for t in range(0, result.steps + 1, max(1, result.steps // 8)):
    print(f"  step {t:3d}: {result.errors[t]:.3e}")
print(f"final gap {result.final_gap_max:.3e} after {result.steps} steps")

# Part 2: the full coupled run versus the idealized one.  Overwriting
# every tracker with the exact aggregate ("exact" mode) collapses the
# network dynamics; the strategies then follow the centralized damped
# projected iteration bit for bit.
cfg = TradesConfig(gamma=0.02, delta=0.5, stop_tol=1e-300, max_iter=400,
                   tracker="exact")
_, ideal, _ = run(game, graph, cfg, x0=123, keep_iterates=True)
central = reduced_system_run(game, cfg, 123)
print(f"\nexact-tracker run vs centralized recursion: max gap "
      f"{np.max(np.abs(ideal.iterates - central)):.1e} over 400 steps")

# the honest distributed run pays a tracking penalty early on, visible
# as a hump in the estimate error before both processes settle together
_, honest, _ = run(game, graph, cfg._replace(tracker="consensus"), x0=123)
est = honest.est_err_max
print("\nconsensus-mode estimate error (moving target):")
for t in (0, 1, 2, 5, 10, 50, 100, 399):
    print(f"  step {t:3d}: {est[t]:.3e}")
print(f"peak {np.max(est):.3e} at step {int(np.argmax(est))}, "
      f"final {est[-1]:.3e}")

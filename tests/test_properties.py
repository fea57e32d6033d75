"""Property checks of the single update path on many small random games.

Each example draws a quadratic aggregative game (2-6 agents, strategy and
aggregate dimensions 1-3) and a Metropolis-weighted random graph, then
runs at most a few hundred sweeps.  Together the two properties cover
acceptance criteria 2, 4 and 8 beyond the hand-picked instances.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trades.algorithm import TradesConfig, reduced_system_run, run
from trades.games import random_strongly_monotone_game
from trades.network import gen_digraph, make_doubly_stochastic

instances = st.fixed_dictionaries({
    "n_agents": st.integers(2, 6),
    "strategy_dim": st.integers(1, 3),
    "agg_dim": st.integers(1, 3),
    "edge_prob": st.floats(0.0, 1.0),
    "seed": st.integers(0, 2 ** 16),
    "gamma": st.floats(0.005, 0.1),
    "delta": st.floats(0.1, 1.0),
    "steps": st.integers(1, 300),
})


def _build(inst):
    game = random_strongly_monotone_game(
        inst["n_agents"], inst["strategy_dim"], inst["agg_dim"],
        seed=inst["seed"])
    graph = make_doubly_stochastic(
        gen_digraph(inst["n_agents"], inst["edge_prob"], inst["seed"]))
    cfg = TradesConfig(gamma=inst["gamma"], delta=inst["delta"],
                       stop_tol=1e-12, max_iter=inst["steps"])
    return game, graph, cfg


@settings(max_examples=50, deadline=None)
@given(instances)
def test_exact_tracker_run_reproduces_reduced_system(inst):
    game, graph, cfg = _build(inst)
    x0 = inst["seed"] + 1
    _, trace, _ = run(game, graph, cfg, x0=x0, tracker_mode="exact",
                      keep_iterates=True)
    trajectory = reduced_system_run(game, cfg, x0)
    assert trace.iterates.shape == trajectory.shape
    assert np.array_equal(trace.iterates, trajectory)


@settings(max_examples=50, deadline=None)
@given(instances)
def test_consensus_run_keeps_tracker_mean_and_feasibility(inst):
    game, graph, cfg = _build(inst)
    _, trace, _ = run(game, graph, cfg, x0=inst["seed"] + 1)
    assert np.max(trace.z_mean_residual) <= 1e-10
    assert np.max(trace.feas_residual) <= 1e-8

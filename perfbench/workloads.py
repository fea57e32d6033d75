"""The benchmark's workloads: config text and CLI commands from a seed.

Every workload fixes its game, scenario and graph (their generator seeds
are pinned in the config) and takes the master seed of each command from
the workload seed.  The master seed then sets the starting point of the
iteration, so different workload seeds give different runs of the same
reference cases, with iteration counts that differ by a few percent.
"""

from dataclasses import dataclass

import numpy as np

AFFINE_GAME_SEED = 42       # the 10-agent benchmark game of the test suite
AFFINE_GRAPH_SEED = 7
VOLTAGE_SCENARIO_SEED = 2026
DESK_GRAPH_SEED = 11


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands_per_sample: int  # consecutive master seeds in one sample
    checks: tuple = ()        # names of the per-command checks in run.py


WORKLOADS = {
    "affine-bench": Workload(
        "affine-bench",
        "10-agent affine benchmark game: per-agent Python overhead of each "
        "iteration; closed-form box projections, trivial game constants",
        3, checks=("report", "converged")),
    "voltage-desk": Workload(
        "voltage-desk",
        "15 buses, 40 EVs, 24 h: the reference case; Dykstra projections "
        "dominate each iteration and the oracle runs",
        1, checks=("report", "converged", "voltage")),
}


def master_seeds(workload_seed, count):
    """`count` consecutive master seeds derived from the workload seed."""
    base = int(np.random.SeedSequence(int(workload_seed)).generate_state(1)[0])
    base %= 2 ** 31 - count
    return [base + k for k in range(count)]


def _affine_text():
    return f"""[experiment]
spec_version = 1
scenario = affine
seed = 0
output_dir = out

[graph]
n_agents = 10
edge_prob = 0.7
seed = {AFFINE_GRAPH_SEED}

[trades]
gamma = 0.01
delta = 0.5
stop_tol = 1e-10
max_iter = 50000

[affine]
strategy_dim = 2
agg_dim = 2
seed = {AFFINE_GAME_SEED}
"""


def _voltage_text(n_agents, edge_prob, graph_seed):
    return f"""[experiment]
spec_version = 1
scenario = voltage
seed = 0
output_dir = out

[graph]
n_agents = {n_agents}
edge_prob = {edge_prob}
seed = {graph_seed}

[trades]
gamma = 0.01
delta = 0.5
stop_tol = 1e-10
max_iter = 50000

[voltage]
n_buses = 15
horizon = 24
seed = {VOLTAGE_SCENARIO_SEED}
"""


def config_text(name):
    """Config file text of a workload.

    The master seed and the output directory come per command (--seed,
    --out), so the file holds neither for real.
    """
    if name == "affine-bench":
        return _affine_text()
    if name == "voltage-desk":
        return _voltage_text(40, 0.3, DESK_GRAPH_SEED)
    raise KeyError(name)


def commands(name, workload_seed, config_path):
    """The trades argument lists of one sample, in order."""
    wl = WORKLOADS[name]
    return [["run", config_path, "--seed", str(seed)]
            for seed in master_seeds(workload_seed, wl.commands_per_sample)]

"""Distributed equilibrium seeking in aggregative games over networks.

Agents repeatedly project a damped pseudo-gradient step while a
consensus protocol tracks the population aggregate they cannot observe
directly.  The package bundles the iteration itself, game and graph
generators, exact projection machinery, a radial-feeder voltage-support
case study, and a config-driven command line front end.
"""

import importlib

from .algorithm import (BoundaryLayerResult, ConvergenceReport,
                        IterationTrace, TRACE_COLUMNS, TRACKER_MODES,
                        TradesConfig, TradesState, boundary_layer_budget,
                        boundary_layer_probe, exact_tracker_values,
                        fit_convergence, init, reduced_system_run, run)
from .config import ExperimentConfig, canonical_text, load_config, parse_config
from .errors import (ConfigError, InfeasibleSpec, MaxIterExceeded,
                     MaxSweepsExceeded, SinkhornStalled, TradesError)
from .games import (AffineGameSpec, AssumptionReport, GameDefinition,
                    local_operator, phi_stack, pseudo_gradient,
                    quadratic_aggregative_game, random_strongly_monotone_game,
                    solve_ne_oracle, validate_assumptions)
from .network import (ConsensusSpectrum, WeightedDigraph, consensus_step,
                      gen_digraph, is_strongly_connected,
                      make_doubly_stochastic, spectrum)
from .projections import (Box, DiskPairs, FeasibleSetProjector,
                          build_ev_projector)

__version__ = "0.1.0"

# the voltage case study's names, looked up in trades.grid
_GRID_NAMES = frozenset((
    "DistFlowModel", "EvAgentSpec", "RadialNetwork", "VoltageGameConfig",
    "VoltageSummary", "build_radial_network", "build_voltage_game",
    "default_voltage_config", "distflow_sensitivities", "evaluate_voltages",
    "gen_agents", "gen_baseline_profile", "gen_prices"))


def __getattr__(name):
    """trades.grid, and so its names here, load on the first lookup."""
    if name != "grid" and name not in _GRID_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    grid = importlib.import_module(".grid", __name__)
    return grid if name == "grid" else getattr(grid, name)

"""The benchmark's traced run still finds every layer it reports on.

perfbench/tracing.py wraps package functions and methods by name
(games.phi_stack, FeasibleSetProjector.__call__, _Recorder.add, ...).
A rename in the package would silently leave a layer unmeasured, so
these run traced CLI commands in a subprocess and check that each layer
recorded spans: an affine run for every layer, and a small voltage run
for the charger projections, which must go through
FeasibleSetProjector.__call__ too and evaluate Box.project inside it
(once per evaluation of the multiplier search, which scales the disk
caps itself rather than through DiskPairs.project), where the
per-projection evaluation counter looks for it, and the recorder and
the feasibility residual record spans there too.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

CONFIG = """
[experiment]
spec_version = 1
scenario = affine
seed = 42

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

# it reaches stop_tol after 1,122 sweeps: a run that spends max_iter is a
# FAIL verdict, which exits 2
VOLTAGE_CONFIG = """
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
"""

LAYERS = ("games.phi_stack", "games.local_operator", "games.pseudo_gradient",
          "games.constants", "projections.project",
          "projections.membership_residual", "algorithm.record",
          "network.consensus_step", "algorithm.fit", "algorithm.run",
          "cli.trace_csv")


def _traced_spans(tmp_path, config):
    """Spans and counters of one traced `run`."""
    cfg = tmp_path / "exp.ini"
    cfg.write_text(config)
    prefix = tmp_path / "spans"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "trace", str(prefix),
         "--", "run", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with np.load(f"{prefix}.npz") as spans:
        return {key: spans[key] for key in spans.files}


def _layers(spans):
    """Names of the layers that recorded spans."""
    return {str(spans["names"][i]) for i in set(spans["name"].tolist())}


def test_traced_run_records_every_layer(tmp_path):
    recorded = _layers(_traced_spans(tmp_path, CONFIG))
    for layer in LAYERS:
        assert layer in recorded, layer


def test_traced_voltage_run_records_charger_projections(tmp_path):
    spans = _traced_spans(tmp_path, VOLTAGE_CONFIG)
    assert "projections.project" in _layers(spans)
    # its rows are small enough to be measured in blocks, through the
    # charger projector's block residual
    assert {"projections.membership_residual", "algorithm.record"} <= _layers(spans)
    # the CLI imports the voltage functions when it calls them, so these
    # spans show that it picks up the tracer's wrappers, not the originals
    assert {"grid.scenario", "grid.build_voltage_game",
            "grid.evaluate_voltages"} <= _layers(spans)
    project = list(spans["names"]).index("projections.project")
    tallied = spans["name"][spans["member_idx"]] == project
    assert tallied.any()
    assert np.all(spans["member_val"][tallied] > 0)

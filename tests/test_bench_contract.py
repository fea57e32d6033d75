"""The benchmark's traced run still finds every layer it reports on.

perfbench/tracing.py wraps package functions and methods by name
(games.phi_stack, FeasibleSetProjector.__call__, _Recorder.add, ...).
A rename in the package would silently leave a layer unmeasured, so
this runs one traced CLI command in a subprocess and checks that each
layer recorded spans.
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

LAYERS = ("games.phi_stack", "games.local_operator", "games.pseudo_gradient",
          "projections.project", "algorithm.record")


def test_traced_run_records_every_layer(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(CONFIG)
    prefix = tmp_path / "spans"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "trace", str(prefix),
         "--", "run", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

    with np.load(f"{prefix}.npz") as spans:
        names = [str(n) for n in spans["names"]]
        recorded = set(spans["name"].tolist())
    for layer in LAYERS:
        assert layer in names and names.index(layer) in recorded, layer

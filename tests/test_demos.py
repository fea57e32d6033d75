"""Smoke test of the README's demo tour: each script runs to exit 0.

The voltage case-study demo (04) is left out; it takes about half a
minute, and the CLI and acceptance tests already run that scenario.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["01_affine_game.py",
                                    "02_consensus_tracking.py",
                                    "03_projections.py"])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

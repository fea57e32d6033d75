"""Smoke tests of the README: each demo script runs to exit 0, the
library tour runs, and the minimal config parses."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

from trades.config import parse_config

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _readme_block(language):
    """The one fenced block of the README in `language`."""
    blocks = re.findall(rf"^```{language}\n(.*?)^```",
                        (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1, language
    return blocks[0]


def test_readme_library_tour_runs(capsys):
    exec(compile(_readme_block("python"), "README.md", "exec"), {})
    iterations, distance = capsys.readouterr().out.split()
    assert int(iterations) > 0 and float(distance) < 1e-6


def test_readme_minimal_config_parses():
    cfg = parse_config(_readme_block("ini"))
    assert cfg.scenario == "affine" and cfg.trades.tracker == "consensus"


@pytest.mark.parametrize("script", ["01_affine_game.py",
                                    "02_consensus_tracking.py",
                                    "03_projections.py",
                                    "04_voltage_case_study.py"])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # the suite's RuntimeWarning gate, which the child would not inherit
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(ROOT / "demos" / script)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

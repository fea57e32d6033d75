"""Golden outputs: the deterministic files of fixed runs keep their bytes.

Each case runs the CLI in a fresh interpreter at one BLAS thread, and the
sha256 of every deterministic file it writes must match
tests/golden_manifest.json.  The cases are the benchmark's two workload
configs (perfbench/workloads.py) at --seed 5, and the criterion-9 config
at its own seed, as a run and as a sweep.  Digests hold for one numpy
version and BLAS build, as metrics.json records them; on any other build
the test skips and names the builds the manifest holds.

A change that moves output bytes on purpose declares it and rewrites the
entry of its build:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import trades
from test_acceptance import CRITERION_9_CONFIG
from trades.cli import _blas_build

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("golden_manifest.json")
RUN_FILES = ("trace.csv", "report.json", "config.echo")


# the benchmark's workload configs, loaded by path (perfbench is no package)
_spec = importlib.util.spec_from_file_location(
    "workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# case: (command, config text, extra arguments, files digested); each runs
# to its stop_tol, the desk, the longest, in well under 1 s
CASES = {
    "affine-bench": ("run", workloads.config_text("affine-bench"),
                     ("--seed", "5"), RUN_FILES),
    "voltage-desk": ("run", workloads.config_text("voltage-desk"),
                     ("--seed", "5"), RUN_FILES),
    "criterion-9": ("run", CRITERION_9_CONFIG.format(out="out"), (),
                    RUN_FILES),
    "criterion-9-sweep": ("sweep", CRITERION_9_CONFIG.format(out="out"), (),
                          ("summary.csv",)),
}


def _build():
    """numpy's version and BLAS build, as metrics.json records them."""
    return {"numpy": np.__version__, "blas": _blas_build()}


def _digests(name, work):
    """Run one case in a fresh interpreter; sha256 of each of its files.

    The run works in `work` with relative paths, since config.echo holds
    the output directory."""
    command, text, extra, files = CASES[name]
    (work / f"{name}.ini").write_text(text)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(trades.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "trades", command, f"{name}.ini", *extra,
         "--out", name], cwd=work, capture_output=True, text=True, env=env,
        timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {f: hashlib.sha256((work / name / f).read_bytes()).hexdigest()
            for f in files}


@pytest.mark.parametrize("name", CASES)
def test_outputs_keep_their_golden_bytes(tmp_path, name):
    builds = json.loads(MANIFEST.read_text())
    golden = [entry["digests"] for entry in builds
              if entry["build"] == _build()]
    if not golden:
        pytest.skip(f"no golden digests for {_build()}; the manifest holds "
                    f"{[entry['build'] for entry in builds]}")
    assert _digests(name, tmp_path) == golden[0][name]


if __name__ == "__main__":
    builds = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else []
    with tempfile.TemporaryDirectory() as work:
        digests = {name: _digests(name, Path(work)) for name in CASES}
    builds = [entry for entry in builds if entry["build"] != _build()]
    builds.append({"build": _build(), "digests": digests})
    MANIFEST.write_text(json.dumps(builds, indent=2, sort_keys=True) + "\n")
    print(f"wrote the digests of {_build()} to {MANIFEST}")

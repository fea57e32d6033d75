"""The trades benchmark: one workload, one seed, one measurement window.

    python3 perfbench/run.py --workload affine-bench --seed 1 --seconds 30 --trace 0

Runs the real CLI (``child.py`` calls ``trades.cli.main``) in a fresh
process per command, one command at a time (closed loop), checks every
command's outputs, and prints a table of metrics followed by one JSON
line.  ``--trace 0`` reports the end-to-end metrics, measured with only
the once-per-command phases timed and scaled to the host's reference
speed (calibrate.py); ``--trace 1`` runs one untraced sample for
reference and then traced samples, and reports per-layer self times,
counts and the tracing overhead.  ``--workload all`` runs every
workload in turn.  See README.md in this directory for the metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time

# One BLAS thread: a command's time then depends on the one vCPU its
# speed probe reads (calibrate.py), and one command runs at a time, so
# processes x BLAS threads <= nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the BLAS thread count is set)

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stats import quartiles, tail_percentile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench")

HARD_LIMIT_S = 170.0      # the whole run, probes and samples included
SETUP_PROBES = 24         # set-up-only commands: half before, half after
MIN_TRACED_SAMPLES = 2    # so the exact counters are compared
NEXT_SAMPLE_MARGIN = 1.5  # a sample starts only if 1.5x the last one fits

# (name, unit) as printed; only those in BENCHMARK.json go into the JSON
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("oracle_s", "s"),
              ("solve_s", "s"), ("iter_us", "us"), ("finish_s", "s"),
              ("peak_rss_mb", "MB"), ("iterations", "count"),
              ("wall_raw_s", "s"), ("setup_raw_s", "s"),
              ("speed_factor", "ratio")]
# The JSON line carries what BENCHMARK.json gates.  wall_s contains the
# phase times, which are printed and kept in the result file; the raw
# times and speed_factor show what the scaling did.
GATED = ("wall_s", "setup_s", "peak_rss_mb")

# layers whose oracle share is reported apart, with ".oracle" appended
ORACLE_SPLIT = ("projections.project", "games.local_operator",
                "games.phi_stack", "games.constants")
SELF_TIME_LAYERS = ("projections.project", "projections.membership_residual",
                    "games.local_operator", "games.phi_stack",
                    "games.constants", "games.random_game", "network.build",
                    "network.spectrum", "network.consensus_step",
                    "grid.scenario", "grid.build_voltage_game",
                    "grid.evaluate_voltages", "config.load", "config.parse",
                    "algorithm.record", "algorithm.fit", "cli.assemble",
                    "cli.trace_csv", "cli.write")
CALL_LAYERS = ("projections.project", "projections.membership_residual",
               "games.local_operator", "games.phi_stack", "games.constants",
               "network.consensus_step", "algorithm.record")
# children of run whose inclusive time is reported as a share of run
SOLVE_SHARES = ("projections.project", "games.local_operator",
                "algorithm.record", "games.phi_stack",
                "network.consensus_step")

# per-layer metric names in print order, with units
PER_LAYER = (
    [(f"{n}_s", "s") for n in SELF_TIME_LAYERS]
    + [(f"{n}_calls", "count") for n in CALL_LAYERS]
    + [(f"{n}_s.oracle", "s") for n in ORACLE_SPLIT]
    + [(f"{n}_calls.oracle", "count") for n in ORACLE_SPLIT]
    + [("projections.member_calls_per_project_mean", "count"),
       ("projections.member_calls_per_project_max", "count"),
       ("projections.dykstra_exceptions", "count"),
       ("games.pseudo_gradient_s.oracle", "s"),
       ("games.oracle_iterations", "count"),
       ("games.oracle_s", "s"),
       ("algorithm.run_self_s", "s"),
       ("algorithm.solve_s", "s"),
       ("algorithm.iterations", "count"),
       ("algorithm.iter_us_p50", "us"),
       ("algorithm.iter_us_tail", "us"),
       ("cli.trace_csv_bytes", "bytes")]
    + [(f"algorithm.solve_share.{n}", "%") for n in SOLVE_SHARES]
    + [("algorithm.solve_share.run_self", "%"),
       ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
       ("trace.spans", "count")])
EXACT_COUNTS = tuple(n for n, unit in PER_LAYER if unit in ("count", "bytes"))
# statistics over a command's spans: n/a when there is nothing to take
# them over (the other per-layer metrics are totals, 0 when not called)
STATISTICS = (("projections.member_calls_per_project_mean",
               "projections.member_calls_per_project_max",
               "algorithm.iter_us_p50", "algorithm.iter_us_tail",
               "algorithm.solve_share.run_self")
              + tuple(f"algorithm.solve_share.{n}" for n in SOLVE_SHARES))


# ------------------------------------------------------------------ machine


def machine_record():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"nproc": os.cpu_count(), "cpu_model": cpu,
              "python": platform.python_version(), "numpy": np.__version__,
              "blas": f"{blas.get('name')} {blas.get('version')}",
              "blas_threads": BLAS_THREADS,
              # one command runs at a time
              "processes": 1,
              "processes_x_blas_threads_le_nproc":
                  BLAS_THREADS <= (os.cpu_count() or 1),
              "calibration_reference_s": calibrate.REFERENCE_S,
              "calibration_period_s": calibrate.PERIOD_S,
              "git_commit": None, "git_dirty": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*args):
            return subprocess.run(["git", "-C", ROOT, *args], timeout=30,
                                  capture_output=True, text=True).stdout
        record["git_commit"] = git("rev-parse", "HEAD").strip() or None
        record["git_dirty"] = bool(git("status", "--porcelain").strip())
    return record


def child_env():
    env = dict(os.environ)     # holds the BLAS thread count set above
    env.pop("TRADES_OUTPUT_DIR", None)
    return env


# ----------------------------------------------------------------- commands


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:      # ended just before the deadline
        pass


class Runner:
    """Starts one child command at a time and keeps the run's deadline."""

    def __init__(self, work, env, deadline):
        self.work = work
        self.env = env
        self.deadline = deadline
        self.serial = 0

    def command(self, trades_args, mode, out_name="out"):
        """Run one CLI command; returns a dict of raw measurements.

        The same command of every sample writes to the same out_name, so
        the outputs of two samples can be compared byte for byte.
        """
        self.serial += 1
        tag = f"c{self.serial:03d}"
        out_dir = os.path.join(self.work, out_name)
        prefix = os.path.join(self.work, tag + "-res")
        argv = [sys.executable, CHILD, mode, prefix, "--", *trades_args,
                "--out", out_dir]
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            return {"tag": tag, "exit_code": None, "error": "no time left"}
        shutil.rmtree(out_dir, ignore_errors=True)
        with open(os.path.join(self.work, tag + ".log"), "w") as log:
            started = time.perf_counter()
            # own process group, so a timeout also stops its children
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT,
                                    start_new_session=True)
            killer = threading.Timer(timeout, _kill_group, (proc.pid,))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                ended = time.perf_counter()
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        raw = {"tag": tag, "mode": mode, "args": trades_args,
               "out_dir": out_dir, "prefix": prefix, "started": started,
               "ended": ended, "exit_code": proc.returncode,
               "peak_rss_mb": usage.ru_maxrss / 1024.0}
        try:
            with open(prefix + ".json") as fh:
                raw.update(json.load(fh))
            raw["exit_code"] = proc.returncode
        except (OSError, ValueError):
            raw["error"] = "child wrote no result"
        return raw


def phase(raw, name):
    for entry in raw.get("phases", ()):
        if entry[0] == name:
            return entry[1], entry[2]
    return None


def read_report(raw):
    try:
        with open(os.path.join(raw["out_dir"], "report.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def command_iterations(report):
    return report["result"].get("iterations") if report else None


# ------------------------------------------------------------------- checks


def check_command(wl, raw, report):
    """Failed checks of one command, as short strings (empty when all pass)."""
    if raw.get("exit_code") != 0:
        return [f"exit code {raw.get('exit_code')} ({raw.get('error', '')})"]
    problems = []
    res = (report or {}).get("result", {})

    def need(ok, text):
        if not ok:
            problems.append(text)

    def at_most(key, bound):
        value = res.get(key)
        need(value is not None and value <= bound, f"{key}={value} > {bound}")

    if "report" in wl.checks:
        need(report is not None, "no report.json")
        at_most("feas_residual_max", 1e-8)
        at_most("z_mean_residual_max", 1e-10)
    if "converged" in wl.checks:
        need(res.get("stop_reason") == "stop_tol",
             f"stop_reason={res.get('stop_reason')}")
        need(res.get("verdict") == "PASS", f"verdict={res.get('verdict')}")
        at_most("err_x_final", 1e-8)
    if "voltage" in wl.checks:
        score = (report or {}).get("voltage", {}).get("deviation_score")
        need(score is not None and math.isfinite(score),
             f"deviation_score={score}")
    return problems


def output_hashes(out_dir):
    """sha256 of every output file; report.json also without timing."""
    hashes = {}
    for base, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                data = fh.read()
            rel = os.path.relpath(path, out_dir)
            hashes[rel] = hashlib.sha256(data).hexdigest()
            if name == "report.json":
                payload = json.loads(data)
                payload.pop("timing_seconds", None)
                stripped = json.dumps(payload, sort_keys=True).encode()
                hashes[rel + " (no timing_seconds)"] = \
                    hashlib.sha256(stripped).hexdigest()
    return hashes


def determinism(hash_sets):
    """Per output file: is it byte-identical across every sample?"""
    if len(hash_sets) < 2:
        return {"samples": len(hash_sets), "identical": None}
    names = sorted(set().union(*hash_sets))
    identical = {n: len({h.get(n) for h in hash_sets}) == 1 for n in names}
    return {"samples": len(hash_sets), "identical": identical}


# ---------------------------------------------------------------- e2e mode


def e2e_metrics(raw, iterations):
    """End-to-end phase times of one untraced command.

    Each time is the interval less the speed probe's readings inside it,
    scaled to the reference speed (calibrate.scaled); wall_raw_s and
    setup_raw_s are the plain intervals, and speed_factor is wall_s over
    the wall time without readings.
    """
    readings = raw.get("readings") or []

    def scaled(start, end):
        return calibrate.scaled(readings, start, end) if readings else None

    built = phase(raw, "assemble_game")
    oracle = phase(raw, "solve_ne_oracle")
    solve = phase(raw, "run")
    started, ended = raw["started"], raw["ended"]
    out = {"wall_s": scaled(started, ended),
           "setup_s": scaled(started, built[1]) if built else None,
           "oracle_s": scaled(*oracle) if oracle else None,
           "solve_s": scaled(*solve) if solve else None,
           "finish_s": scaled(solve[1], ended) if solve else None,
           "wall_raw_s": ended - started,
           "setup_raw_s": built[1] - started if built else None,
           "speed_factor": (scaled(started, ended) / unprobed_wall(raw)
                            if readings else None),
           "peak_rss_mb": raw["peak_rss_mb"],
           "iterations": iterations}
    out["iter_us"] = (1e6 * out["solve_s"] / iterations
                      if solve and iterations else None)
    return out


def mean_of(dicts, key):
    values = [d[key] for d in dicts if d.get(key) is not None]
    return sum(values) / len(values) if len(values) == len(dicts) else None


def run_sample(runner, wl, cmds, mode, state):
    """Run one sample's commands; returns per-command records."""
    records = []
    for k, args in enumerate(cmds):
        raw = runner.command(args, mode, out_name=f"out{k}")
        report = read_report(raw) if raw.get("exit_code") == 0 else None
        iterations = command_iterations(report)
        problems = check_command(wl, raw, report)
        state["attempted"] += 1
        if problems:
            state["failed"] += 1
            state["problems"].append(f"{raw['tag']} {' '.join(args)}: "
                                     + "; ".join(problems))
        rec = {"tag": raw["tag"], "args": args, "problems": problems,
               "iterations": iterations, "raw": raw}
        if raw.get("exit_code") == 0 and os.path.isdir(raw["out_dir"]):
            rec["hashes"] = output_hashes(raw["out_dir"])
            shutil.rmtree(raw["out_dir"])
        records.append(rec)
        if problems:
            break
    return records


def setup_probes(runner, cmd, count, state):
    """Set-up-only commands; returns their raw measurements."""
    probes = []
    for _ in range(count):
        if runner.deadline - time.perf_counter() < 10.0:
            break
        raw = runner.command(cmd, "setup")
        state["attempted"] += 1
        if raw.get("exit_code") != 0 or phase(raw, "assemble_game") is None:
            state["failed"] += 1
            state["problems"].append(f"{raw['tag']} setup probe failed")
            break
        probes.append(raw)
    return probes


def measure(wl, cmds, runner, seconds, trace, state):
    """Probes and samples; returns (setup probes, samples, traced samples).

    A traced run holds one untraced sample and at least two traced ones
    when the deadline allows, so the exact counters can be compared.
    """
    runner.command(cmds[0], "setup")          # warm-up: bytecode, page cache
    probes = 0 if trace else SETUP_PROBES
    setup_raws = setup_probes(runner, cmds[0], probes // 2, state)

    plain, traced = [], []
    window = time.perf_counter()
    if trace and not state["problems"]:       # untraced reference sample
        plain.append(run_sample(runner, wl, cmds, "time", state))
    mode = "trace" if trace else "time"
    target = traced if trace else plain
    least = MIN_TRACED_SAMPLES if trace else 1
    while not state["problems"]:
        started = time.perf_counter()
        target.append(run_sample(runner, wl, cmds, mode, state))
        now = time.perf_counter()
        took = now - started
        if now + NEXT_SAMPLE_MARGIN * took > runner.deadline:
            break
        if len(target) >= least and now - window + took > seconds:
            break
    if not state["problems"]:
        setup_raws += setup_probes(runner, cmds[0], probes - probes // 2,
                                   state)
    return setup_raws, plain, traced


def summarize(values):
    values = [v for v in values if v is not None]
    if not values:
        return None
    q1, q3 = quartiles(values)
    pct = tail_percentile(len(values))
    return {"median": float(np.median(values)), "q1": q1, "q3": q3,
            "n": len(values),
            "tail": None if pct is None else
            {"pct": pct, "value": float(np.percentile(values, pct))}}


def e2e_summary(probes, samples):
    """Table of medians; setup_s is taken over probes and sample commands."""
    per_sample, command_setups = [], []
    for sample in samples:
        recs = [e2e_metrics(r["raw"], r["iterations"]) for r in sample]
        per_sample.append({k: mean_of(recs, k) for k, _ in END_TO_END})
        command_setups.extend(recs)
    probe_setups = [e2e_metrics(raw, None) for raw in probes]
    table = {k: summarize([s[k] for s in per_sample]) for k, _ in END_TO_END}
    for key in ("setup_s", "setup_raw_s"):
        table[key] = summarize([r[key] for r in probe_setups
                                + command_setups])
    return table, per_sample, probe_setups, command_setups


# -------------------------------------------------------------- trace mode


def layer_metrics(prefix, iterations):
    """Per-layer metrics of one traced command from its span files."""
    directory, stem = os.path.split(prefix)
    files = sorted(os.path.join(directory, f) for f in os.listdir(directory)
                   if f.startswith(stem) and f.endswith(".npz"))
    m = {name: None if name in STATISTICS else 0.0 for name, _ in PER_LAYER}
    member_counts, gaps = [], []
    run_total = 0.0
    shares = {n: 0.0 for n in SOLVE_SHARES}
    for path in files:
        spans = tracing.load_spans(path)
        names, name, parent = spans["names"], spans["name"], spans["parent"]
        start, end = spans["start"], spans["end"]
        own = tracing.self_times(start, end, parent)
        incl = end - start
        in_oracle = tracing.under_span(names, name, parent,
                                       tracing.ORACLE_SPAN)
        in_run = tracing.under_span(names, name, parent, "algorithm.run")
        m["trace.spans"] += name.size
        for key, value in spans["counts"].items():
            m[key] = m.get(key, 0.0) + value
        for idx, label in enumerate(names):
            rows = name == idx
            if label in ORACLE_SPLIT:
                ora = rows & in_oracle
                m[f"{label}_s.oracle"] += own[ora].sum()
                m[f"{label}_calls.oracle"] += ora.sum()
                rows = rows & ~in_oracle
            if label in SELF_TIME_LAYERS:
                m[f"{label}_s"] += own[rows].sum()
            if label in CALL_LAYERS:
                m[f"{label}_calls"] += rows.sum()
            if label == "games.pseudo_gradient":
                ora = rows & in_oracle
                m["games.pseudo_gradient_s.oracle"] += own[ora].sum()
                m["games.oracle_iterations"] += ora.sum()
            if label == tracing.ORACLE_SPAN:
                m["games.oracle_s"] += incl[rows].sum()
            if label == "algorithm.run":
                m["algorithm.run_self_s"] += own[rows].sum()
                run_total += incl[rows].sum()
            if label in SOLVE_SHARES:
                shares[label] += incl[rows & in_run].sum()
            if label == "network.consensus_step":
                steps = np.flatnonzero(rows & in_run)
                for run_idx in np.unique(parent[steps]):
                    gaps.extend(np.diff(start[steps[parent[steps]
                                                     == run_idx]]))
        if "projections.project" in names:
            member_counts.extend(int(v) for v in spans["member_val"])
    m["algorithm.solve_s"] = run_total
    m["algorithm.iterations"] = float(iterations or 0)
    if run_total > 0:
        for label, value in shares.items():
            m[f"algorithm.solve_share.{label}"] = 100.0 * value / run_total
        m["algorithm.solve_share.run_self"] = \
            100.0 * m["algorithm.run_self_s"] / run_total
    if member_counts:
        m["projections.member_calls_per_project_mean"] = \
            float(np.mean(member_counts))
        m["projections.member_calls_per_project_max"] = \
            float(max(member_counts))
    if gaps:
        gaps_us = 1e6 * np.asarray(gaps)
        m["algorithm.iter_us_p50"] = float(np.percentile(gaps_us, 50))
        pct = tail_percentile(len(gaps_us))
        if pct is not None:
            m["algorithm.iter_us_tail"] = float(np.percentile(gaps_us, pct))
            m["iter_us_tail_pct"] = pct
    for path in files:
        os.remove(path)
    return m


def unprobed_wall(raw):
    """Wall seconds of an untraced command without its probe readings."""
    return (raw["ended"] - raw["started"]
            - calibrate.busy(raw.get("readings") or [], raw["started"],
                             raw["ended"]))


def trace_summary(plain, traced):
    untraced_wall = float(np.median(
        [np.mean([unprobed_wall(r["raw"]) for r in s]) for s in plain]))
    per_sample, exact, tail_pcts = [], [], set()
    for sample in traced:
        recs = []
        for r in sample:
            lm = layer_metrics(r["raw"]["prefix"], r["iterations"])
            lm["trace.wall_s"] = r["raw"]["ended"] - r["raw"]["started"]
            tail_pcts.add(lm.pop("iter_us_tail_pct", None))
            recs.append(lm)
        exact.append([{k: rec[k] for k in EXACT_COUNTS} for rec in recs])
        per_sample.append({k: mean_of(recs, k) for k, _ in PER_LAYER})
    table = {}
    for key, _ in PER_LAYER:
        table[key] = summarize([s[key] for s in per_sample])
    wall = table["trace.wall_s"]["median"]
    table["trace.overhead_s"] = summarize([wall - untraced_wall])
    return table, per_sample, exact, untraced_wall, sorted(tail_pcts - {None})


# ------------------------------------------------------------------ output


def fmt(value):
    if value is None:
        return "n/a"
    if value == 0 or 1e-3 <= abs(value) < 1e6:
        return f"{value:.6g}"
    return f"{value:.4e}"


def print_table(title, table, units):
    print(title)
    print(f"  {'metric':48s} {'unit':6s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'n':>3s}  tail")
    for name, unit in units:
        row = table.get(name)
        if row is None:
            print(f"  {name:48s} {unit:6s} {'n/a':>12s}")
            continue
        tail = (f"p{row['tail']['pct']:g}={fmt(row['tail']['value'])}"
                if row["tail"] else "-")
        print(f"  {name:48s} {unit:6s} {fmt(row['median']):>12s} "
              f"{fmt(row['q1']):>12s} {fmt(row['q3']):>12s} {row['n']:3d}  "
              f"{tail}")


def counter_verdict(compared, nondeterministic):
    if nondeterministic:
        return "differ across samples: " + ", ".join(nondeterministic)
    return "; ".join(
        f"{key} not compared (one sample)" if n < 2 else
        f"{key} identical across {n} samples"
        for key, n in compared.items())


def run_workload(name, seed, seconds, trace, deadline):
    wl = workloads.WORKLOADS[name]
    work = os.path.join(WORK, name, f"seed{seed}-trace{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config_path = os.path.join(work, "config.ini")
    with open(config_path, "w") as fh:
        fh.write(workloads.config_text(name))
    cmds = workloads.commands(name, seed, config_path)
    runner = Runner(work, child_env(), deadline)
    state = {"attempted": 0, "failed": 0, "problems": []}
    probes, plain, traced = measure(wl, cmds, runner, seconds, trace,
                                    state)

    # exact counters must repeat in every sample of the same commands
    iteration_lists = [[r["iterations"] for r in s] for s in plain + traced]
    nondeterministic = []
    if len({json.dumps(x) for x in iteration_lists}) > 1:
        nondeterministic.append("iterations")
    # samples each exact counter was compared over (1: nothing compared)
    compared = {"iterations": len(iteration_lists)}
    hash_sets = [{f"{k}#{i}": v for i, r in enumerate(s)
                  for k, v in r.get("hashes", {}).items()}
                 for s in plain + traced if len(s) == len(cmds)]
    det = determinism(hash_sets)

    complete = not state["problems"]
    result = {"workload": name, "why": wl.why, "seed": seed,
              "seconds": seconds, "trace": int(trace),
              "machine": machine_record(),
              "commands_per_sample": len(cmds),
              "commands": [" ".join(c) for c in cmds],
              "attempted": state["attempted"], "failed": state["failed"],
              "failed_share": state["failed"] / max(1, state["attempted"]),
              "problems": state["problems"], "determinism": det}
    if complete and not trace:
        table, per_sample, probe_setups, command_setups = e2e_summary(
            probes, plain)
        keys = ("setup_s", "setup_raw_s", "speed_factor")
        result.update(end_to_end=table, samples=per_sample,
                      setup_probes=[{k: r[k] for k in keys}
                                    for r in probe_setups],
                      setup_commands=[{k: r[k] for k in keys}
                                      for r in command_setups])
        units = END_TO_END
    elif complete:
        table, per_sample, exact, untraced, tail_pcts = trace_summary(
            plain, traced)
        for key in EXACT_COUNTS:
            if len({json.dumps([c[key] for c in s]) for s in exact}) > 1:
                nondeterministic.append(key)
        compared["layer counters"] = len(exact)
        result.update(per_layer=table, samples=per_sample,
                      untraced_wall_s=untraced,
                      iter_us_tail_percentiles=tail_pcts)
        units = PER_LAYER
    result["nondeterministic_counters"] = nondeterministic
    result["exact_counter_samples"] = compared
    result["correct"] = complete and not nondeterministic

    m = result["machine"]
    print(f"== {name}  seed {seed}  trace {int(trace)}  "
          f"({wl.why})")
    print(f"   machine: {m['nproc']} cpus ({m['cpu_model']}), python "
          f"{m['python']}, numpy {m['numpy']}, {m['blas']} at "
          f"{BLAS_THREADS} thread(s), one command at a time; commit "
          f"{m['git_commit'] or 'unknown'}"
          f"{' (dirty)' if m['git_dirty'] else ''}")
    print(f"   each sample: {len(cmds)} command(s), the first "
          f"trades run <config> {' '.join(cmds[0][2:])}")
    if complete:
        print_table("   metrics (median over samples, per command)",
                    result.get("end_to_end") or result["per_layer"], units)
        if trace:
            print(f"   algorithm.iter_us_tail is percentile "
                  f"{', '.join(f'p{p:g}' for p in tail_pcts) or 'n/a'}")
    print(f"   checks: {state['attempted'] - state['failed']}/"
          f"{state['attempted']} commands pass, failed_share "
          f"{result['failed_share']:.3g}")
    for problem in state["problems"]:
        print(f"   FAILED {problem}")
    print(f"   exact counters: {counter_verdict(compared, nondeterministic)}")
    if det["identical"] is None:
        print(f"   determinism probe: {det['samples']} complete sample(s), "
              f"nothing to compare")
    else:
        differ = sorted(k for k, v in det["identical"].items() if not v)
        print(f"   determinism probe over {det['samples']} samples: "
              f"{len(det['identical']) - len(differ)}/{len(det['identical'])} "
              f"outputs byte-identical"
              + (f"; differ: {', '.join(differ)}" if differ else ""))
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results",
                        f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, default=float)
    print(f"   result file: {os.path.relpath(path, ROOT)}")
    return result


def contract_line(results, trace, gated_names):
    metrics = {}
    for res in results:
        table = res.get("per_layer" if trace else "end_to_end") or {}
        units = dict(PER_LAYER if trace else END_TO_END)
        for key in gated_names:
            label = key if len(results) == 1 else f"{res['workload']}.{key}"
            row = table.get(key)
            if row is not None:
                metrics[label] = {"value": row["median"], "unit": units[key]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "trades", "cli.py")):
        print(f"error: no trades sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace),
                            time.perf_counter() + HARD_LIMIT_S)
               for name in names]
    gated = ([n for n, _ in PER_LAYER] if args.trace else list(GATED))
    print(json.dumps(contract_line(results, bool(args.trace), gated)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one trades CLI command in this process, with timers or full tracing.

    python3 perfbench/child.py MODE RESULT_PREFIX -- <trades arguments>

MODE is one of
  time   time only the once-per-command phases (build_graph, assemble_game,
         solve_ne_oracle, run) in this process, and read the speed probe
         (calibrate.py) throughout;
  setup  the same, but exit right after the game is assembled;
  trace  spans and counters at every layer boundary (see tracing.py).

Timings go to RESULT_PREFIX.json, and in trace mode the spans go to
RESULT_PREFIX.npz.  The exit code is the CLI's.
"""

import functools
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import calibrate  # noqa: E402  (after the path set-up above)
import tracing  # noqa: E402

PHASES = ("build_graph", "assemble_game", "solve_ne_oracle", "run")


class SetupDone(BaseException):
    """Raised after assembly in setup mode; passes through the CLI's handlers."""


def install_phase_timers(cli, phases, stop_after_setup):
    def timed(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            phases.append((name, start, time.perf_counter()))
            if stop_after_setup and name == "assemble_game":
                raise SetupDone
            return out
        return wrapper

    for name in PHASES:
        setattr(cli, name, timed(name, getattr(cli, name)))


def main(argv):
    mode, prefix = argv[0], argv[1]
    if mode not in ("time", "setup", "trace") or argv[2] != "--":
        raise SystemExit("usage: child.py time|setup|trace PREFIX -- ARGS")
    cli_args = argv[3:]

    probe = None
    if mode != "trace":
        probe = calibrate.Probe()
        probe.start()
    import trades.cli as cli

    phases = []
    store = None
    if mode == "trace":
        store = tracing.SpanStore()
        tracing.install_tracing(store)
    else:
        install_phase_timers(cli, phases, stop_after_setup=(mode == "setup"))

    code = 0
    try:
        code = cli.main(cli_args)
    except SetupDone:
        code = 0
    finally:
        if probe is not None:
            probe.stop()
    main_end = time.perf_counter()
    if store is not None:
        store.save(prefix + ".npz")
    with open(prefix + ".json", "w") as fh:
        json.dump({"exit_code": code, "phases": phases,
                   "main_end": main_end,
                   "readings": probe.readings if probe else []}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

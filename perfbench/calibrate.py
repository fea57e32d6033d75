"""Host speed reference: a fixed kernel timed inside every command.

On a shared host a vCPU's speed moves between levels that last tens of
seconds, which spreads a command's wall time by up to a third from run to
run.  The probe runs a short fixed kernel in the command's own thread
once at start, then every ``PERIOD_S`` seconds (from a SIGALRM handler,
so the program is paused, not contended) and once at exit.  The runner
takes the kernel's time out of every phase and scales each stretch of
program time between two readings by ``REFERENCE_S / kernel time`` of
those readings: a time then reads as it would with the host at its
reference speed.  A long call into C (LAPACK) delays the
next reading until it returns, so such a phase is scaled by the readings
around it.  The kernel does not use trades, so a change to the program
does not move it.
"""

import signal
import time

import numpy as np

# median kernel time on a 2-vCPU Intel Xeon (2.0 GHz), one BLAS thread,
# over 1725 readings in affine-bench and voltage-desk runs
REFERENCE_S = 0.0055
PERIOD_S = 0.2

_SMALL = np.random.default_rng(20260417).standard_normal((40, 24))


def kernel():
    """The mix a trades iteration runs: interpreter and small arrays."""
    acc, table = 0, {}
    for i in range(20_000):
        acc = (acc + 7 * i) % 1_000_003
        table[i & 1023] = acc
    x = _SMALL.copy()
    for _ in range(150):
        x = np.clip(x + 0.01 * (_SMALL - x), -1.0, 1.0)
        x -= x.mean(axis=0)
    return acc


class Probe:
    """Kernel readings (start, end) taken while a command runs."""

    def __init__(self):
        self.readings = []

    def read(self):
        start = time.perf_counter()
        kernel()
        self.readings.append((start, time.perf_counter()))

    def _tick(self, signum, frame):
        self.read()
        # re-armed after the kernel, so readings never overlap
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def start(self):
        self.read()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.read()


def busy(readings, start, end):
    """Seconds of kernel readings inside [start, end]."""
    return sum(max(0.0, min(b, end) - max(a, start)) for a, b in readings)


def scaled(readings, start, end):
    """Seconds in [start, end] outside the readings, at reference speed.

    The program runs in the gaps between readings.  A gap is scaled by
    REFERENCE_S over the mean of the two readings around it; time before
    the first reading or after the last is scaled by that reading alone.
    """
    if not readings:
        raise ValueError("no calibration reading")
    took = [b - a for a, b in readings]
    gaps = ([(float("-inf"), readings[0][0], took[0])]
            + [(readings[i][1], readings[i + 1][0],
                (took[i] + took[i + 1]) / 2.0)
               for i in range(len(readings) - 1)]
            + [(readings[-1][1], float("inf"), took[-1])])
    return sum(max(0.0, min(b, end) - max(a, start)) * REFERENCE_S / level
               for a, b, level in gaps)

"""Trace rows measured in a forked process that replays the tracker.

algorithm.run starts one Replay for a game measured row by row, from a
process of one OS thread on two CPUs (algorithm._replays_apart).  After
every checked sweep the run writes its strategies x and the step norm
into a ring of slots in an anonymous shared mapping.  The child runs
algorithm._replay_rows on that stream, so it holds the run's bits, and
measures the rows with the run's recorder.  At the end it sends back the
pickled (error, trace) pair, one of them None, through a pipe.

Both ends wait by polling the shared counters: a wake-up through the
pipe per row cost more than the recording it took off the loop, as two
processes overlap well only while both stay busy.
"""

import gc
import os
import pickle
from mmap import mmap

import numpy as np

from .algorithm import _replay_rows

_SLOTS = 8
# the last float of a slot: 0.0 for a state, _END for the stream's end
_END = 2.0
# int64 indices of the counters (rows sent, rows taken), a cache line apart
_SENT, _TAKEN = 0, 8
_HEADER = 128
_SIGKILL = 9     # Linux's number; the signal module costs a ms to import
# polls between two checks that the other process still lives, each
# after giving up the CPU once (to the other process, if they share one)
_POLL = 4096


class Replay:
    """The run's end of one forked child measuring the run's rows."""

    def __init__(self, game, graph, tracker, recorder):
        self.mm = mmap(-1, _HEADER + 8 * (game.n + 2) * _SLOTS)
        self.counts = memoryview(self.mm)[:_HEADER].cast("q")
        self.ring = np.frombuffer(self.mm, dtype=np.float64, offset=_HEADER
                                  ).reshape(_SLOTS, game.n + 2)
        self.sent, parent = 0, os.getpid()
        self.fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(self.fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            _child(game, graph, tracker, recorder, self.counts, self.ring,
                   write_fd, parent)
        os.close(write_fd)

    def add(self, x, z, phix, estimates, step_norm):
        """The recorder's add: put the state's x and step norm in the ring
        (the child rebuilds the rest)."""
        self._put(x.reshape(-1), step_norm, 0.0)

    def _put(self, x, step_norm, last):
        """Fill the next slot once it is free; raises if the child died."""
        k, spins = self.sent, 0
        while k - self.counts[_TAKEN] >= _SLOTS:
            spins += 1
            if spins % _POLL == 0:
                os.sched_yield()
                if os.waitpid(self.pid, os.WNOHANG)[0]:
                    self.pid = None
                    raise RuntimeError("the trace replay process died")
        slot = self.ring[k % _SLOTS]
        slot[:-2] = x
        slot[-2] = step_norm
        slot[-1] = last
        self.sent = k + 1
        self.counts[_SENT] = k + 1

    def build(self):
        """End the stream; return the child's trace, or raise the child's
        error."""
        self._put(0.0, 0.0, _END)
        data = bytearray()
        while chunk := os.read(self.fd, 1 << 16):
            data += chunk
        self.close()
        try:
            error, trace = pickle.loads(data)
        except Exception:
            raise RuntimeError("the trace replay process died") from None
        if error is not None:
            raise error
        return trace

    def close(self):
        """Stop and reap the child (a no-op once it has exited) and close
        the pipe."""
        if self.pid is not None:
            os.kill(self.pid, _SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None


def _child(game, graph, tracker, recorder, counts, ring, write_fd, parent):
    """The forked process: measure the rows, then send the pickled
    (None, trace), or (error, None) (an error that does not survive
    pickling as a RuntimeError naming it), and exit."""
    # garbage inherited from the run is the run's to finalize
    gc.freeze()
    try:
        try:
            trace = _measure(game, graph, tracker, recorder, counts, ring, parent)
            message = pickle.dumps((None, trace))
        except BaseException as exc:
            try:
                message = pickle.dumps((exc, None))
                pickle.loads(message)
            except Exception:
                message = pickle.dumps(
                    (RuntimeError(f"trace replay: {exc!r}"), None))
        view = memoryview(message)
        while view:
            view = view[os.write(write_fd, view):]
    finally:
        os._exit(0)


def _measure(game, graph, tracker, recorder, counts, ring, parent):
    """The recorder's trace of the ring's states; an error stops the
    measuring, not the draining of the ring (the run waits on it)."""

    def stream():
        k = 0
        while True:
            spins = 0
            while counts[_SENT] <= k:
                spins += 1
                if spins % _POLL == 0:
                    os.sched_yield()
                    if os.getppid() != parent:
                        os._exit(1)
            slot = ring[k % _SLOTS]
            x = slot[:-2].reshape(game.N, game.m).copy()
            step_norm, last = slot[-2:].tolist()
            counts[_TAKEN] = k + 1
            if last == _END:
                return
            yield x, step_norm
            k += 1

    states = stream()
    try:
        _replay_rows(game, graph, tracker, recorder, states)
    finally:
        for _ in states:
            pass
    return recorder.build()

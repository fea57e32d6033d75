"""Trace rows measured in a forked process that replays the tracker.

algorithm.run starts one Replay for a game whose rows are measured one
by one.  After every checked sweep the run writes its strategies x and
the step norm into a ring of slots in an anonymous shared mapping.  The
child rebuilds the tracker stack from that stream with the sweep's own
functions on the same inputs (phi_stack, z + phix, and the run's tracker
step algorithm._track as each next x arrives), so it holds the run's
bits, and measures the recorded rows with the run's _Recorder.add.  At
the end it sends back the recorder's two row buffers, or its error,
through a pipe.

Both ends wait by polling the shared counters: a wake-up through the
pipe per row cost more than the recording it took off the loop, as two
processes overlap well only while both stay busy.
"""

import gc
import os
import pickle
from mmap import mmap

import numpy as np

from .algorithm import _track
from .games import phi_stack

_SLOTS = 8
# the last float of a slot: a sweep's row, the final row, or the end
_ROW, _FINAL, _END = 0.0, 1.0, 2.0
# int64 indices of the counters (rows sent, rows taken), a cache line apart
_SENT, _TAKEN = 0, 8
_HEADER = 128
# the row buffers' bytes per row: an int64 t and six float64 fields
_ROW_BYTES = 56
_SIGKILL = 9     # Linux's number; the signal module costs a ms to import
# polls between two checks that the other process still lives, each
# after giving up the CPU once (to the other process, if they share one)
_POLL = 4096


class Replay:
    """The run's end of one forked child measuring the run's rows."""

    def __init__(self, game, graph, cfg, recorder):
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
            _child(game, graph, cfg, recorder, self.counts, self.ring,
                   write_fd, parent)
        os.close(write_fd)

    def send(self, x, step_norm, kind=_ROW):
        """Put one sweep's (x, step norm) in the ring, waiting for a free
        slot; raises if the child died."""
        k, spins = self.sent, 0
        while k - self.counts[_TAKEN] >= _SLOTS:
            spins += 1
            if spins % _POLL == 0:
                os.sched_yield()
                if os.waitpid(self.pid, os.WNOHANG)[0]:
                    self.pid = None
                    raise RuntimeError("the trace replay process died")
        slot = self.ring[k % _SLOTS]
        if x is not None:
            slot[:-2] = x.reshape(-1)
        slot[-2] = step_norm
        slot[-1] = kind
        self.sent = k + 1
        self.counts[_SENT] = k + 1

    def finish(self, recorder, final_row):
        """Send the final (x, step norm), if any, and the end of the stream,
        then fill recorder's buffers with the child's rows, or raise the
        child's error."""
        if final_row is not None:
            self.send(*final_row, _FINAL)
        self.send(None, 0.0, _END)
        data = bytearray()
        while chunk := os.read(self.fd, 1 << 16):
            data += chunk
        self.close()
        if data[:1] == b"E":
            raise pickle.loads(data[1:])
        if data[:1] != b"R":
            raise RuntimeError("the trace replay process died")
        rows = memoryview(data)[1:]
        k = len(rows) // _ROW_BYTES
        recorder.t.frombytes(rows[:8 * k])
        recorder.fields.frombytes(rows[8 * k:])

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


def _child(game, graph, cfg, recorder, counts, ring, write_fd, parent):
    """The forked process: measure the rows, then send b"R" and the two
    row buffers, or b"E" and the pickled error (one that does not survive
    pickling as a RuntimeError naming it), and exit."""
    # garbage inherited from the run is the run's to finalize
    gc.freeze()
    try:
        try:
            _measure(game, graph, cfg, recorder, counts, ring, parent)
            parts = (b"R", recorder.t, recorder.fields)
        except BaseException as exc:
            try:
                error = pickle.dumps(exc)
                pickle.loads(error)
            except Exception:
                error = pickle.dumps(RuntimeError(f"trace replay: {exc!r}"))
            parts = (b"E", error)
        for part in parts:
            view = memoryview(part).cast("B")
            while view:
                view = view[os.write(write_fd, view):]
    finally:
        os._exit(0)


def _measure(game, graph, cfg, recorder, counts, ring, parent):
    """Replay the stream up to its end into the recorder's buffers.  An
    error stops the measuring, not the draining of the ring, and is raised
    at the end."""
    z, error, k = np.zeros((game.N, game.d)), None, 0
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
        step_norm, kind = float(slot[-2]), slot[-1]
        counts[_TAKEN] = k + 1
        if kind == _END:
            break
        if error is None:
            try:
                if k:
                    z = _track(game, graph, cfg.tracker, z, phix, estimates, x)
                phix = phi_stack(game, x)
                estimates = z + phix
                if kind == _FINAL or k % cfg.trace_stride == 0:
                    recorder.add(k, x, z, phix, estimates, step_norm)
            except Exception as exc:
                error = exc
        k += 1
    if error is not None:
        raise error
    recorder.flush()

"""Distributed equilibrium seeking with consensus-tracked aggregates.

Every agent interleaves two moves: a damped projected-gradient step on
its own cost, evaluated at a *local estimate* of the aggregate, and one
perturbed-consensus update of the tracker that maintains this estimate.
The module also carries the diagnostics that make the scheme auditable:

- trace rows whose disagreement column is the norm of the estimate
  stack's deviation from its column mean,
- a probe that freezes the strategies and watches the tracker subsystem
  contract to its equilibrium at the spectral rate of the weights,
- a centralized reference iteration fed the exact aggregate, which the
  tracker-driven iteration must reproduce bit for bit when the trackers
  are overwritten by their exact values each step.

Four routes take the one strategy step games.damped_projected_step,
x + delta (P(x - gamma d) - x), and so share their floating-point order:
the consensus run (d from the tracked estimates), and the exact-tracker
run, reduced_system_run and games.solve_ne_oracle (delta = 1) with d the
pseudo-gradient.
"""

import contextlib
import math
import os
import sys
from array import array

import numpy as np

from ._base import Record
from .games import (damped_projected_step, local_operator, phi_stack,
                    pseudo_gradient)
from .network import consensus_step, spectrum

TRACKER_MODES = ("consensus", "exact")

_FIT_FLOOR = 1e-12
_FIT_MIN_SKIP = 50
_FIT_SKIP_FRACTION = 0.05
# a positive fitted rate counts as decay only when the log-linear model
# explains the error history; a stalled run that cycles at a constant
# error fits a2 ~ 0 with R^2 ~ 0, while converging runs fit R^2 > 0.999
_VERDICT_MIN_R2 = 0.9
# bytes of sweep arrays the recorder holds before measuring them at once
_BLOCK_BYTES = 64 * 1024


# ------------------------------------------------------------ configuration


class TradesConfig(Record, frozen=True):
    """Run parameters: stepsize, damping, stopping rule, tracker.

    delta is the convex-combination weight of the projected step; the
    nominal range is (0, 1) but the closed boundary delta = 1 is accepted
    because the undamped iteration is a meaningful degenerate case (a
    plain projected-gradient step).  stop_tol applies to the damping
    normalized step norm ||x_next - x|| / delta.  tracker is one of
    TRACKER_MODES; "exact" overwrites every tracker with its exact value.
    """

    gamma: float = 0.01
    delta: float = 0.5
    stop_tol: float = 1e-10
    max_iter: int = 50000
    seed: int = None
    tracker: str = TRACKER_MODES[0]

    def __post_init__(self):
        for name in ("gamma", "stop_tol"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be > 0 and finite, got {value}")
        if not 0 < self.delta <= 1:
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")
        if (not isinstance(self.max_iter, (int, np.integer))
                or type(self.max_iter) is bool):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.tracker not in TRACKER_MODES:
            raise ValueError(f"tracker must be one of {TRACKER_MODES}, "
                             f"got {self.tracker!r}")


class TradesState(Record):
    """Iterate: (N, m) strategies, (N, d) trackers (a row per agent)."""

    x: np.ndarray
    z: np.ndarray


# ------------------------------------------------------------------- traces


TRACE_COLUMNS = ("t", "err_x", "est_err_max", "disagreement", "step_norm")


class IterationTrace(Record):
    """Recorded rows of a run.

    A run records every state it reaches; a row's index, its position, is
    the CSV's first column t.  The others are err_x (distance to the
    supplied equilibrium, nan when none was given), est_err_max (worst
    per-agent aggregate estimation error), disagreement (norm of the
    centred estimate stack z + phi, i.e. of the estimates minus their
    mean across agents), and step_norm (damping-normalized step out of
    the recorded state; the final row repeats the arriving step, which is
    the stopping residual).
    z_mean_residual and feas_residual are extra in-memory columns used by
    invariant checks, not written to CSV.
    """

    err_x: np.ndarray
    est_err_max: np.ndarray
    disagreement: np.ndarray
    step_norm: np.ndarray
    z_mean_residual: np.ndarray
    feas_residual: np.ndarray
    iterates: np.ndarray = None

    def __len__(self):
        return len(self.err_x)

    def csv_text(self):
        """The header line, then one line per row of its index and the repr
        of each field (%r of the floats of .tolist()).  Rows are formatted
        in blocks of 256, each one string, joined once with the header, so
        building the text holds about twice its size."""
        blocks = [",".join(TRACE_COLUMNS) + "\n"]
        for k in range(0, len(self), 256):
            block = [range(k, min(k + 256, len(self)))] + [
                getattr(self, name)[k:k + 256].tolist()
                for name in TRACE_COLUMNS[1:]]
            blocks.append("".join(["%r,%r,%r,%r,%r\n" % row for row in zip(*block)]))
        return "".join(blocks)


class ConvergenceReport(Record):
    """Fitted linear-rate summary of a completed run.

    a1, a2 come from least squares on log(err) vs t over the
    post-transient window: err is modeled as a1 * exp(-a2 * t).  The
    verdict is FAIL on stop_reason "diverged", N/A with neither a fit nor
    err_x_final (no oracle), else PASS only when the run stopped by
    stop_tol, a2 > 0 and the fit's R^2 reaches _VERDICT_MIN_R2.
    contraction_ratio is the median per-iteration error ratio over the
    fit window, an empirical counterpart to exp(-a2).
    """

    a1: float = None
    a2: float = None
    r_squared: float = None
    contraction_ratio: float = None
    n_fit_points: int = 0
    iterations: int = 0
    stop_reason: str = "max_iter"
    err_x_final: float = None

    @property
    def converged(self):
        return self.stop_reason == "stop_tol"

    @property
    def verdict(self):
        if self.stop_reason == "diverged":
            return "FAIL"
        if self.a2 is None and self.err_x_final is None:
            return "N/A"
        decays = (self.a2 is not None and self.a2 > 0
                  and self.r_squared >= _VERDICT_MIN_R2)
        return "PASS" if self.converged and decays else "FAIL"


def fit_convergence(errs, total_iterations):
    """Least-squares linear fit of log(err) against its index in errs.

    Discards the transient (t below max(50, 5% of the run)) and samples
    at or below the floating-point floor of 1e-12.  Returns a tuple
    (a1, a2, r_squared, contraction_ratio, n_points); the first four are
    None when fewer than three samples survive.
    """
    errs = np.asarray(errs, dtype=float)
    ts = np.arange(errs.size, dtype=float)
    cut = max(_FIT_MIN_SKIP, _FIT_SKIP_FRACTION * total_iterations)
    mask = (ts >= cut) & np.isfinite(errs) & (errs > _FIT_FLOOR)
    n_points = int(mask.sum())
    if n_points < 3:
        return None, None, None, None, n_points
    tw, ew = ts[mask], errs[mask]
    logs = np.log(ew)
    slope, intercept = np.polyfit(tw, logs, 1)
    pred = intercept + slope * tw
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    if ss_tot > 0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res == 0 else 0.0
    gaps = np.diff(tw)
    ratios = np.sort((ew[1:] / ew[:-1]) ** (1.0 / gaps))
    # np.median's value (the middle ratio, or the mean of the middle two),
    # without the numpy.ma import np.median makes on its first call
    h = ratios.size // 2
    ratio = float(ratios[h] if ratios.size % 2 else (ratios[h - 1] + ratios[h]) / 2)
    return float(np.exp(intercept)), float(-slope), float(r2), ratio, n_points


# ------------------------------------------------------------ the iteration


def exact_tracker_values(game, x):
    """Tracker stack that makes every local estimate equal the aggregate."""
    phix = phi_stack(game, x)
    return phix.mean(axis=0)[None, :] - phix


def init(game, x0):
    """Starting state from a stacked vector, an (N, m) array or a seed.

    The strategies are projected, and kept as an (N, m) array, so the
    feasibility invariant holds from t = 0; the tracker stack starts at
    exactly zero, which pins its per-column mean to zero for the whole
    run.
    """
    if isinstance(x0, (int, np.integer)):
        x = np.random.default_rng(int(x0)).standard_normal((game.N, game.m))
    else:
        x = game.split(x0)
    return TradesState(x=game.projector(x), z=np.zeros((game.N, game.d)))


def _advance(game, graph, gamma, delta, x, z, tracker):
    """One synchronous sweep; returns (new x, new z, contributions, the
    estimate stack z + contributions that the sweep and recorder share).

    Both halves read the time-t state: the strategy update uses the
    time-t tracker, and the tracker update (_track) uses the time-t
    contributions (never the freshly updated strategies).  tracker is one
    of TRACKER_MODES, as TradesConfig checks it.
    """
    phix = phi_stack(game, x)
    estimates = z + phix
    if tracker == "consensus":
        direction = local_operator(game, x, estimates)
    else:
        direction = game.split(pseudo_gradient(game, x))
    new_x = damped_projected_step(game, x, direction, gamma, delta)
    return (new_x, _track(game, graph, tracker, z, phix, estimates, new_x),
            phix, estimates)


def _track(game, graph, tracker, z, phix, estimates, new_x):
    """The tracker stack after one sweep from (z, phix, estimates = z +
    phix): one consensus step, or in "exact" mode the exact values at the
    new strategies new_x.  The run's sweep and _replay_rows both take it,
    so they hold the same bits."""
    if tracker == "consensus":
        return consensus_step(graph, z, phix, estimates)
    return exact_tracker_values(game, new_x)


def _checked_step_norm(x, new_x, delta, new_z=None):
    """Damping-normalized norm of the sweep from x to new_x; None when it,
    or the squared norm of the new tracker stack's column sums (with
    new_z), is not finite (a non-finite entry or an overflow), which is a
    divergence.
    """
    d = (new_x - x).ravel()
    step_norm = math.sqrt(d.dot(d)) / delta
    finite = math.isfinite(step_norm) and (
        new_z is None or math.isfinite(_column_sum_sq(new_z)))
    return step_norm if finite else None


def _column_sum_sq(z):
    """|sum_i z_i|^2 of a tracker stack, the value its recorded row reads."""
    z_sum = z.sum(axis=0)
    return z_sum @ z_sum


class _Recorder:
    """Trace rows of the states it is handed, one per state, in order.

    The six float fields of each row, in field order, live in one flat
    float64 array (48 B per row, plus the array's growth slack).  A game
    whose row of sweep arrays (x, z, phix, estimates: 8 (n + 3 N d) bytes)
    fits at least twice in _BLOCK_BYTES holds that many rows by reference
    (the sweep never writes into its arrays again) and measures them in
    one batched pass, bit for bit the per-row fields; a larger game
    measures each row on arrival.
    So a projector error met while measuring a row of a small game
    surfaces at the end of the row's block.
    """

    def __init__(self, game, oracle_vec):
        self.n_agents = game.N
        self.membership_residual = game.projector.membership_residual
        self.oracle_vec = oracle_vec
        self.mean_row = np.full(game.N, 1.0 / game.N)
        self.fields = array("d")
        self.block = _BLOCK_BYTES // (8 * (game.n + 3 * game.N * game.d))
        self.held = []

    def add(self, x, z, phix, estimates, step_norm):
        # rows of w are the estimation errors z_i + phi_i - sigma; they sum
        # to the column sums of z, so the centred stack's squared norm (the
        # disagreement) is their squared norm minus |sum_i z_i|^2 / N;
        # estimates (z + phix) is shared with the sweep, so it stays as is
        if self.block >= 2:
            self.held.append((x, z, phix, estimates, step_norm))
            if len(self.held) == self.block:
                self.flush()
            return
        z_sum_sq = _column_sum_sq(z)
        w = estimates - self.mean_row @ phix
        rows = np.einsum("ij,ij->i", w, w)
        disagreement = math.sqrt(max(rows.sum() - z_sum_sq / self.n_agents, 0.0))
        # einsum makes no BLAS call, so the sum's order is not the thread count's
        z_sq = np.einsum("ij,ij->", z, z)
        z_mean = math.sqrt(z_sum_sq) / max(1.0, math.sqrt(z_sq))
        if self.oracle_vec is None:
            err = math.nan
        else:
            d = x.reshape(-1) - self.oracle_vec
            err = math.sqrt(d.dot(d))
        self.fields.extend((err, math.sqrt(rows.max()), disagreement,
                            step_norm, z_mean, self.membership_residual(x)))

    def flush(self):
        """Measure the held rows: add's reductions over (k, ...) stacks, with
        matmul of (k, 1, n) by (k, n, 1) for each dot, einsum for |z|^2,
        np.fmax for max(1.0, .) (a nan norm gives 1.0) and the projector's
        block residual."""
        if not self.held:
            return
        xs, zs, phis, ests, steps = zip(*self.held)
        self.held = []
        k, x, z = len(xs), np.array(xs), np.array(zs)
        w = np.array(ests) - (self.mean_row @ np.array(phis))[:, None, :]
        rows = np.einsum("kij,kij->ki", w, w)

        def dots(d):
            d = d.reshape(k, -1)
            return np.matmul(d[:, None, :], d[:, :, None]).reshape(k)

        z_sum_sq = dots(z.sum(axis=1))
        err = np.full(k, math.nan) if self.oracle_vec is None else np.sqrt(
            dots(x.reshape(k, -1) - self.oracle_vec))
        fields = np.stack([
            err, np.sqrt(rows.max(axis=1)),
            np.sqrt(np.maximum(rows.sum(axis=1) - z_sum_sq / self.n_agents, 0.0)),
            np.array(steps), np.sqrt(z_sum_sq) / np.fmax(
                1.0, np.sqrt(np.einsum("kij,kij->k", z, z))),
            self.membership_residual(x)], axis=1)
        self.fields.frombytes(fields.tobytes())

    def build(self):
        # a copy, so the buffer stays free to grow (an array exporting its
        # buffer to a live view cannot be resized)
        self.flush()
        fields = np.frombuffer(self.fields, dtype=np.float64).reshape(-1, 6).T.copy()
        return IterationTrace(*fields)


def _replay_rows(game, graph, tracker, recorder, stream):
    """Record the tracker's rows along a stream of (x, step_norm): from
    z = 0, the sweep's tracker step (_track) to each next x, then
    phi_stack and z + phix, into recorder.add.  The forked replay feeds it
    the run's x stream, boundary_layer_probe a frozen x."""
    z = np.zeros((game.N, game.d))
    for t, (x, step_norm) in enumerate(stream):
        if t:
            z = _track(game, graph, tracker, z, phix, estimates, x)
        phix = phi_stack(game, x)
        estimates = z + phix
        recorder.add(x, z, phix, estimates, step_norm)


def _threads():
    """The OS threads of this process, a BLAS pool's too; None without /proc."""
    with contextlib.suppress(OSError):
        return len(os.listdir("/proc/self/task"))


def _replays_apart(recorder):
    """Whether a forked child measures the rows (trades._replay): for a
    game measured row by row, on Linux x86-64 (its stores reach the other
    process in order) with two usable CPUs, in a process of one OS thread
    (a BLAS pool would leave the child no CPU; forking beside a thread is
    unsafe), outside a multiprocessing worker (a sweep's pool would double up)."""
    mp = sys.modules.get("multiprocessing")
    return (recorder.block < 2 and sys.platform == "linux" and _threads() == 1
            and os.uname().machine == "x86_64" and len(os.sched_getaffinity(0)) > 1
            and (mp is None or mp.parent_process() is None))


def run(game, graph, cfg, x0=None, oracle=None, keep_iterates=False):
    """Iterate to the stopping tolerance and instrument the trajectory.

    x0 may be a stacked vector, an (N, m) array, or an integer seed; when
    it is None the seed from cfg is used.  oracle, when given, is the
    reference equilibrium (stacked or (N, m), as ``game.split`` reads it)
    used to fill the error column and fit the linear rate.  Returns
    (final state, trace, report); the state's x is an (N, m) array, the
    report's iterations the sweep count, the trace's iterates with
    keep_iterates the stacked x of each row.
    The report's stop_reason is "stop_tol", "max_iter" or "diverged": at
    a non-finite step norm or tracker sum (_checked_step_norm) the state
    is the last finite iterate, with no final row.  cfg.tracker picks the
    tracker mode.  Where _replays_apart allows, a forked process measures
    the rows (trades._replay), with the same bytes.
    """
    if x0 is None:
        if cfg.seed is None:
            raise ValueError("run needs x0 or a seed in the configuration")
        x0 = int(cfg.seed)
    state = init(game, x0)
    x, z = state.x, state.z
    oracle_vec = None if oracle is None else game.split(oracle).reshape(-1)
    # the recorder, or a forked replay that measures the rows with it
    rows = recorder = _Recorder(game, oracle_vec)
    iterates = [x.reshape(-1)] if keep_iterates else None
    if _replays_apart(recorder):
        from ._replay import Replay
        try:
            rows = Replay(game, graph, cfg.tracker, recorder)
        except OSError:       # no process to spare: the rows stay here
            pass

    stop_reason = "max_iter"
    gamma, delta, stop_tol = cfg.gamma, cfg.delta, cfg.stop_tol
    max_iter, add = cfg.max_iter, rows.add
    t = 0
    try:
        while t < max_iter:
            new_x, new_z, phix, estimates = _advance(
                game, graph, gamma, delta, x, z, cfg.tracker)
            step_norm = _checked_step_norm(x, new_x, delta, new_z)
            if step_norm is None:
                stop_reason = "diverged"
                break
            add(x, z, phix, estimates, step_norm)
            x, z = new_x, new_z
            t += 1
            if keep_iterates:
                iterates.append(x.reshape(-1))
            if step_norm <= stop_tol:
                stop_reason = "stop_tol"
                break

        if stop_reason != "diverged":    # a diverged run has no final row
            phix = phi_stack(game, x)
            add(x, z, phix, z + phix, step_norm)
        trace = rows.build()
    except BaseException:
        if rows is not recorder:         # stop and reap the replay
            rows.close()
        raise

    trace.iterates = np.asarray(iterates) if keep_iterates else None
    # without an oracle err_x is all nan, which the fit reads as no points
    a1, a2, r2, ratio, n_fit = fit_convergence(trace.err_x, t)
    err = float(trace.err_x[-1]) if oracle is not None and len(trace) else None
    report = ConvergenceReport(a1=a1, a2=a2, r_squared=r2,
                               contraction_ratio=ratio, n_fit_points=n_fit,
                               iterations=t, stop_reason=stop_reason,
                               err_x_final=err)
    return TradesState(x=x, z=z), trace, report


def reduced_system_run(game, cfg, x0):
    """Centralized reference: damped projected steps on the exact aggregate.

    Returns the trajectory of stacked iterates, shape (steps + 1, n),
    first row the projected start, up to the last finite iterate.  Takes
    run's exact-mode strategy step, so a run with tracker = "exact" and
    the same configuration and start reproduces this trajectory bitwise.
    """
    x = init(game, x0).x
    trajectory = [x.reshape(-1)]
    for _ in range(cfg.max_iter):
        new_x = damped_projected_step(
            game, x, game.split(pseudo_gradient(game, x)), cfg.gamma, cfg.delta)
        step_norm = _checked_step_norm(x, new_x, cfg.delta)
        if step_norm is None:
            break
        x = new_x
        trajectory.append(x.reshape(-1))
        if step_norm <= cfg.stop_tol:
            break
    return np.asarray(trajectory)


# --------------------------------------------------- boundary-layer probing


def boundary_layer_budget(rho):
    """Steps after which a geometric decay at rate rho shrinks by 1e-10.

    Reads the ten-over-log rule in base 10: rho to this power is at most
    1e-10.  A nonpositive rate converges in one sweep.
    """
    rho = float(rho)
    if not 0 <= rho < 1:
        raise ValueError(f"spectral rate must lie in [0, 1), got {rho}")
    if rho == 0.0:
        return 1
    return int(math.ceil(10.0 / math.log10(1.0 / rho)))


class BoundaryLayerResult(Record):
    """Frozen-strategy tracker transient.

    errors[k] is the distance of the disagreement coordinates from their
    frozen-strategy target after k sweeps; ratios are consecutive error
    quotients (nan once the error underflows the measurement floor);
    final_gap_max is the worst per-agent distance of the tracker from
    the estimate it is meant to reach.
    """

    errors: np.ndarray
    ratios: np.ndarray
    final_gap_max: float
    steps: int
    rho: float


def boundary_layer_probe(graph, game, x, steps=None):
    """Freeze the strategies and watch the tracker subsystem settle.

    With x frozen the tracker dynamics are linear; their equilibrium
    makes every agent's estimate equal the true aggregate.  The default
    step budget comes from boundary_layer_budget at the measured
    spectral rate of the weights.  The tracker steps and their rows are
    _replay_rows on a stream that repeats x: errors is the recorded
    disagreement column, final_gap_max the last est_err_max.
    """
    if steps is not None and (not isinstance(steps, (int, np.integer))
                              or type(steps) is bool or steps < 0):
        raise ValueError(f"steps must be a non-negative integer, got {steps!r}")
    x = game.split(x)
    rho = spectrum(graph).rho_disagreement
    if steps is None:
        steps = boundary_layer_budget(rho)
    recorder = _Recorder(game, None)
    _replay_rows(game, graph, "consensus", recorder,
                 ((x, 0.0) for _ in range(steps + 1)))
    trace = recorder.build()
    errors = trace.disagreement
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(errors[:-1] > _FIT_FLOOR,
                          errors[1:] / np.where(errors[:-1] > 0, errors[:-1], 1.0),
                          np.nan)
    return BoundaryLayerResult(errors=errors, ratios=ratios,
                               final_gap_max=float(trace.est_err_max[-1]),
                               steps=int(steps), rho=float(rho))

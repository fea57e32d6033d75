"""Independent verification oracles used by the test suite.

Everything here deliberately avoids the library's own code paths: the
projection oracle enumerates active sets of a dense QP, gradients are
checked by central differences, and consensus updates are rebuilt from a
dense Kronecker product.  scipy supplies the numerical kernels (lstsq,
nnls) so the arithmetic route is genuinely different from the package's.
Two helpers the package itself does not need live here too: the
aggregate of a profile, and a fixed orthonormal basis of the
disagreement subspace to measure the tracker stack in.  The charger
multiplier search, the reference equilibrium solve and the sampled
projector check of ``validate_assumptions`` are checked against their
first forms, kept here verbatim.  ``literal_run`` writes the
consensus-mode iteration the slow way, agent by agent and neighbour by
neighbour, with its own box and charger projections.
"""

import itertools
import math

import numpy as np
from scipy.linalg import lstsq
from scipy.optimize import nnls

from trades.errors import InfeasibleSpec, MaxIterExceeded, MaxSweepsExceeded
from trades.games import (_SAMPLE_SCALE, _oracle_stepsize, phi_stack,
                          pseudo_gradient)
from trades.grid import VOLTAGE_SCALE
from trades.projections import (_SEARCH_MAX_EVALS, Box, DiskPairs, Hyperplane,
                                Intersection)


def box_constraints(lower, upper):
    """Box as a list of (a, b) halfspace rows a.v <= b (finite sides only)."""
    rows = []
    dim = len(lower)
    for k in range(dim):
        e = np.zeros(dim)
        if np.isfinite(upper[k]):
            e_up = e.copy()
            e_up[k] = 1.0
            rows.append((e_up, float(upper[k])))
        if np.isfinite(lower[k]):
            e_lo = e.copy()
            e_lo[k] = -1.0
            rows.append((e_lo, float(-lower[k])))
    return rows


def projection_qp_oracle(v, equalities, inequalities, feas_tol=1e-9,
                         eq_tol=1e-7):
    """Exact projection onto {w : Aw = b, Cw <= d} by active-set enumeration.

    ``equalities`` and ``inequalities`` are lists of (a, b) rows.  Every
    subset of inequality rows is tried as an active set; each candidate
    solves the equality-constrained least-distance problem in closed form
    through the KKT system.  The feasible candidate closest to v is the
    projection (the true active set is among the subsets).  Candidates
    whose rows miss their levels by more than ``eq_tol`` (relative) are
    inconsistent or infeasible; a set whose levels are that close to
    each other needs a smaller one.
    """
    v = np.asarray(v, dtype=float)
    dim = v.size
    eq_rows = [(np.asarray(a, dtype=float), float(b)) for a, b in equalities]
    in_rows = [(np.asarray(a, dtype=float), float(b)) for a, b in inequalities]

    best = None
    best_dist = np.inf
    for r in range(len(in_rows) + 1):
        for subset in itertools.combinations(range(len(in_rows)), r):
            rows = eq_rows + [in_rows[k] for k in subset]
            if rows:
                amat = np.stack([a for a, _ in rows])
                bvec = np.array([b for _, b in rows])
                # minimize |w - v|^2 subject to amat w = bvec:
                # w = v - amat^T lam with (amat amat^T) lam = amat v - bvec
                gram = amat @ amat.T
                rhs = amat @ v - bvec
                lam = lstsq(gram, rhs, lapack_driver="gelsd")[0]
                w = v - amat.T @ lam
                if np.linalg.norm(amat @ w - bvec) > eq_tol * max(1.0, np.linalg.norm(bvec)):
                    continue  # inconsistent active set
            else:
                w = v.copy()
            ok = all(a @ w <= b + feas_tol for a, b in in_rows)
            ok = ok and all(abs(a @ w - b) <= eq_tol * max(1.0, abs(b)) for a, b in eq_rows)
            if ok:
                dist = np.linalg.norm(w - v)
                if dist < best_dist - 1e-12:
                    best_dist = dist
                    best = w
    if best is None:
        raise RuntimeError("oracle found no feasible candidate; empty set?")
    return best


def ev_kkt_residual(v, w, plugged, s_max, active_tol=1e-7):
    """Stationarity residual of w as the projection of v onto a charger set.

    Builds the active constraint gradients at w (energy-target equality,
    sign/availability bounds, apparent-power disks) and fits v - w as a
    nonnegative combination (sign-free for equalities, realized as +/-
    column pairs) via NNLS.  Returns the leftover norm; a valid projection
    makes it vanish up to numerical error.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    plugged = np.asarray(plugged).astype(bool)
    horizon = plugged.size
    cols = []

    def free_direction(g):
        cols.append(g)
        cols.append(-g)

    if plugged.any():
        free_direction(np.concatenate([plugged.astype(float), np.zeros(horizon)]))
    for tau in range(horizon):
        e_p = np.zeros(2 * horizon)
        e_p[tau] = 1.0
        if plugged[tau]:
            if w[tau] >= -active_tol:          # p <= 0 active
                cols.append(e_p)
        else:
            free_direction(e_p)                # p = 0 pinned
        radius = np.hypot(w[tau], w[horizon + tau])
        if radius >= s_max - active_tol:       # disk boundary active
            g = np.zeros(2 * horizon)
            g[tau] = w[tau]
            g[horizon + tau] = w[horizon + tau]
            cols.append(g)
    target = v - w
    if not cols:
        return float(np.linalg.norm(target))
    gmat = np.stack(cols, axis=1)
    _, resid = nnls(gmat, target)
    return float(resid)


def ev_reference_set(plugged, target_energy, s_max):
    """One charger's feasible set as an intersection of primitives, for
    the Dykstra reference: the energy hyperplane over plugged slots, the
    sign/availability box and the per-slot disks."""
    plugged = np.asarray(plugged).astype(bool)
    horizon = plugged.size
    lower = np.full(2 * horizon, -np.inf)
    upper = np.full(2 * horizon, np.inf)
    upper[:horizon] = 0.0
    lower[:horizon][~plugged] = 0.0
    members = [Box(lower, upper), DiskPairs(np.full(horizon, s_max))]
    if plugged.any():
        normal = np.concatenate([plugged, np.zeros(horizon)])
        members.insert(0, Hyperplane(normal, -target_energy))
    return Intersection(members, certify=False)


def disk_slots_projection(radius, v):
    """Projection onto ``DiskPairs(radius)``, one slot at a time: slot t
    of the (..., 2, T) view pairs [..., 0, t] with [..., 1, t], and a slot
    whose norm exceeds its radius is scaled radially onto its circle."""
    radius = np.asarray(radius, dtype=float)
    out = np.array(v, dtype=float).reshape(
        radius.shape[:-1] + (2, radius.shape[-1]))
    for *lead, t in np.ndindex(radius.shape):
        a, b = out[(*lead, 0, t)], out[(*lead, 1, t)]
        norm, cap = np.hypot(a, b), radius[(*lead, t)]
        if norm > cap:
            out[(*lead, 0, t)], out[(*lead, 1, t)] = a * (cap / norm), b * (cap / norm)
    return out.reshape(-1)


def central_diff_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h * max(1.0, abs(x[k]))
        g[k] = (f(x + step) - f(x - step)) / (2 * step[k])
    return g


def central_diff_jacobian(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h * max(1.0, abs(x[k]))
        cols.append((np.asarray(f(x + step)) - np.asarray(f(x - step))) / (2 * step[k]))
    return np.stack(cols, axis=1)


def quadratic_cost(data, i, x_i, s):
    """Stated cost of agent i in the quadratic family,
    J_i = 0.5 x'Q_i x + r_i'x + kappa x'C_i s, from the builder's inputs
    (``game.quadratic_data``)."""
    q, r, c = data["quadratics"][i], data["linears"][i], data["couplers"][i]
    return float(0.5 * x_i @ q @ x_i + r @ x_i
                 + data["coupling"] * x_i @ c @ s)


def voltage_cost(cfg, x_i, s):
    """Stated cost of one charger in the voltage game,
    J_i = -pi'p + h ||s - reference||^2 + a ||p||^2 + r ||q||^2 with
    x = (p, q) and h, a, r the penalty, active and reactive weights."""
    p, q = np.split(np.asarray(x_i, dtype=float), 2)
    dev = s - cfg.reference
    return float(-cfg.prices @ p + cfg.penalty_weight * (dev @ dev)
                 + cfg.active_weight * (p @ p)
                 + cfg.reactive_weight * (q @ q))


def dense_voltage_game(model, agents, cfg):
    """Kronecker-expanded per-agent blocks of the voltage game.

    Rebuilt from the model and the config with np.kron, the route the
    library avoids: G_i = N VOLTAGE_SCALE [R_b X_b] (x) I_T,
    E_i = 2 h G_i' / N, B_i = 2 diag(a, r) (x) I_T,
    c_i = -(pi, 0) - E_i reference, and the dense pseudo-gradient matrix
    A = blockdiag(B) + [E_i G_j / N].
    """
    n_agents, eye = len(agents), np.eye(model.horizon)
    g = np.stack([n_agents * VOLTAGE_SCALE * np.kron(np.column_stack(
        [model.Rmat[:, a.bus], model.Xmat[:, a.bus]]), eye) for a in agents])
    e = 2.0 * cfg.penalty_weight * g.transpose(0, 2, 1) / n_agents
    b = np.kron(np.diag([2.0 * cfg.active_weight, 2.0 * cfg.reactive_weight]),
                eye)
    c = -np.concatenate([cfg.prices, np.zeros(model.horizon)]) \
        - e @ cfg.reference
    dim = b.shape[0]
    a = np.zeros((n_agents * dim, n_agents * dim))
    for i in range(n_agents):
        a[i * dim:(i + 1) * dim, i * dim:(i + 1) * dim] += b
        for j in range(n_agents):
            a[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] += \
                e[i] @ g[j] / n_agents
    return {"B": b, "E": e, "c": c, "G": g, "A": a}


def aggregate(game, x):
    """Average contribution sigma(x) = (1/N) sum_i phi_i(x_i)."""
    return phi_stack(game, game.split(x)).mean(axis=0)


class ConsensusBasis:
    """Orthonormal basis of the subspace orthogonal to agreement.

    matrix has shape (N, N-1); its columns are orthonormal, each sums to
    zero, and matrix @ matrix.T = I - ones/N.  Built from the Householder
    reflection that maps the first coordinate axis onto the normalized
    all-ones vector, so the basis is deterministic for each N.
    """

    def __init__(self, n_agents):
        n = int(n_agents)
        if n < 1:
            raise ValueError("need at least one agent")
        if n == 1:
            matrix = np.zeros((1, 0))
        else:
            e1 = np.zeros(n)
            e1[0] = 1.0
            u = e1 - np.full(n, 1.0 / math.sqrt(n))
            h = np.eye(n) - 2.0 * np.outer(u, u) / (u @ u)
            matrix = h[:, 1:]
        self.n_agents = n
        self.matrix = matrix

    def to_disagreement(self, stack):
        """Coordinates of an (N, d) stack in the disagreement basis."""
        return self.matrix.T @ np.asarray(stack, dtype=float)


_BASIS_CACHE = {}


def consensus_basis(n_agents):
    """Shared per-N basis instance; identical object across calls."""
    basis = _BASIS_CACHE.get(n_agents)
    if basis is None:
        basis = ConsensusBasis(n_agents)
        _BASIS_CACHE[n_agents] = basis
    return basis


def kron_consensus_oracle(weights, z, phix):
    """Tracker update via the explicit Kronecker-lifted matrix.

    Builds W (x) I_d densely and applies it to the flattened stack, the
    route the library is required to avoid.
    """
    n, d = z.shape
    big = np.kron(weights, np.eye(d))
    zf = z.reshape(-1)
    pf = phix.reshape(-1)
    out = big @ zf + (big - np.eye(n * d)) @ pf
    return out.reshape(n, d)


def fixed_point_residual(game, x, gamma):
    """Distance of x from one undamped projected-gradient step.

    Rebuilt from the game's explicit affine data, F(x) = A x + c clipped
    to the bounds of the game's box, rather than from the local operator
    and the projector the solver itself uses.
    """
    affine = game.affine
    box = game.projector.box
    x = np.asarray(x, dtype=float)
    moved = np.clip(x - gamma * (affine.A @ x + game.c.reshape(-1)),
                    box.lower, box.upper)
    return float(np.linalg.norm(x - moved))


class ReferenceSearch:
    """The multiplier search of ``FeasibleSetProjector`` as first written:
    its ``_box_disk``, ``_slope`` and ``_search`` copied verbatim, run on a
    projector's data.  That loop rebuilt the bracket, the fallback and the
    disk screen on every evaluation; the package's must return the same
    bits after the same number of evaluations, counted in ``evaluations``.
    """

    def __init__(self, proj):
        for name in ("box", "disks", "normals", "levels", "shape", "_aa", "_tol"):
            setattr(self, name, getattr(proj, name))
        self.evaluations = 0

    def __call__(self, v):
        self.evaluations = 0
        return self._search(np.asarray(v, dtype=float).reshape(self.shape))

    def _box_disk(self, v):
        """P(v) in the shape of v, and the flat clamped point y."""
        self.evaluations += 1
        y = self.box.project(v)
        x = y if self.disks is None else self.disks.project(y)
        return x.reshape(np.shape(v)), y

    def _slope(self, y):
        """a_i . J a_i = -g_i', J the Jacobian of P where the box clamps to y: the
        free mask, then (r/|u|)(I - u u^T/|u|^2) on slots u of y beyond radius r."""
        ja = self.normals.reshape(-1) * ((self.box.lower < y) & (y < self.box.upper))
        found = None if self.disks is None else self.disks.capped(
            y.reshape(self.disks.shape))
        if found is not None:   # (..., T, 2) views of y and ja; capped slots
            norm, cap = found
            u, w = (np.moveaxis(b.reshape(self.disks.shape), -2, -1) for b in (y, ja))
            y_hat, wc, norm = u[cap] / norm[cap, None], w[cap], norm[cap, None]
            w[cap] = self.disks.radius[cap, None] / norm * (
                wc - y_hat * (y_hat * wc).sum(axis=1, keepdims=True))
        return np.einsum("im,im->i", self.normals, ja.reshape(self.shape))

    def _search(self, v):
        n, a = self.levels.size, self.normals
        lam, lo, hi = np.zeros(n), np.full(n, -np.inf), np.full(n, np.inf)
        todo, collapsed, out = np.ones(n, bool), np.zeros(n, bool), None
        with np.errstate(invalid="ignore", divide="ignore"):
            for k in range(_SEARCH_MAX_EVALS):
                x, y = self._box_disk(v - lam[:, None] * a)
                gap = np.einsum("im,im->i", a, x) - self.levels
                # a nan gap (non-finite input) ends too: the caller sees the nan
                done = todo & (collapsed | ~(np.abs(gap) > self._tol))
                if out is None:
                    out = x
                else:
                    np.copyto(out, x, where=done[:, None])
                todo &= ~done
                if not todo.any():
                    return out
                np.copyto(lo, lam, where=gap > 0.0)
                np.copyto(hi, lam, where=gap < 0.0)
                closed = np.isfinite(lo) & np.isfinite(hi)
                # g moves at most |a|^2 per unit of lam, so with no slope an
                # open bracket steps 2^k times the least distance to the root
                slope = self._slope(y)
                trial = lam + gap / slope
                trial = np.where((trial > lo) & (trial < hi), trial, np.where(
                    closed, 0.5 * (lo + hi), lam + 2.0 ** k * gap / self._aa))
                # no float strictly inside the bracket: the root is found
                collapsed = closed & ~((trial > lo) & (trial < hi))
                np.copyto(lam, trial, where=todo)
                if not np.isfinite(lam).all():
                    break
        # an open bracket where g is flat has no root ahead of it; any
        # other open or closed bracket just ran out of evaluations
        if np.any(todo & ~closed & (slope == 0.0)):
            raise InfeasibleSpec("a hyperplane misses the box-and-disk set")
        raise MaxSweepsExceeded("multiplier search did not converge")


def sampled_projector_residual(game, sample_budget=50, rng=0):
    """``validate_assumptions``'s projector check as first written: one
    (N, m) draw, projection and membership residual per sample, and the
    builtin max over the residuals from 0."""
    rng = np.random.default_rng(rng)
    worst = 0.0
    for _ in range(sample_budget):
        x = game.projector(rng.normal(scale=_SAMPLE_SCALE, size=(game.N, game.m)))
        worst = max(worst, game.projector.membership_residual(x))
    return worst


def reference_ne_oracle(game, gamma=None, tol=1e-12, max_iter=100000):
    """``games.solve_ne_oracle`` as first written, with its own undamped
    step P(y - gamma F(y)) from y = x + beta (x - x_prev), y = x while
    beta is 0, and no stop on a non-finite residual; the package's, which
    takes the run's damped step at delta = 1, must return the same bits
    and raise with the same best iterate."""
    beta = 0.0
    if gamma is None:
        gamma, beta = _oracle_stepsize(game)
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    x = game.projector(np.zeros((game.N, game.m)))
    x_prev = x
    best = x
    best_resid = np.inf
    for _ in range(max_iter):
        if beta != 0:
            y = x + beta * (x - x_prev)
        else:
            y = x
        f = pseudo_gradient(game, y)
        x_next = game.projector(y - gamma * game.split(f))
        resid = float(np.linalg.norm(y - x_next))
        if resid < best_resid:
            best_resid = resid
            best = x_next
        x_prev = x
        x = x_next
        if resid <= tol:
            return x
    raise MaxIterExceeded(
        f"fixed-point residual {best_resid:.3e} after {max_iter} iterations "
        f"(target {tol:.1e})", best=best,
        residual=best_resid, iterations=max_iter)


def box_projection(v, lower, upper):
    """Clamp of v to [lower, upper], one coordinate at a time."""
    return np.array([min(max(float(a), lo), hi)
                     for a, lo, hi in zip(v, lower, upper)])


def charger_projection(v, plugged, target, s_max):
    """Projection of v = (p, q) onto one charger's set, from its stated
    constraints: p_t <= 0 while plugged and p_t = 0 otherwise, plugged
    draws summing to -target (each at -s_max when target is the cap), and
    p_t^2 + q_t^2 <= s_max^2.  projection_qp_oracle solves the linear
    constraints; when its point leaves a disk, the projection is the
    per-slot projection onto half-disks at the root, found by bisection,
    of the energy gap in the hyperplane's multiplier."""
    v, plugged = np.asarray(v, dtype=float), list(map(bool, plugged))
    horizon, cap = len(plugged), s_max * sum(plugged)
    charging, rows = 0.0 < target < cap, np.eye(2 * horizon)
    equalities, inequalities = [], []
    for t, on in enumerate(plugged):
        if on and target == cap:
            equalities += [(rows[t], -s_max), (rows[horizon + t], 0.0)]
        elif on and charging:
            inequalities.append((rows[t], 0.0))
        else:
            equalities.append((rows[t], 0.0))
    if charging:
        equalities.append((np.concatenate([plugged, np.zeros(horizon)]),
                           -target))
    w = projection_qp_oracle(v, equalities, inequalities, feas_tol=1e-12,
                             eq_tol=1e-12)
    if all(math.hypot(w[t], w[horizon + t]) <= s_max for t in range(horizon)):
        return w

    def point(lam):
        out = np.zeros(2 * horizon)
        for t, on in enumerate(plugged):
            p, q = v[t] - lam * on, v[horizon + t]
            if on and target == cap:          # pinned at full draw
                out[t] = -s_max
            elif on and charging and p <= 0.0:
                r = math.hypot(p, q)
                scale = s_max / r if r > s_max else 1.0
                out[t], out[horizon + t] = p * scale, q * scale
            else:                             # p = 0, |q| <= s_max
                out[horizon + t] = min(max(q, -s_max), s_max)
        return out

    def gap(lam):   # nonincreasing in lam
        return sum(point(lam)[:horizon][plugged]) + target

    if not charging:
        return point(0.0)
    lo, hi = -1.0, 1.0
    while gap(lo) < 0.0:
        lo *= 2.0
    while gap(hi) > 0.0:
        hi *= 2.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gap(mid) > 0.0 else (lo, mid)
    return point(lo if abs(gap(lo)) <= abs(gap(hi)) else hi)


def literal_run(game, weights, gamma, delta, x0, steps, project_agent,
                oracle=None):
    """``steps`` sweeps of the consensus-mode iteration of
    ``algorithm.run``, the slow way.

    Agent i holds x_i and z_i; with its lifted factors G_i (x) I_T,
    B_i (x) I_T and E_i (x) I_T built by np.kron it moves to
    x_i + delta (P_i(x_i - gamma (B_i x_i + E_i (z_i + phi_i) + c_i)) - x_i),
    and its tracker to sum_j w_ij (z_j + phi_j) - phi_i over its
    in-neighbours j, both from the time-t state.  P_i is
    ``project_agent(i, v)``; x0 is the raw (N, m) start, projected first.
    Returns the final (N, m) strategies, the (N, d) trackers and one
    tuple per iterate in the order of run's trace fields: t, distance to
    ``oracle`` (nan without one), worst estimation error, disagreement,
    damping-normalized step out of the iterate (the last row repeats the
    arriving one), tracker-mean residual and distance to the feasible set.
    """
    n, eye = game.N, np.eye(game.T)
    g, b, e = ([np.kron(f[i], eye) for i in range(n)]
               for f in (game.G, game.B, game.E))
    c = [game.c[i].reshape(-1) for i in range(n)]
    x = [project_agent(i, np.asarray(x0[i], dtype=float)) for i in range(n)]
    z = [np.zeros(game.d) for _ in range(n)]
    rows, step = [], math.nan

    def row(t, x, z, step):
        phi = [g[i] @ x[i] for i in range(n)]
        sigma = sum(phi) / n
        est = [z[i] + phi[i] for i in range(n)]
        est_mean = sum(est) / n
        z_norm = math.sqrt(sum(float(zi @ zi) for zi in z))
        err = math.nan if oracle is None else float(
            np.linalg.norm(np.concatenate(x) - np.ravel(oracle)))
        return (t, err, max(float(np.linalg.norm(s - sigma)) for s in est),
                math.sqrt(sum(float((s - est_mean) @ (s - est_mean))
                              for s in est)),
                step, float(np.linalg.norm(sum(z))) / max(1.0, z_norm),
                math.sqrt(sum(float(np.sum((x[i] - project_agent(i, x[i])) ** 2))
                              for i in range(n))))

    for t in range(steps):
        phi = [g[i] @ x[i] for i in range(n)]
        new_x, new_z = [], []
        for i in range(n):
            direction = b[i] @ x[i] + e[i] @ (z[i] + phi[i]) + c[i]
            target = project_agent(i, x[i] - gamma * direction)
            new_x.append(x[i] + delta * (target - x[i]))
            mixed = -phi[i]
            for j in range(n):
                if weights[i][j] != 0.0:
                    mixed = mixed + weights[i][j] * (z[j] + phi[j])
            new_z.append(mixed)
        step = math.sqrt(sum(float(np.sum((new_x[i] - x[i]) ** 2))
                             for i in range(n))) / delta
        rows.append(row(t, x, z, step))
        x, z = new_x, new_z
    rows.append(row(steps, x, z, step))
    return np.array(x), np.array(z), rows

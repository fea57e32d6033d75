"""Euclidean projections onto the convex sets used by the solvers.

Primitive sets (boxes, hyperplanes, halfspaces, per-slot disk caps) have
closed-form projections.  A game's feasible set, one box, disk caps and
one hyperplane per agent over the strategy stack, is projected onto
exactly by the Newton multiplier search of :class:`FeasibleSetProjector`.
Dykstra's scheme, its reference, projects onto any intersection.
"""

import math

import numpy as np

from .errors import EmptyIntersectionSuspected, InfeasibleSpec, MaxSweepsExceeded

DEFAULT_DYKSTRA_TOL = 1e-10
DEFAULT_MAX_SWEEPS = 5000

# multiplier search: hyperplane gap tolerance (times max(1, |b_i|)), budget
_SEARCH_TOL = 1e-13
_SEARCH_MAX_EVALS = 500


def _as_vector(v, dim, name="v"):
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != dim:
        raise ValueError(f"{name} has size {v.size}, expected {dim}")
    return v


class ConvexSet:
    """Base class for closed convex sets in R^dim."""

    dim = 0

    def project(self, v):
        raise NotImplementedError

    def membership_residual(self, v):
        """Euclidean distance from v to the set (exact for primitives)."""
        v = _as_vector(v, self.dim)
        return float(np.linalg.norm(v - self.project(v)))


class Box(ConvexSet):
    """Axis-aligned box {v : lower <= v <= upper}; infinite bounds allowed."""

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float).reshape(-1)
        upper = np.asarray(upper, dtype=float).reshape(-1)
        if lower.shape != upper.shape:
            raise ValueError("lower and upper must have the same length")
        if np.any(lower > upper):
            raise ValueError("box has lower > upper on some coordinate")
        self.lower = lower
        self.upper = upper
        self.dim = lower.size

    def project(self, v):
        """v clamped into the box: a point of size dim, flat, or each point
        of a stack of k > 1 of them, as (k, dim)."""
        v = np.asarray(v, dtype=float)
        y = np.maximum(v.reshape((self.dim,) if v.ndim < 2 or v.size == self.dim
                                 else (len(v), self.dim)), self.lower)
        return np.minimum(y, self.upper, out=y)


class _LinearSet(ConvexSet):
    """A set given by one nonzero normal a and one level b."""

    def __init__(self, a, b):
        a = np.asarray(a, dtype=float).reshape(-1)
        if not np.any(a != 0.0):
            raise ValueError(
                f"{type(self).__name__.lower()} normal must be nonzero")
        self.a = a
        self.b = float(b)
        self.dim = a.size
        self._aa = float(a @ a)


class Hyperplane(_LinearSet):
    """Affine hyperplane {v : a.v = b}."""

    def project(self, v):
        v = _as_vector(v, self.dim)
        return v - self.a * ((self.a @ v - self.b) / self._aa)


class Halfspace(_LinearSet):
    """Halfspace {v : a.v <= b}."""

    def project(self, v):
        v = _as_vector(v, self.dim)
        gap = self.a @ v - self.b
        if gap <= 0.0:
            return v.copy()
        return v - self.a * (gap / self._aa)


class DiskPairs(ConvexSet):
    """Per-slot disk caps on the (..., 2, T) view of a vector: slot t pairs
    [..., 0, t] (active) with [..., 1, t] (reactive) inside the disk of
    radius[..., t]; an infinite radius sets no cap.  Slots are disjoint, so
    the projection scales each slot beyond its radius radially on its own.
    """

    def __init__(self, radius):
        radius = np.asarray(radius, dtype=float)
        if radius.ndim == 0 or not np.all(radius > 0):
            raise ValueError("need a (..., T) array of positive radii")
        self.radius, self.dim = radius, 2 * radius.size
        self.shape = radius.shape[:-1] + (2, radius.shape[-1])
        # with no |coordinate| above this, every slot is within 0.99 of its
        # radius, so capped returns None before taking any norm
        self._screen = 0.7 * radius.min(initial=np.inf)

    def capped(self, u):
        """(norms, mask) of the slots of the (..., 2, T) view u, the mask
        marking slots beyond their radius; None when no slot is."""
        if np.abs(u).max(initial=0.0) <= self._screen:
            return None
        norm = np.hypot(u[..., 0, :], u[..., 1, :])
        cap = norm > self.radius
        return (norm, cap) if cap.any() else None

    def scaled(self, u, found):
        """u with the slots that capped(u) found scaled onto their disks."""
        norm, cap = found
        return u * np.divide(self.radius, norm, out=np.ones_like(norm),
                             where=cap)[..., None, :]

    def project(self, v):
        u = _as_vector(v, self.dim).reshape(self.shape)
        found = self.capped(u)
        return (u.copy() if found is None else self.scaled(u, found)).reshape(-1)


class Intersection(ConvexSet):
    """Intersection of primitive convex sets, projected via Dykstra.

    Feasibility is certified at construction by projecting the origin and
    checking the membership residual, unless ``certify=False`` (callers
    that already know the data are consistent, or tests exercising the
    failure paths, may skip it).
    """

    def __init__(self, members, certify=True, dykstra_tol=DEFAULT_DYKSTRA_TOL,
                 max_sweeps=DEFAULT_MAX_SWEEPS):
        members = list(members)
        if not members:
            raise ValueError("intersection needs at least one member set")
        for m in members:
            if isinstance(m, Intersection):
                raise ValueError("intersection members must be primitive sets")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise ValueError(f"member sets disagree on dimension: {sorted(dims)}")
        self.members = members
        self.dim = dims.pop()
        if certify:
            try:
                w = project_dykstra(self, np.zeros(self.dim), tol=dykstra_tol,
                                    max_sweeps=max_sweeps)
            except MaxSweepsExceeded as err:
                w = err.best
            resid = self.membership_residual(w)
            if resid > 1e-8:
                raise EmptyIntersectionSuspected(
                    f"feasibility certificate failed: residual {resid:.3e}",
                    residual=resid)

    def project(self, v):
        return project_dykstra(self, v)

    def membership_residual(self, v):
        v = _as_vector(v, self.dim)
        return max(m.membership_residual(v) for m in self.members)


def project_dykstra(set_, v, tol=DEFAULT_DYKSTRA_TOL, max_sweeps=DEFAULT_MAX_SWEEPS):
    """Project v onto an intersection of primitive sets.

    Runs Dykstra's scheme: each sweep projects onto every member in turn,
    carrying one correction vector per member.  A sweep-to-sweep
    displacement below ``tol`` triggers the exit check, but the iterate is
    accepted only once it is a joint fixed point of the corrected member
    projections.  That certifies optimality as well as membership; the
    displacement alone does not, because the iterate can sit still for
    many sweeps while the corrections drain (box corners pin the point
    while the multiplier estimates rebalance).

    Raises ``MaxSweepsExceeded`` with the last iterate and its residual
    when the budget runs out without the certificate; thin non-empty sets
    stall too, so this claims no empty intersection.
    """
    if not isinstance(set_, Intersection):
        raise ValueError("project_dykstra expects an Intersection")
    v = _as_vector(v, set_.dim)
    members = set_.members
    x = v.copy()
    corrections = [np.zeros(set_.dim) for _ in members]
    prev = None
    for _ in range(max_sweeps):
        for k, member in enumerate(members):
            shifted = x + corrections[k]
            y = member.project(shifted)
            corrections[k] = shifted - y
            x = y
        if prev is not None and np.linalg.norm(x - prev) <= tol:
            certificate = 0.0
            for k, member in enumerate(members):
                gap = np.linalg.norm(member.project(x + corrections[k]) - x)
                certificate = max(certificate, gap)
                if certificate > 10.0 * tol:
                    break
            if certificate <= 10.0 * tol:
                return x
        prev = x.copy()
    resid = set_.membership_residual(x)
    raise MaxSweepsExceeded(
        f"no convergence within {max_sweeps} sweeps; membership residual "
        f"{resid:.3e}", best=x, residual=resid, iterations=max_sweeps)


class FeasibleSetProjector(ConvexSet):
    """Exact projection onto a box, disk caps and one hyperplane per agent.

    ``box`` and the optional ``disks`` span a stack of N agents' m-long
    strategies; the optional ``normals`` (N, m) and ``levels`` (N,) add
    a_i . x_i = b_i per agent (a zero row adds none).  Box bounds on capped
    disk slots must be 0 or infinite, so clamping then scaling onto the disks
    projects exactly onto box and disks (call it P).  The projection is
    P(v_i - lam_i a_i) at the root of the nonincreasing
    g_i(lam) = a_i . P(v_i - lam a_i) - b_i.  All agents take Newton steps
    at once, each falling back to the midpoint of the root's bracket when
    it would leave it.  A search that ends unbracketed where g is flat
    raises InfeasibleSpec; one that runs out of evaluations otherwise
    raises MaxSweepsExceeded.
    """

    def __init__(self, box, disks=None, normals=None, levels=None):
        if disks is not None and np.any(np.isfinite(disks.radius)[..., None, :] & ~(
                np.isin(box.lower.reshape(disks.shape), (0.0, -np.inf))
                & np.isin(box.upper.reshape(disks.shape), (0.0, np.inf)))):
            raise ValueError("capped disk slots need box bounds of 0 or infinity")
        self.box, self.disks, self.dim = box, disks, box.dim
        self.normals, self.shape = None, (box.dim,)
        # the disk slot view of a stack of points (one point: disks.shape)
        self._slots = None if disks is None else (-1,) + disks.shape
        if normals is not None:
            self.normals = np.atleast_2d(np.asarray(normals, dtype=float))
            self.levels = np.asarray(levels, dtype=float).reshape(-1)
            self.shape = self.normals.shape
            aa = np.einsum("im,im->i", self.normals, self.normals)
            self._aa = np.where(aa > 0.0, aa, 1.0)   # zero rows finish at once
            self._tol = _SEARCH_TOL * np.maximum(1.0, np.abs(self.levels))
            # box bounds in the normals' shape, for the slope's free mask
            self._lower, self._upper = (b.reshape(self.shape)
                                        for b in (box.lower, box.upper))

    def project(self, v):
        """Projection of v, in the shape v comes in: one point (stacked or
        flat) or a (k, N, m) stack of them, each row its own call's bits."""
        return self._point(self._flat(v)).reshape(np.shape(v))

    __call__ = project

    def membership_residual(self, v):
        """Distance |v - P(v)| from v to the set; a (k, N, m) stack of
        points gives their k distances, each bit for bit its own call's."""
        v = self._flat(v)
        d = v - self._point(v)
        if v.ndim == 1:
            return math.sqrt(d.dot(d))
        return np.sqrt(np.matmul(d[:, None, :], d[:, :, None]).reshape(len(v)))

    def _flat(self, v):
        """One point as a flat vector, or a (k, N, m) stack as (k, dim)."""
        v = np.asarray(v, dtype=float)
        return v.reshape((len(v), self.dim) if v.ndim == 3 else (self.dim,))

    def _point(self, v):
        """The projection of a flat point or of each row of a (k, dim) stack."""
        if self.normals is None:
            return self._box_disk(v)[0]
        return self._search(v.reshape(v.shape[:-1] + self.shape)).reshape(v.shape)

    def _box_disk(self, v):
        """P(v) and the clamped point y, both in the shape of v (a point in
        self.shape or a stack of them), and y's capped slots
        (DiskPairs.capped, None without disks): one evaluation of P."""
        y = self.box.project(v).reshape(v.shape)
        if self.disks is None:
            return y, y, None
        u = y.reshape(self._slots if v.ndim > len(self.shape) else self.disks.shape)
        found = self.disks.capped(u)
        x = y if found is None else self.disks.scaled(u, found).reshape(v.shape)
        return x, y, found

    def _slope(self, y, found):
        """a_i . J a_i = -g_i', J the Jacobian of P where the box clamps to y and
        found = capped(y): the free mask, then (r/|u|)(I - u u^T/|u|^2) on slots
        u of y beyond radius r."""
        ja = self.normals * ((self._lower < y) & (y < self._upper))
        if found is not None:   # (..., T, 2) views of y and ja; capped slots
            norm, cap = found
            view = self._slots if y.ndim > 2 else self.disks.shape
            u, w = (np.moveaxis(b.reshape(view), -2, -1) for b in (y, ja))
            y_hat, wc = u[cap] / norm[cap, None], w[cap]
            w[cap] = (self.disks.radius / norm)[cap, None] * (
                wc - y_hat * (y_hat * wc).sum(axis=1, keepdims=True))
        return np.einsum("im,...im->...i", self.normals, ja)

    # a flat g divides by zero; as a decorator the scope costs about half
    # of a with block per call, and every projection and residual enters it
    @np.errstate(invalid="ignore", divide="ignore")
    def _search(self, v):
        a = self.normals
        # lam = 0 first: P(v) is the projection when every gap passes
        x, y, found = self._box_disk(v)
        gap = np.einsum("im,...im->...i", a, x) - self.levels
        # a nan gap (non-finite input) ends too: the caller sees the nan
        todo = np.abs(gap) > self._tol
        if not todo.any():
            return x
        out, lam, hi = x, np.zeros(gap.shape), np.full(gap.shape, np.inf)
        lo = -hi
        for k in range(_SEARCH_MAX_EVALS):
            np.copyto(lo, lam, where=gap > 0.0)
            np.copyto(hi, lam, where=gap < 0.0)
            slope = self._slope(y, found)
            trial, collapsed = lam + gap / slope, None
            inside = (trial > lo) & (trial < hi)
            if not inside.all():
                # g moves at most |a|^2 per unit of lam, so with no slope an
                # open bracket steps 2^k times the least distance to the root
                closed = np.isfinite(lo) & np.isfinite(hi)
                trial = np.where(inside, trial, np.where(
                    closed, 0.5 * (lo + hi), lam + 2.0 ** k * gap / self._aa))
                # no float strictly inside the bracket: the root is found
                collapsed = closed & ~((trial > lo) & (trial < hi))
                if not np.isfinite(trial[todo]).all():
                    break
            if k + 1 == _SEARCH_MAX_EVALS:
                break   # no evaluation left for the trial
            np.copyto(lam, trial, where=todo)
            x, y, found = self._box_disk(v - lam[..., None] * a)
            gap = np.einsum("im,...im->...i", a, x) - self.levels
            # open rows take x; those still open take a later one
            np.copyto(out, x, where=todo[..., None])
            miss = np.abs(gap) > self._tol
            todo &= miss if collapsed is None else miss & ~collapsed
            if not todo.any():
                return out
        # an open bracket where g is flat has no root ahead of it; any
        # other open or closed bracket just ran out of evaluations
        if np.any(todo & ~(np.isfinite(lo) & np.isfinite(hi)) & (slope == 0.0)):
            raise InfeasibleSpec("a hyperplane misses the box-and-disk set")
        raise MaxSweepsExceeded("multiplier search did not converge")


def _charger_specs(plugged, target_energy, s_max):
    """The checks of one charger, or of N stacked chargers, without their
    projector: a positive horizon and s_max, a target >= 0 (nan fails) and
    within the cap s_max * #plugged.  Returns the (N, T) boolean mask and
    the (N,) targets, s_max values and caps."""
    plugged = np.atleast_2d(np.asarray(plugged).astype(bool))
    n_agents, horizon = plugged.shape
    target, s_max = (np.broadcast_to(np.asarray(a, dtype=float), (n_agents,))
                     for a in (target_energy, s_max))
    if horizon == 0 or not np.all(target >= 0) or not np.all(s_max > 0):
        raise ValueError("need a positive horizon and s_max, a target >= 0")
    cap = s_max * plugged.sum(axis=1)
    if np.any(cap < target):
        k = np.argmax(cap < target)
        raise InfeasibleSpec(f"energy target {target[k]:.3f} exceeds cap "
                             f"{s_max[k]:.3f} x {plugged[k].sum()} plugged slots")
    return plugged, target, s_max, cap


def build_ev_projector(plugged, target_energy, s_max):
    """Feasible-set projector of one charger, or of N stacked chargers.

    A charger's decision vector over T slots is col(p, q) of active and
    reactive power.  It draws only while plugged (p <= 0 there, p = 0
    elsewhere), its plugged draws sum to -target_energy, and every slot
    keeps p^2 + q^2 <= s_max^2 (q stays free on unplugged slots: the
    converter supports the grid with no vehicle present).  ``plugged``
    is a (T,) or (N, T) mask, with a target and a cap per charger (or
    one shared cap).  A zero target fixes every plugged p to 0, leaving q
    free within the disk; one at the cap s_max * #plugged fixes every
    plugged (p, q) to (-s_max, 0).  The box then states it and the
    charger needs no hyperplane.

    Raises ``InfeasibleSpec`` when the cap makes the energy target
    unreachable (s_max * #plugged < target_energy).
    """
    plugged, target, s_max, cap = _charger_specs(plugged, target_energy, s_max)
    charging = plugged & ((target > 0) & (target < cap))[:, None]
    pinned = plugged & ((target > 0) & (target == cap))[:, None]
    full = np.where(pinned, -s_max[:, None], 0.0)
    lower = np.hstack([np.where(charging, -np.inf, full),
                       np.where(pinned, 0.0, -np.inf)])
    upper = np.hstack([full, np.where(pinned, 0.0, np.inf)])
    disks = DiskPairs(np.where(pinned, np.inf, s_max[:, None]))  # pinned: no cap
    return FeasibleSetProjector(
        Box(lower, upper), disks, np.hstack([charging, 0.0 * charging]),
        np.where(charging.any(axis=1), -target, 0.0))

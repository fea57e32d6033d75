"""Euclidean projections onto the convex sets used by the solvers.

Primitive sets (boxes, hyperplanes, halfspaces, per-slot disk caps) have
closed-form projections.  Intersections of primitives are handled by
Dykstra's alternating projection scheme, which keeps one correction term
per member set and converges to the exact projection onto the
intersection.  The charger feasible set -- an energy-target hyperplane, a
sign/availability box and per-slot apparent-power disks -- is assembled
from these pieces.
"""

import numpy as np

from .errors import EmptyIntersectionSuspected, InfeasibleSpec, MaxSweepsExceeded

DEFAULT_DYKSTRA_TOL = 1e-10
DEFAULT_MAX_SWEEPS = 5000

# membership residual above which a stalled Dykstra run is treated as
# evidence that the member sets have no common point
_EMPTY_SUSPECT_RESIDUAL = 1e-3


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
        v = _as_vector(v, self.dim)
        return np.minimum(np.maximum(v, self.lower), self.upper)


class Hyperplane(ConvexSet):
    """Affine hyperplane {v : a.v = b}."""

    def __init__(self, a, b):
        a = np.asarray(a, dtype=float).reshape(-1)
        if not np.any(a != 0.0):
            raise ValueError("hyperplane normal must be nonzero")
        self.a = a
        self.b = float(b)
        self.dim = a.size
        self._aa = float(a @ a)

    def project(self, v):
        v = _as_vector(v, self.dim)
        return v - self.a * ((self.a @ v - self.b) / self._aa)


class Halfspace(ConvexSet):
    """Halfspace {v : a.v <= b}."""

    def __init__(self, a, b):
        a = np.asarray(a, dtype=float).reshape(-1)
        if not np.any(a != 0.0):
            raise ValueError("halfspace normal must be nonzero")
        self.a = a
        self.b = float(b)
        self.dim = a.size
        self._aa = float(a @ a)

    def project(self, v):
        v = _as_vector(v, self.dim)
        gap = self.a @ v - self.b
        if gap <= 0.0:
            return v.copy()
        return v - self.a * (gap / self._aa)


class DiskPairs(ConvexSet):
    """Per-pair Euclidean norm caps: for each index pair (i, j) the point
    (v[i], v[j]) must lie in the disk of the given radius.

    Pairs must be disjoint, so the projection factorizes into independent
    radial scalings of the violating pairs.
    """

    def __init__(self, dim, pairs, radius):
        pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= dim):
            raise ValueError("pair indices out of range")
        flat = pairs.reshape(-1)
        if np.unique(flat).size != flat.size:
            raise ValueError("disk pairs must not share coordinates")
        if not radius > 0:
            raise ValueError("radius must be positive")
        self.dim = dim
        self.pairs = pairs
        self.radius = float(radius)

    def project(self, v):
        v = _as_vector(v, self.dim).copy()
        if self.pairs.size == 0:
            return v
        idx_a = self.pairs[:, 0]
        idx_b = self.pairs[:, 1]
        norms = np.hypot(v[idx_a], v[idx_b])
        bad = norms > self.radius
        if np.any(bad):
            scale = self.radius / norms[bad]
            v[idx_a[bad]] *= scale
            v[idx_b[bad]] *= scale
        return v


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

    Raises ``EmptyIntersectionSuspected`` when the sweep budget runs out
    with the iterate still far (residual > 1e-3) from joint membership,
    and ``MaxSweepsExceeded`` (carrying the best iterate and its
    residual) when the budget runs out near membership but without the
    fixed-point certificate.
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
    if resid > _EMPTY_SUSPECT_RESIDUAL:
        raise EmptyIntersectionSuspected(
            f"no joint point within {max_sweeps} sweeps; "
            f"membership residual {resid:.3e}", residual=resid)
    raise MaxSweepsExceeded(
        f"no convergence within {max_sweeps} sweeps",
        best=x, residual=resid, sweeps=max_sweeps)


class FeasibleSetProjector:
    """Callable projector onto a convex set with pinned tolerances."""

    def __init__(self, set_, dykstra_tol=DEFAULT_DYKSTRA_TOL,
                 max_sweeps=DEFAULT_MAX_SWEEPS):
        self.set = set_
        self.dykstra_tol = dykstra_tol
        self.max_sweeps = max_sweeps

    @property
    def dim(self):
        return self.set.dim

    def __call__(self, v):
        if isinstance(self.set, Intersection):
            return project_dykstra(self.set, v, tol=self.dykstra_tol,
                                   max_sweeps=self.max_sweeps)
        return self.set.project(v)

    def membership_residual(self, v):
        return self.set.membership_residual(v)


def identity_projector(dim):
    """Projector onto all of R^dim (unconstrained agents)."""
    full = np.full(dim, np.inf)
    return FeasibleSetProjector(Box(-full, full))


def box_projector(lower, upper):
    return FeasibleSetProjector(Box(lower, upper))


def build_ev_projector(plugged, target_energy, s_max, reactive_always_on=True,
                       dykstra_tol=DEFAULT_DYKSTRA_TOL, max_sweeps=DEFAULT_MAX_SWEEPS):
    """Feasible-set projector for one charger over a horizon of T slots.

    The decision vector is col(p, q) of active and reactive power, one
    entry per slot.  Constraints:

    * total active energy over plugged slots equals the (sign-flipped)
      charging target: sum of p over plugged slots = -target_energy,
      with p <= 0 while plugged (drawing power) and p = 0 otherwise;
    * per-slot apparent power cap: p^2 + q^2 <= s_max^2.

    Reactive power stays free on unplugged slots by default (the
    converter can provide support with no vehicle present); pass
    ``reactive_always_on=False`` to force q = 0 there instead.

    Raises ``InfeasibleSpec`` when the cap makes the energy target
    unreachable (s_max * #plugged < target_energy).
    """
    plugged = np.asarray(plugged).astype(bool).reshape(-1)
    horizon = plugged.size
    if horizon == 0:
        raise ValueError("horizon must be positive")
    target_energy = float(target_energy)
    if target_energy < 0:
        raise ValueError("target energy must be nonnegative")
    s_max = float(s_max)
    if not s_max > 0:
        raise ValueError("s_max must be positive")
    n_plugged = int(plugged.sum())
    if s_max * n_plugged < target_energy:
        raise InfeasibleSpec(
            f"energy target {target_energy:.3f} exceeds cap "
            f"{s_max:.3f} x {n_plugged} plugged slots")

    dim = 2 * horizon
    members = []
    if n_plugged > 0:
        normal = np.concatenate([plugged.astype(float), np.zeros(horizon)])
        members.append(Hyperplane(normal, -target_energy))
    lower = np.full(dim, -np.inf)
    upper = np.full(dim, np.inf)
    upper[:horizon] = 0.0                      # p <= 0 everywhere
    lower[:horizon][~plugged] = 0.0            # p = 0 when unplugged
    if not reactive_always_on:
        lower[horizon:][~plugged] = 0.0
        upper[horizon:][~plugged] = 0.0
    members.append(Box(lower, upper))
    pairs = np.column_stack([np.arange(horizon), horizon + np.arange(horizon)])
    members.append(DiskPairs(dim, pairs, s_max))
    set_ = Intersection(members, certify=True, dykstra_tol=dykstra_tol,
                        max_sweeps=max_sweeps)
    return FeasibleSetProjector(set_, dykstra_tol=dykstra_tol, max_sweeps=max_sweeps)

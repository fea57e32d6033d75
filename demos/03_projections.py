"""Exact projections, and the vehicle feasible set they compose into.

Every convergence guarantee in this package leans on projections being
exact: clamp to a box, reflect onto a hyperplane, rescale a violating
disk pair.  Sets built from several primitives get projected by
Dykstra's alternating scheme, which (unlike plain alternating
projection) converges to the true nearest point of the intersection.

The closing example is the feasible set of one electric vehicle over a
day: charge only while plugged in, meet the energy target exactly, and
keep each hour's (active, reactive) power inside the inverter's disk.
The package projects onto it without Dykstra: clamp and disk scaling
are exact there, and the energy multiplier comes from a Newton root
search kept inside a bracket.  Dykstra on the same set, built from
primitives, agrees.
"""

import numpy as np

from trades.projections import (Box, DiskPairs, Halfspace, Hyperplane,
                                Intersection, build_ev_projector,
                                project_dykstra)

rng = np.random.default_rng(3)

# primitives have closed forms; two quick visual checks
box = Box([-1.0, -1.0], [1.0, 1.0])
print("box clamp:       ", box.project([2.5, -0.3]))
plane = Hyperplane([1.0, 1.0], 1.0)
print("hyperplane drop: ", plane.project([1.0, 1.0]))

# Dykstra on a composite set, against an answer we can verify by hand:
# the unit box cut by the half-plane x + y <= 0.  For (1, 1) the nearest
# point of the cut region is the origin (symmetry: distance to (t, -t)
# is minimized at t = 0), and Dykstra finds exactly that.
cut = Intersection([box, Halfspace([1.0, 1.0], 0.0)])
print("composite:       ", project_dykstra(cut, [1.0, 1.0]))

# nonexpansiveness in action: projections never spread points apart
v, w = rng.normal(size=2), rng.normal(size=2)
pv, pw = project_dykstra(cut, v), project_dykstra(cut, w)
print(f"|v-w| = {np.linalg.norm(v - w):.4f} >= "
      f"|Pv-Pw| = {np.linalg.norm(pv - pw):.4f}")

# -------------------------------------------------------------- vehicle

HORIZON = 24
plugged = np.zeros(HORIZON)
plugged[:7] = 1     # early morning
plugged[19:] = 1    # evening onward
target_kwh = 14.0   # energy the battery must absorb before departure
s_max = 7.0         # inverter apparent-power rating

proj = build_ev_projector(plugged, target_kwh, s_max)

# a nonsense request: charge hard at noon (unplugged), no reactive help
wish = np.zeros(2 * HORIZON)
wish[:HORIZON] = -3.0
feasible = proj(wish)
p, q = feasible[:HORIZON], feasible[HORIZON:]

print("\nvehicle schedule after projection (kW per hour):")
row = "".join(f"{val:6.2f}" for val in p)
print("  p:", row)
print(f"  charging happens only while plugged: "
      f"{np.allclose(p[plugged == 0], 0.0)}")
print(f"  energy target met: sum p = {p.sum():.3f} (target {-target_kwh})")
print(f"  worst hourly apparent power {np.hypot(p, q).max():.3f} "
      f"<= {s_max}")
print(f"  membership residual {proj.membership_residual(feasible):.2e}")

# projecting twice changes nothing; the output is already feasible
again = proj(feasible)
print(f"  idempotent to {np.max(np.abs(again - feasible)):.2e}")

# the same set as an intersection of primitives, projected by Dykstra
lower = np.concatenate([np.where(plugged > 0, -np.inf, 0.0),
                        np.full(HORIZON, -np.inf)])
upper = np.concatenate([np.zeros(HORIZON), np.full(HORIZON, np.inf)])
vehicle = Intersection([
    Hyperplane(np.concatenate([plugged, np.zeros(HORIZON)]), -target_kwh),
    Box(lower, upper), DiskPairs(np.full(HORIZON, s_max))])
reference = project_dykstra(vehicle, wish, tol=1e-13)
print(f"  distance to Dykstra's answer {np.linalg.norm(feasible - reference):.2e}")

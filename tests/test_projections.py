"""Projection primitives, Dykstra composition, and the charger feasible set."""

import numpy as np
import pytest

import oracles
from trades import projections
from trades.errors import EmptyIntersectionSuspected, InfeasibleSpec, MaxSweepsExceeded
from trades.projections import (
    Box,
    DiskPairs,
    FeasibleSetProjector,
    Halfspace,
    Hyperplane,
    Intersection,
    build_ev_projector,
    project_dykstra,
)


# ---------------------------------------------------------------- primitives


def test_box_clamps_componentwise():
    box = Box([0.0, 0.0], [1.0, 1.0])
    out = box.project([2.0, -1.0])
    assert np.array_equal(out, [1.0, 0.0])


def test_box_interior_point_untouched():
    box = Box([-1.0, -1.0], [1.0, 1.0])
    v = np.array([0.25, -0.75])
    assert np.array_equal(box.project(v), v)


def test_box_semi_infinite_bounds():
    box = Box([0.0, -np.inf], [np.inf, 0.0])
    out = box.project([-3.0, 5.0])
    assert np.array_equal(out, [0.0, 0.0])


def test_hyperplane_symmetric_halving():
    hp = Hyperplane([1.0, 1.0], 2.0)
    out = hp.project([3.0, 3.0])
    assert np.allclose(out, [1.0, 1.0], rtol=0, atol=1e-14)


def test_hyperplane_point_on_plane_fixed():
    # integer-valued points keep the residual exactly zero in floats
    hp = Hyperplane([1.0, 1.0], 2.0)
    v = np.array([7.0, -5.0])
    assert np.array_equal(hp.project(v), v)


def test_halfspace_untouched_when_satisfied():
    hs = Halfspace([1.0, 1.0], 2.0)
    v = np.array([0.5, 0.5])
    assert np.array_equal(hs.project(v), v)


def test_halfspace_projects_like_hyperplane_when_violated():
    hs = Halfspace([1.0, 1.0], 2.0)
    hp = Hyperplane([1.0, 1.0], 2.0)
    v = np.array([3.0, 3.0])
    assert np.allclose(hs.project(v), hp.project(v), rtol=0, atol=1e-14)


def test_disk_pairs_radial_scaling():
    # one slot pairs (v[0], v[1]); (3,4) has norm 5, cap 1 scales by 1/5
    disks = DiskPairs([1.0])
    out = disks.project([3.0, 4.0])
    assert np.allclose(out, [0.6, 0.8], rtol=0, atol=1e-14)


def test_disk_pairs_only_violating_pair_moves():
    # the (2, 2) view pairs slot 0 as (v[0], v[2]) and slot 1 as (v[1], v[3])
    disks = DiskPairs([1.0, 1.0])
    v = np.array([3.0, 0.1, 4.0, 0.2])
    out = disks.project(v)
    assert np.allclose(out[[0, 2]], [0.6, 0.8], rtol=0, atol=1e-14)
    assert out[1] == 0.1 and out[3] == 0.2


def test_disk_pairs_radius_per_pair():
    disks = DiskPairs([1.0, 10.0])
    out = disks.project([3.0, 3.0, 4.0, 4.0])
    assert np.allclose(out, [0.6, 3.0, 0.8, 4.0], rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        DiskPairs([1.0, -1.0])


def test_disk_pairs_stacked_slots_and_infinite_radius():
    # radius (2, 3): agent i's six coordinates are (p_0..p_2, q_0..q_2), and
    # an infinite radius leaves its slot alone however far out it lies
    disks = DiskPairs([[1.0, np.inf, 2.0], [np.inf, 5.0, 5.0]])
    assert disks.dim == 12 and disks.shape == (2, 2, 3)
    v = np.array([3.0, 30.0, 0.0, 4.0, 40.0, -4.0,
                  1e300, 3.0, 0.5, 1e300, 4.0, 0.5])
    out = disks.project(v)
    assert np.allclose(out, [0.6, 30.0, 0.0, 0.8, 40.0, -2.0,
                             1e300, 3.0, 0.5, 1e300, 4.0, 0.5], rtol=1e-15, atol=0)


def test_disk_pairs_scale_a_slot_whose_square_is_subnormal():
    # just outside its radius, yet its rounded squared norm falls below the
    # rounded squared radius: only the norm itself shows the slot is out
    radius = 9.761367969137454e-160
    v = np.array([-9.697127255508606e-160, -1.1181322240746543e-160])
    assert np.hypot(*v) > radius and v @ v < radius * radius
    out = DiskPairs([radius]).project(v)
    assert np.array_equal(out, oracles.disk_slots_projection([radius], v))
    assert not np.array_equal(out, v)


def test_primitive_constructor_validation():
    with pytest.raises(ValueError):
        Box([1.0], [0.0])
    with pytest.raises(ValueError):
        Hyperplane([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        Halfspace([0.0], 1.0)
    with pytest.raises(ValueError):
        DiskPairs([0.0])
    with pytest.raises(ValueError):
        DiskPairs([np.nan])
    with pytest.raises(ValueError):
        DiskPairs(1.0)      # no slot axis


def test_dimension_mismatch_rejected():
    box = Box([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        box.project([1.0, 2.0, 3.0])


# ------------------------------------------------------------------- Dykstra


def test_dykstra_box_halfspace_corner():
    """Box [0,2]^2 with x+y<=1 pulls (2,2) to the midpoint of the edge."""
    inter = Intersection([Box([0.0, 0.0], [2.0, 2.0]), Halfspace([1.0, 1.0], 1.0)])
    out = project_dykstra(inter, [2.0, 2.0])
    assert np.allclose(out, [0.5, 0.5], rtol=0, atol=1e-8)
    # cross-check against the dense active-set oracle
    ineq = oracles.box_constraints([0.0, 0.0], [2.0, 2.0])
    ineq.append((np.array([1.0, 1.0]), 1.0))
    ref = oracles.projection_qp_oracle(np.array([2.0, 2.0]), [], ineq)
    assert np.allclose(out, ref, rtol=0, atol=1e-6)


def test_singleton_intersection_matches_primitive():
    box = Box([-1.0, 0.0], [1.0, 3.0])
    inter = Intersection([box])
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = rng.normal(scale=4.0, size=2)
        assert np.allclose(project_dykstra(inter, v), box.project(v),
                           rtol=0, atol=1e-10)


def test_dykstra_matches_qp_oracle_random_instances():
    """Random 2-4 dim box/halfspace/hyperplane intersections vs brute force."""
    rng = np.random.default_rng(1234)
    for trial in range(100):
        dim = int(rng.integers(2, 5))
        anchor = rng.normal(size=dim)
        lower = anchor - rng.uniform(0.3, 2.0, size=dim)
        upper = anchor + rng.uniform(0.3, 2.0, size=dim)
        members = [Box(lower, upper)]
        eqs = []
        ineqs = oracles.box_constraints(lower, upper)
        for _ in range(int(rng.integers(1, 3))):
            a = rng.normal(size=dim)
            b = float(a @ anchor + rng.uniform(0.1, 1.0))
            members.append(Halfspace(a, b))
            ineqs.append((a, b))
        if trial % 3 == 0:
            a = rng.normal(size=dim)
            b = float(a @ anchor)
            members.append(Hyperplane(a, b))
            eqs.append((a, b))
        inter = Intersection(members)
        v = anchor + rng.normal(scale=3.0, size=dim)
        got = project_dykstra(inter, v)
        ref = oracles.projection_qp_oracle(v, eqs, ineqs)
        assert np.linalg.norm(got - ref) <= 1e-6, f"trial {trial}"


def test_dykstra_requires_intersection():
    with pytest.raises(ValueError):
        project_dykstra(Box([0.0], [1.0]), [2.0])


def test_nested_intersections_rejected():
    inner = Intersection([Box([0.0], [1.0])])
    with pytest.raises(ValueError):
        Intersection([inner])


def test_intersection_dim_consistency():
    with pytest.raises(ValueError):
        Intersection([Box([0.0], [1.0]), Box([0.0, 0.0], [1.0, 1.0])])


def test_max_sweeps_carries_best_iterate():
    inter = Intersection([Box([0.0, 0.0], [2.0, 2.0]), Halfspace([1.0, 1.0], 1.0)])
    with pytest.raises(MaxSweepsExceeded) as info:
        project_dykstra(inter, [2.0, 2.0], max_sweeps=1)
    err = info.value
    assert err.iterations == 1
    assert err.best.shape == (2,)
    assert np.all(np.isfinite(err.best))
    assert err.residual >= 0.0


def test_disjoint_sets_flagged_during_projection():
    # [0,1] and [2,3] share no point; the iterate settles far from both,
    # and the spent budget says so through the residual it carries (thin
    # non-empty sets stall too, so the projection alone claims no emptiness)
    inter = Intersection([Box([0.0], [1.0]), Box([2.0], [3.0])], certify=False)
    with pytest.raises(MaxSweepsExceeded) as info:
        project_dykstra(inter, [1.5])
    assert info.value.residual > 0.5


def test_a_spent_budget_on_a_nonempty_set_is_not_called_empty():
    # the box and the line x + y = 1 meet (the certificate passes), yet one
    # sweep from (10, -10) ends 0.5 from the box: out of sweeps, not empty
    inter = Intersection([Box([0.0, 0.0], [2.0, 2.0]), Hyperplane([1.0, 1.0], 1.0)])
    with pytest.raises(MaxSweepsExceeded) as info:
        project_dykstra(inter, [10.0, -10.0], max_sweeps=1)
    assert info.value.residual == 0.5
    assert np.array_equal(info.value.best, [1.5, -0.5])


def test_disjoint_sets_flagged_at_construction():
    with pytest.raises(EmptyIntersectionSuspected):
        Intersection([Box([0.0], [1.0]), Box([2.0], [3.0])])


# ------------------------------------------------------- projector wrappers


def test_projector_wrapper_dispatch():
    box = Box([0.0, 0.0], [1.0, 1.0])
    proj = FeasibleSetProjector(box)
    assert proj.dim == 2
    assert np.array_equal(proj([2.0, -1.0]), [1.0, 0.0])
    assert proj.membership_residual([0.5, 0.5]) == 0.0


# ----------------------------------------------------------- charger EV set


def test_ev_symmetric_split_from_origin():
    """Two plugged slots, 3 kWh target: each slot takes half the draw."""
    proj = build_ev_projector([1, 1], 3.0, 4.0)
    out = proj(np.zeros(4))
    assert np.allclose(out, [-1.5, -1.5, 0.0, 0.0], rtol=0, atol=1e-9)
    kkt = oracles.ev_kkt_residual(np.zeros(4), out, [1, 1], 4.0)
    assert kkt <= 1e-6


def test_ev_equality_pins_single_slot():
    proj = build_ev_projector([1], 2.0, 3.0)
    out = proj(np.array([-5.0, 0.0]))
    assert np.allclose(out, [-2.0, 0.0], rtol=0, atol=1e-9)


def test_ev_zero_target_keeps_origin():
    proj = build_ev_projector([1, 1, 1], 0.0, 7.0)
    out = proj(np.zeros(6))
    assert np.array_equal(out, np.zeros(6))


def test_ev_zero_target_pins_p_and_leaves_q_in_the_disk():
    # the vector is (p_0, p_1, q_0, q_1): the plugged slot 0 gets p = 0 and
    # keeps its q inside the disk (scaled onto it from outside), like the
    # unplugged slot 1, where p is 0 anyway
    proj = build_ev_projector([True, False], 0.0, 1.0)
    out = proj(np.array([0.5, 0.3, 0.7, -0.2]))
    assert np.array_equal(out, [0.0, 0.0, 0.7, -0.2])
    assert np.array_equal(proj(np.array([-0.5, 3.0, 2.0, -0.8])),
                          [0.0, 0.0, 1.0, -0.8])


def test_ev_infeasible_target_rejected():
    with pytest.raises(InfeasibleSpec):
        build_ev_projector([1, 0], 5.0, 3.0)


def test_ev_unplugged_slots_pinned():
    rng = np.random.default_rng(42)
    plugged = np.array([1, 0, 1, 0, 1, 1])
    proj = build_ev_projector(plugged, 6.0, 7.0)
    for _ in range(5):
        out = proj(rng.normal(scale=5.0, size=12))
        p, q = out[:6], out[6:]
        assert np.all(np.abs(p[plugged == 0]) <= 1e-8)
        assert np.all(p <= 1e-8)
        assert abs(p[plugged == 1].sum() + 6.0) <= 1e-8
        assert np.all(np.hypot(p, q) <= 7.0 + 1e-8)


def test_ev_reactive_support_modes():
    plugged = np.array([1, 0])
    v = np.array([0.0, 0.0, 0.0, 5.0])  # asks for reactive power on the empty slot
    free_q = build_ev_projector(plugged, 1.0, 7.0)(v)
    assert free_q[3] > 1.0  # inverter keeps supporting without a vehicle


def test_ev_random_day_membership_and_kkt():
    """Full-day horizon: membership residuals and QP stationarity."""
    rng = np.random.default_rng(2024)
    for trial in range(10):
        plugged = rng.random(24) < 0.6
        if not plugged.any():
            plugged[0] = True
        s_max = 7.0
        target = float(rng.uniform(0.0, 0.8 * s_max * plugged.sum()))
        proj = build_ev_projector(plugged, target, s_max)
        v = rng.normal(scale=4.0, size=48)
        out = proj(v)
        assert proj.membership_residual(out) <= 1e-8, f"trial {trial}"
        kkt = oracles.ev_kkt_residual(v, out, plugged, s_max)
        assert kkt <= 1e-6, f"trial {trial}"


def test_ev_projector_output_always_near_member():
    # membership measured constraint by constraint, not by the projector
    rng = np.random.default_rng(5)
    proj = build_ev_projector([1, 1, 0, 1], 4.0, 7.0)
    reference = oracles.ev_reference_set([1, 1, 0, 1], 4.0, 7.0)
    for _ in range(10):
        out = proj(rng.normal(scale=10.0, size=8))
        assert reference.membership_residual(out) <= 1e-9


def test_ev_target_at_cap_is_the_full_draw_point():
    """Target = s_max x #plugged leaves each plugged slot one point."""
    plugged = np.array([1, 0, 1])
    proj = build_ev_projector(plugged, 2 * 4.0, 4.0)
    v = np.array([1.0, 2.0, -3.0, 5.0, 9.0, -1.0])
    out = proj(v)
    assert np.array_equal(out[[0, 2, 3, 5]], [-4.0, -4.0, 0.0, 0.0])
    # the unplugged slot keeps p = 0 and scales q onto its disk
    assert out[1] == 0.0 and abs(out[4] - 4.0) <= 1e-15
    assert np.array_equal(proj(out), out)


def test_ev_charger_without_plugged_slot():
    proj = build_ev_projector([0, 0, 0], 0.0, 5.0)
    out = proj(np.array([-2.0, 1.0, 3.0, 1.0, -7.0, 2.0]))
    assert np.array_equal(out[:3], np.zeros(3))
    assert np.allclose(out[3:], [1.0, -5.0, 2.0], rtol=0, atol=1e-15)
    with pytest.raises(InfeasibleSpec):
        build_ev_projector([0, 0], 1.0, 5.0)


def test_ev_stacked_chargers_keep_their_own_caps():
    plugged = np.array([[1, 1, 0, 1], [1, 0, 1, 1], [0, 1, 1, 0]])
    targets, caps = [4.0, 9.0, 0.0], [7.0, 3.5, 2.0]
    proj = build_ev_projector(plugged, targets, caps)
    assert proj.shape == (3, 8)
    rng = np.random.default_rng(12)
    for _ in range(10):
        v = rng.normal(scale=6.0, size=(3, 8))
        out = proj(v)
        for i in range(3):
            ref = project_dykstra(
                oracles.ev_reference_set(plugged[i], targets[i], caps[i]),
                v[i], tol=1e-13, max_sweeps=100000)
            assert np.linalg.norm(out[i] - ref) <= 1e-8
            assert oracles.ev_kkt_residual(v[i], out[i], plugged[i],
                                           caps[i]) <= 1e-6
            assert np.all(np.hypot(out[i, :4], out[i, 4:]) <= caps[i] + 1e-12)


def test_single_charger_call_matches_its_stacked_row():
    rng = np.random.default_rng(13)
    plugged = rng.random((5, 24)) < 0.6
    plugged[:, 0] = True
    caps = np.array([7.0, 7.0, 5.0, 6.0, 3.0])
    targets = caps * plugged.sum(axis=1) * np.array([0.0, 1.0, 0.3, 0.7, 0.95])
    stacked = build_ev_projector(plugged, targets, caps)
    v = rng.normal(scale=6.0, size=(5, 48))
    out = stacked(v)
    assert np.array_equal(stacked(v.reshape(-1)), out.reshape(-1))
    for i in range(5):
        single = build_ev_projector(plugged[i], targets[i], caps[i])
        assert np.array_equal(single(v[i]), out[i])


def test_charger_search_evaluation_count_is_pinned(monkeypatch):
    # one Box.project call per evaluation of the multiplier search; the
    # counts were recorded when the disks were index pairs, and neither the
    # slot layout nor the leaner loop changes the arithmetic, so a change in
    # any count is a change in the Newton path
    calls = []
    project = Box.project
    monkeypatch.setattr(Box, "project",
                        lambda self, v: calls.append(1) or project(self, v))
    rng = np.random.default_rng(31)
    plugged = rng.random((6, 24)) < 0.6
    plugged[:, 0] = True
    caps = np.array([7.0, 7.0, 5.0, 6.0, 3.0, 4.0])
    fill = np.array([0.0, 1.0, 0.3, 0.7, 0.95, 0.5])
    proj = build_ev_projector(plugged, caps * plugged.sum(axis=1) * fill, caps)
    counts = []
    for scale in (0.5, 2.0, 6.0, 20.0):
        for _ in range(5):
            v = rng.normal(scale=scale, size=(6, 48))
            before = len(calls)
            proj(v)
            counts.append(len(calls) - before)
    assert counts == [7, 7, 6, 7, 8, 7, 7, 9, 7, 7, 7, 9, 7, 7, 10, 9, 8, 9, 8, 8]


def test_non_finite_input_passes_through():
    # the run loop, not the projector, reports a diverged iterate
    out = build_ev_projector([1, 1], 3.0, 4.0)(np.full(4, np.nan))
    assert np.all(np.isnan(out))


def test_hyperplane_outside_the_set_raises():
    # p <= 0 on two slots of radius 1: the sums +1 and -3 are out of reach
    box = Box([-np.inf] * 4, [0.0, 0.0, np.inf, np.inf])
    disks = DiskPairs([1.0, 1.0])
    for level in (1.0, -3.0):
        proj = FeasibleSetProjector(box, disks, [1.0, 1.0, 0.0, 0.0], level)
        with pytest.raises(InfeasibleSpec):
            proj(np.zeros(4))


@pytest.mark.parametrize("budget", [1, 2, 3])
def test_multiplier_search_out_of_budget_raises(monkeypatch, budget):
    # this point needs five evaluations, and the second one closes the
    # bracket, so a smaller budget ends in a bracket that never shrank
    # to the root; one evaluation leaves it open on a slope, which is
    # a spent budget, not a missed hyperplane
    proj = build_ev_projector([1, 1, 1, 0], 5.0, 4.0)
    v = np.array([3.0, -1.0, 2.0, 5.0, 1.0, -2.0, 0.5, 3.0])
    reference = proj(v)
    monkeypatch.setattr(projections, "_SEARCH_MAX_EVALS", budget)
    with pytest.raises(MaxSweepsExceeded):
        proj(v)
    monkeypatch.setattr(projections, "_SEARCH_MAX_EVALS", 5)
    assert np.array_equal(proj(v), reference)


def test_disk_pairs_need_cone_bounds_in_the_box():
    # a bound of -1 on a capped slot would make box-then-disk inexact
    with pytest.raises(ValueError):
        FeasibleSetProjector(Box([-1.0, -np.inf], [0.0, np.inf]),
                             DiskPairs([1.0]))
    with pytest.raises(ValueError):
        FeasibleSetProjector(Box([0.0, -np.inf, -np.inf, -np.inf],
                                 [0.0, np.inf, np.inf, 2.0]),
                             DiskPairs([[np.inf, 1.0]]))
    # an uncapped (pinned) slot takes any bounds, and a capped slot beside
    # it the bounds 0 and infinity
    box = Box([-1.0, -np.inf, 0.5, 0.0], [3.0, 0.0, 0.5, np.inf])
    proj = FeasibleSetProjector(box, DiskPairs([[np.inf, 1.0]]))
    out = proj(np.array([5.0, -3.0, 0.0, 4.0]))
    assert np.allclose(out, [3.0, -0.6, 0.5, 0.8], rtol=0, atol=1e-15)


# ------------------------------------------------------- shared properties


def _projection_zoo():
    """(projection callable, dim) pairs covering every set variant.

    Intersections run Dykstra at 1e-12 so the composite projection is
    resolved well below the 1e-10 property tolerances being checked.
    """
    ev = build_ev_projector([1, 1, 0, 1], 5.0, 6.0)
    corner = Intersection([Box([0.0, 0.0], [2.0, 2.0]), Halfspace([1.0, 1.0], 1.0)])
    return [
        (Box([-1.0, 0.0, -np.inf], [1.0, 2.0, 0.5]).project, 3),
        (Hyperplane([1.0, -2.0, 0.5], 1.5).project, 3),
        (Halfspace([1.0, 1.0], 1.0).project, 2),
        (DiskPairs([2.0, 2.0]).project, 4),
        (lambda v: project_dykstra(corner, v, tol=1e-12), 2),
        (ev, 8),
    ]


def test_idempotence_on_random_points():
    rng = np.random.default_rng(99)
    for proj, dim in _projection_zoo():
        for _ in range(200):
            v = rng.normal(scale=3.0, size=dim)
            once = proj(v)
            twice = proj(once)
            assert np.linalg.norm(twice - once) <= 1e-10


def test_nonexpansiveness_on_random_pairs():
    rng = np.random.default_rng(100)
    for proj, dim in _projection_zoo():
        for _ in range(200):
            u = rng.normal(scale=3.0, size=dim)
            v = rng.normal(scale=3.0, size=dim)
            lhs = np.linalg.norm(proj(u) - proj(v))
            assert lhs <= np.linalg.norm(u - v) + 1e-10


def test_feasible_points_are_fixed_points():
    rng = np.random.default_rng(101)
    box = Box([-1.0, -1.0], [1.0, 1.0])
    disks = DiskPairs([[2.0], [2.0]])     # slots (v[0], v[1]) and (v[2], v[3])
    for _ in range(50):
        vb = rng.uniform(-1.0, 1.0, size=2)
        assert np.array_equal(box.project(vb), vb)
        vd = rng.normal(size=4)
        vd *= 0.9 * 2.0 / max(np.hypot(vd[0], vd[1]), np.hypot(vd[2], vd[3]), 2.0)
        assert np.array_equal(disks.project(vd), vd)
    # exact feasibility for the intersection via rejection sampling
    inter = Intersection([Box([0.0, 0.0], [2.0, 2.0]), Halfspace([1.0, 1.0], 1.0)])
    kept = 0
    while kept < 50:
        v = rng.uniform(0.0, 2.0, size=2)
        if v.sum() > 1.0:
            continue
        kept += 1
        assert np.linalg.norm(project_dykstra(inter, v) - v) <= 1e-10


def test_intersection_membership_is_worst_member():
    inter = Intersection([Box([0.0, 0.0], [2.0, 2.0]), Halfspace([1.0, 1.0], 1.0)])
    v = np.array([3.0, 0.0])  # violates the box by 1, the halfspace by sqrt(2)
    expected = max(m.membership_residual(v) for m in inter.members)
    assert inter.membership_residual(v) == expected

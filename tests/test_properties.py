"""Property checks of the single update path and of the charger projection.

Each game example draws a quadratic aggregative game (2-6 agents,
strategy and aggregate dimensions 1-3) and a Metropolis-weighted random
graph, then runs at most a few hundred sweeps.  Together the two game
properties cover acceptance criteria 2, 4 and 8 beyond the hand-picked
instances; a third draws random Kronecker factors (N, p, q, T) and
checks the batched contractions against per-agent np.kron blocks.  On
small random affine, charger and potential games the reference solve
is checked bit for bit against its first form
(``oracles.reference_ne_oracle``); on potential games (a symmetric
factor A) its momentum is checked against the constant-momentum rate
bound and its answer against the natural-residual certificate,
and 50 consensus sweeps against the paper-literal loops of
``oracles.literal_run`` under both weight methods.  Each
charger example draws a horizon, a plug mask, a cap and an energy target
up to the cap, and checks the exact projection against Dykstra (or,
where Dykstra runs out of sweeps, by stationarity and membership) and for
idempotence and nonexpansiveness, and the slope of the multiplier search
against a central difference; the multiplier search is checked bit for
bit against its first form (``oracles.ReferenceSearch``) on charger
stacks and on steep hyperplanes whose brackets close; disk caps of
random shape and radius are checked against a per-slot scaling loop,
and the membership residual of charger stacks and boxes against the
distance to the projection, its block form and the projection of a
stack row by row; the disk pre-screen is checked to leave the capped
slots as they are without it, and the fit's contraction ratio against
np.median bit for bit.  Drawn trace rows, special floats included, are
checked to come back from the recorder bit for bit, and the recorder's
blocks of rows against its per-row pass on small games and overflowing
runs; runs at stepsizes from 1e-3 to 1e3 are checked to stop at their
first sweep with a non-finite step norm or tracker sum, with every
recorded row finite.  The config examples draw a value for one bounded
or multiple-choice key of the config's key table, in range or out of
it, and check the parse.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from trades import algorithm, games
from trades.algorithm import (TRACE_COLUMNS, TradesConfig, _Recorder,
                              fit_convergence, reduced_system_run, run)
from trades.config import _KEYS, canonical_text, parse_config
from trades.errors import ConfigError, MaxIterExceeded, MaxSweepsExceeded
from trades.games import (GameDefinition, local_operator, phi_stack,
                          pseudo_gradient, quadratic_aggregative_game,
                          random_strongly_monotone_game, solve_ne_oracle)
from trades.grid import (EvFleet, build_radial_network,
                         build_voltage_game, default_voltage_config,
                         distflow_sensitivities, gen_baseline_profile,
                         gen_prices)
from trades.network import gen_digraph, make_doubly_stochastic
from trades.projections import (Box, ConvexSet, DiskPairs,
                                FeasibleSetProjector, build_ev_projector,
                                project_dykstra)

instances = st.fixed_dictionaries({
    "n_agents": st.integers(2, 6),
    "strategy_dim": st.integers(1, 3),
    "agg_dim": st.integers(1, 3),
    "edge_prob": st.floats(0.0, 1.0),
    "seed": st.integers(0, 2 ** 16),
    "gamma": st.floats(0.005, 0.1),
    "delta": st.floats(0.1, 1.0),
    "steps": st.integers(1, 300),
})


def _build(inst):
    game = random_strongly_monotone_game(
        inst["n_agents"], inst["strategy_dim"], inst["agg_dim"],
        seed=inst["seed"])
    graph = make_doubly_stochastic(
        gen_digraph(inst["n_agents"], inst["edge_prob"], inst["seed"]))
    cfg = TradesConfig(gamma=inst["gamma"], delta=inst["delta"],
                       stop_tol=1e-12, max_iter=inst["steps"])
    return game, graph, cfg


@settings(max_examples=50, deadline=None)
@given(instances)
def test_exact_tracker_run_reproduces_reduced_system(inst):
    game, graph, cfg = _build(inst)
    x0 = inst["seed"] + 1
    _, trace, _ = run(game, graph, cfg._replace(tracker="exact"),
                      x0=x0, keep_iterates=True)
    trajectory = reduced_system_run(game, cfg, x0)
    assert trace.iterates.shape == trajectory.shape
    assert np.array_equal(trace.iterates, trajectory)


@settings(max_examples=50, deadline=None)
@given(instances)
def test_consensus_run_keeps_tracker_mean_and_feasibility(inst):
    game, graph, cfg = _build(inst)
    _, trace, _ = run(game, graph, cfg, x0=inst["seed"] + 1)
    assert np.max(trace.z_mean_residual) <= 1e-10
    assert np.max(trace.feas_residual) <= 1e-8


@st.composite
def affine_games(draw, min_agents=1, halfwidths=(None, 0.5, 5.0)):
    """A small quadratic game with boxes of one of the half-widths (None:
    no box), and each agent's projection as a coordinate-wise clamp."""
    game = random_strongly_monotone_game(
        draw(st.integers(min_agents, 4)), draw(st.integers(1, 2)),
        draw(st.integers(1, 2)), seed=draw(st.integers(0, 2 ** 16)),
        box_halfwidth=draw(st.sampled_from(halfwidths)))
    lower, upper = (b.reshape(game.N, game.m) for b in
                    (game.projector.box.lower, game.projector.box.upper))
    return game, lambda i, v: oracles.box_projection(v, lower[i], upper[i])


@st.composite
def charger_games(draw, min_agents=1, max_fill=1.0):
    """A voltage game of 1-4 chargers on a 2-4 bus feeder over 1-2 hours:
    each charger has its own plug mask, cap, and a target at 0, at the cap
    or up to the share `max_fill` of it, and its projection from the
    stated constraints."""
    n_buses, horizon = draw(st.integers(2, 4)), draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2 ** 16))
    net = build_radial_network(n_buses, seed=seed)
    model = distflow_sensitivities(net, gen_baseline_profile(net, horizon, seed))
    plugged, s_max, target, bus = [], [], [], []
    for _ in range(draw(st.integers(min_agents, 4))):
        plugged.append(np.array(draw(st.lists(st.booleans(), min_size=horizon,
                                              max_size=horizon))))
        s_max.append(draw(st.floats(0.5, 3.0)))
        fill = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, max_fill))
        target.append(fill * s_max[-1] * plugged[-1].sum())
        bus.append(draw(st.integers(1, n_buses - 1)))
    fleet = EvFleet(bus=bus, plugged=plugged, target_energy=target,
                    s_max=s_max)
    game = build_voltage_game(model, fleet, default_voltage_config(
        model, gen_prices(horizon, seed)))
    return game, lambda i, v: oracles.charger_projection(
        v, plugged[i], target[i], s_max[i])


@st.composite
def potential_games(draw):
    """A boxed quadratic game whose A is symmetric: coupler C_i = G_i'
    makes B_i = Q_i + (kappa/N) G_i'G_i and every block E_i G_j / N =
    (kappa/N) G_i'G_j, the Hessian of a strongly convex potential."""
    n, m, d = (draw(st.integers(1, 4)), draw(st.integers(1, 3)),
               draw(st.integers(1, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    root = rng.normal(size=(n, m, m)) / np.sqrt(m)
    aggregators = rng.normal(size=(n, d, m)) / np.sqrt(m)
    half = draw(st.sampled_from([0.5, 5.0]))
    return quadratic_aggregative_game(
        root.transpose(0, 2, 1) @ root + draw(st.floats(0.1, 2.0)) * np.eye(m),
        rng.normal(size=(n, m)), draw(st.floats(0.0, 3.0)),
        aggregators.transpose(0, 2, 1), aggregators,
        (-half, half))


def _oracle_outcome(solve, game, **kwargs):
    try:
        return "solved", solve(game, **kwargs).tobytes()
    except MaxIterExceeded as exc:
        return "raised", exc.best.tobytes(), exc.residual, exc.iterations


@settings(max_examples=40, deadline=None)
@given(affine_games() | charger_games()
       | potential_games().map(lambda game: (game, None)), st.integers(1, 4))
def test_oracle_matches_its_first_form(case, budget):
    # the run's damped step at delta = 1 reproduces the oracle's own
    # undamped step bit for bit, to the end and on budgets cut short; a
    # target within an ulp of its cap stalls the solve near 1e-11, so
    # the full solve gets 2,000 iterations, not 100,000
    game, _ = case
    for kwargs in ({"max_iter": 2000}, {"tol": 1e-300, "max_iter": budget}):
        assert (_oracle_outcome(solve_ne_oracle, game, **kwargs)
                == _oracle_outcome(oracles.reference_ne_oracle, game, **kwargs))


def _certificate(game, x, gamma):
    """(1 + gamma L)/(gamma mu) ||x - P(x - gamma F(x))||, a bound on the
    distance from x to the equilibrium of a strongly monotone game."""
    lip, mu = game.affine.exact_lipschitz(), game.affine.exact_modulus()
    natural = x - game.projector(x - gamma * pseudo_gradient(game, x))
    return (1.0 + gamma * lip) / (gamma * mu) * float(np.linalg.norm(natural))


def _potential(game, x):
    """0.5 x'(A (x) I_T) x + c'x, whose gradient is F when A is symmetric."""
    return 0.5 * x.reshape(-1) @ (pseudo_gradient(game, x)
                                  + game.c.reshape(game.N, -1)).reshape(-1)


@settings(max_examples=40, deadline=None)
@given(potential_games() | charger_games(max_fill=0.9).map(lambda c: c[0]))
def test_accelerated_oracle_keeps_its_rate_and_certificate(game):
    # on a symmetric A the default solve adds the momentum
    # beta = (sqrt(kappa) - 1)/(sqrt(kappa) + 1) to the 1/L step.  By the
    # constant-momentum bound (Beck, First-Order Methods in Optimization,
    # 2017, Thm 10.42) the potential gap at x_k is at most
    # q^k (gap(x_0) + mu/2 ||x_0 - x*||^2), q = 1 - 1/sqrt(kappa), so
    # ||x_k - x*|| <= e q^(k/2) and the residual ||y_k - x_k+1|| the
    # solve tests is at most 4 e q^((k-1)/2): the solve must stop by the
    # iteration where that meets tol, and its answer must lie within its
    # certificate of a tight reference solve.  It is not checked against
    # the plain 1/L loop instance by instance: on well-conditioned boxed
    # games that loop lands exactly on the answer within a few steps,
    # and the momentum's overshoot cost 1 to 8 more in half of 400 draws
    mu, lip = game.affine.exact_modulus(), game.affine.exact_lipschitz()
    gamma, beta = games._oracle_stepsize(game)
    assert gamma == 1.0 / lip and 0.0 <= beta < 1.0
    with mock.patch.object(games, "pseudo_gradient",
                           wraps=games.pseudo_gradient) as counter:
        fast = solve_ne_oracle(game, tol=1e-12)
    try:
        tight = oracles.reference_ne_oracle(game, gamma=gamma, tol=1e-15,
                                            max_iter=3000)
    except MaxIterExceeded as exc:
        tight = exc.best
    start = game.projector(np.zeros((game.N, game.m)))
    gap = (_potential(game, start) - _potential(game, tight)
           + mu / 2 * np.linalg.norm(start - tight) ** 2)
    scale = 4.0 * math.sqrt(2.0 * max(gap, 0.0) / mu)
    q = 1.0 - 1.0 / math.sqrt(lip / mu)
    steps = 0 if q <= 0 else math.ceil(
        2.0 * math.log(max(1.0, scale / 1e-12)) / -math.log(q))
    assert counter.call_count <= 2 + steps
    rounding = 4 * np.finfo(float).eps * (1.0 + np.linalg.norm(tight))
    assert (np.linalg.norm(fast - tight) <= _certificate(game, fast, gamma)
            + _certificate(game, tight, gamma) + rounding)


TRACE_FIELDS = ("err_x", "est_err_max", "disagreement", "step_norm",
                "z_mean_residual", "feas_residual")


@settings(max_examples=20, deadline=None)
@given(affine_games(min_agents=2) | charger_games(min_agents=2, max_fill=0.9),
       st.floats(0.0, 1.0), st.sampled_from(["metropolis_symmetrized",
                                             "sinkhorn"]),
       st.floats(0.005, 0.1), st.floats(0.1, 1.0), st.integers(0, 2 ** 16))
def test_consensus_run_matches_the_literal_iteration(case, edge_prob, method,
                                                     gamma, delta, seed):
    # 50 sweeps against per-agent, per-neighbour loops over np.kron
    # factors and projections that do not share the package's code; a
    # target just short of the cap makes the projection itself
    # ill-conditioned (two exact methods part by 2e-10 at 1 - 1e-6 of it)
    game, project_agent = case
    graph = make_doubly_stochastic(gen_digraph(game.N, edge_prob, seed),
                                   method=method)
    cfg = TradesConfig(gamma=gamma, delta=delta, stop_tol=1e-300, max_iter=50)
    rng = np.random.default_rng(seed)
    x0, oracle = rng.normal(scale=3.0, size=(2, game.N, game.m))
    state, trace, report = run(game, graph, cfg, x0=x0, oracle=oracle)
    # a run that lands on a floating-point cycle stops on a zero step the
    # other route may round to 1e-17, so the loops take the run's count
    x, z, rows = oracles.literal_run(game, graph.weights, gamma, delta, x0,
                                     report.iterations, project_agent, oracle)

    def close(got, want):
        assert got.shape == want.shape
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.all(np.abs(got - want) <= 1e-10 * scale)

    close(state.x, x)
    close(state.z, z)
    ts, *columns = zip(*rows)
    assert ts == tuple(range(len(trace)))
    for name, column in zip(TRACE_FIELDS, columns):
        close(getattr(trace, name), np.array(column))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 6), st.integers(0, 2 ** 16))
def test_contractions_match_per_agent_kronecker_products(n, p, q, horizon, seed):
    # the batched factor products against each agent's expanded blocks;
    # a sum of k products is off by at most k eps times its absolute terms
    rng = np.random.default_rng(seed)
    B, E, G = (rng.normal(size=shape) for shape in
               ((n, p, p), (n, p, q), (n, q, p)))
    c = rng.normal(size=(n, p, horizon))
    box = Box(np.full(n * p * horizon, -np.inf), np.full(n * p * horizon, np.inf))
    game = GameDefinition(B, E, c, G, FeasibleSetProjector(box))
    x = rng.normal(size=(n, game.m))
    s = rng.normal(size=(n, game.d))
    eye = np.eye(horizon)
    phix = phi_stack(game, x)
    for i in range(n):
        kg = np.kron(G[i], eye)
        assert np.all(np.abs(phix[i] - kg @ x[i])
                      <= 1e-13 * (np.abs(kg) @ np.abs(x[i])))
    # pseudo_gradient feeds every agent one aggregate as a broadcast view
    for estimates in (s, np.broadcast_to(s[0], s.shape)):
        direction = local_operator(game, x, estimates)
        for i in range(n):
            kb, ke = np.kron(B[i], eye), np.kron(E[i], eye)
            terms = (np.abs(kb) @ np.abs(x[i]) + np.abs(ke) @ np.abs(estimates[i])
                     + np.abs(c[i].reshape(-1)))
            assert np.all(np.abs(direction[i] - (kb @ x[i] + ke @ estimates[i]
                                                 + c[i].reshape(-1)))
                          <= 1e-13 * terms)


def chargers(max_fill=1.0):
    """One charger: horizon, plug mask, cap, and an energy target that
    fills the share `fill` of what the plugged slots can deliver."""
    return st.integers(1, 24).flatmap(lambda horizon: st.fixed_dictionaries({
        "plugged": st.lists(st.booleans(), min_size=horizon, max_size=horizon),
        "s_max": st.floats(0.5, 10.0),
        "fill": st.floats(0.0, max_fill),
        "seed": st.integers(0, 2 ** 16),
    }))


def _charger(inst):
    plugged = np.array(inst["plugged"])
    target = inst["fill"] * inst["s_max"] * plugged.sum()
    proj = build_ev_projector(plugged, target, inst["s_max"])
    rng = np.random.default_rng(inst["seed"])
    points = rng.normal(scale=2.0 * inst["s_max"], size=(2, 2 * plugged.size))
    return plugged, target, proj, points


@settings(max_examples=200, deadline=None)
@given(chargers(max_fill=0.9))
def test_charger_projection_agrees_with_dykstra(inst):
    # Dykstra's sweep count grows without bound as the target nears the
    # cap (at the cap it stalls); targets above 90 % of it are checked
    # by stationarity in the test below instead.  On some draws below the
    # cap the answer sits at a tangency of the constraints and Dykstra
    # still runs out of sweeps; there the exact answer is certified by
    # stationarity and membership instead
    plugged, target, proj, (v, _) = _charger(inst)
    reference_set = oracles.ev_reference_set(plugged, target, inst["s_max"])
    try:
        reference = project_dykstra(reference_set, v, tol=1e-13,
                                    max_sweeps=100000)
    except MaxSweepsExceeded:
        _certify_charger_projection(inst)
        return
    assert np.linalg.norm(proj(v) - reference) <= 1e-8


def _certify_charger_projection(inst):
    plugged, target, proj, (v, _) = _charger(inst)
    w = proj(v)
    assert oracles.ev_kkt_residual(v, w, plugged, inst["s_max"]) <= 1e-6
    reference_set = oracles.ev_reference_set(plugged, target, inst["s_max"])
    assert reference_set.membership_residual(w) <= 1e-10


@pytest.mark.parametrize("inst", [
    {"plugged": [False, True, True, False], "s_max": 1.0, "fill": 0.5,
     "seed": 4},
    {"plugged": [False, False, False, True, True], "s_max": 1.0, "fill": 0.5,
     "seed": 63879},
])
def test_charger_projection_certified_where_dykstra_stalls(inst):
    # draws on which Dykstra runs out of sweeps 9e-4 short of the answer
    _certify_charger_projection(inst)


@settings(max_examples=200, deadline=None)
@given(chargers())
def test_charger_projection_is_idempotent_nonexpansive_stationary(inst):
    plugged, _, proj, (u, v) = _charger(inst)
    pu, pv = proj(u), proj(v)
    assert np.linalg.norm(proj(pu) - pu) <= 1e-10
    assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-10
    # near the cap the multipliers grow without bound (at the cap none
    # exist), out of reach of the stationarity oracle's least squares
    if inst["fill"] <= 0.99:
        assert oracles.ev_kkt_residual(u, pu, plugged, inst["s_max"]) <= 1e-6


@settings(max_examples=200, deadline=None)
@given(chargers(), st.floats(-2.0, 2.0))
def test_multiplier_search_slope_is_the_derivative(inst, shift):
    # g(lam) = a . P(v - lam a) - b has slope -a . J a wherever the
    # clamped coordinates and the capped disk pairs stay the same; the
    # difference quotient carries rounding of eps |a| . |P| / h besides
    _, _, proj, (v, _) = _charger(inst)
    a = proj.normals
    lam, h = shift * inst["s_max"], 1e-5 * inst["s_max"]
    points = [v - (lam + k * h) * a[0] for k in (-1, 0, 1)]

    def piece(u):
        y = proj.box.project(u)
        free = (proj.box.lower < y) & (y < proj.box.upper)
        u = y.reshape(proj.disks.shape)
        capped = np.hypot(u[..., 0, :], u[..., 1, :]) > proj.disks.radius
        return np.concatenate([free, capped.reshape(-1)])

    # the slope from the evaluation's own cap data is, bit for bit, the
    # first search's, which screened the clamped point for caps again
    _, y, found = proj._box_disk(points[1])
    (slope,) = proj._slope(y, found)
    assert slope == oracles.ReferenceSearch(proj)._slope(proj.box.project(points[1]))
    assume(all(np.array_equal(piece(points[1]), piece(u)) for u in points))
    below, above = proj._box_disk(points[0])[0], proj._box_disk(points[2])[0]
    difference = a[0] @ (below - above) / (2.0 * h)
    rounding = 4.0 * np.finfo(float).eps * (np.abs(a[0]) @ np.abs(below)) / h
    assert abs(slope - difference) <= 1e-6 * abs(slope) + rounding


@st.composite
def charger_searches(draw):
    """A stack of 1-6 chargers, targets at 0, at the cap or between, and a
    raw point at a scale from 0.5 to 20: small points leave every slot in
    its disk, large ones cap slots, bend g so trials leave the bracket, and
    clamp every plugged draw so g is flat.  Some points hold a nan."""
    n, horizon = draw(st.integers(1, 6)), draw(st.integers(1, 24))
    plugged = draw(hnp.arrays(bool, (n, horizon)))
    s_max = draw(hnp.arrays(float, n, elements=st.floats(0.5, 10.0)))
    fill = draw(hnp.arrays(float, n, elements=st.sampled_from([0.0, 1.0])
                           | st.floats(0.0, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    v = rng.normal(scale=draw(st.floats(0.5, 20.0)), size=(n, 2 * horizon))
    if draw(st.integers(0, 4)) == 4:
        v[rng.integers(n), rng.integers(2 * horizon)] = np.nan
    return build_ev_projector(plugged, fill * s_max * plugged.sum(axis=1),
                              s_max), v


@settings(max_examples=300, deadline=None)
@given(charger_searches())
def test_multiplier_search_matches_the_reference_bitwise(case):
    # the same points, bit for bit, after as many box-and-disk evaluations
    # (one Box.project call each) as the search first written
    proj, v = case
    reference = oracles.ReferenceSearch(proj)
    expected = reference(v)
    calls, project = [], proj.box.project
    proj.box.project = lambda u: calls.append(1) or project(u)
    got = proj(v)
    assert got.tobytes() == expected.tobytes()
    assert len(calls) == reference.evaluations


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2 ** 16))
def test_multiplier_search_matches_the_reference_where_brackets_close(n, m, seed):
    # hyperplanes through free boxes at scale 1e8: the gap rounds to ~1e-9,
    # far above the tolerance, so a search ends only when its bracket closes
    # on adjacent floats, a path no charger draw above reaches
    rng = np.random.default_rng(seed)
    proj = FeasibleSetProjector(Box(np.full(n * m, -np.inf), np.full(n * m, np.inf)),
                                None, rng.normal(size=(n, m)), rng.normal(size=n))
    v = rng.normal(scale=1e8, size=(n, m))
    reference = oracles.ReferenceSearch(proj)
    assert proj(v).tobytes() == reference(v).tobytes()


@st.composite
def charger_stacks(draw):
    """A stack of 1-5 chargers with their own masks and caps, targets
    anywhere from 0 to the cap (both ends pin the charger), or a box-only
    projector over a stack of the same shape; and a raw point."""
    n, horizon = draw(st.integers(1, 5)), draw(st.integers(1, 24))
    plugged = draw(hnp.arrays(bool, (n, horizon)))
    s_max = draw(hnp.arrays(float, n, elements=st.floats(0.5, 10.0)))
    fill = draw(hnp.arrays(float, n, elements=st.sampled_from([0.0, 1.0])
                           | st.floats(0.0, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    v = rng.normal(scale=2.0 * s_max.max(), size=(n, 2 * horizon))
    if draw(st.booleans()):
        return build_ev_projector(plugged, fill * s_max * plugged.sum(axis=1),
                                  s_max), v
    half = np.where(np.hstack([plugged, plugged]), s_max[:, None], np.inf)
    return FeasibleSetProjector(Box(-half, half)), v


@settings(max_examples=200, deadline=None)
@given(charger_stacks())
def test_membership_residual_is_the_projection_distance(case):
    # bitwise against the distance to the search's projection; a projected
    # point passes the gap test at lam = 0, so its residual and its own
    # projection each evaluate P once
    proj, v = case
    evaluations = []
    box_disk = proj._box_disk
    p = proj(v)
    proj._box_disk = lambda u: evaluations.append(1) or box_disk(u)
    direct = proj.membership_residual(p)
    assert len(evaluations) == 1
    proj(p)
    assert len(evaluations) == 2
    assert direct == ConvexSet.membership_residual(proj, p)
    assert proj.membership_residual(v) == ConvexSet.membership_residual(proj, v)
    # the block form: one distance per (N, m) point, each bit for bit
    assert proj.membership_residual(np.stack([v, p])).tobytes() == np.array(
        [proj.membership_residual(v), direct]).tobytes()
    v[0, 0] = np.nan
    assert np.isnan(proj.membership_residual(v))
    assert np.isnan(ConvexSet.membership_residual(proj, v))
    assert np.isnan(proj.membership_residual(v[None])).all()


@settings(max_examples=200, deadline=None)
@given(charger_stacks(), st.booleans(), st.lists(st.sampled_from(
    ["raw", "projected", "pinned", "capped", "nan"]), min_size=1, max_size=6))
def test_block_membership_residual_is_each_rows_residual(case, hyperplanes,
                                                         kinds):
    # rows outside the set (raw, mostly failing the gap test, so searched),
    # inside it, outside it where only box-pinned coordinates move (P of the
    # row passes the gap test), with every disk slot capped, and nan; the
    # charger sets also without their hyperplanes, whose block takes one
    # clamp and one disk screen
    proj, v = case
    if not hyperplanes and proj.disks is not None:
        proj = FeasibleSetProjector(proj.box, proj.disks)
    p = proj(v)
    pinned = np.where(proj.box.lower == proj.box.upper, 1.0, 0.0).reshape(v.shape)
    nan = v.copy()
    nan[0, 0] = np.nan
    rows = {"raw": v, "projected": p, "pinned": p + pinned,
            "capped": 1e3 * v, "nan": nan}
    block = np.stack([rows[kind] for kind in kinds])
    expected = [proj.membership_residual(row) for row in block]
    assert proj.membership_residual(block).tobytes() == np.array(expected).tobytes()
    # the stack's projection is each row's, bit for bit, after as many
    # Box.project calls (one per evaluation) as its longest row search
    calls, project = [], proj.box.project
    proj.box.project = lambda u: calls.append(1) or project(u)
    expected, counts = [], []
    for row in block:
        calls.clear()
        expected.append(proj(row))
        counts.append(len(calls))
    calls.clear()
    assert proj(block).tobytes() == np.stack(expected).tobytes()
    assert len(calls) == max(counts)


@st.composite
def disk_slots(draw):
    """Radii of shape (..., T) over 400 decades, some infinite, and points
    whose slots lie at the origin, inside, on, just off or outside their
    circles (pinned slots at any size)."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=4))

    def array(elements, dtype=float):
        return draw(hnp.arrays(dtype, shape, elements=elements))

    radius = 10.0 ** array(st.floats(-200.0, 200.0))
    radius[array(st.booleans(), bool)] = np.inf
    size = np.where(np.isinf(radius), 10.0 ** array(st.floats(-200.0, 200.0)),
                    radius)
    size *= array(st.sampled_from([0.0, 0.5, 1.0 - 1e-9, 1.0 - 1e-15, 1.0,
                                   1.0 + 1e-15, 1.0 + 1e-9, 3.0]))
    angle = array(st.floats(0.0, 2.0 * np.pi))
    v = np.stack([np.cos(angle), np.sin(angle)], axis=-2) * size[..., None, :]
    return radius, v.reshape(-1)


@settings(max_examples=200, deadline=None)
@given(disk_slots())
def test_disk_pairs_match_per_slot_scaling(case):
    # bitwise: the coordinate pre-screen must never skip a slot beyond its
    # radius, nor change the scaling of one that is
    radius, v = case
    got = DiskPairs(radius).project(v)
    assert np.array_equal(got, oracles.disk_slots_projection(radius, v))


@st.composite
def screened_slots(draw):
    """Radii of shape (..., T) within six decades, some or all infinite, and
    a point in the (..., 2, T) layout whose coordinates sit at the disk
    pre-screen's edge (0.7 of the smallest finite radius), one float either
    side of it, at half of it, just beyond the diagonal of the smallest
    disk, or at one or three times that radius, in either sign."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=4))
    radius = 10.0 ** draw(hnp.arrays(float, shape, elements=st.floats(-3.0, 3.0)))
    radius[draw(hnp.arrays(bool, shape))] = np.inf
    finite = radius[np.isfinite(radius)]
    r_min = finite.min() if finite.size else 1.0
    edge = 0.7 * r_min
    # two coordinates at 0.71 r_min put a slot of radius r_min just outside
    levels = [0.0, 0.5 * edge, np.nextafter(edge, 0.0), edge,
              np.nextafter(edge, np.inf), 0.71 * r_min, r_min, 3.0 * r_min]
    point_shape = shape[:-1] + (2, shape[-1])
    u = draw(hnp.arrays(float, point_shape, elements=st.sampled_from(levels)))
    return radius, u * draw(hnp.arrays(float, point_shape,
                                       elements=st.sampled_from([-1.0, 1.0])))


def _same_caps(a, b):
    if a is None or b is None:
        return a is b
    return all(np.array_equal(x, y) for x, y in zip(a, b))


@settings(max_examples=300, deadline=None)
@given(screened_slots())
def test_disk_screen_keeps_the_caps(case):
    # the pre-screen on the largest coordinate only skips work: capped()
    # finds the same slots and norms with it as without it (a screen
    # below every coordinate), at its edge and with infinite radii too
    radius, u = case
    screened, unscreened = DiskPairs(radius), DiskPairs(radius)
    unscreened._screen = -np.inf
    assert _same_caps(screened.capped(u), unscreened.capped(u))
    if np.abs(u).max() <= screened._screen:
        assert screened.capped(u) is None


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30), st.booleans(), st.data())
def test_fit_median_is_numpy_median(half, odd, data):
    # the fit's contraction ratio is np.median of the per-step ratios, bit
    # for bit, for odd and even ratio counts, ties and rows spaced by masked
    # (nan) rows included
    n = 2 * half + odd + 1   # points; one ratio fewer
    errs = data.draw(hnp.arrays(float, n, elements=st.floats(
        1e-11, 1e100, allow_subnormal=False)))
    gaps = data.draw(hnp.arrays(float, n - 1, elements=st.sampled_from(
        [1.0, 2.0, 7.0])))
    ts = 50.0 + np.concatenate([[0.0], np.cumsum(gaps)])
    ratios = (errs[1:] / errs[:-1]) ** (1.0 / np.diff(ts))
    history = np.full(int(ts[-1]) + 1, np.nan)
    history[ts.astype(int)] = errs
    with np.errstate(over="ignore"):   # a1 of a wild history may overflow
        ratio = fit_convergence(history, int(ts[-1]))[3]
    assert ratios.size % 2 == odd
    assert ratio.hex() == float(np.median(ratios)).hex()


_FIELDS = (*TRACE_COLUMNS[1:], "z_mean_residual", "feas_residual")
# the floats a trace field may hold, special values drawn often
trace_floats = st.sampled_from(
    [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
     -1e-310, 1.7976931348623157e308]) | st.floats()
trace_rows = st.tuples(*[trace_floats] * len(_FIELDS))


@settings(max_examples=100, deadline=None)
@given(st.lists(trace_rows, max_size=40), st.integers(0, 40))
def test_recorded_columns_are_the_recorded_values(rows, split):
    # the built columns are np.asarray of the values the recorder holds,
    # bit for bit (nan, infinities, -0.0 and subnormals included), float64,
    # one per row, empty or not; a trace built midway leaves recording open
    recorder = _Recorder(random_strongly_monotone_game(2, 1, 1, seed=0), None)

    def check(recorded):
        trace = recorder.build()
        assert len(trace) == len(recorded)
        for k, name in enumerate(_FIELDS):
            column = np.asarray([row[k] for row in recorded], dtype=np.float64)
            built = getattr(trace, name)
            assert built.dtype == column.dtype
            assert built.tobytes() == column.tobytes()

    for k, row in enumerate(rows):
        if k == split:
            check(rows[:k])
        recorder.fields.extend(row)   # a row's six floats, in field order
    check(rows)


def _recorded_columns(game, graph, cfg, block, **kwargs):
    """The six in-memory columns of a run, as bytes, recorded in blocks
    or (_BLOCK_BYTES = 0) row by row; a run that stops on a non-finite
    value gives the rows recorded before it."""
    saved = algorithm._BLOCK_BYTES
    algorithm._BLOCK_BYTES = saved if block else 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            trace = run(game, graph, cfg, **kwargs)[1]
    finally:
        algorithm._BLOCK_BYTES = saved
    return [getattr(trace, name).tobytes() for name in TRACE_FIELDS]


@settings(max_examples=40, deadline=None)
@given(affine_games(min_agents=2) | charger_games(min_agents=2),
       st.integers(1, 400), st.booleans(), st.integers(0, 2 ** 16))
def test_block_recorder_matches_the_per_row_recorder(case, steps, with_oracle,
                                                     seed):
    # small games hold their rows in blocks; the batched pass gives every
    # column bit for bit, for runs that end mid-block too
    game, _ = case
    assert algorithm._Recorder(game, None).block >= 2
    graph = make_doubly_stochastic(gen_digraph(game.N, 0.6, seed))
    cfg = TradesConfig(stop_tol=1e-300, max_iter=steps)
    rng = np.random.default_rng(seed)
    x0, oracle = rng.normal(scale=3.0, size=(2, game.N, game.m))
    kwargs = {"x0": x0, "oracle": oracle if with_oracle else None}
    assert (_recorded_columns(game, graph, cfg, True, **kwargs)
            == _recorded_columns(game, graph, cfg, False, **kwargs))


@pytest.mark.parametrize("box_halfwidth", [1e300, None])
def test_block_recorder_matches_on_overflowing_runs(box_halfwidth):
    # gamma = 5 overflows: with huge boxes or none, the run stops as
    # diverged mid-block, and its trace holds every recorded row, each
    # finite
    game = random_strongly_monotone_game(10, 2, 2, seed=0,
                                         box_halfwidth=box_halfwidth)
    graph = make_doubly_stochastic(gen_digraph(10, 0.6, 0))
    cfg = TradesConfig(gamma=5.0, delta=1.0, max_iter=500, seed=1)
    columns = _recorded_columns(game, graph, cfg, True)
    assert columns == _recorded_columns(game, graph, cfg, False)
    n_rows = len(columns[0]) // 8
    assert n_rows % algorithm._Recorder(game, None).block and n_rows < 500
    for column in columns[1:]:    # err_x is nan without an oracle
        assert np.isfinite(np.frombuffer(column, dtype=np.float64)).all()
    with np.errstate(over="ignore", invalid="ignore"):
        report = run(game, graph, cfg)[2]
    assert report.stop_reason == "diverged" and report.iterations == n_rows


@settings(max_examples=60, deadline=None)
@given((affine_games(min_agents=2, halfwidths=(5.0, 1e300, None))
        | charger_games(min_agents=2)).map(lambda c: c[0]),
       st.floats(-3.0, 3.0), st.floats(0.1, 1.0), st.integers(1, 300),
       st.integers(0, 2 ** 16))
@example(random_strongly_monotone_game(10, 2, 2, seed=42, box_halfwidth=1e300),
         math.log10(5.0), 1.0, 300, 7)
def test_a_run_stops_at_its_first_non_finite_sweep(game, log_gamma, delta,
                                                   steps, seed):
    # stepsizes from 1e-3 to 1e3: a run stops at its tolerance or budget,
    # or as diverged at the first sweep whose squared step or squared
    # tracker column sum is not finite (replayed here on the bare sweep),
    # with no final row; either way every recorded column is finite.  About one draw
    # in 25 blows up, so the example pins one: the overflowing benchmark
    # game inside boxes of half-width 1e300
    gamma = 10.0 ** log_gamma
    graph = make_doubly_stochastic(gen_digraph(game.N, 0.6, seed))
    cfg = TradesConfig(gamma=gamma, delta=delta, stop_tol=1e-300,
                       max_iter=steps)
    x0, oracle = np.random.default_rng(seed).normal(
        scale=3.0, size=(2, game.N, game.m))
    x, z, first = algorithm.init(game, x0).x, np.zeros((game.N, game.d)), None
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            new_x, z, *_ = algorithm._advance(game, graph, gamma, delta, x, z,
                                              "consensus")
            d, z_sum = (new_x - x).ravel(), z.sum(axis=0)
            if not (np.isfinite(d @ d) and np.isfinite(z_sum @ z_sum)):
                first = t + 1
                break
            if math.sqrt(d @ d) / delta <= cfg.stop_tol:
                break
            x = new_x
        _, trace, report = run(game, graph, cfg, x0=x0, oracle=oracle)
    diverged = report.stop_reason == "diverged"
    assert (report.iterations + 1 if diverged else None) == first
    assert len(trace) == report.iterations + (not diverged)
    for name in TRACE_FIELDS:
        assert np.isfinite(getattr(trace, name)).all(), name


# one config per scenario, section -> key -> raw value
CONFIGS = {
    "affine": {"experiment": {"spec_version": "1", "scenario": "affine",
                              "seed": "42"},
               "graph": {"n_agents": "5", "edge_prob": "0.6"},
               "affine": {"strategy_dim": "2", "agg_dim": "1"},
               "sweep": {"gamma": "0.01", "delta": "0.5"}},
    "voltage": {"experiment": {"spec_version": "1", "scenario": "voltage",
                               "seed": "3"},
                "graph": {"n_agents": "6", "edge_prob": "0.5"},
                "voltage": {"n_buses": "5", "horizon": "12"}},
}
RULED_KEYS = [(section, key, kind, bound)
              for section, keys in _KEYS.items()
              for key, (kind, _, bound) in keys.items()
              if bound or isinstance(kind, tuple)]
# each comparison of a bound as (hypothesis limit, exclusive): the side
# that keeps it and the side that breaks it
_KEEP = {">=": ("min_value", False), ">": ("min_value", True),
         "<=": ("max_value", False)}
_BREAK = {">=": ("max_value", True), ">": ("max_value", False),
          "<=": ("min_value", True)}


def _numbers(kind, conditions):
    """Finite ints or floats within (limit name, exclusive, value) limits."""
    limits = {}
    for side, exclusive, limit in conditions:
        if kind is int:
            limits[side] = limit + exclusive * (1 if side == "min_value" else -1)
        else:
            limits[side], limits[f"exclude_{side[:3]}"] = limit, exclusive
    if kind is int:
        return st.integers(**limits)
    return st.floats(allow_nan=False, allow_infinity=False, **limits)


def _in_range(kind, bound):
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    return _numbers(kind, [(*_KEEP[op], limit) for op, limit in bound])


def _out_of_range(kind, bound):
    if isinstance(kind, tuple):
        return st.from_regex(r"[a-z_]{1,12}", fullmatch=True).filter(
            lambda word: word not in kind)
    outside = [_numbers(kind, [(*_BREAK[op], limit)]) for op, limit in bound]
    if kind is float:
        outside.append(st.sampled_from([np.nan, np.inf, -np.inf]))
    return st.one_of(outside)


def _config_text(sections):
    return "\n".join(f"[{name}]\n" + "".join(f"{key} = {raw}\n"
                                             for key, raw in items.items())
                      for name, items in sections.items())


def _with(section, key, raw):
    """A base config holding the section, with key set to raw."""
    if key == "scenario" and raw in CONFIGS:
        base = raw
    else:
        base = "voltage" if section == "voltage" else "affine"
    sections = {name: dict(items) for name, items in CONFIGS[base].items()}
    sections.setdefault(section, {})[key] = raw
    return _config_text(sections)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_config_key_in_range_round_trips(data):
    section, key, kind, bound = data.draw(st.sampled_from(RULED_KEYS))
    raw = str(data.draw(_in_range(kind, bound)))
    cfg = parse_config(_with(section, key, raw))
    echo = canonical_text(cfg)
    assert parse_config(echo) == cfg
    block = next(b for b in echo.split("\n\n") if b.startswith(f"[{section}]"))
    assert f"\n{key} = {raw}\n" in block + "\n"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_config_key_out_of_range_is_named(data):
    section, key, kind, bound = data.draw(st.sampled_from(RULED_KEYS))
    raw = str(data.draw(_out_of_range(kind, bound)))
    with pytest.raises(ConfigError) as err:
        parse_config(_with(section, key, raw))
    assert str(err.value).startswith(f"[{section}] {key}"), str(err.value)

"""Game definitions, pseudo-gradient evaluation, validation, NE oracle."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from oracles import aggregate
from trades import games
from trades.errors import MaxIterExceeded
from trades.games import (
    AffineGameSpec,
    GameDefinition,
    local_operator,
    phi_stack,
    pseudo_gradient,
    quadratic_aggregative_game,
    random_strongly_monotone_game,
    solve_ne_oracle,
    validate_assumptions,
)
from trades.grid import (EvAgentSpec, build_radial_network,
                         build_voltage_game, default_voltage_config,
                         distflow_sensitivities, gen_baseline_profile,
                         gen_prices)
from trades.projections import Box, FeasibleSetProjector


def _scalar_pair_game():
    # two scalar agents, identity contributions, decoupled costs 0.5 x^2
    return quadratic_aggregative_game(
        [np.eye(1)] * 2, [np.zeros(1)] * 2, 0.0,
        [np.zeros((1, 1))] * 2, [np.eye(1)] * 2)


# ------------------------------------------------------------ splitting


def _uncoupled_game(n_agents, m):
    # n_agents decoupled agents with m-dimensional strategies
    return quadratic_aggregative_game(
        quadratics=[np.eye(m)] * n_agents, linears=[np.zeros(m)] * n_agents,
        coupling=0.0, couplers=[np.zeros((m, 1))] * n_agents,
        aggregators=[np.ones((1, m))] * n_agents)


@settings(max_examples=100, deadline=None)
@given(n_agents=st.integers(1, 6), m=st.integers(1, 4),
       seed=st.integers(0, 2 ** 16),
       other=st.lists(st.integers(0, 8), min_size=0, max_size=3))
def test_split_reads_flat_and_blocked_strategies_only(n_agents, m, seed,
                                                      other):
    """Flat and (N, m) inputs give one (N, m) float array; other shapes
    raise ValueError."""
    game = _uncoupled_game(n_agents, m)
    x = np.random.default_rng(seed).normal(size=(n_agents, m))
    for given_x in (x, x.reshape(-1), x.reshape(-1).tolist()):
        out = game.split(given_x)
        assert out.shape == (n_agents, m) and out.dtype == float
        assert np.array_equal(out, x)
    shape = tuple(other)
    assume(shape not in ((n_agents * m,), (n_agents, m)))
    with pytest.raises(ValueError):
        game.split(np.zeros(shape))


def test_profile_length_mismatch_rejected():
    with pytest.raises(ValueError):
        _uncoupled_game(2, 2).split(np.zeros(3))
    with pytest.raises(ValueError):
        _uncoupled_game(2, 2).split(np.zeros((4, 1)))  # right size, wrong shape


# ------------------------------------------------------------ aggregation


def test_aggregate_identity_contributions_mean():
    game = _scalar_pair_game()
    sigma = aggregate(game, np.array([[2.0], [4.0]]))
    assert sigma.shape == (1,)
    assert sigma[0] == 3.0


def test_aggregate_zero_maps():
    rng = np.random.default_rng(3)
    game = quadratic_aggregative_game(
        [np.eye(2)] * 3, [np.zeros(2)] * 3, 0.7,
        [rng.normal(size=(2, 2)) for _ in range(3)],
        [np.zeros((2, 2))] * 3)
    sigma = aggregate(game, rng.normal(size=6))
    assert np.array_equal(sigma, np.zeros(2))


# --------------------------------------------------------- local operator


def test_local_operator_reduces_to_own_gradient():
    game = _scalar_pair_game()
    out = local_operator(game, np.array([[2.5], [0.0]]), np.full((2, 1), 9.9))
    assert np.allclose(out[0], [2.5], rtol=0, atol=1e-15)


def test_local_operator_hand_expansion():
    """Every term written out by hand for one quadratic agent."""
    q0 = np.array([[2.0, 0.0], [0.0, 3.0]])
    r0 = np.array([1.0, -1.0])
    c0 = np.array([[1.0], [2.0]])
    g0 = np.array([[1.0, 1.0]])
    game = quadratic_aggregative_game(
        [q0, np.eye(2)], [r0, np.zeros(2)], 0.5,
        [c0, np.zeros((2, 1))], [g0, np.zeros((1, 2))])
    x = np.array([[1.0, 2.0], [0.0, 0.0]])
    s = np.array([[0.7], [0.0]])
    out = local_operator(game, x, s)[0]
    # own gradient Q x + r + kappa C s, plus G' (kappa C' x) / N
    g2 = 0.5 * (1.0 * 1.0 + 2.0 * 2.0)
    expected = np.array([
        2.0 * 1.0 + 1.0 + 0.5 * 1.0 * 0.7 + 1.0 * g2 / 2.0,
        3.0 * 2.0 - 1.0 + 0.5 * 2.0 * 0.7 + 1.0 * g2 / 2.0,
    ])
    assert np.allclose(out, expected, rtol=0, atol=1e-12)


def test_local_operator_is_total_derivative():
    """Against central differences of the stated cost J_i(x_i, sigma),
    sigma moving with x_i through the agent's own contribution."""
    game = random_strongly_monotone_game(3, 2, 2, seed=11)
    data = game.quadratic_data
    gs = data["aggregators"]
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 2))
    others = rng.normal(size=(3, 2))  # frozen contribution of everyone else
    s = np.stack([gs[i] @ x[i] / game.N + others[i] for i in range(3)])
    got = local_operator(game, x, s)
    for i in range(3):
        def through_cost(x_i):
            return oracles.quadratic_cost(data, i, x_i,
                                          gs[i] @ x_i / game.N + others[i])

        ref = oracles.central_diff_gradient(through_cost, x[i])
        assert np.allclose(got[i], ref, rtol=1e-5, atol=1e-7)


def test_local_operator_dimension_checks():
    game = _scalar_pair_game()
    with pytest.raises(ValueError):
        local_operator(game, np.zeros((2, 2)), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        local_operator(game, np.zeros((2, 1)), np.zeros((2, 3)))


# -------------------------------------------------------- pseudo-gradient


def test_pseudo_gradient_matches_assembled_affine_map():
    game = random_strongly_monotone_game(6, 3, 2, seed=21)
    rng = np.random.default_rng(22)
    aff = game.affine
    for _ in range(20):
        x = rng.normal(scale=2.0, size=game.n)
        f = pseudo_gradient(game, x)
        ref = aff.A @ x + game.c.reshape(-1)
        assert np.allclose(f, ref, rtol=0, atol=1e-12 * max(1.0, np.linalg.norm(ref)))


def test_pseudo_gradient_stacks_local_operators():
    game = random_strongly_monotone_game(4, 2, 3, seed=31)
    rng = np.random.default_rng(32)
    x = rng.normal(size=game.n)
    s = aggregate(game, x)
    stacked = local_operator(game, game.split(x),
                             np.tile(s, (game.N, 1))).reshape(-1)
    f = pseudo_gradient(game, x)
    assert np.linalg.norm(f - stacked) <= 1e-14 * max(1.0, np.linalg.norm(f))


def test_pseudo_gradient_vanishes_at_interior_equilibrium():
    game = random_strongly_monotone_game(5, 2, 2, seed=41, box_halfwidth=None)
    star = solve_ne_oracle(game, tol=1e-13)
    f = pseudo_gradient(game, star)
    assert np.linalg.norm(f) <= 1e-9


def test_gradient_oracles_match_finite_differences():
    """The direction at an estimate s unrelated to x is the chain rule
    dJ/dx_i + G_i' dJ/ds / N, each piece by central differences."""
    game = random_strongly_monotone_game(3, 2, 2, seed=51)
    data = game.quadratic_data
    rng = np.random.default_rng(52)
    for _ in range(100):
        i = int(rng.integers(0, 3))
        x = rng.normal(size=(3, 2))
        s = rng.normal(size=(3, 2))
        g1 = oracles.central_diff_gradient(
            lambda u: oracles.quadratic_cost(data, i, u, s[i]), x[i])
        g2 = oracles.central_diff_gradient(
            lambda w: oracles.quadratic_cost(data, i, x[i], w), s[i])
        jac = oracles.central_diff_jacobian(
            lambda u: data["aggregators"][i] @ u, x[i])
        got = local_operator(game, x, s)[i]
        assert np.allclose(got, g1 + jac.T @ g2 / game.N, rtol=1e-5, atol=1e-6)


# ------------------------------------------------------------- validation


def test_modulus_of_scaled_identity():
    game = quadratic_aggregative_game(
        [2.0 * np.eye(2)] * 2, [np.zeros(2)] * 2, 0.0,
        [np.zeros((2, 1))] * 2, [np.ones((1, 2))] * 2)
    report = validate_assumptions(game, sample_budget=5, rng=1)
    assert abs(report.mu - 2.0) <= 1e-12
    assert report.passed


def test_modulus_ignores_skew_part():
    # two scalar agents assembled so the affine map comes out [[1,-3],[3,1]]
    game = quadratic_aggregative_game(
        [np.array([[-1.0]]), np.array([[19.0]])],
        [np.zeros(1), np.zeros(1)], 2.0,
        [np.array([[1.0]]), np.array([[3.0]])],
        [np.array([[1.0]]), np.array([[-3.0]])])
    assert np.allclose(game.affine.A, [[1.0, -3.0], [3.0, 1.0]], rtol=0, atol=1e-12)
    report = validate_assumptions(game, sample_budget=5, rng=2)
    assert abs(report.mu - 1.0) <= 1e-12


def test_validation_reports_exact_matrix_norms():
    game = random_strongly_monotone_game(4, 2, 3, seed=61)
    data = game.quadratic_data
    kappa = data["coupling"]
    report = validate_assumptions(game, sample_budget=5, rng=62)
    # [B_i E_i] rebuilt from the stated data, G_i as stated
    direction = max(np.linalg.norm(np.hstack(
        [q + (kappa / game.N) * g.T @ c.T, kappa * c]), 2)
        for q, c, g in zip(data["quadratics"], data["couplers"],
                           data["aggregators"]))
    contribution = max(np.linalg.norm(g, 2) for g in data["aggregators"])
    assert abs(report.lip_direction - direction) <= 1e-12 * direction
    assert abs(report.lip_aggregation - contribution) <= 1e-12 * contribution
    assert report.lipschitz_pseudo_gradient == game.affine.exact_lipschitz()
    assert report.projector_residual == 0.0 and report.passed


class _OffsetProjector(FeasibleSetProjector):
    """Box projector whose calls land far outside its box."""

    def __call__(self, v):
        return super().__call__(v) + 100.0


def test_broken_projector_flagged():
    game = random_strongly_monotone_game(2, 2, 2, seed=71)
    game.projector = _OffsetProjector(game.projector.box)
    report = validate_assumptions(game, sample_budget=3, rng=72)
    assert report.projector_residual > 0.5
    assert report.monotone and not report.passed
    assert any("feasible-set projections" in line and "FAIL" in line
               for line in report.summary_lines())


def test_non_monotone_game_flagged():
    game = quadratic_aggregative_game(
        [np.array([[-5.0]])], [np.zeros(1)], 0.0,
        [np.zeros((1, 1))], [np.eye(1)])
    report = validate_assumptions(game, sample_budget=5, rng=3)
    assert report.mu < 0
    assert not report.monotone and not report.passed
    assert any("WARNING" in line for line in report.summary_lines())


def test_a_modulus_within_its_rounding_bound_is_not_monotone():
    game = random_strongly_monotone_game(3, 2, 2, seed=63)
    report = validate_assumptions(game, sample_budget=2, rng=1)
    assert report.mu_rounding == (6 * np.finfo(float).eps
                                  * game.affine.exact_lipschitz())
    assert report.monotone
    assert f"(rounding bound {report.mu_rounding:.3g})" in \
        report.summary_lines()[0]
    for mu in (0.5 * report.mu_rounding, -report.mu_rounding):
        swamped = report._replace(mu=mu)
        assert not swamped.monotone and not swamped.passed
        lines = swamped.summary_lines()
        assert lines[0].endswith(": sign not resolved)")
        assert lines[1].startswith("WARNING")
    below = report._replace(mu=-2.0 * report.mu_rounding)
    assert not below.monotone
    assert "sign not resolved" not in below.summary_lines()[0]


def test_assumption_check_of_a_box_is_the_per_sample_loop():
    game = random_strongly_monotone_game(3, 2, 2, seed=63, box_halfwidth=0.5)
    report = validate_assumptions(game, sample_budget=7, rng=64)
    assert report.projector_residual == oracles.sampled_projector_residual(
        game, sample_budget=7, rng=64)


def test_validation_needs_samples():
    with pytest.raises(ValueError):
        validate_assumptions(_scalar_pair_game(), sample_budget=0)


def test_monotonicity_inequality_on_samples():
    game = random_strongly_monotone_game(5, 2, 2, seed=81)
    mu = game.affine.exact_modulus()
    rng = np.random.default_rng(82)
    for _ in range(50):
        x = rng.normal(scale=3.0, size=game.n)
        y = rng.normal(scale=3.0, size=game.n)
        gap = float((pseudo_gradient(game, x) - pseudo_gradient(game, y)) @ (x - y))
        nrm2 = float((x - y) @ (x - y))
        assert gap >= mu * nrm2 - 1e-9 * max(1.0, nrm2)


# ----------------------------------------------------------------- oracle


def test_oracle_unconstrained_minimum_inside_box():
    game = quadratic_aggregative_game(
        [np.eye(1)], [np.array([-3.0])], 0.0,
        [np.zeros((1, 1))], [np.eye(1)],
        boxes=[(np.array([0.0]), np.array([10.0]))])
    star = solve_ne_oracle(game, tol=1e-12)
    assert abs(star[0, 0] - 3.0) <= 1e-9


def test_oracle_active_box_constraint():
    game = quadratic_aggregative_game(
        [np.eye(1)], [np.array([-3.0])], 0.0,
        [np.zeros((1, 1))], [np.eye(1)],
        boxes=[(np.array([0.0]), np.array([2.0]))])
    star = solve_ne_oracle(game, tol=1e-12)
    assert abs(star[0, 0] - 2.0) <= 1e-9


def test_oracle_equilibrium_satisfies_variational_inequality():
    """No feasible direction improves on the oracle point (1000 probes)."""
    game = random_strongly_monotone_game(10, 2, 2, seed=91)
    star = solve_ne_oracle(game, tol=1e-12)
    xs = star.reshape(-1)
    f = pseudo_gradient(game, xs)
    rng = np.random.default_rng(92)
    for _ in range(1000):
        y = game.projector(rng.normal(scale=4.0, size=(game.N, 2))).reshape(-1)
        assert float(f @ (y - xs)) >= -1e-8


def test_oracle_interior_matches_linear_solve():
    game = random_strongly_monotone_game(6, 2, 2, seed=93, box_halfwidth=None)
    star = solve_ne_oracle(game, tol=1e-13)
    ref = np.linalg.solve(game.affine.A, -game.c.reshape(-1))
    assert np.allclose(star.reshape(-1), ref, rtol=0, atol=1e-9)


def test_oracle_fixed_point_is_damping_invariant():
    game = random_strongly_monotone_game(5, 2, 2, seed=94)
    gamma = 0.05
    star = solve_ne_oracle(game, gamma=gamma, tol=1e-12)
    xs = star.reshape(-1)
    f = pseudo_gradient(game, xs)
    projected = np.concatenate(game.projector(game.split(xs - gamma * f)))
    for delta in (0.1, 0.5, 1.0):
        moved = xs + delta * (projected - xs)
        assert np.linalg.norm(moved - xs) <= 2e-12
    assert oracles.fixed_point_residual(game, xs, gamma) <= 2e-12


def test_oracle_iteration_cap():
    game = random_strongly_monotone_game(3, 2, 2, seed=95)
    with pytest.raises(MaxIterExceeded) as info:
        solve_ne_oracle(game, gamma=1e-7, tol=1e-12, max_iter=20)
    err = info.value
    assert err.iterations == 20
    assert err.residual > 1e-12
    assert isinstance(err.best, np.ndarray) and err.best.shape == (3, 2)


def test_oracle_stops_at_the_first_non_finite_residual():
    # gamma = 10 blows the unboxed game up: the residual overflows from
    # iteration 98 on while the iterates stay finite (until 196); the
    # solve stops at 98, not after 100,000, with the best of the first 97
    game = random_strongly_monotone_game(10, 2, 2, seed=42, box_halfwidth=None)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(MaxIterExceeded) as info:
            solve_ne_oracle(game, gamma=10.0)
        with pytest.raises(MaxIterExceeded) as first:
            oracles.reference_ne_oracle(game, gamma=10.0, max_iter=97)
    err = info.value
    assert err.iterations == 98 and "non-finite residual" in str(err)
    assert np.isfinite(err.best).all() and np.isfinite(err.residual)
    assert err.best.tobytes() == first.value.best.tobytes()
    assert err.residual == first.value.residual


def _ulp_below_cap_game():
    # three chargers on one bus, one with its target an ulp below its cap:
    # the accelerated residual sets its last new best, 1.9e-10, at
    # iteration 6, then spins above it
    net = build_radial_network(2, seed=2)
    model = distflow_sensitivities(net, gen_baseline_profile(net, 1, 2))
    agents = [EvAgentSpec(bus=1, plugged=plugged, s_max=s_max,
                          target_energy=target)
              for plugged, s_max, target in (
                  ([True], 2.5095146153322236, 0.3513162898529648),
                  ([True], 2.823232981721473, 0.0),
                  ([True], 2.656636173323279, 2.6566361733232786),
                  ([False], 2.2079818108066194, 0.0))]
    return build_voltage_game(model, agents,
                              default_voltage_config(model, gen_prices(1, 2)))


def test_oracle_stops_once_its_best_residual_stalls(monkeypatch):
    # with a stall window of 50 the solve raises at iteration 56 with the
    # best iterate of the first 56
    game = _ulp_below_cap_game()
    monkeypatch.setattr(games, "_ORACLE_STALL", 50)
    with pytest.raises(MaxIterExceeded) as info:
        solve_ne_oracle(game)
    with pytest.raises(MaxIterExceeded) as reference:
        oracles.reference_ne_oracle(game, max_iter=56)
    assert info.value.iterations == 56
    assert info.value.best.tobytes() == reference.value.best.tobytes()
    assert info.value.residual == reference.value.residual


def test_oracle_stall_window_is_two_thousand_iterations():
    # the package's window, on a 2-agent affine game whose residual meets
    # its floor, 2.78e-17, at iteration 42 and never goes below it, so a
    # zero tolerance stops the solve at 42 + 2,000
    with pytest.raises(MaxIterExceeded) as info:
        solve_ne_oracle(random_strongly_monotone_game(2, 2, 1, seed=1), tol=0.0)
    assert info.value.iterations == 42 + 2000


@pytest.mark.parametrize("skew, momentum", [(0.0, True), (3e-9, False)],
                         ids=["symmetric", "skewed"])
def test_oracle_momentum_needs_a_symmetric_factor(skew, momentum):
    # A = Q of one agent, kappa 3: a relative skew of ~1e-9, far above the
    # rounding of a symmetric A, makes it no potential game, so the solve
    # takes the plain step 0.9 * 2 mu/L^2 with no momentum
    game = quadratic_aggregative_game(
        [np.array([[1.0, skew], [0.0, 3.0]])], [np.zeros(2)], 0.0,
        [np.zeros((2, 1))], [np.ones((1, 2))])
    gamma, beta = games._oracle_stepsize(game)
    mu, lip = game.affine.exact_modulus(), game.affine.exact_lipschitz()
    if momentum:
        assert gamma == 1.0 / lip and beta > 0
    else:
        assert gamma == 0.9 * 2.0 * mu / lip ** 2 and beta == 0.0


def test_oracle_requires_stepsize_for_non_monotone_game():
    # no positive modulus, so no default stepsize can be derived
    game = quadratic_aggregative_game(
        [np.array([[-5.0]])], [np.zeros(1)], 0.0,
        [np.zeros((1, 1))], [np.eye(1)])
    with pytest.raises(ValueError):
        solve_ne_oracle(game)


# ------------------------------------------------------------ game checks


def test_game_rejects_inconsistent_aggregate_dims():
    # E reads a one-dimensional aggregate, G writes a two-dimensional one
    with pytest.raises(ValueError, match="per-agent arrays disagree"):
        GameDefinition(np.zeros((2, 2, 2)), np.zeros((2, 2, 1)),
                       np.zeros((2, 2, 1)), np.ones((2, 2, 2)),
                       FeasibleSetProjector(Box(np.zeros(4), np.ones(4))))


def test_game_rejects_projector_dimension_clash():
    with pytest.raises(ValueError, match="projector acts on"):
        GameDefinition(np.eye(2)[None], np.zeros((1, 2, 1)),
                       np.zeros((1, 2, 1)), np.ones((1, 1, 2)),
                       FeasibleSetProjector(Box([0.0], [1.0])))


def test_game_rejects_unequal_strategy_dims():
    with pytest.raises(ValueError):
        quadratic_aggregative_game(
            quadratics=[np.eye(2), np.eye(1)],
            linears=[np.zeros(2), np.zeros(1)], coupling=0.0,
            couplers=[np.zeros((2, 1)), np.zeros((1, 1))],
            aggregators=[np.ones((1, 2)), np.ones((1, 1))])


def test_phi_stack_shape():
    game = random_strongly_monotone_game(4, 3, 2, seed=98)
    stack = phi_stack(game, game.split(np.zeros(game.n)))
    assert stack.shape == (4, 2)


def test_affine_spec_shape_validation():
    with pytest.raises(ValueError):
        AffineGameSpec(np.zeros((2, 3)))


def test_affine_constants_computed_once(monkeypatch):
    spec = AffineGameSpec(np.array([[3.0, 1.0], [-1.0, 2.0]]))
    calls = {"eigvalsh": 0, "norm": 0}
    eigvalsh, norm = np.linalg.eigvalsh, np.linalg.norm

    def counted_eigvalsh(*args, **kwargs):
        calls["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    def counted_norm(*args, **kwargs):
        calls["norm"] += 1
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    mu, lip = spec.exact_modulus(), spec.exact_lipschitz()
    assert calls == {"eigvalsh": 1, "norm": 1}
    assert spec.exact_modulus() == mu and spec.exact_lipschitz() == lip
    assert calls == {"eigvalsh": 1, "norm": 1}
    # symmetric part is diag(3, 2); the constants are the dense values
    assert mu == 2.0
    assert lip == norm(spec.A, 2)

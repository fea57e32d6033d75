"""Game definitions, pseudo-gradient evaluation, validation, NE oracle."""

import numpy as np
import pytest

import oracles
from trades.errors import MaxIterExceeded
from trades.games import (
    AffineGameSpec,
    CostOracle,
    GameAgent,
    GameDefinition,
    StrategyProfile,
    aggregate,
    linear_aggregation,
    local_operator,
    phi_stack,
    pseudo_gradient,
    quadratic_aggregative_game,
    random_strongly_monotone_game,
    solve_ne_oracle,
    validate_assumptions,
)
from trades.projections import box_projector, identity_projector


def _scalar_pair_game():
    # two scalar agents, identity contributions, decoupled costs
    agents = []
    for target in (0.0, 0.0):
        cost = CostOracle(
            grad_strategy=lambda x_i, s, t=target: x_i - t,
            grad_aggregate=lambda x_i, s: np.zeros(1),
            value=lambda x_i, s, t=target: float(0.5 * (x_i[0] - t) ** 2))
        agents.append(GameAgent(cost, linear_aggregation(np.eye(1)),
                                identity_projector(1)))
    return GameDefinition(agents)


# ------------------------------------------------------------- profiles


def _two_one_game():
    # agents with strategy dims 2 and 1, for splitting stacked vectors
    return quadratic_aggregative_game(
        quadratics=[np.eye(2), np.eye(1)], linears=[np.zeros(2), np.zeros(1)],
        coupling=0.0, couplers=[np.zeros((2, 1)), np.zeros((1, 1))],
        aggregators=[np.ones((1, 2)), np.ones((1, 1))])


def test_profile_round_trip_is_identity():
    profile = StrategyProfile([np.array([1.0, 2.0]), np.array([3.0])])
    assert profile.dims == [2, 1] and profile.n == 3
    rebuilt = StrategyProfile(_two_one_game().split(profile.stacked))
    for a, b in zip(rebuilt.blocks, profile.blocks):
        assert np.array_equal(a, b)


def test_profile_length_mismatch_rejected():
    with pytest.raises(ValueError):
        _two_one_game().split(np.zeros(4))


# ------------------------------------------------------------ aggregation


def test_aggregate_identity_contributions_mean():
    game = _scalar_pair_game()
    sigma = aggregate(game, StrategyProfile([[2.0], [4.0]]))
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


def test_linear_aggregation_metadata():
    mat = np.array([[3.0, 0.0], [0.0, 4.0]])
    rule = linear_aggregation(mat)
    assert rule.dim_in == 2 and rule.dim_out == 2
    assert rule.lipschitz_bound == 4.0
    v = np.array([1.0, -2.0])
    assert np.array_equal(rule.evaluate(v), mat @ v)
    assert np.array_equal(rule.jacobian(v), mat)


# --------------------------------------------------------- local operator


def test_local_operator_reduces_to_own_gradient():
    game = _scalar_pair_game()
    out = local_operator(game, 0, np.array([2.5]), np.array([9.9]))
    assert np.allclose(out, [2.5], rtol=0, atol=1e-15)


def test_local_operator_hand_expansion():
    """Every term written out by hand for one quadratic agent."""
    q0 = np.array([[2.0, 0.0], [0.0, 3.0]])
    r0 = np.array([1.0, -1.0])
    c0 = np.array([[1.0], [2.0]])
    g0 = np.array([[1.0, 1.0]])
    game = quadratic_aggregative_game(
        [q0, np.eye(2)], [r0, np.zeros(2)], 0.5,
        [c0, np.zeros((2, 1))], [g0, np.zeros((1, 2))])
    x0 = np.array([1.0, 2.0])
    s = np.array([0.7])
    out = local_operator(game, 0, x0, s)
    # grad_strategy = Q x + r + kappa C s, plus G' (kappa C' x) / N
    g2 = 0.5 * (1.0 * 1.0 + 2.0 * 2.0)
    expected = np.array([
        2.0 * 1.0 + 1.0 + 0.5 * 1.0 * 0.7 + 1.0 * g2 / 2.0,
        3.0 * 2.0 - 1.0 + 0.5 * 2.0 * 0.7 + 1.0 * g2 / 2.0,
    ])
    assert np.allclose(out, expected, rtol=0, atol=1e-12)


def test_local_operator_is_total_derivative():
    """Against central differences of the cost along the own-strategy slice."""
    game = random_strongly_monotone_game(3, 2, 2, seed=11)
    rng = np.random.default_rng(8)
    for i in range(3):
        agent = game.agents[i]
        y = rng.normal(size=2)  # frozen contribution of everyone else

        def through_cost(x_i):
            s = agent.aggregation.evaluate(x_i) / game.N + y
            return agent.cost.value(x_i, s)

        x_i = rng.normal(size=2)
        s_here = agent.aggregation.evaluate(x_i) / game.N + y
        got = local_operator(game, i, x_i, s_here)
        ref = oracles.central_diff_gradient(through_cost, x_i)
        assert np.allclose(got, ref, rtol=1e-5, atol=1e-7)


def test_local_operator_dimension_checks():
    game = _scalar_pair_game()
    with pytest.raises(ValueError):
        local_operator(game, 0, np.zeros(2), np.zeros(1))
    with pytest.raises(ValueError):
        local_operator(game, 0, np.zeros(1), np.zeros(3))


# -------------------------------------------------------- pseudo-gradient


def test_pseudo_gradient_matches_assembled_affine_map():
    game = random_strongly_monotone_game(6, 3, 2, seed=21)
    rng = np.random.default_rng(22)
    aff = game.affine
    for _ in range(20):
        x = rng.normal(scale=2.0, size=game.n)
        f = pseudo_gradient(game, x)
        ref = aff.A @ x + aff.b
        assert np.allclose(f, ref, rtol=0, atol=1e-12 * max(1.0, np.linalg.norm(ref)))


def test_pseudo_gradient_stacks_local_operators():
    game = random_strongly_monotone_game(4, 2, 3, seed=31)
    rng = np.random.default_rng(32)
    x = rng.normal(size=game.n)
    blocks = game.split(x)
    s = aggregate(game, x)
    stacked = np.concatenate([local_operator(game, i, blocks[i], s)
                              for i in range(game.N)])
    f = pseudo_gradient(game, x)
    assert np.linalg.norm(f - stacked) <= 1e-14 * max(1.0, np.linalg.norm(f))


def test_pseudo_gradient_vanishes_at_interior_equilibrium():
    game = random_strongly_monotone_game(5, 2, 2, seed=41, box_halfwidth=None)
    star = solve_ne_oracle(game, tol=1e-13)
    f = pseudo_gradient(game, star)
    assert np.linalg.norm(f) <= 1e-9


def test_gradient_oracles_match_finite_differences():
    game = random_strongly_monotone_game(3, 2, 2, seed=51)
    rng = np.random.default_rng(52)
    for _ in range(100):
        i = int(rng.integers(0, 3))
        agent = game.agents[i]
        x_i = rng.normal(size=2)
        s = rng.normal(size=2)
        g1 = agent.cost.grad_strategy(x_i, s)
        g1_ref = oracles.central_diff_gradient(
            lambda u: agent.cost.value(u, s), x_i)
        assert np.allclose(g1, g1_ref, rtol=1e-5, atol=1e-6)
        g2 = agent.cost.grad_aggregate(x_i, s)
        g2_ref = oracles.central_diff_gradient(
            lambda w: agent.cost.value(x_i, w), s)
        assert np.allclose(g2, g2_ref, rtol=1e-5, atol=1e-6)
        jac = agent.aggregation.jacobian(x_i)
        jac_ref = oracles.central_diff_jacobian(agent.aggregation.evaluate, x_i)
        assert np.allclose(jac, jac_ref, rtol=1e-5, atol=1e-6)


# ------------------------------------------------------------- validation


def test_modulus_of_scaled_identity():
    game = quadratic_aggregative_game(
        [2.0 * np.eye(2)] * 2, [np.zeros(2)] * 2, 0.0,
        [np.zeros((2, 1))] * 2, [np.ones((1, 2))] * 2)
    report = validate_assumptions(game, sample_budget=5, rng=1)
    assert report.mu_is_exact
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


def test_sampled_modulus_brackets_exact_value():
    game = random_strongly_monotone_game(4, 2, 2, seed=61)
    exact = game.affine.exact_modulus()
    lip = game.affine.exact_lipschitz()
    blind = GameDefinition(game.agents)  # same agents, affine structure hidden
    report = validate_assumptions(blind, sample_budget=200, rng=62)
    assert not report.mu_is_exact
    assert report.mu >= exact - 1e-9
    assert report.mu <= lip + 1e-9
    assert report.lipschitz_pseudo_gradient <= lip + 1e-9
    assert report.monotone


def test_declared_aggregation_bound_violation_flagged():
    game = random_strongly_monotone_game(2, 2, 2, seed=71)
    for agent in game.agents:
        agent.aggregation.lipschitz_bound = 1e-6  # deliberately too small
    report = validate_assumptions(game, sample_budget=20, rng=72)
    assert not report.declared_bounds_ok
    assert not report.passed


def test_non_monotone_game_flagged():
    game = quadratic_aggregative_game(
        [np.array([[-5.0]])], [np.zeros(1)], 0.0,
        [np.zeros((1, 1))], [np.eye(1)])
    report = validate_assumptions(game, sample_budget=5, rng=3)
    assert report.mu < 0
    assert not report.monotone and not report.passed
    assert any("WARNING" in line for line in report.summary_lines())


def test_validation_needs_samples():
    with pytest.raises(ValueError):
        validate_assumptions(_scalar_pair_game(), sample_budget=1)


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
    assert abs(star.stacked[0] - 3.0) <= 1e-9


def test_oracle_active_box_constraint():
    game = quadratic_aggregative_game(
        [np.eye(1)], [np.array([-3.0])], 0.0,
        [np.zeros((1, 1))], [np.eye(1)],
        boxes=[(np.array([0.0]), np.array([2.0]))])
    star = solve_ne_oracle(game, tol=1e-12)
    assert abs(star.stacked[0] - 2.0) <= 1e-9


def test_oracle_equilibrium_satisfies_variational_inequality():
    """No feasible direction improves on the oracle point (1000 probes)."""
    game = random_strongly_monotone_game(10, 2, 2, seed=91)
    star = solve_ne_oracle(game, tol=1e-12)
    xs = star.stacked
    f = pseudo_gradient(game, xs)
    rng = np.random.default_rng(92)
    for _ in range(1000):
        y = np.concatenate([a.projector(rng.normal(scale=4.0, size=2))
                            for a in game.agents])
        assert float(f @ (y - xs)) >= -1e-8


def test_oracle_interior_matches_linear_solve():
    game = random_strongly_monotone_game(6, 2, 2, seed=93, box_halfwidth=None)
    star = solve_ne_oracle(game, tol=1e-13)
    ref = np.linalg.solve(game.affine.A, -game.affine.b)
    assert np.allclose(star.stacked, ref, rtol=0, atol=1e-9)


def test_oracle_fixed_point_is_damping_invariant():
    game = random_strongly_monotone_game(5, 2, 2, seed=94)
    gamma = 0.05
    star = solve_ne_oracle(game, gamma=gamma, tol=1e-12)
    xs = star.stacked
    f = pseudo_gradient(game, xs)
    projected = np.concatenate(game.project(game.split(xs - gamma * f)))
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
    assert isinstance(err.best, StrategyProfile)


def test_oracle_warm_start_agrees_with_cold_start():
    game = random_strongly_monotone_game(4, 2, 2, seed=96)
    cold = solve_ne_oracle(game, tol=1e-13)
    rng = np.random.default_rng(97)
    warm = solve_ne_oracle(game, tol=1e-13, x0=rng.normal(size=game.n))
    assert np.allclose(cold.stacked, warm.stacked, rtol=0, atol=1e-10)


def test_oracle_requires_stepsize_without_structure():
    with pytest.raises(ValueError):
        solve_ne_oracle(_scalar_pair_game())


# ------------------------------------------------------------ game checks


def test_game_rejects_inconsistent_aggregate_dims():
    a1 = GameAgent(CostOracle(lambda x, s: x, lambda x, s: np.zeros(1)),
                   linear_aggregation(np.ones((1, 2))), identity_projector(2))
    a2 = GameAgent(CostOracle(lambda x, s: x, lambda x, s: np.zeros(2)),
                   linear_aggregation(np.ones((2, 2))), identity_projector(2))
    with pytest.raises(ValueError):
        GameDefinition([a1, a2])


def test_game_rejects_projector_dimension_clash():
    agent = GameAgent(CostOracle(lambda x, s: x, lambda x, s: np.zeros(1)),
                      linear_aggregation(np.ones((1, 2))), box_projector([0.0], [1.0]))
    with pytest.raises(ValueError):
        GameDefinition([agent])


def test_phi_stack_shape():
    game = random_strongly_monotone_game(4, 3, 2, seed=98)
    stack = phi_stack(game, game.split(np.zeros(game.n)))
    assert stack.shape == (4, 2)


def test_affine_spec_shape_validation():
    with pytest.raises(ValueError):
        AffineGameSpec(np.zeros((2, 3)), np.zeros(2))


def test_affine_constants_computed_once(monkeypatch):
    spec = AffineGameSpec(np.array([[3.0, 1.0], [-1.0, 2.0]]), np.zeros(2))
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

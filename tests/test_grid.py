"""Tests for the radial-feeder voltage-support case study.

Hand values: for a 3-bus path with unit line resistances the shared
root-path of buses 1 and 2 is the single first line, so the sensitivity
entry (1,2) is 2*1 = 2 over the power base; bus 2's own entry sums both
lines, 2*2 = 4 over it.
"""

import os

import numpy as np
import pytest
from scipy import stats

import oracles
from oracles import aggregate
from trades import cli
from trades._base import _write_atomic
from trades.errors import InfeasibleSpec
from trades.games import (local_operator, phi_stack, pseudo_gradient,
                          solve_ne_oracle, validate_assumptions)
from trades.grid import (
    POWER_BASE_KW,
    VOLTAGE_SCALE,
    DistFlowModel,
    EvAgentSpec,
    RadialNetwork,
    VoltageGameConfig,
    build_radial_network,
    build_voltage_game,
    default_voltage_config,
    distflow_sensitivities,
    evaluate_voltages,
    gen_agents,
    gen_baseline_profile,
    gen_prices,
)


# ----------------------------------------------------------------- network


def test_network_validation():
    with pytest.raises(ValueError):
        RadialNetwork(parent=[0, 0], line_r=[0, 0.01], line_x=[0, 0.01])
    with pytest.raises(ValueError):
        RadialNetwork(parent=[-1, 1], line_r=[0, 0.01], line_x=[0, 0.01])
    with pytest.raises(ValueError):
        RadialNetwork(parent=[-1, 0], line_r=[0, -0.01], line_x=[0, 0.01])
    with pytest.raises(ValueError):
        RadialNetwork(parent=[-1], line_r=[0], line_x=[0])
    with pytest.raises(ValueError):
        build_radial_network(1, seed=0)


def test_build_radial_network_deterministic():
    a = build_radial_network(12, seed=9)
    b = build_radial_network(12, seed=9)
    assert np.array_equal(a.parent, b.parent)
    assert np.array_equal(a.line_r, b.line_r)
    assert np.array_equal(a.line_x, b.line_x)
    assert np.array_equal(a.baseline_p, b.baseline_p)
    c = build_radial_network(12, seed=10)
    assert not np.array_equal(a.line_r, c.line_r)
    assert np.all(a.line_r[1:] >= 0.001) and np.all(a.line_r[1:] <= 0.05)


def test_two_bus_sensitivities():
    r1, x1 = 0.013, 0.021
    net = RadialNetwork(parent=[-1, 0], line_r=[0.0, r1], line_x=[0.0, x1])
    model = distflow_sensitivities(net, np.zeros((2, 1)))
    assert np.array_equal(model.Rmat, np.array(
        [[0.0, 0.0], [0.0, 2 * r1 / POWER_BASE_KW]]))
    assert np.array_equal(model.Xmat, np.array(
        [[0.0, 0.0], [0.0, 2 * x1 / POWER_BASE_KW]]))


def test_three_bus_path_common_path_entries():
    net = RadialNetwork(parent=[-1, 0, 1], line_r=[0, 1.0, 1.0],
                        line_x=[0, 1.0, 1.0])
    model = distflow_sensitivities(net, np.zeros((3, 1)))
    expected = 2.0 * np.array([[0, 0, 0], [0, 1, 1], [0, 1, 2]],
                              dtype=float) / POWER_BASE_KW
    assert np.array_equal(model.Rmat, expected)
    assert np.array_equal(model.Xmat, expected)


def test_zero_load_flat_voltage():
    net = build_radial_network(8, seed=1)
    model = distflow_sensitivities(net, np.zeros((8, 24)))
    assert np.all(model.v0 == 1.0)
    assert model.dim == 8 * 24


def test_injection_moves_voltage_by_diagonal_sensitivity():
    net = build_radial_network(6, seed=2)
    model = distflow_sensitivities(net, np.zeros((6, 4)))
    agent = EvAgentSpec(bus=3, plugged=np.ones(4), target_energy=0.0)
    x = np.zeros(8)
    x[1] = 5.0  # +5 kW active injection in hour 1
    v = evaluate_voltages(model, [agent], x).voltages.reshape(6, 4)
    assert abs(v[3, 1] - (1.0 + model.Rmat[3, 3] * 5.0)) <= 1e-15
    assert v[0, 1] == 1.0  # root is the reference bus
    assert np.all(v[:, 0] == 1.0)


def test_sensitivities_psd_sweep():
    for seed in range(20):
        net = build_radial_network(4 + seed, seed=seed)
        model = distflow_sensitivities(net, np.zeros((net.n_buses, 1)))
        for mat in (model.Rmat, model.Xmat):
            assert np.max(np.abs(mat - mat.T)) == 0.0
            assert np.linalg.eigvalsh(mat)[0] >= -1e-10


def test_baseline_profile_shape_and_seed():
    net = build_radial_network(9, seed=3)
    load = gen_baseline_profile(net, 24, seed=8)
    assert load.shape == (9, 24)
    assert np.all(load[0] == 0.0)
    assert np.all(load[1:] > 0.0)
    assert np.array_equal(load, gen_baseline_profile(net, 24, seed=8))
    # evening demand tops overnight demand
    assert load[1:, 18].mean() > load[1:, 3].mean()


def test_write_atomic_failure_leaves_no_temporary(tmp_path):
    target = tmp_path / "report.json"
    with pytest.raises(TypeError):
        _write_atomic(target, None)     # the write fails
    assert os.listdir(tmp_path) == []
    target.write_text("old\n")
    with pytest.raises(TypeError):
        _write_atomic(target, None)
    assert target.read_text() == "old\n"
    (tmp_path / "folder").mkdir()
    with pytest.raises(OSError):
        _write_atomic(tmp_path / "folder", "new\n")   # the rename fails
    assert sorted(os.listdir(tmp_path)) == ["folder", "report.json"]
    # the benchmark's tracer wraps the writer by identity through cli
    assert cli._write_atomic is _write_atomic


# ------------------------------------------------------------------ prices


def test_prices_positive_and_seeded():
    pi = gen_prices(24, seed=6)
    assert pi.shape == (24,)
    assert np.all(pi > 0)
    assert np.array_equal(pi, gen_prices(24, seed=6))


# ------------------------------------------------------------------ agents


def test_agent_spec_feasibility():
    EvAgentSpec(bus=1, plugged=[1, 0, 0], target_energy=6.9, s_max=7.0)
    with pytest.raises(InfeasibleSpec):
        EvAgentSpec(bus=1, plugged=[1, 0, 0], target_energy=7.1, s_max=7.0)
    with pytest.raises(ValueError):
        EvAgentSpec(bus=1, plugged=[1, 2, 0], target_energy=1.0)
    with pytest.raises(ValueError):
        EvAgentSpec(bus=1, plugged=[1, 0], target_energy=-1.0)
    with pytest.raises(ValueError):   # a nan target would lose its hyperplane
        EvAgentSpec(bus=1, plugged=[1, 0], target_energy=float("nan"))


def test_gen_agents_reproducible_and_feasible():
    net = build_radial_network(12, seed=4)
    a = gen_agents(25, net, 24, seed=13)
    b = gen_agents(25, net, 24, seed=13)
    assert len(a) == 25
    for s, t in zip(a, b):
        assert s.bus == t.bus
        assert s.target_energy == t.target_energy
        assert np.array_equal(s.plugged, t.plugged)
    for s in a:
        assert 0 < s.bus < 12  # root carries no demand, never drawn
        assert s.s_max * s.plugged.sum() >= s.target_energy
        assert s.target_energy <= 40.0
        # overnight window: plugged late evening and early morning
        assert s.plugged[23] and s.plugged[0]
        assert not s.plugged[12]


def test_gen_agents_proportional_assignment_chi2():
    # equal demand on every non-root bus: assignment must look uniform
    net = RadialNetwork(parent=[-1] + [0] * 14,
                        line_r=[0] + [0.01] * 14,
                        line_x=[0] + [0.01] * 14,
                        baseline_p=[0.0] + [30.0] * 14)
    agents = gen_agents(10000, net, 24, seed=99)
    counts = np.bincount([a.bus for a in agents], minlength=15)[1:]
    expected = 10000 / 14.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < stats.chi2.ppf(0.95, df=13)


# -------------------------------------------------------------------- game


@pytest.fixture(scope="module")
def desk():
    net = build_radial_network(15, seed=3)
    baseline = gen_baseline_profile(net, 24, seed=4)
    model = distflow_sensitivities(net, baseline)
    prices = gen_prices(24, seed=6)
    agents = gen_agents(40, net, 24, seed=5)
    cfg = default_voltage_config(model, prices)
    game = build_voltage_game(model, agents, cfg)
    return net, model, prices, agents, cfg, game


def test_voltage_config_validation():
    t, d = 4, 12
    ok = dict(prices=np.ones(t), reference=np.zeros(d), penalty_weight=1.0,
              active_weight=1.0, reactive_weight=10.0)
    VoltageGameConfig(**ok)
    for key in ("penalty_weight", "active_weight", "reactive_weight"):
        for value in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match=key):
                VoltageGameConfig(**dict(ok, **{key: value}))


def test_desk_game_dimensions(desk):
    _, model, _, agents, _, game = desk
    assert model.dim == 360
    assert game.N == 40
    assert game.d == 360
    assert game.n == 1920
    assert (VOLTAGE_SCALE, POWER_BASE_KW) == (2400.0, 1000.0)
    # held as Kronecker factors with I_24: two strategy rows, 15 bus rows
    assert (game.p, game.q, game.T) == (2, 15, 24)
    assert game.G.shape == (40, 15, 2)
    assert game.E.shape == (40, 2, 15) and game.B.shape == (40, 2, 2)
    assert game.c.shape == (40, 2, 24)
    assert game.affine.A.shape == (80, 80)


def test_assumption_check_is_reproducible_without_a_seed(desk):
    # the sampled projector check draws from a fixed stream by default
    game = desk[-1]
    first, second = (validate_assumptions(game, sample_budget=10)
                     for _ in range(2))
    assert first.projector_residual == second.projector_residual


def test_assumption_check_is_the_per_sample_loop(desk):
    # one stacked draw, projected and measured in one call each, gives the
    # sample-by-sample loop's residual bit for bit
    report = validate_assumptions(desk[-1], sample_budget=20, rng=4)
    assert report.projector_residual == oracles.sampled_projector_residual(
        desk[-1], sample_budget=20, rng=4)


def test_zero_incentive_game_has_zero_equilibrium():
    # prices zero, recharge targets zero, deviation target zero: nothing
    # moves, and the origin is feasible, so it is the equilibrium
    net = build_radial_network(6, seed=2)
    model = distflow_sensitivities(net, gen_baseline_profile(net, 8, seed=1))
    agents = [EvAgentSpec(bus=b, plugged=np.ones(8), target_energy=0.0)
              for b in (1, 3, 5)]
    cfg = VoltageGameConfig(prices=np.zeros(8), reference=np.zeros(model.dim),
                            penalty_weight=1.0, active_weight=1.0,
                            reactive_weight=1.0)
    game = build_voltage_game(model, agents, cfg)
    xstar = solve_ne_oracle(game, tol=1e-13, max_iter=2000)
    assert np.max(np.abs(xstar)) <= 1e-12


def test_affine_structure_matches_pseudo_gradient(desk):
    _, _, _, _, _, game = desk
    rng = np.random.default_rng(1)
    for _ in range(3):
        x = np.concatenate(game.projector(game.split(rng.normal(size=game.n) * 3)))
        direct = pseudo_gradient(game, x)
        assembled = np.kron(game.affine.A, np.eye(game.T)) @ x + game.c.reshape(-1)
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(direct - assembled)) <= 1e-12 * scale


def test_factored_game_matches_dense_expansion():
    """Against per-agent blocks expanded with np.kron from the model and
    the config: the contribution stack, the search directions and the
    game constants of the factored game."""
    net = build_radial_network(6, seed=12)
    model = distflow_sensitivities(net, gen_baseline_profile(net, 12, seed=13))
    agents = gen_agents(6, net, 12, seed=14)
    cfg = default_voltage_config(model, gen_prices(12, seed=15),
                                 penalty_weight=0.7, active_weight=1.3,
                                 reactive_weight=4.0)
    game = build_voltage_game(model, agents, cfg)
    dense = oracles.dense_voltage_game(model, agents, cfg)
    assert np.allclose(game.c.reshape(game.N, -1), dense["c"], rtol=1e-13,
                       atol=1e-13 * np.max(np.abs(dense["c"])))
    rng = np.random.default_rng(16)
    for _ in range(5):
        x = rng.normal(size=(game.N, game.m)) * 3
        s = rng.normal(size=(game.N, game.d)) * 50
        phi = np.stack([g @ x_i for g, x_i in zip(dense["G"], x)])
        assert np.allclose(phi_stack(game, x), phi, rtol=1e-13,
                           atol=1e-13 * np.max(np.abs(phi)))
        direct = np.stack([dense["B"] @ x_i + e @ s_i + c_i for e, c_i, x_i,
                           s_i in zip(dense["E"], dense["c"], x, s)])
        assert np.allclose(local_operator(game, x, s), direct, rtol=1e-13,
                           atol=1e-12 * np.max(np.abs(direct)))
    a = dense["A"]
    mu = np.linalg.eigvalsh((a + a.T) / 2.0)[0]
    lip = np.linalg.norm(a, 2)
    assert abs(game.affine.exact_modulus() - mu) <= 1e-10 * abs(mu)
    assert abs(game.affine.exact_lipschitz() - lip) <= 1e-10 * lip


def test_local_operator_is_total_derivative(desk):
    """Against central differences of the stated charger cost, with the
    aggregate taken from the voltage model instead of the game."""
    _, model, _, agents, cfg, game = desk
    rng = np.random.default_rng(3)
    x = game.projector(game.split(rng.normal(size=game.n) * 3))

    def sigma(stack):
        volts = evaluate_voltages(model, agents, stack.reshape(-1)).voltages
        return VOLTAGE_SCALE * (volts - model.v0)

    got = local_operator(game, x, np.tile(sigma(x), (game.N, 1)))
    for i in (0, 17, 39):
        def through_cost(x_i):
            moved = x.copy()
            moved[i] = x_i
            return oracles.voltage_cost(cfg, x_i, sigma(moved))

        ref = oracles.central_diff_gradient(through_cost, x[i])
        assert np.allclose(got[i], ref, rtol=1e-6, atol=1e-4), \
            np.max(np.abs(got[i] - ref))


def test_desk_game_monotonicity_exact(desk):
    _, _, _, _, _, game = desk
    mu = game.affine.exact_modulus()
    lip = game.affine.exact_lipschitz()
    # the local weight's active-power block contributes 2 exactly; the
    # aggregate coupling is rank-deficient (n > d), adding nothing at
    # the bottom of the spectrum
    assert abs(mu - 2.0) <= 1e-8
    assert 20.0 < lip < 200.0
    # the case-study stepsize sits inside the symmetric stability window
    assert 0.01 < 2.0 / lip


def test_aggregate_equals_scaled_voltage_deviation(desk):
    _, model, _, agents, _, game = desk
    rng = np.random.default_rng(2)
    for _ in range(3):
        x = np.concatenate(game.projector(game.split(rng.normal(size=game.n) * 5)))
        sigma_game = aggregate(game, x)
        volts = evaluate_voltages(model, agents, x).voltages
        sigma_direct = VOLTAGE_SCALE * (volts - model.v0)
        scale = max(1.0, float(np.max(np.abs(sigma_direct))))
        assert np.max(np.abs(sigma_game - sigma_direct)) <= 1e-12 * scale


def test_evaluate_voltages_zero_strategy(desk):
    _, model, _, agents, cfg, _ = desk
    x = np.zeros(2 * 24 * len(agents))
    summary = evaluate_voltages(model, agents, x, cfg)
    assert np.array_equal(summary.voltages, model.v0)
    assert abs(summary.deviation_score - summary.base_score) <= 1e-9
    # a stacked vector or the (N, 2 horizon) array, nothing else
    assert np.array_equal(
        evaluate_voltages(model, agents, x.reshape(len(agents), 48)).voltages,
        summary.voltages)
    for bad in (x[:-1], x.reshape(48, len(agents)), x.reshape(-1, 1)):
        with pytest.raises(ValueError, match="strategies have shape"):
            evaluate_voltages(model, agents, bad)


def test_equilibrium_improves_voltage_deviation(desk):
    _, model, _, agents, cfg, game = desk
    xstar = solve_ne_oracle(game, tol=1e-10, max_iter=8000)
    summary = evaluate_voltages(model, agents, xstar, cfg)
    assert summary.deviation_score < summary.base_score
    # the improvement is substantial, not a rounding artifact
    assert summary.deviation_score <= 0.9 * summary.base_score
    # charging appears where it must: plugged hours only, never positive
    for spec, block in zip(agents, xstar):
        p = block[:24]
        assert np.all(p <= 1e-10)
        assert np.max(np.abs(p[~spec.plugged])) <= 1e-9
        assert abs(p.sum() + spec.target_energy) <= 1e-8


def test_build_voltage_game_input_validation(desk):
    _, model, _, agents, cfg, _ = desk
    with pytest.raises(ValueError):
        build_voltage_game(model, [], cfg)
    stray = EvAgentSpec(bus=99, plugged=np.ones(24), target_energy=1.0)
    with pytest.raises(ValueError):
        build_voltage_game(model, [stray], cfg)
    short = EvAgentSpec(bus=1, plugged=np.ones(12), target_energy=1.0)
    with pytest.raises(ValueError):
        build_voltage_game(model, [short], cfg)

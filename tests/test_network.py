"""Graph generation, doubly stochastic weights, consensus step, spectrum."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import oracles
from trades.errors import SinkhornStalled
from trades.network import (
    WeightedDigraph,
    consensus_step,
    gen_digraph,
    is_strongly_connected,
    make_doubly_stochastic,
    spectrum,
)


def _scc_count(graph):
    # independent strong-connectivity route
    count, _ = connected_components(csr_matrix(graph.support_matrix()),
                                    directed=True, connection="strong")
    return count


# ------------------------------------------------------------- generation


def test_full_probability_gives_complete_digraph():
    g = gen_digraph(6, 1.0, seed=0)
    assert len(g.edges) == 36
    assert g.has_all_self_loops()


def test_zero_probability_gives_cycle_plus_loops():
    g = gen_digraph(5, 0.0, seed=3)
    assert len(g.edges) == 10  # 5 loops + 5 cycle arcs
    out_deg = {i: 0 for i in range(5)}
    in_deg = {i: 0 for i in range(5)}
    for s, t in g.edges:
        if s != t:
            out_deg[s] += 1
            in_deg[t] += 1
    assert all(v == 1 for v in out_deg.values())
    assert all(v == 1 for v in in_deg.values())
    assert is_strongly_connected(g)
    assert _scc_count(g) == 1


def test_desk_scale_generation_strongly_connected():
    g = gen_digraph(321, 0.7, seed=7)
    assert g.has_all_self_loops()
    assert is_strongly_connected(g)
    assert _scc_count(g) == 1


def test_generation_reproducible_and_seed_sensitive():
    a = gen_digraph(30, 0.4, seed=11)
    b = gen_digraph(30, 0.4, seed=11)
    c = gen_digraph(30, 0.4, seed=12)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_generation_validation():
    with pytest.raises(ValueError):
        gen_digraph(1, 0.5, seed=0)
    with pytest.raises(ValueError):
        gen_digraph(5, -0.1, seed=0)
    with pytest.raises(ValueError):
        gen_digraph(5, 1.5, seed=0)


def test_digraph_constructor_validation():
    with pytest.raises(ValueError):
        WeightedDigraph(2, {(0, 3)})
    with pytest.raises(ValueError):
        WeightedDigraph(2, {(0, 0), (1, 1)}, np.eye(3))
    with pytest.raises(ValueError):
        # positive weight off the support
        WeightedDigraph(2, {(0, 0), (1, 1)}, np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        # zero weight on an edge
        WeightedDigraph(2, {(0, 0), (1, 1), (0, 1)}, np.eye(2))


# ---------------------------------------------------------------- weights


def test_directed_cycle_balances_to_half_half():
    edges = {(i, i) for i in range(6)} | {(i, (i + 1) % 6) for i in range(6)}
    g = make_doubly_stochastic(WeightedDigraph(6, edges), method="sinkhorn")
    w = g.weights
    nz = w[w != 0.0]
    assert nz.size == 12
    assert np.allclose(nz, 0.5, rtol=0, atol=1e-12)


def test_complete_graph_balances_to_uniform():
    g = gen_digraph(7, 1.0, seed=1)
    for method in ("sinkhorn", "metropolis_symmetrized"):
        w = make_doubly_stochastic(g, method=method).weights
        assert np.allclose(w, np.full((7, 7), 1.0 / 7.0), rtol=0, atol=1e-12)


def test_weights_doubly_stochastic_and_on_support():
    g = gen_digraph(15, 0.3, seed=21)
    sink = make_doubly_stochastic(g, method="sinkhorn")
    assert sink.stochasticity_residual() <= 1e-12
    assert sink.edges == g.edges  # balancing never moves the support
    metro = make_doubly_stochastic(g, method="metropolis_symmetrized")
    assert metro.stochasticity_residual() <= 1e-12
    sym = set(g.edges) | {(t, s) for s, t in g.edges}
    assert metro.edges == sym
    assert np.all(metro.weights == metro.weights.T)
    assert np.all(np.diag(metro.weights) > 0)


def test_weight_synthesis_reproducible():
    a = make_doubly_stochastic(gen_digraph(20, 0.4, seed=5), method="sinkhorn")
    b = make_doubly_stochastic(gen_digraph(20, 0.4, seed=5), method="sinkhorn")
    assert np.array_equal(a.weights, b.weights)


def test_sinkhorn_iteration_cap():
    g = gen_digraph(10, 0.35, seed=5)
    with pytest.raises(SinkhornStalled) as info:
        make_doubly_stochastic(g, method="sinkhorn", max_iter=2)
    assert info.value.iterations == 2
    assert info.value.residual > 1e-13


def test_weight_synthesis_preconditions():
    no_loops = WeightedDigraph(3, {(0, 1), (1, 2), (2, 0)})
    with pytest.raises(ValueError):
        make_doubly_stochastic(no_loops)
    disconnected = WeightedDigraph(2, {(0, 0), (1, 1)})
    with pytest.raises(ValueError):
        make_doubly_stochastic(disconnected)
    with pytest.raises(ValueError):
        make_doubly_stochastic(gen_digraph(4, 0.5, seed=0), method="magic")


# ----------------------------------------------------------- consensus step


def test_consensus_matches_dense_kronecker_oracle():
    rng = np.random.default_rng(99)
    for n in (2, 4, 8):
        for d in (1, 3):
            for method in ("sinkhorn", "metropolis_symmetrized"):
                g = make_doubly_stochastic(
                    gen_digraph(n, 0.5, seed=n * 10 + d), method=method)
                z = rng.normal(size=(n, d))
                phi = rng.normal(size=(n, d))
                got = consensus_step(g, z, phi)
                ref = oracles.kron_consensus_oracle(g.weights, z, phi)
                assert np.allclose(got, ref, rtol=0, atol=1e-13)


def test_consensus_ignores_agreeing_contributions():
    g = make_doubly_stochastic(gen_digraph(8, 0.4, seed=2))
    phi = np.tile([[2.0, -1.5, 0.25]], (8, 1))
    out = consensus_step(g, np.zeros((8, 3)), phi)
    assert np.max(np.abs(out)) <= 1e-12


def test_single_agent_tracker_stays_zero():
    g = WeightedDigraph(1, {(0, 0)}, np.array([[1.0]]))
    z = np.zeros((1, 4))
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = consensus_step(g, z, rng.normal(size=(1, 4)))
        assert np.array_equal(z, np.zeros((1, 4)))


def test_consensus_preserves_column_means():
    rng = np.random.default_rng(17)
    g = make_doubly_stochastic(gen_digraph(12, 0.3, seed=4), method="sinkhorn")
    z = rng.normal(size=(12, 3))
    phi = rng.normal(size=(12, 3))
    before = z.sum(axis=0)
    after = consensus_step(g, z, phi).sum(axis=0)
    scale = max(1.0, float(np.linalg.norm(z)))
    assert np.max(np.abs(after - before)) <= 1e-12 * scale


def test_consensus_shape_and_weight_checks():
    bare = gen_digraph(4, 0.5, seed=0)
    with pytest.raises(ValueError):
        consensus_step(bare, np.zeros((4, 2)), np.zeros((4, 2)))
    g = make_doubly_stochastic(bare)
    with pytest.raises(ValueError):
        consensus_step(g, np.zeros((3, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        consensus_step(g, np.zeros((4, 2)), np.zeros((4, 3)))


# ------------------------------------------------------------------ spectrum


def test_spectrum_of_one_step_consensus():
    g = make_doubly_stochastic(gen_digraph(7, 1.0, seed=1))
    spec = spectrum(g)
    assert spec.rho_disagreement <= 1e-13
    assert spec.sigma_disagreement <= 1e-13


def test_spectrum_two_agent_uniform():
    g = WeightedDigraph(2, {(0, 0), (0, 1), (1, 0), (1, 1)},
                        np.full((2, 2), 0.5))
    assert spectrum(g).rho_disagreement <= 1e-15


def _frozen_input_errors(g, steps, rng):
    phi = rng.normal(size=(g.n_agents, 3))
    z = rng.normal(size=(g.n_agents, 3))
    # fixed point keeps the initial tracker mean, offsets the contributions
    target = z.mean(axis=0) + phi.mean(axis=0) - phi
    errs = []
    for _ in range(steps + 1):
        errs.append(float(np.linalg.norm(z - target)))
        z = consensus_step(g, z, phi)
    return errs


def test_disagreement_decays_per_step_symmetric_weights():
    """Symmetric weights make the disagreement map self-adjoint, so every
    step contracts by at most the spectral radius."""
    rng = np.random.default_rng(31)
    g = make_doubly_stochastic(gen_digraph(12, 0.3, seed=6),
                               method="metropolis_symmetrized")
    rho = spectrum(g).rho_disagreement
    assert rho < 1.0
    errs = _frozen_input_errors(g, 40, rng)
    for t in range(10, 40):
        if errs[t] > 1e-12:
            assert errs[t + 1] <= (rho + 0.01) * errs[t], f"step {t}"
    assert errs[40] <= errs[10] * (rho + 0.01) ** 30 + 1e-12


def test_disagreement_decays_windowed_directed_weights():
    """Directed balancing gives a nonnormal disagreement map whose per-step
    ratios oscillate around the spectral radius forever; the sound check is
    the 10-step geometric rate."""
    rng = np.random.default_rng(31)
    g = make_doubly_stochastic(gen_digraph(12, 0.3, seed=6), method="sinkhorn")
    rho = spectrum(g).rho_disagreement
    assert rho < 1.0
    errs = _frozen_input_errors(g, 50, rng)
    for t in range(10, 40):
        if errs[t + 10] > 1e-12:
            rate = (errs[t + 10] / errs[t]) ** 0.1
            assert rate <= rho + 0.01, f"window at {t}"
    assert errs[40] <= errs[10] * (rho + 0.01) ** 30 + 1e-12

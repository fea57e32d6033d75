"""Graph generation, doubly stochastic weights, consensus step, spectrum."""

import hashlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
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


def _scc_count(support):
    # independent strong-connectivity route
    count, _ = connected_components(csr_matrix(support),
                                    directed=True, connection="strong")
    return count


def _cycle_support(n):
    # self-loops plus the directed cycle i -> i + 1, stored at [dst, src]
    return np.eye(n, dtype=bool) | np.roll(np.eye(n, dtype=bool), 1, axis=0)


# ------------------------------------------------------------- generation


def test_full_probability_gives_complete_digraph():
    s = gen_digraph(6, 1.0, seed=0)
    assert s.shape == (6, 6)
    assert s.dtype == bool
    assert s.flags.c_contiguous
    assert s.all()


def test_zero_probability_gives_cycle_plus_loops():
    s = gen_digraph(5, 0.0, seed=3)
    assert s.sum() == 10  # 5 loops + 5 cycle arcs
    assert s.diagonal().all()
    arcs = s & ~np.eye(5, dtype=bool)
    assert np.all(arcs.sum(axis=0) == 1)  # one out-neighbour per source
    assert np.all(arcs.sum(axis=1) == 1)  # one in-neighbour per destination
    assert is_strongly_connected(s)
    assert _scc_count(s) == 1


def test_desk_scale_generation_strongly_connected():
    s = gen_digraph(321, 0.7, seed=7)
    assert s.diagonal().all()
    assert is_strongly_connected(s)
    assert _scc_count(s) == 1


def test_generation_reproducible_and_seed_sensitive():
    a = gen_digraph(30, 0.4, seed=11)
    b = gen_digraph(30, 0.4, seed=11)
    c = gen_digraph(30, 0.4, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _sha256(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


def test_desk_graph_is_pinned_bitwise():
    # digests of the desk graph of the benchmark configs; a change here
    # means a seed no longer pins the graph and its weights bitwise
    s = gen_digraph(40, 0.3, 11)
    assert _sha256(s) == \
        "ccfde507db5ea6dcccf48e8456f2d576dd10a37e407658d939499e9ed921d6fc"
    assert _sha256(make_doubly_stochastic(s).weights) == \
        "a6501cee9725bbb607508e2e693aafcc93eceb2095b801af24ae6cb0aed09b14"
    assert _sha256(make_doubly_stochastic(s, method="sinkhorn").weights) == \
        "8a133500d916636a712758b986a04b3b1567dd1d58c72bc162a90ad6cbde8bcc"


def test_generation_validation():
    with pytest.raises(ValueError):
        gen_digraph(1, 0.5, seed=0)
    with pytest.raises(ValueError):
        gen_digraph(5, -0.1, seed=0)
    with pytest.raises(ValueError):
        gen_digraph(5, 1.5, seed=0)


def test_digraph_constructor_validation():
    g = WeightedDigraph(np.full((2, 2), 0.5))
    assert g.n_agents == 2
    assert g.support.all()
    # the support is where the weights are positive
    assert np.array_equal(WeightedDigraph(np.diag([1.0, 0.0])).support,
                          np.diag([True, False]))
    for weights in (np.ones((2, 3)),                # not square
                    np.ones(4),                     # not a matrix
                    np.zeros((0, 0)),               # no nodes
                    -np.eye(2)):                    # negative
        with pytest.raises(ValueError):
            WeightedDigraph(weights)
    for bad in (np.nan, np.inf):                    # non-finite on an edge
        weights = np.full((2, 2), 0.5)
        weights[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            WeightedDigraph(weights)


# ---------------------------------------------------------------- weights


def test_directed_cycle_balances_to_half_half():
    g = make_doubly_stochastic(_cycle_support(6), method="sinkhorn")
    w = g.weights
    nz = w[w != 0.0]
    assert nz.size == 12
    assert np.allclose(nz, 0.5, rtol=0, atol=1e-12)


def test_complete_graph_balances_to_uniform():
    s = gen_digraph(7, 1.0, seed=1)
    for method in ("sinkhorn", "metropolis_symmetrized"):
        w = make_doubly_stochastic(s, method=method).weights
        assert np.allclose(w, np.full((7, 7), 1.0 / 7.0), rtol=0, atol=1e-12)


def test_weights_doubly_stochastic_and_on_support():
    s = gen_digraph(15, 0.3, seed=21)
    sink = make_doubly_stochastic(s, method="sinkhorn")
    assert sink.stochasticity_residual() <= 1e-12
    # balancing never moves the support
    assert np.array_equal(sink.support, s)
    metro = make_doubly_stochastic(s, method="metropolis_symmetrized")
    assert metro.stochasticity_residual() <= 1e-12
    assert np.array_equal(metro.support, s | s.T)
    assert np.all(metro.weights == metro.weights.T)
    assert np.all(np.diag(metro.weights) > 0)


def test_weight_synthesis_reproducible():
    a = make_doubly_stochastic(gen_digraph(20, 0.4, seed=5), method="sinkhorn")
    b = make_doubly_stochastic(gen_digraph(20, 0.4, seed=5), method="sinkhorn")
    assert np.array_equal(a.weights, b.weights)


def test_sinkhorn_iteration_cap():
    s = gen_digraph(10, 0.35, seed=5)
    with pytest.raises(SinkhornStalled) as info:
        make_doubly_stochastic(s, method="sinkhorn", max_iter=2)
    assert info.value.iterations == 2
    assert info.value.residual > 1e-13


def test_weight_synthesis_preconditions():
    malformed = (np.ones((2, 3), dtype=bool),                     # not square
                 np.ones(4, dtype=bool),                          # not a matrix
                 np.zeros((0, 0), dtype=bool),                    # no nodes
                 np.ones((2, 2)))                                 # not boolean
    for support in malformed:
        with pytest.raises(ValueError):
            is_strongly_connected(support)
    for support in (_cycle_support(3) & ~np.eye(3, dtype=bool),  # no loops
                    np.eye(2, dtype=bool),                        # disconnected
                    *malformed):
        with pytest.raises(ValueError):
            make_doubly_stochastic(support)
    with pytest.raises(ValueError):
        make_doubly_stochastic(gen_digraph(4, 0.5, seed=0), method="magic")


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: arrays(bool, (n, n), elements=st.booleans())), st.booleans())
def test_connectivity_and_weight_preconditions_on_random_supports(support, loops):
    # arbitrary patterns: disconnected ones, ones missing self-loops, and
    # (with `loops`) ones whose only defect can be connectivity
    if loops:
        np.fill_diagonal(support, True)
    connected = _scc_count(support) == 1
    assert is_strongly_connected(support) == connected
    admissible = connected and bool(support.diagonal().all())
    # the weights keep the support they were built on, symmetrized by
    # the Metropolis rule
    kept = {"metropolis_symmetrized": support | support.T, "sinkhorn": support}
    for method in ("metropolis_symmetrized", "sinkhorn"):
        if admissible:
            w = make_doubly_stochastic(support, method=method)
            assert np.array_equal(w.support, kept[method])
            assert w.stochasticity_residual() <= 1e-12
        else:
            with pytest.raises(ValueError):
                make_doubly_stochastic(support, method=method)


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
    g = WeightedDigraph(np.array([[1.0]]))
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
    g = make_doubly_stochastic(gen_digraph(4, 0.5, seed=0))
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


def test_spectrum_of_non_normal_sinkhorn_weights():
    # sinkhorn weights of a sparse digraph are not normal, so the spectral
    # radius of the disagreement map (~0.56) and its largest singular value
    # (~0.79) part; each must be the one its name says
    g = make_doubly_stochastic(gen_digraph(12, 0.3, seed=0), method="sinkhorn")
    w = g.weights
    assert np.abs(w @ w.T - w.T @ w).max() > 0.1
    m = w - np.full((12, 12), 1.0 / 12)
    rho = np.abs(scipy.linalg.eigvals(m)).max()
    sigma = scipy.linalg.svdvals(m)[0]
    assert sigma - rho > 0.2
    spec = spectrum(g)
    assert spec.rho_disagreement == pytest.approx(rho, rel=1e-12)
    assert spec.sigma_disagreement == pytest.approx(sigma, rel=1e-12)


def test_spectrum_two_agent_uniform():
    g = WeightedDigraph(np.full((2, 2), 0.5))
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

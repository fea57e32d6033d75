"""Communication graphs and the perturbed average-consensus step.

Agents exchange tracker states over a directed strongly connected graph
whose weight matrix is doubly stochastic.  Graphs are generated as
seeded random digraphs augmented with a Hamiltonian cycle (strong
connectivity by construction, no rejection sampling) plus all
self-loops.  Weights come from either Sinkhorn balancing on the directed
support or a symmetrized Metropolis rule; the latter always exists and
is the experiment default, the former preserves the directed structure.
"""

from typing import NamedTuple

import numpy as np

from .errors import SinkhornStalled

SINKHORN_TOL = 1e-13
SINKHORN_MAX_ITER = 100000

_WEIGHT_METHODS = ("metropolis_symmetrized", "sinkhorn")


class WeightedDigraph:
    """Directed graph on agent indices, held as its consensus weights.

    The weight ``weights[dst, src]`` is positive exactly for the edge
    src -> dst, information flowing from src to dst, so row i lists the
    in-neighbours of node i; the boolean ``support`` is ``weights > 0``.
    Instances are treated as immutable once built.
    """

    def __init__(self, weights):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2 or weights.shape[0] != weights.shape[1] or weights.size == 0:
            raise ValueError("weights must be a nonempty square matrix")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        self.n_agents = weights.shape[0]
        self.weights = weights
        self.support = weights > 0

    def stochasticity_residual(self):
        """Worst deviation of any row or column sum from one."""
        w = self.weights
        return float(max(np.abs(w.sum(axis=0) - 1.0).max(),
                         np.abs(w.sum(axis=1) - 1.0).max()))


def is_strongly_connected(support):
    """Every node reaches every node of the boolean ``support[dst, src]``,
    by forward and backward sweeps."""
    support = np.asarray(support)
    if support.ndim != 2 or support.shape[0] != support.shape[1] or support.size == 0:
        raise ValueError("support must be a nonempty square matrix")
    if support.dtype != bool:
        raise ValueError("support must be a boolean matrix")

    def reaches_all(adj):  # adj[dst, src]: the sweep follows src -> dst
        seen = np.zeros(len(adj), dtype=bool)
        seen[0] = True
        frontier = seen
        while frontier.any():
            frontier = adj[:, frontier].any(axis=1) & ~seen
            seen = seen | frontier
        return bool(seen.all())

    return reaches_all(support) and reaches_all(support.T)


def gen_digraph(n_agents, edge_prob, seed):
    """Boolean support ``[dst, src]`` of a seeded random digraph, strongly
    connected by construction.

    Every ordered pair (i, j), i != j, is included independently with
    probability ``edge_prob``; a Hamiltonian cycle over a seeded
    permutation is then added, and every self-loop.  The random draws
    happen in a fixed order (full pair matrix first, then the
    permutation) so a seed pins the graph bitwise.
    """
    n_agents = int(n_agents)
    if n_agents < 2:
        raise ValueError("random graph generation needs at least 2 nodes")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    arcs = rng.random((n_agents, n_agents)) < edge_prob  # arcs[src, dst]
    perm = rng.permutation(n_agents)
    arcs[perm, np.roll(perm, -1)] = True
    np.fill_diagonal(arcs, True)
    return arcs.T.copy()


def _sinkhorn(support, max_iter):
    # C order: the bits of the row and column sums depend on it
    m = support.astype(float, order="C")
    residual = np.inf
    for _ in range(max_iter):
        m /= m.sum(axis=1, keepdims=True)
        m /= m.sum(axis=0, keepdims=True)
        residual = max(np.abs(m.sum(axis=1) - 1.0).max(),
                       np.abs(m.sum(axis=0) - 1.0).max())
        if residual <= SINKHORN_TOL:
            return m
    raise SinkhornStalled(
        f"balancing residual {residual:.3e} after {max_iter} iterations; "
        f"consider the metropolis_symmetrized method",
        residual=float(residual), iterations=max_iter)


def make_doubly_stochastic(support, method="metropolis_symmetrized",
                           max_iter=SINKHORN_MAX_ITER):
    """The weighted graph of doubly stochastic weights on a support.

    ``support`` is a square boolean ``[dst, src]`` matrix with every
    self-loop, strongly connected.  sinkhorn keeps the directed support
    (strong connectivity plus self-loops makes the pattern fully
    indecomposable, so the balancing converges); metropolis_symmetrized
    first symmetrizes the support, sets w_ij = 1/(1 + max(deg_i, deg_j))
    across each undirected edge and puts the remainder on the diagonal,
    which is symmetric and hence doubly stochastic with no iteration at
    all.
    """
    if method not in _WEIGHT_METHODS:
        raise ValueError(f"unknown weight method {method!r}; pick from {_WEIGHT_METHODS}")
    support = np.asarray(support)
    if not is_strongly_connected(support):
        raise ValueError("weight synthesis expects a strongly connected graph")
    if not support.diagonal().all():
        raise ValueError("weight synthesis expects all self-loops present")

    if method == "sinkhorn":
        return WeightedDigraph(_sinkhorn(support, max_iter))

    sym = support | support.T
    off = sym & ~np.eye(len(sym), dtype=bool)
    deg = off.sum(axis=1)
    w = np.where(off, 1.0 / (1.0 + np.maximum.outer(deg, deg)), 0.0)
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return WeightedDigraph(w)


def consensus_step(graph, z, phix, estimates=None):
    """One perturbed-consensus update of the tracker stack.

    Computes W z + (W - I) phi as W (z + phi) - phi, one product on
    (N, d) arrays (``estimates``, if given, is z + phi formed already);
    the lifted Kronecker operator is never materialized.
    Row and column sums of W being one makes the per-column mean of z
    invariant, which is the conservation property the trackers rely on.
    """
    z = np.asarray(z, dtype=float)
    phix = np.asarray(phix, dtype=float)
    if z.ndim != 2 or z.shape[0] != graph.n_agents:
        raise ValueError(f"tracker stack must be ({graph.n_agents}, d)")
    if phix.shape != z.shape:
        raise ValueError("tracker and contribution stacks must share a shape")
    return graph.weights @ (z + phix if estimates is None else estimates) - phix


class ConsensusSpectrum(NamedTuple):
    """Spectral data of the disagreement map W - (1/N) ones."""

    rho_disagreement: float
    sigma_disagreement: float


def spectrum(graph):
    """Contraction data of the consensus disagreement dynamics.

    The map acting on the disagreement subspace is W - (1/N) 11'; its
    spectral radius governs the asymptotic per-step decay and its
    largest singular value the one-step worst case.
    """
    n = graph.n_agents
    m = graph.weights - np.full((n, n), 1.0 / n)
    eigs = np.linalg.eigvals(m)
    rho = float(np.abs(eigs).max())
    sigma = float(np.linalg.norm(m, 2))
    return ConsensusSpectrum(rho, sigma)

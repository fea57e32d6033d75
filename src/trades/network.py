"""Communication graphs and the perturbed average-consensus step.

Agents exchange tracker states over a directed strongly connected graph
whose weight matrix is doubly stochastic.  Graphs are generated as
seeded random digraphs augmented with a Hamiltonian cycle (strong
connectivity by construction, no rejection sampling) plus all
self-loops.  Weights come from either Sinkhorn balancing on the directed
support or a symmetrized Metropolis rule; the latter always exists and
is the experiment default, the former preserves the directed structure.
"""

import numpy as np

from .errors import SinkhornStalled

SINKHORN_TOL = 1e-13
SINKHORN_MAX_ITER = 100000

_WEIGHT_METHODS = ("metropolis_symmetrized", "sinkhorn")


class WeightedDigraph:
    """Directed graph on agent indices with optional consensus weights.

    Edges are ordered (src, dst) pairs, information flowing src -> dst;
    the weight matrix entry ``weights[dst, src]`` is positive exactly on
    edges.  Instances are treated as immutable once built.
    """

    def __init__(self, n_agents, edges, weights=None):
        n_agents = int(n_agents)
        if n_agents < 1:
            raise ValueError("graph needs at least one node")
        edges = {(int(s), int(t)) for s, t in edges}
        for s, t in edges:
            if not (0 <= s < n_agents and 0 <= t < n_agents):
                raise ValueError(f"edge ({s},{t}) out of range for {n_agents} nodes")
        self.n_agents = n_agents
        self.edges = frozenset(edges)
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != (n_agents, n_agents):
                raise ValueError("weight matrix shape mismatch")
            if np.any(weights < 0):
                raise ValueError("weights must be nonnegative")
            support = self.support_matrix().astype(bool)
            if np.any(weights[~support] != 0.0):
                raise ValueError("positive weight outside the edge set")
            if np.any(weights[support] <= 0.0):
                raise ValueError("zero weight on an edge")
        self.weights = weights

    def support_matrix(self):
        """0/1 matrix with ones at [dst, src] for every edge."""
        s = np.zeros((self.n_agents, self.n_agents))
        for src, dst in self.edges:
            s[dst, src] = 1.0
        return s

    def has_all_self_loops(self):
        return all((i, i) in self.edges for i in range(self.n_agents))

    def stochasticity_residual(self):
        """Worst deviation of any row or column sum from one."""
        if self.weights is None:
            raise ValueError("weights not set")
        w = self.weights
        return float(max(np.abs(w.sum(axis=0) - 1.0).max(),
                         np.abs(w.sum(axis=1) - 1.0).max()))


def is_strongly_connected(graph):
    """Every node reaches every node, by forward and backward sweeps."""
    n = graph.n_agents
    out_adj = [[] for _ in range(n)]
    in_adj = [[] for _ in range(n)]
    for src, dst in graph.edges:
        out_adj[src].append(dst)
        in_adj[dst].append(src)

    def reaches_all(adj):
        seen = [False] * n
        seen[0] = True
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return all(seen)

    return reaches_all(out_adj) and reaches_all(in_adj)


def gen_digraph(n_agents, edge_prob, seed):
    """Seeded random digraph, strongly connected by construction.

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
    mask = rng.random((n_agents, n_agents)) < edge_prob
    edges = {(i, j) for i in range(n_agents) for j in range(n_agents)
             if i != j and mask[i, j]}
    perm = rng.permutation(n_agents)
    for k in range(n_agents):
        edges.add((int(perm[k]), int(perm[(k + 1) % n_agents])))
    for i in range(n_agents):
        edges.add((i, i))
    return WeightedDigraph(n_agents, edges)


def _sinkhorn(support, tol, max_iter):
    m = support.copy()
    residual = np.inf
    for it in range(1, max_iter + 1):
        m /= m.sum(axis=1, keepdims=True)
        m /= m.sum(axis=0, keepdims=True)
        residual = max(np.abs(m.sum(axis=1) - 1.0).max(),
                       np.abs(m.sum(axis=0) - 1.0).max())
        if residual <= tol:
            return m
    raise SinkhornStalled(
        f"balancing residual {residual:.3e} after {max_iter} iterations; "
        f"consider the metropolis_symmetrized method",
        residual=float(residual), iterations=max_iter)


def make_doubly_stochastic(graph, method="metropolis_symmetrized",
                           tol=SINKHORN_TOL, max_iter=SINKHORN_MAX_ITER):
    """Attach doubly stochastic weights supported on the graph.

    sinkhorn keeps the directed support (strong connectivity plus
    self-loops makes the pattern fully indecomposable, so the balancing
    converges); metropolis_symmetrized first symmetrizes the edge set,
    sets w_ij = 1/(1 + max(deg_i, deg_j)) across each undirected edge
    and puts the remainder on the diagonal, which is symmetric and hence
    doubly stochastic with no iteration at all.
    """
    if method not in _WEIGHT_METHODS:
        raise ValueError(f"unknown weight method {method!r}; pick from {_WEIGHT_METHODS}")
    if not graph.has_all_self_loops():
        raise ValueError("weight synthesis expects all self-loops present")
    if not is_strongly_connected(graph):
        raise ValueError("weight synthesis expects a strongly connected graph")
    n = graph.n_agents

    if method == "sinkhorn":
        w = _sinkhorn(graph.support_matrix(), tol, max_iter)
        return WeightedDigraph(n, graph.edges, w)

    sym_edges = set(graph.edges)
    sym_edges.update((t, s) for s, t in graph.edges)
    neighbors = [set() for _ in range(n)]
    for s, t in sym_edges:
        if s != t:
            neighbors[s].add(t)
            neighbors[t].add(s)
    deg = np.array([len(nb) for nb in neighbors], dtype=float)
    w = np.zeros((n, n))
    for i in range(n):
        for j in neighbors[i]:
            w[i, j] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return WeightedDigraph(n, sym_edges, w)


def consensus_step(graph, z, phix):
    """One perturbed-consensus update of the tracker stack.

    Computes W z + (W - I) phi as W (z + phi) - phi, one product on
    (N, d) arrays; the lifted Kronecker operator is never materialized.
    Row and column sums of W being one makes the per-column mean of z
    invariant, which is the conservation property the trackers rely on.
    """
    if graph.weights is None:
        raise ValueError("weights not set")
    z = np.asarray(z, dtype=float)
    phix = np.asarray(phix, dtype=float)
    if z.ndim != 2 or z.shape[0] != graph.n_agents:
        raise ValueError(f"tracker stack must be ({graph.n_agents}, d)")
    if phix.shape != z.shape:
        raise ValueError("tracker and contribution stacks must share a shape")
    w = graph.weights
    return w @ (z + phix) - phix


class ConsensusSpectrum:
    """Spectral data of the disagreement map W - (1/N) ones."""

    def __init__(self, rho_disagreement, sigma_disagreement):
        self.rho_disagreement = float(rho_disagreement)
        self.sigma_disagreement = float(sigma_disagreement)

    def __repr__(self):
        return (f"ConsensusSpectrum(rho_disagreement={self.rho_disagreement:.6g}, "
                f"sigma_disagreement={self.sigma_disagreement:.6g})")


def spectrum(graph):
    """Contraction data of the consensus disagreement dynamics.

    The map acting on the disagreement subspace is W - (1/N) 11'; its
    spectral radius governs the asymptotic per-step decay and its
    largest singular value the one-step worst case.
    """
    if graph.weights is None:
        raise ValueError("weights not set")
    n = graph.n_agents
    m = graph.weights - np.full((n, n), 1.0 / n)
    eigs = np.linalg.eigvals(m)
    rho = float(np.abs(eigs).max())
    sigma = float(np.linalg.norm(m, 2))
    return ConsensusSpectrum(rho, sigma)


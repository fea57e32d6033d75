"""Aggregative game definitions and centralized reference computations.

An aggregative game couples N agents only through the average of
per-agent aggregation maps.  Each agent owns a cost oracle (partial
gradients with respect to its own strategy and the aggregate), an
aggregation rule, and a feasible-set projector.  On top of those this
module evaluates the stacked pseudo-gradient, validates the structural
assumptions (strong monotonicity, Lipschitz bounds), and solves for the
Nash equilibrium with a high-precision projected-gradient oracle.

The quadratic family built by :func:`quadratic_aggregative_game` keeps
the pseudo-gradient affine, so its monotonicity modulus is an exact
eigenvalue rather than a sampled estimate; it is the canonical test
family and the shape the smart-grid case study reduces to.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import MaxIterExceeded
from .projections import FeasibleSetProjector, box_projector, identity_projector


class StrategyProfile:
    """Stacked strategies of all agents with per-agent block structure."""

    def __init__(self, blocks):
        self.blocks = [np.asarray(b, dtype=float).reshape(-1) for b in blocks]
        if not self.blocks:
            raise ValueError("profile needs at least one agent block")
        self.dims = [b.size for b in self.blocks]
        self.n = int(sum(self.dims))

    @property
    def stacked(self):
        return np.concatenate(self.blocks)

    def __len__(self):
        return len(self.blocks)


@dataclass
class AggregationRule:
    """Per-agent contribution map into the shared aggregate space.

    ``evaluate`` maps a strategy to its d-dimensional contribution and
    ``jacobian`` returns the d x n_i derivative at a point.  The chain
    rule is applied as jacobian-transpose times the aggregate gradient,
    which keeps every dimension bookkeeping identical for linear and
    nonlinear maps.
    """

    dim_in: int
    dim_out: int
    evaluate: callable
    jacobian: callable
    lipschitz_bound: float = None


def linear_aggregation(matrix):
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("aggregation matrix must be 2-D")
    d, n_i = matrix.shape
    return AggregationRule(
        dim_in=n_i, dim_out=d,
        evaluate=lambda v, m=matrix: m @ v,
        jacobian=lambda v, m=matrix: m,
        lipschitz_bound=float(np.linalg.norm(matrix, 2)))


@dataclass
class CostOracle:
    """Partial gradients of one agent's cost J(x_i, s).

    grad_strategy: derivative in the agent's own strategy at fixed s.
    grad_aggregate: derivative in the aggregate slot.
    value: optional scalar cost, used only for reporting and
    finite-difference cross-checks.
    """

    grad_strategy: callable
    grad_aggregate: callable
    value: callable = None


@dataclass
class GameAgent:
    cost: CostOracle
    aggregation: AggregationRule
    projector: FeasibleSetProjector


class GameDefinition:
    """N agents sharing one aggregate space of dimension d."""

    def __init__(self, agents, affine=None):
        agents = list(agents)
        if not agents:
            raise ValueError("game needs at least one agent")
        d_values = {a.aggregation.dim_out for a in agents}
        if len(d_values) != 1:
            raise ValueError(f"agents disagree on aggregate dimension: {sorted(d_values)}")
        for idx, a in enumerate(agents):
            if a.projector.dim != a.aggregation.dim_in:
                raise ValueError(
                    f"agent {idx}: projector dim {a.projector.dim} != "
                    f"strategy dim {a.aggregation.dim_in}")
        self.agents = agents
        self.d = d_values.pop()
        self.N = len(agents)
        self.dims = [a.aggregation.dim_in for a in agents]
        self.offsets = np.cumsum([0] + self.dims)
        self.n = int(self.offsets[-1])
        self.affine = affine

    def split(self, stacked):
        stacked = np.asarray(stacked, dtype=float).reshape(-1)
        if stacked.size != self.n:
            raise ValueError(f"stacked length {stacked.size}, expected {self.n}")
        return [stacked[self.offsets[i]:self.offsets[i + 1]] for i in range(self.N)]

    def as_blocks(self, x):
        if isinstance(x, StrategyProfile):
            if x.dims != self.dims:
                raise ValueError("profile dims do not match the game")
            return x.blocks
        return self.split(x)

    def project(self, blocks):
        return [a.projector(b) for a, b in zip(self.agents, blocks)]


@dataclass
class AffineGameSpec:
    """Explicit affine pseudo-gradient F(x) = A x + b with box constraints.

    Carried alongside a GameDefinition when the game is known to be
    affine; lets the validators compute the monotonicity modulus as an
    exact eigenvalue instead of a sampled bound.  Both constants are
    dense O(n^3) factorizations, so each is computed on its first call
    and kept; A is not to be modified afterwards.
    """

    A: np.ndarray
    b: np.ndarray
    boxes: list = field(default_factory=list)

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float).reshape(-1)
        if self.A.shape != (self.b.size, self.b.size):
            raise ValueError("A must be square and match b")
        self._modulus = None
        self._lipschitz = None

    def exact_modulus(self):
        if self._modulus is None:
            self._modulus = float(
                np.linalg.eigvalsh((self.A + self.A.T) / 2.0)[0])
        return self._modulus

    def exact_lipschitz(self):
        if self._lipschitz is None:
            self._lipschitz = float(np.linalg.norm(self.A, 2))
        return self._lipschitz


# -------------------------------------------------------------- evaluation


def phi_stack(game, blocks):
    """All agent contributions as an (N, d) array.

    Every aggregate evaluation in the package funnels through this stack
    and :func:`aggregate` so repeated computations reduce in the same
    order and reproduce bitwise.
    """
    return np.stack([a.aggregation.evaluate(b)
                     for a, b in zip(game.agents, blocks)])


def aggregate(game, x):
    """Average contribution sigma(x) = (1/N) sum_i phi_i(x_i)."""
    return phi_stack(game, game.as_blocks(x)).mean(axis=0)


def local_operator(game, i, x_i, s):
    """Agent i's search direction given its own strategy and an aggregate
    estimate s: grad_strategy + jacobian^T grad_aggregate / N.

    Feeding the true aggregate recovers agent i's block of the
    pseudo-gradient; feeding a tracker output gives the decentralized
    surrogate.
    """
    agent = game.agents[i]
    x_i = np.asarray(x_i, dtype=float).reshape(-1)
    s = np.asarray(s, dtype=float).reshape(-1)
    if x_i.size != agent.aggregation.dim_in:
        raise ValueError(f"agent {i}: strategy has size {x_i.size}, "
                         f"expected {agent.aggregation.dim_in}")
    if s.size != game.d:
        raise ValueError(f"aggregate estimate has size {s.size}, expected {game.d}")
    g1 = agent.cost.grad_strategy(x_i, s)
    g2 = agent.cost.grad_aggregate(x_i, s)
    jac = agent.aggregation.jacobian(x_i)
    return np.asarray(g1, dtype=float) + jac.T @ np.asarray(g2, dtype=float) / game.N


def pseudo_gradient(game, x):
    """Stacked partial gradients F(x), each agent fed the true aggregate."""
    blocks = game.as_blocks(x)
    s = phi_stack(game, blocks).mean(axis=0)
    return np.concatenate([local_operator(game, i, blocks[i], s)
                           for i in range(game.N)])


# -------------------------------------------------------------- validation


@dataclass
class AssumptionReport:
    """Outcome of the structural checks a game must pass before a run."""

    mu: float                      # exact eigenvalue or sampled lower bound
    mu_is_exact: bool
    lipschitz_pseudo_gradient: float
    lip_grad_strategy: float
    lip_grad_aggregate: float
    lip_aggregation: float
    projector_idempotent: bool
    declared_bounds_ok: bool
    samples: int

    @property
    def monotone(self):
        return self.mu > 0.0

    @property
    def passed(self):
        return self.monotone and self.projector_idempotent and self.declared_bounds_ok

    def summary_lines(self):
        kind = "exact" if self.mu_is_exact else f"sampled over {self.samples} pairs"
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"monotonicity modulus: {self.mu:.6g} ({kind})",
            f"pseudo-gradient Lipschitz: {self.lipschitz_pseudo_gradient:.6g}",
            f"own-gradient Lipschitz: {self.lip_grad_strategy:.6g}",
            f"aggregate-gradient Lipschitz: {self.lip_grad_aggregate:.6g}",
            f"aggregation-map Lipschitz: {self.lip_aggregation:.6g}",
            f"projectors idempotent: {'yes' if self.projector_idempotent else 'NO'}",
            f"declared bounds hold: {'yes' if self.declared_bounds_ok else 'NO'}",
            f"assumptions: {verdict}",
        ]
        if not self.monotone:
            lines.insert(1, "WARNING: modulus is not positive; equilibrium "
                            "uniqueness and convergence are not guaranteed")
        return lines


def _sample_feasible(game, rng, scale=3.0):
    blocks = [a.projector(rng.normal(scale=scale, size=a.aggregation.dim_in))
              for a in game.agents]
    return blocks


def validate_assumptions(game, sample_budget=50, rng=None, sample_scale=3.0):
    """Check strong monotonicity and Lipschitz continuity on samples.

    Affine games get the exact modulus and operator norm; everything
    else is probed on ``sample_budget`` random feasible pairs and
    reported as empirical bounds, not proofs.
    """
    if sample_budget < 2:
        raise ValueError("sample_budget must be at least 2")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng

    mu_hat = np.inf
    lip_f = 0.0
    lip_g1 = 0.0
    lip_g2 = 0.0
    lip_phi = 0.0
    idempotent = True
    declared_ok = True

    for _ in range(sample_budget):
        xb = _sample_feasible(game, rng, sample_scale)
        yb = _sample_feasible(game, rng, sample_scale)
        x = np.concatenate(xb)
        y = np.concatenate(yb)
        diff = x - y
        nrm2 = float(diff @ diff)
        if nrm2 > 1e-20:
            df = pseudo_gradient(game, x) - pseudo_gradient(game, y)
            mu_hat = min(mu_hat, float(df @ diff) / nrm2)
            lip_f = max(lip_f, float(np.linalg.norm(df)) / np.sqrt(nrm2))
        s = aggregate(game, x)
        t = aggregate(game, y)
        for i, agent in enumerate(game.agents):
            pair_gap = np.sqrt(float(np.sum((xb[i] - yb[i]) ** 2)) +
                               float(np.sum((s - t) ** 2)))
            if pair_gap > 1e-10:
                d1 = np.linalg.norm(agent.cost.grad_strategy(xb[i], s) -
                                    agent.cost.grad_strategy(yb[i], t))
                d2 = np.linalg.norm(agent.cost.grad_aggregate(xb[i], s) -
                                    agent.cost.grad_aggregate(yb[i], t))
                lip_g1 = max(lip_g1, float(d1) / pair_gap)
                lip_g2 = max(lip_g2, float(d2) / pair_gap)
            gap_i = float(np.linalg.norm(xb[i] - yb[i]))
            if gap_i > 1e-10:
                dphi = float(np.linalg.norm(agent.aggregation.evaluate(xb[i]) -
                                            agent.aggregation.evaluate(yb[i])))
                lip_phi = max(lip_phi, dphi / gap_i)
                bound = agent.aggregation.lipschitz_bound
                if bound is not None and dphi > bound * gap_i * (1 + 1e-9) + 1e-12:
                    declared_ok = False
            again = agent.projector(xb[i])
            if np.linalg.norm(again - xb[i]) > 1e-8:
                idempotent = False

    if game.affine is not None:
        mu = game.affine.exact_modulus()
        lip_f = game.affine.exact_lipschitz()
        mu_exact = True
    else:
        mu = float(mu_hat) if np.isfinite(mu_hat) else 0.0
        mu_exact = False

    return AssumptionReport(
        mu=mu, mu_is_exact=mu_exact,
        lipschitz_pseudo_gradient=float(lip_f),
        lip_grad_strategy=float(lip_g1),
        lip_grad_aggregate=float(lip_g2),
        lip_aggregation=float(lip_phi),
        projector_idempotent=idempotent,
        declared_bounds_ok=declared_ok,
        samples=sample_budget)


# ------------------------------------------------------------------ oracle


def _oracle_stepsize(game):
    if game.affine is None:
        raise ValueError("stepsize required for games without affine structure")
    a = game.affine.A
    mu = game.affine.exact_modulus()
    lip = game.affine.exact_lipschitz()
    if mu <= 0:
        raise ValueError(f"game is not strongly monotone (modulus {mu:.3e})")
    skew = np.linalg.norm(a - a.T)
    if skew <= 1e-12 * max(1.0, np.linalg.norm(a)):
        # symmetric operator: plain gradient descent on the potential,
        # safe at the much larger 1/L step
        return 1.0 / lip
    return 0.9 * 2.0 * mu / lip ** 2


def solve_ne_oracle(game, gamma=None, tol=1e-12, max_iter=100000, x0=None):
    """High-precision Nash equilibrium by projected pseudo-gradient.

    Iterates x <- P_X[x - gamma F(x)] until the fixed-point residual
    drops to ``tol``.  The result is the reference point every error
    metric is measured against, so the default tolerance sits far below
    the accuracies claimed elsewhere.

    ``x0`` warm-starts the iteration (soundness is unaffected: the
    residual certifies the answer regardless of the starting point).
    Raises MaxIterExceeded with the best iterate if the residual will
    not come down.
    """
    if gamma is None:
        gamma = _oracle_stepsize(game)
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if x0 is None:
        blocks = game.project(game.split(np.zeros(game.n)))
    else:
        blocks = game.project(game.as_blocks(x0))
    x = np.concatenate(blocks)

    best = x
    best_resid = np.inf
    for _ in range(max_iter):
        f = pseudo_gradient(game, x)
        x_next = np.concatenate(game.project(game.split(x - gamma * f)))
        resid = float(np.linalg.norm(x - x_next))
        if resid < best_resid:
            best_resid = resid
            best = x_next
        x = x_next
        if resid <= tol:
            return StrategyProfile(game.split(x))
    raise MaxIterExceeded(
        f"fixed-point residual {best_resid:.3e} after {max_iter} iterations "
        f"(target {tol:.1e})", best=StrategyProfile(game.split(best)),
        residual=best_resid, iterations=max_iter)


# -------------------------------------------------------- quadratic family


def quadratic_aggregative_game(quadratics, linears, coupling, couplers,
                               aggregators, boxes=None):
    """Build the canonical quadratic test family.

    Agent i pays 0.5 x_i'Q_i x_i + r_i'x_i + kappa x_i'C_i sigma with
    contribution map phi_i(x_i) = G_i x_i.  Returns a GameDefinition
    with the induced affine pseudo-gradient attached, assembled by
    expanding the chain rule blockwise:

        A_ii = Q_i + (kappa/N)(C_i G_i + G_i'C_i')
        A_ij = (kappa/N) C_i G_j          for j != i
        b_i  = r_i
    """
    n_agents = len(quadratics)
    if not (len(linears) == len(couplers) == len(aggregators) == n_agents):
        raise ValueError("per-agent lists must share one length")
    kappa = float(coupling)
    qs = [np.asarray(q, dtype=float) for q in quadratics]
    rs = [np.asarray(r, dtype=float).reshape(-1) for r in linears]
    cs = [np.asarray(c, dtype=float) for c in couplers]
    gs = [np.asarray(g, dtype=float) for g in aggregators]
    d_values = {g.shape[0] for g in gs} | {c.shape[1] for c in cs}
    if len(d_values) != 1:
        raise ValueError("aggregate dimension inconsistent across agents")

    agents = []
    for i in range(n_agents):
        n_i = rs[i].size
        if qs[i].shape != (n_i, n_i) or cs[i].shape[0] != n_i or gs[i].shape[1] != n_i:
            raise ValueError(f"agent {i}: matrix shapes inconsistent with n_i={n_i}")
        if boxes is None:
            proj = identity_projector(n_i)
        else:
            proj = box_projector(*boxes[i])

        def make_cost(q, r, c):
            def grad_strategy(x_i, s):
                return q @ x_i + r + kappa * (c @ s)

            def grad_aggregate(x_i, s):
                return kappa * (c.T @ x_i)

            def value(x_i, s):
                return float(0.5 * x_i @ (q @ x_i) + r @ x_i + kappa * x_i @ (c @ s))

            return CostOracle(grad_strategy, grad_aggregate, value)

        agents.append(GameAgent(make_cost(qs[i], rs[i], cs[i]),
                                linear_aggregation(gs[i]), proj))

    dims = [r.size for r in rs]
    offsets = np.cumsum([0] + dims)
    n = offsets[-1]
    amat = np.zeros((n, n))
    bvec = np.concatenate(rs)
    for i in range(n_agents):
        si = slice(offsets[i], offsets[i + 1])
        for j in range(n_agents):
            sj = slice(offsets[j], offsets[j + 1])
            amat[si, sj] = (kappa / n_agents) * cs[i] @ gs[j]
        amat[si, si] += qs[i] + (kappa / n_agents) * gs[i].T @ cs[i].T
    affine = AffineGameSpec(amat, bvec, boxes=list(boxes) if boxes else [])
    game = GameDefinition(agents, affine=affine)
    # retained so instances can be written to and reread from text files
    game.quadratic_data = {"quadratics": qs, "linears": rs, "coupling": kappa,
                           "couplers": cs, "aggregators": gs,
                           "boxes": list(boxes) if boxes is not None else None}
    return game


def random_strongly_monotone_game(n_agents, strategy_dim, agg_dim, seed,
                                  coupling=0.3, box_halfwidth=5.0,
                                  ridge=1.5):
    """Seeded quadratic instance with a certified positive modulus.

    Draws dense per-agent data, adds a ridge to each Q_i, and retries on
    fresh draws (same stream) in the unlikely event the coupling pushes
    the symmetric part indefinite.
    """
    rng = np.random.default_rng(seed)
    for _ in range(50):
        qs, rs, cs, gs, boxes = [], [], [], [], []
        for _ in range(n_agents):
            bmat = rng.normal(size=(strategy_dim, strategy_dim)) / np.sqrt(strategy_dim)
            qs.append(bmat.T @ bmat + ridge * np.eye(strategy_dim))
            rs.append(rng.normal(size=strategy_dim))
            cs.append(rng.normal(size=(strategy_dim, agg_dim)) / np.sqrt(agg_dim))
            gs.append(rng.normal(size=(agg_dim, strategy_dim)) / np.sqrt(strategy_dim))
            if box_halfwidth is None:
                boxes.append((np.full(strategy_dim, -np.inf),
                              np.full(strategy_dim, np.inf)))
            else:
                boxes.append((-box_halfwidth * np.ones(strategy_dim),
                              box_halfwidth * np.ones(strategy_dim)))
        game = quadratic_aggregative_game(qs, rs, coupling, cs, gs, boxes)
        if game.affine.exact_modulus() > 0.25 * ridge:
            return game
    raise RuntimeError("could not draw a strongly monotone instance")

"""Aggregative game definitions and centralized reference computations.

An aggregative game couples N agents only through the average of their
contributions.  Every game this package builds is affine with linear
contribution maps, held as one stack of per-agent Kronecker factors:
agent i's strategy is a row-major (p, T) block x_i, it contributes the
(q, T) block (G_i (x) I_T) x_i and, holding an estimate s_i of the
aggregate, moves along the search direction
(B_i (x) I_T) x_i + (E_i (x) I_T) s_i + c_i (its own-strategy gradient
with the chain-rule term through its own contribution folded in).  The
quadratic family has T = 1; in the voltage game T is the horizon.  Fed
the true aggregate, the directions stack into the pseudo-gradient
F(x) = (A (x) I_T) x + c with A of side N p, and A (x) I_T has the
eigenvalues and singular values of A, so the monotonicity modulus and
the Lipschitz constant are exact eigenvalue and norm computations on A.

On top of that this module validates the structural assumptions and
solves for the Nash equilibrium with a high-precision projected-gradient
oracle.  The quadratic family built by :func:`quadratic_aggregative_game`
is the canonical test family; the smart-grid case study in
:mod:`trades.grid` builds the same representation.
"""

import numpy as np

from ._base import Record
from .errors import MaxIterExceeded
from .projections import Box, FeasibleSetProjector

_SAMPLE_SCALE = 3.0   # spread of the points validate_assumptions projects
_RIDGE = 1.5          # added to each Q_i by random_strongly_monotone_game
_ORACLE_STALL = 2000  # oracle iterations without a new best residual


class AffineGameSpec(Record):
    """Factor A of an affine pseudo-gradient F(x) = (A (x) I_T) x + c.

    A (x) I_T has the eigenvalues and singular values of A, so both
    constants are dense O((N p)^3) factorizations of A alone; each is
    computed on its first call and kept, and A is not to be modified
    afterwards.
    """

    A: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        side = self.A.shape[0] if self.A.ndim == 2 else 0
        if self.A.shape != (side, side) or side == 0:
            raise ValueError(f"A must be square and nonempty, got {self.A.shape}")
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


class GameDefinition:
    """N agents with (p, T) strategy blocks and a (q, T) aggregate.

    The per-agent factors are stacked over agents: B (N, p, p),
    E (N, p, q), G (N, q, p) and c (N, p, T), with T read from c.
    Agent i contributes (G_i (x) I_T) x_i and, given an aggregate
    estimate s_i, moves along (B_i (x) I_T) x_i + (E_i (x) I_T) s_i + c_i;
    strategies are m = p T and aggregates d = q T long.  projector is
    one feasible-set projector over the whole (N, m) strategy stack.
    The factor A = blockdiag(B) + E G / N of the pseudo-gradient
    (A (x) I_T) x + c is assembled here once.
    """

    def __init__(self, B, E, c, G, projector):
        B, E, c, G = (np.asarray(a, dtype=float) for a in (B, E, c, G))
        if B.ndim != 3 or B.shape[1] != B.shape[2] or B.shape[0] == 0:
            raise ValueError(f"B must be (N, p, p) with N >= 1, got {B.shape}")
        n_agents, p = B.shape[:2]
        q = G.shape[1] if G.ndim == 3 else -1
        horizon = c.shape[2] if c.ndim == 3 else -1
        if (E.shape, c.shape, G.shape) != ((n_agents, p, q),
                                           (n_agents, p, horizon),
                                           (n_agents, q, p)):
            raise ValueError(f"per-agent arrays disagree: B {B.shape}, "
                             f"E {E.shape}, c {c.shape}, G {G.shape}")
        self.N, self.p, self.q, self.T = n_agents, p, q, horizon
        self.m, self.d = p * horizon, q * horizon
        self.n = n_agents * self.m
        if projector.shape not in ((self.n,), (n_agents, self.m)):
            raise ValueError(f"projector acts on shape {projector.shape}, "
                             f"strategies have ({n_agents}, {self.m})")
        self.B, self.E, self.c, self.G = B, E, c, G
        self.projector = projector
        a = E.reshape(n_agents * p, q) @ G.transpose(1, 0, 2).reshape(
            q, n_agents * p)
        a /= n_agents
        diag = np.arange(n_agents)
        a.reshape(n_agents, p, n_agents, p)[diag, :, diag, :] += B
        self.affine = AffineGameSpec(a)

    def split(self, x):
        """(N, m) strategy array of a stacked vector or an (N, m) array."""
        x = np.asarray(x, dtype=float)
        if x.shape not in ((self.n,), (self.N, self.m)):
            raise ValueError(f"strategy has shape {x.shape}, expected "
                             f"({self.n},) or ({self.N}, {self.m})")
        return x.reshape(self.N, self.m)


# -------------------------------------------------------------- evaluation


def phi_stack(game, x):
    """All agent contributions (G_i (x) I_T) x_i of an (N, m) array, as (N, d).

    One batched product: row i, read as a (p, T) block X_i, maps to the
    (q, T) block G_i X_i, so the stack is ``G @ x`` over (N, p, T).
    Every aggregate evaluation in the package funnels through this stack,
    the aggregate being its column mean, so repeated computations reduce
    in the same order and reproduce bitwise.
    """
    x = np.asarray(x).reshape(game.N, game.p, game.T)
    return (game.G @ x).reshape(game.N, game.d)


def local_operator(game, x, s):
    """Every agent's search direction, as (N, m).

    x is the (N, m) strategy array and row i of the (N, d) array s is
    agent i's aggregate estimate; row i of the result is
    (B_i (x) I_T) x_i + (E_i (x) I_T) s_i + c_i.  Feeding the true
    aggregate in every row gives the pseudo-gradient; feeding tracker
    outputs gives the decentralized surrogate.  With rows read as (p, T)
    and (q, T) blocks this is the batched ``B @ x + E @ s + c``.
    """
    x, s = np.asarray(x), np.asarray(s)
    if x.shape != (game.N, game.m):
        raise ValueError(f"strategies have shape {x.shape}, "
                         f"expected ({game.N}, {game.m})")
    if s.shape != (game.N, game.d):
        raise ValueError(f"aggregate estimates have shape {s.shape}, "
                         f"expected ({game.N}, {game.d})")
    out = game.B @ x.reshape(game.N, game.p, game.T)
    out += game.E @ s.reshape(game.N, game.q, game.T)
    out += game.c
    return out.reshape(game.N, game.m)


def pseudo_gradient(game, x):
    """Stacked partial gradients F(x), each agent fed the true aggregate."""
    x = game.split(x)
    sigma = np.broadcast_to(phi_stack(game, x).mean(axis=0), (game.N, game.d))
    return local_operator(game, x, sigma).reshape(-1)


def damped_projected_step(game, x, direction, gamma, delta):
    """x + delta * (P(x - gamma * direction) - x) over the (N, m) stack:
    the one strategy update, so equal inputs give equal bits on every
    route (both run modes, reduced_system_run, and the oracle)."""
    return x + delta * (game.projector(x - gamma * direction) - x)


# -------------------------------------------------------------- validation


class AssumptionReport(Record):
    """Outcome of the structural checks a game must pass before a run."""

    mu: float                      # modulus of strong monotonicity
    mu_rounding: float             # N p eps L, the eigensolve's bound on mu
    lipschitz_pseudo_gradient: float
    lip_direction: float           # max_i ||[B_i E_i] (x) I_T||_2
    lip_aggregation: float         # max_i ||G_i (x) I_T||_2
    projector_residual: float      # worst membership residual of a sample
    samples: int

    @property
    def monotone(self):
        return self.mu > self.mu_rounding

    @property
    def projections_feasible(self):
        return self.projector_residual <= 1e-8

    @property
    def passed(self):
        return self.monotone and self.projections_feasible

    def summary_lines(self):
        feasible = "PASS" if self.projections_feasible else "FAIL"
        unresolved = ": sign not resolved" if abs(self.mu) <= self.mu_rounding else ""
        lines = [
            f"monotonicity modulus: {self.mu:.6g} "
            f"(rounding bound {self.mu_rounding:.3g}{unresolved})",
            f"pseudo-gradient Lipschitz: {self.lipschitz_pseudo_gradient:.6g}",
            f"search-direction Lipschitz, max_i ||[B_i E_i]||: "
            f"{self.lip_direction:.6g}",
            f"contribution-map Lipschitz, max_i ||G_i||: "
            f"{self.lip_aggregation:.6g}",
            f"feasible-set projections: max membership residual "
            f"{self.projector_residual:.3g} over {self.samples} samples "
            f"({feasible})",
            f"assumptions: {'PASS' if self.passed else 'FAIL'}",
        ]
        if not self.monotone:
            lines.insert(1, "WARNING: modulus is not positive beyond its "
                            "rounding bound; equilibrium uniqueness and "
                            "convergence are not guaranteed")
        return lines


def validate_assumptions(game, sample_budget=50, rng=0):
    """Exact game constants plus a sampled check of the projector.

    The modulus and the Lipschitz constants come from the game's
    factors (a Kronecker product with I_T keeps the norm of its factor).
    The modulus is an eigenvalue of a side N p matrix, computed to
    within N p eps L of rounding; the game counts as strongly monotone
    only when the modulus is above that bound.
    The projector is checked on ``sample_budget`` projected random
    points: each must be a member of the feasible set, that is a
    fixed point of a second projection (the projector's membership
    residual is exactly that distance).  ``rng`` seeds the sampled
    points; the fixed default makes the check reproducible.
    """
    if sample_budget < 1:
        raise ValueError("sample_budget must be at least 1")
    x = game.projector(np.random.default_rng(rng).normal(
        scale=_SAMPLE_SCALE, size=(sample_budget, game.N, game.m)))
    worst = max(0.0, *game.projector.membership_residual(x).tolist())
    lip = game.affine.exact_lipschitz()
    return AssumptionReport(
        mu=game.affine.exact_modulus(),
        mu_rounding=len(game.affine.A) * np.finfo(float).eps * lip,
        lipschitz_pseudo_gradient=lip,
        lip_direction=float(np.max(np.linalg.norm(
            np.concatenate([game.B, game.E], axis=2), 2, axis=(1, 2)))),
        lip_aggregation=float(np.max(np.linalg.norm(game.G, 2, axis=(1, 2)))),
        projector_residual=float(worst),
        samples=sample_budget)


# ------------------------------------------------------------------ oracle


def _oracle_stepsize(game):
    """Default step and momentum (gamma, beta) of the reference solve.

    A symmetric factor A makes F the gradient of a mu-strongly convex,
    L-smooth potential, so the solve takes the 1/L step with Nesterov's
    constant momentum beta = (sqrt(kappa) - 1)/(sqrt(kappa) + 1),
    kappa = L/mu, and contracts by about 1 - 1/sqrt(kappa) per step; any
    other A keeps the plain projected step 0.9 * 2 mu/L^2, beta = 0.
    """
    a = game.affine.A
    mu = game.affine.exact_modulus()
    lip = game.affine.exact_lipschitz()
    if mu <= 0:
        raise ValueError(f"game is not strongly monotone (modulus {mu:.3e})")
    skew = np.linalg.norm(a - a.T)
    if skew <= 1e-12 * max(1.0, np.linalg.norm(a)):
        root = np.sqrt(lip / mu)
        return 1.0 / lip, float((root - 1.0) / (root + 1.0))
    return 0.9 * 2.0 * mu / lip ** 2, 0.0


def solve_ne_oracle(game, gamma=None, tol=1e-12, max_iter=100000):
    """High-precision Nash equilibrium by projected pseudo-gradient.

    Iterates the undamped step x_next = P_X[y - gamma F(y)] from the
    extrapolated point y = x + beta (x - x_prev) until the fixed-point
    residual ||y - x_next|| drops to ``tol``.  With ``gamma`` given, or
    on a game that is not a potential game, beta = 0 and y = x: the
    plain step x <- P_X[x - gamma F(x)].  On a symmetric A the default
    is the 1/L step with the momentum of :func:`_oracle_stepsize`.  The
    result is the reference point every error metric is measured
    against, so the default tolerance sits far below the accuracies
    claimed elsewhere.

    Starts from the projection of zero.  Returns the equilibrium as an
    (N, m) array; raises MaxIterExceeded with the best such array if the
    residual will not come down: at once if it is not finite, and once
    _ORACLE_STALL iterations pass without a new best.
    """
    beta = 0.0
    if gamma is None:
        gamma, beta = _oracle_stepsize(game)
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    x = x_prev = game.projector(np.zeros((game.N, game.m)))
    best, best_resid, best_k = x, np.inf, 0
    for k in range(1, max_iter + 1):
        y = x + beta * (x - x_prev) if beta else x
        x_next = damped_projected_step(
            game, y, game.split(pseudo_gradient(game, y)), gamma, 1.0)
        resid = float(np.linalg.norm(y - x_next))
        if resid < best_resid:
            best, best_resid, best_k = x_next, resid, k
        elif not np.isfinite(resid):
            raise MaxIterExceeded(
                f"non-finite residual at iteration {k}; best fixed-point "
                f"residual {best_resid:.3e}", best=best,
                residual=best_resid, iterations=k)
        elif k - best_k >= _ORACLE_STALL:
            raise MaxIterExceeded(
                f"fixed-point residual {best_resid:.3e} not improved in "
                f"{_ORACLE_STALL} iterations (target {tol:.1e})", best=best,
                residual=best_resid, iterations=k)
        x_prev, x = x, x_next
        if resid <= tol:
            return x
    raise MaxIterExceeded(
        f"fixed-point residual {best_resid:.3e} after {max_iter} iterations "
        f"(target {tol:.1e})", best=best,
        residual=best_resid, iterations=max_iter)


# -------------------------------------------------------- quadratic family


def quadratic_aggregative_game(quadratics, linears, coupling, couplers,
                               aggregators, boxes=None):
    """Build the canonical quadratic test family.

    Agent i pays 0.5 x_i'Q_i x_i + r_i'x_i + kappa x_i'C_i sigma with
    contribution map phi_i(x_i) = G_i x_i.  Its search direction, the
    own-strategy gradient plus the chain-rule term through its own
    contribution, is B_i x_i + E_i s + c_i with

        B_i = Q_i + (kappa/N) G_i'C_i',   E_i = kappa C_i,   c_i = r_i.

    All agents share one strategy dimension m and one aggregate
    dimension d; the game's factors are these matrices with T = 1.
    """
    n_agents = len(quadratics)
    if not (len(linears) == len(couplers) == len(aggregators) == n_agents):
        raise ValueError("per-agent lists must share one length")
    dims = {np.size(r) for r in linears}
    if len(dims) != 1:
        raise ValueError(f"agents must share one strategy dimension, "
                         f"got {sorted(dims)}")
    kappa = float(coupling)
    qs, cs, gs = (np.array(v, dtype=float)
                  for v in (quadratics, couplers, aggregators))
    rs = np.array(linears, dtype=float).reshape(n_agents, -1)
    m = rs.shape[1]
    d = gs.shape[1] if gs.ndim == 3 else -1
    if qs.shape != (n_agents, m, m) or cs.shape != (n_agents, m, d) \
            or gs.shape != (n_agents, d, m):
        raise ValueError(f"matrix shapes inconsistent with m={m}: Q {qs.shape}, "
                         f"C {cs.shape}, G {gs.shape}")
    lower, upper = np.full(n_agents * m, -np.inf), np.full(n_agents * m, np.inf)
    if boxes is not None:
        lower, upper = (np.array([box[k] for box in boxes], dtype=float)
                        for k in (0, 1))
    cg = cs @ gs
    game = GameDefinition(qs + (kappa / n_agents) * cg.transpose(0, 2, 1),
                          kappa * cs, rs[:, :, None], gs,
                          FeasibleSetProjector(Box(lower, upper)))
    # the builder's stated inputs, against which its factors can be checked
    game.quadratic_data = {"quadratics": qs, "linears": rs, "coupling": kappa,
                           "couplers": cs, "aggregators": gs}
    return game


def random_strongly_monotone_game(n_agents, strategy_dim, agg_dim, seed,
                                  coupling=0.3, box_halfwidth=5.0):
    """Seeded quadratic instance with a certified positive modulus.

    Draws dense per-agent data, adds a ridge to each Q_i, and retries on
    fresh draws (same stream) in the unlikely event the coupling pushes
    the symmetric part indefinite; a coupling too large for 50 draws is
    a ValueError.
    """
    rng = np.random.default_rng(seed)
    for _ in range(50):
        qs, rs, cs, gs, boxes = [], [], [], [], []
        for _ in range(n_agents):
            bmat = rng.normal(size=(strategy_dim, strategy_dim)) / np.sqrt(strategy_dim)
            qs.append(bmat.T @ bmat + _RIDGE * np.eye(strategy_dim))
            rs.append(rng.normal(size=strategy_dim))
            cs.append(rng.normal(size=(strategy_dim, agg_dim)) / np.sqrt(agg_dim))
            gs.append(rng.normal(size=(agg_dim, strategy_dim)) / np.sqrt(strategy_dim))
            half = np.inf if box_halfwidth is None else box_halfwidth
            boxes.append((np.full(strategy_dim, -half),
                          np.full(strategy_dim, half)))
        game = quadratic_aggregative_game(qs, rs, coupling, cs, gs, boxes)
        if game.affine.exact_modulus() > 0.25 * _RIDGE:
            return game
    raise ValueError(f"coupling = {coupling} gave no strongly monotone "
                     "instance in 50 draws")

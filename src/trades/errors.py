"""Exception types raised by the toolkit."""


class TradesError(Exception):
    """Base class for all toolkit-specific errors."""


class MaxIterExceeded(TradesError):
    """An iterative solver hit its iteration cap before reaching tolerance.

    Carries the best iterate seen and its residual so callers can decide
    whether the partial result is usable.
    """

    def __init__(self, message, best=None, residual=None, iterations=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.iterations = iterations


class NonFiniteDetected(TradesError):
    """The sweep producing the given iteration has a non-finite step norm
    or tracker sum."""

    def __init__(self, iteration, trace=None):
        super().__init__(f"non-finite step norm or tracker sum at iteration "
                         f"{iteration}")
        self.iteration = iteration
        self.trace = trace


class SinkhornStalled(TradesError):
    """Alternating row/column normalization stopped making progress."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class MaxSweepsExceeded(TradesError):
    """An alternating-projection solver ran out of sweeps.

    Dykstra's algorithm sets ``best`` and ``residual`` to its best
    iterate; the feasible-set multiplier search leaves them ``None``.
    """

    def __init__(self, message, best=None, residual=None, sweeps=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.sweeps = sweeps


class EmptyIntersectionSuspected(TradesError):
    """An Intersection's feasibility certificate failed."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InfeasibleSpec(TradesError):
    """Problem data admits no feasible point (e.g. an unreachable energy target)."""


class ConfigError(TradesError):
    """An experiment configuration failed validation."""

"""Exception types raised by the toolkit."""


class TradesError(Exception):
    """Base class for all toolkit-specific errors."""


class _StoppedShort(TradesError):
    """A loop stopped short of its tolerance, with the best answer seen
    (None where it has none), its residual and the iterations spent."""

    def __init__(self, message, best=None, residual=None, iterations=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.iterations = iterations


class MaxIterExceeded(_StoppedShort):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class SinkhornStalled(_StoppedShort):
    """Alternating row/column normalization stopped making progress."""


class MaxSweepsExceeded(_StoppedShort):
    """An alternating-projection solver ran out of sweeps.

    Dykstra's algorithm sets ``best`` and ``residual`` to its best
    iterate; the feasible-set multiplier search leaves them ``None``.
    """


class EmptyIntersectionSuspected(_StoppedShort):
    """An Intersection's feasibility certificate failed."""


class InfeasibleSpec(TradesError):
    """Problem data admits no feasible point (e.g. an unreachable energy target)."""


class ConfigError(TradesError):
    """An experiment configuration failed validation."""

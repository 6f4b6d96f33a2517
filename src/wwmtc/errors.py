"""Exception types shared across the package."""


class WwmtcError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(WwmtcError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class OutOfRangeError(WwmtcError, ValueError):
    """A requested target is outside the achievable range.

    Carries the achievable interval so callers can recover or report it.
    """

    def __init__(self, message: str, lo: float, hi: float):
        super().__init__(message)
        self.lo = lo
        self.hi = hi


class FitConvergenceError(WwmtcError, RuntimeError):
    """An iterative fit exhausted its iteration budget.

    ``best_rms`` holds the smallest residual reached before giving up.
    """

    def __init__(self, message: str, best_rms: float):
        super().__init__(message)
        self.best_rms = best_rms


class InsufficientDataError(WwmtcError, ValueError):
    """Too few samples to perform a fit."""


class InsufficientSweepError(WwmtcError, ValueError):
    """A hysteresis fit needs at least one direction reversal in the input."""

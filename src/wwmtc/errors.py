"""Exception types shared across the package, and two argument rules:
a real argument as a float or a DomainError, which the value types and the
geometry functions share, and the value types' _make."""


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


def _real(name: str, x) -> float:
    """x as a float, for a real number of any type: an int, a numpy scalar, a
    Fraction or a Decimal.  Not a str or bytes, which float() would parse,
    nor a bool, Python's or numpy's (read by its dtype, without importing
    numpy), which float() would take as 0 or 1."""
    if type(x) is float:
        return x
    if not (isinstance(x, (str, bytes, bytearray, bool))
            or getattr(getattr(x, "dtype", None), "kind", None) == "b"):
        try:
            return float(x)
        except (TypeError, ValueError):  # say None, or a signalling NaN Decimal
            pass
        except OverflowError:  # an int or Fraction past the largest double
            raise DomainError(f"{name} is too large for a float") from None
    raise DomainError(f"{name}={x!r} must be a real number")


def _make(cls, iterable):
    """namedtuple's _make for a value type whose __new__ checks its fields.

    namedtuple's own, which _replace calls, builds the tuple without
    __new__; this one goes through it, but first refuses an iterable of the
    wrong length with namedtuple's TypeError, where cls(*iterable) would
    fill in the defaults.  Set as ``_make = classmethod(_make)``.
    """
    fields = tuple(iterable)
    if len(fields) != len(cls._fields):
        raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(fields)}")
    return cls(*fields)

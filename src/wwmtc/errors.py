"""Exception types shared across the package, and the argument rules of
its entry points: a real number as a float, a count as an int and a series
as a list of finite floats, or a DomainError; and the value types' _make."""

import math
import operator


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


# The smallest int that float() cannot convert: it rounds past the largest
# double.  Every use of a count is float arithmetic, which would raise
# OverflowError on such a count.
_FLOAT_INT_LIMIT = 2**1024 - 2**970


def _count(name: str, x, least: int) -> int:
    """x as an int >= least, for an int or a numpy integer (a 0-d integer
    array too); not a bool, a float nor any other array.  One past the
    range of doubles is reported in bits, since its digits may be too many
    for repr."""
    if type(x) is not int and not isinstance(x, bool) and hasattr(x, "__index__"):
        try:
            x = operator.index(x)  # a numpy integer; a numpy bool has no __index__
        except TypeError:  # an array's __index__ refuses all but a 0-d integer one
            pass
    if type(x) is int and not -_FLOAT_INT_LIMIT < x < _FLOAT_INT_LIMIT:
        raise DomainError(f"{name} has {x.bit_length()} bits, too large for a float")
    if not (type(x) is int and x >= least):
        raise DomainError(f"{name}={x!r} must be an integer >= {least}")
    return x


def _reals(name: str, xs, shape: str) -> list[float]:
    """A 1-D series, numpy's too, as a new list of finite floats, each by
    _real's rule; name is its plural, for the messages.  A list of floats
    is checked with no Python call per element.  DomainError(shape) when xs
    is not a 1-D series; an empty one is the caller's to refuse."""
    if getattr(xs, "ndim", 1) != 1:
        raise DomainError(shape)
    try:
        xs = xs.tolist() if hasattr(xs, "tolist") else list(xs)
    except TypeError:  # a number, say
        raise DomainError(shape) from None
    if not {float}.issuperset(map(type, xs)):
        xs = [_real(f"{name}[{i}]", x) for i, x in enumerate(xs)]
    # a finite sum has only finite terms; an infinite one may have overflowed
    if not (math.isfinite(sum(xs)) or all(map(math.isfinite, xs))):
        i = list(map(math.isfinite, xs)).index(False)
        raise DomainError(f"{name} must be finite: {name}[{i}] is {xs[i]!r}")
    return xs


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

"""Search the (n, L) plane for muscle specs meeting deformation requirements.

The length offset h0 is a fixed input (it is set by hardware, not by the
deformation model).  Arch height and width scale linearly with L, so with
ĥ, ŵ = solve_beam(1, p_cap) every constraint margin is affine in L: the
natural length is n·L + h0, the stroke n·L·(1 − ĥ) and the width L·ŵ.  For
each integer arch count n the feasible set is therefore one interval, the
intersection of at most five half-lines with L_range, computed directly.
When it is empty, the binding constraint is read off at the exact maximin
of the margins.  The whole search is a pure deterministic function of its
inputs.
"""

from __future__ import annotations

import math
import struct
from collections import namedtuple
from itertools import combinations
from operator import itemgetter

from .beam import solve_beam
from .errors import DomainError
from .muscle import (DEFAULT_P_CAP, KINDS, MuscleSpec, _check_p_cap, natural_length,
                     state_at)


class DesignConstraints(namedtuple(
        "DesignConstraints",
        "natural_length_range min_stroke max_width_at_full h0 n_range L_range"
        " min_width_at_full kind",
        defaults=(0.0, "radial"))):
    """Requirements on an expanding muscle at full contraction (p = p_cap).

    All lengths in mm, ranges (min, max).  ``min_stroke`` is the required
    contraction at p_cap, ``max_width_at_full`` the expansion ceiling there
    (the proxy for "gentle expansion": no default is asserted, the user must
    pick it).  ``kind`` is the label stamped on emitted specs; no formula effect.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # written as "not ... < inf" so that NaN fails every check
        for name in ("natural_length_range", "n_range", "L_range"):
            lo, hi = getattr(self, name)
            if not 0.0 <= lo <= hi < math.inf:
                raise DomainError(
                    f"{name}={getattr(self, name)!r} must satisfy 0 <= min <= max < inf")
        for name in ("min_stroke", "max_width_at_full", "min_width_at_full", "h0"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise DomainError(f"{name}={getattr(self, name)!r} must be finite and >= 0")
        if self.L_range[0] <= 0:
            raise DomainError("L_range must be positive")
        if self.n_range[0] < 1:
            raise DomainError("n_range must start at >= 1")
        if self.kind not in KINDS:
            raise DomainError(f"kind={self.kind!r} must be one of {KINDS}")
        return self

    @classmethod
    def _make(cls, iterable):  # namedtuple's own, and so _replace, skips __new__
        return cls(*iterable)


class AchievedMetrics(namedtuple("AchievedMetrics", "natural_length stroke width_at_full")):
    """A spec's natural length, and its stroke and width at p_cap.  mm."""

    __slots__ = ()


class DesignResult(namedtuple("DesignResult", "spec achieved feasible L_interval")):
    """One feasible design: a representative spec plus its feasible L-interval."""

    __slots__ = ()


_CONSTRAINT_NAMES = (
    "natural_length_min",
    "natural_length_max",
    "min_stroke",
    "max_width_at_full",
    "min_width_at_full",
)


def _margins(constraints: DesignConstraints, n: int, L: float,
             h_unit: float, w_unit: float) -> tuple[float, ...]:
    """Signed slack (mm) of every constraint; >= 0 everywhere means feasible."""
    nat = n * L + constraints.h0
    stroke = n * L * (1.0 - h_unit)
    width = L * w_unit
    return (
        nat - constraints.natural_length_range[0],
        constraints.natural_length_range[1] - nat,
        stroke - constraints.min_stroke,
        constraints.max_width_at_full - width,
        width - constraints.min_width_at_full,
    )


def _result_for(constraints: DesignConstraints, n: int, lo: float, hi: float,
                p_cap: float) -> DesignResult:
    L = 0.5 * (lo + hi)
    spec = MuscleSpec(n=n, L=L, h0=constraints.h0, kind=constraints.kind)
    state = state_at(spec, p_cap)
    achieved = AchievedMetrics(
        natural_length=natural_length(spec),
        stroke=state.contraction,
        width_at_full=state.width,
    )
    return DesignResult(spec=spec, achieved=achieved, feasible=True,
                        L_interval=(lo, hi))


def _bits(x: float) -> int:
    """Position of a nonnegative double in the ordered doubles (its bit pattern)."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _snap(passes, end: float, outward: float, inward: float) -> float | None:
    """Outermost double between ``inward`` and ``outward`` that ``passes``.

    ``passes`` must hold on the inward side of a single boundary and fail
    on the outward side.  From ``end`` the search heads outward if ``end``
    passes and inward if not.  Usually the boundary is within one double;
    otherwise it gallops on (doubling its stride) until it crosses the
    boundary, then bisects to adjacent doubles.  The bit patterns of
    positive doubles are ordered like the doubles, so strides are counted
    over those integers.  Returns None when even ``inward`` fails.
    """
    ok = passes(end)
    limit = outward if ok else inward
    if end == limit:
        return end if ok else None
    step = math.nextafter(end, limit)  # settles most calls without _bits/_double
    if passes(step) != ok:
        return end if ok else step
    sign = 1 if limit > end else -1  # bit order, counted toward limit
    near, last = sign * _bits(step), sign * _bits(limit)
    stride = 2
    while True:
        if near == last:
            return limit if ok else None
        far = min(near + stride, last)
        if passes(_double(sign * far)) != ok:
            break
        near, stride = far, 2 * stride
    while far - near > 1:  # near is on end's side of the boundary, far beyond
        mid = (near + far) // 2
        if passes(_double(sign * mid)) == ok:
            near = mid
        else:
            far = mid
    return _double(sign * (near if ok else far))


def _slopes(n: int, h_unit: float, w_unit: float) -> tuple[float, ...]:
    """Slope in L of every margin of ``_margins``."""
    return (n, -n, n * (1.0 - h_unit), -w_unit, w_unit)


# Margins that rise with L bound it from below (the floor), falling ones from
# above (the ceiling).  The signs are the same for every n >= 1, arch height
# h_unit < 1 and width w_unit > 0, so one sample of the slopes sorts them.
_FLOOR = itemgetter(*[i for i, b_i in enumerate(_slopes(1, 0.5, 1.0)) if b_i >= 0.0])
_CEILING = itemgetter(*[i for i, b_i in enumerate(_slopes(1, 0.5, 1.0)) if b_i < 0.0])


def _solve_n(constraints: DesignConstraints, n: int, h_unit: float,
             w_unit: float) -> tuple[float, float] | str:
    """Feasible L-interval of arch count n, or the name of its binding constraint.

    Margin i is a_i + b_i·L: a positive slope b_i bounds L from below at
    -a_i / b_i, a negative one from above.  With no feasible L, the binding
    constraint is the smallest margin where the smallest margin is largest;
    that maximin of affine functions over L_range lies at an end of L_range
    or where two margins cross.
    """
    L_min, L_max = constraints.L_range
    a = _margins(constraints, n, 0.0, h_unit, w_unit)  # intercepts at L = 0
    b = _slopes(n, h_unit, w_unit)
    lo, hi = L_min, L_max
    for a_i, b_i in zip(a, b):
        if b_i > 0.0:
            lo = max(lo, -a_i / b_i)
        elif b_i < 0.0:
            hi = min(hi, -a_i / b_i)
        elif a_i < 0.0:
            hi = -math.inf
    if lo <= hi:
        # rounding is monotone, so no computed floor margin falls as L grows
        # and no ceiling margin rises: each group passes on one side of a
        # single boundary
        def above_floor(L: float) -> bool:
            return min(_FLOOR(_margins(constraints, n, L, h_unit, w_unit))) >= 0.0

        def below_ceiling(L: float) -> bool:
            return min(_CEILING(_margins(constraints, n, L, h_unit, w_unit))) >= 0.0

        lo = _snap(above_floor, lo, L_min, L_max)
        hi = _snap(below_ceiling, hi, L_max, L_min)
        if lo is not None and hi is not None and lo <= hi:
            return lo, hi
    crossings = [(a[j] - a[i]) / (b[i] - b[j])
                 for i, j in combinations(range(len(a)), 2) if b[i] != b[j]]
    best = max((_margins(constraints, n, L, h_unit, w_unit)
                for L in [L_min, L_max, *crossings] if L_min <= L <= L_max), key=min)
    return _CONSTRAINT_NAMES[best.index(min(best))]


def _scan(constraints: DesignConstraints, p_cap: float):
    """(n, feasible L-interval or binding constraint name) for every n in n_range."""
    _check_p_cap(p_cap)
    sol = solve_beam(1.0, p_cap)
    for n in range(constraints.n_range[0], constraints.n_range[1] + 1):
        yield n, _solve_n(constraints, n, sol.h, sol.w)


def search(constraints: DesignConstraints,
           p_cap: float = DEFAULT_P_CAP) -> list[DesignResult]:
    """All feasible designs, one per arch count with a feasible L.

    Each result carries the exact feasible L-interval of its arch count,
    both ends snapped to the outermost doubles that pass the margin check,
    and a spec at its midpoint.  Results are sorted by achieved width at
    full contraction (ascending: gentlest expansion first), ties broken by
    (n, L).  An empty list is a valid outcome.  Deterministic for identical
    inputs.  p_cap obeys the same rule as in muscle.curve.
    """
    results = [_result_for(constraints, n, *found, p_cap)
               for n, found in _scan(constraints, p_cap) if not isinstance(found, str)]
    results.sort(key=lambda res: (res.achieved.width_at_full, res.spec.n, res.spec.L))
    return results


def infeasibility_report(constraints: DesignConstraints,
                         p_cap: float = DEFAULT_P_CAP) -> dict[int, str]:
    """For each n with no feasible L: the binding (most violated) constraint.

    The binding constraint is the smallest margin at the exact maximin of
    the margins over L_range, which names the requirement that cannot be
    met even at the most favorable L.  Its keys are exactly the arch counts
    in n_range that ``search`` returns no result for.
    """
    return {n: found for n, found in _scan(constraints, p_cap) if isinstance(found, str)}

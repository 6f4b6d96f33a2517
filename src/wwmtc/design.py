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

A search makes one Carlson pass, beam._shape at p_cap: it gives ĥ and ŵ,
and every result's achieved values scale from it by the result's L.  The
binding constraint is computed only where it is returned: by
infeasibility_report and by _search_and_report, which serves design
search on the command line; search does not compute it.
"""

from __future__ import annotations

import math
import struct
from collections import namedtuple
from itertools import combinations

from .beam import _shape
from .errors import DomainError
from .muscle import DEFAULT_P_CAP, KINDS, MuscleSpec, _check_p_cap

# the widest n_range searched.  A search holds a result or report entry and
# its output line for every arch count until it returns: ~16 µs and ~0.4 kB
# each on a 2-vCPU x86 host, so a full-width search takes ~16 s and ~0.4 GB
_MAX_ARCH_COUNTS = 10**6


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
        n_lo, n_hi = self.n_range
        if not type(n_lo) is type(n_hi) is int:  # a bool is no arch count
            raise DomainError(f"n_range={self.n_range!r} must be a pair of integers")
        if n_lo < 1:
            raise DomainError("n_range must start at >= 1")
        if n_hi - n_lo >= _MAX_ARCH_COUNTS:
            raise DomainError(f"n_range={self.n_range!r} spans more than "
                              f"{_MAX_ARCH_COUNTS} arch counts")
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
    return _slack(_limits(constraints), n, L, h_unit, w_unit)


def _limits(constraints: DesignConstraints) -> tuple[float, ...]:
    """What the margins read of the constraints, unpacked into a plain tuple:
    (natural length min and max, min stroke, max and min width, h0).  A
    search reads it once: a field read is not cheap."""
    (nat_lo, nat_hi), min_stroke, max_width, h0, _, _, min_width, _ = constraints
    return nat_lo, nat_hi, min_stroke, max_width, min_width, h0


def _slack(limits: tuple[float, ...], n: int, L: float,
           h_unit: float, w_unit: float) -> tuple[float, ...]:
    """_margins from the constraints' _limits."""
    nat_lo, nat_hi, min_stroke, max_width, min_width, h0 = limits
    nat = n * L + h0
    stroke = n * L * (1.0 - h_unit)
    width = L * w_unit
    return (
        nat - nat_lo,
        nat_hi - nat,
        stroke - min_stroke,
        max_width - width,
        width - min_width,
    )


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


def _interval(limits: tuple[float, ...], L_range: tuple[float, float], n: int,
              h_unit: float, w_unit: float) -> tuple[float, float] | None:
    """Feasible L-interval of arch count n, or None when it has none.

    Margin i is a_i + b_i·L: a positive slope b_i bounds L from below at
    -a_i / b_i, a negative one from above.
    """
    L_min, L_max = L_range
    a = _slack(limits, n, 0.0, h_unit, w_unit)  # intercepts at L = 0
    b = _slopes(n, h_unit, w_unit)
    lo, hi = L_min, L_max
    for a_i, b_i in zip(a, b):
        if b_i > 0.0:
            lo = max(lo, -a_i / b_i)
        elif b_i < 0.0:
            hi = min(hi, -a_i / b_i)
        elif a_i < 0.0:
            return None
    if not lo <= hi:
        return None
    # Margins that rise with L bound it from below (the floor: natural
    # length min, stroke, width min), falling ones from above (the
    # ceiling), with the signs of _slopes for every n >= 1, h_unit < 1 and
    # w_unit > 0.  Each group is written with _margins' expressions.
    # Rounding is monotone, so no computed floor margin falls as L grows
    # and no ceiling margin rises: each group passes on one side of a
    # single boundary.
    nat_lo, nat_hi, min_stroke, max_width, min_width, h0 = limits

    def above_floor(L: float) -> bool:
        return (n * L + h0 - nat_lo >= 0.0
                and n * L * (1.0 - h_unit) - min_stroke >= 0.0
                and L * w_unit - min_width >= 0.0)

    def below_ceiling(L: float) -> bool:
        return nat_hi - (n * L + h0) >= 0.0 and max_width - L * w_unit >= 0.0

    lo = _snap(above_floor, lo, L_min, L_max)
    hi = _snap(below_ceiling, hi, L_max, L_min)
    if lo is not None and hi is not None and lo <= hi:
        return lo, hi
    return None


def _binding(limits: tuple[float, ...], L_range: tuple[float, float], n: int,
             h_unit: float, w_unit: float) -> str:
    """Name of the binding constraint of an arch count n with no feasible L.

    It is the smallest margin where the smallest margin is largest; that
    maximin of affine functions over L_range lies at an end of L_range or
    where two margins cross.
    """
    L_min, L_max = L_range
    a = _slack(limits, n, 0.0, h_unit, w_unit)
    b = _slopes(n, h_unit, w_unit)
    crossings = [(a[j] - a[i]) / (b[i] - b[j])
                 for i, j in combinations(range(len(a)), 2) if b[i] != b[j]]
    best = max((_slack(limits, n, L, h_unit, w_unit)
                for L in [L_min, L_max, *crossings] if L_min <= L <= L_max), key=min)
    return _CONSTRAINT_NAMES[best.index(min(best))]


def _units(p_cap: float) -> tuple[tuple[float, ...], float, float]:
    """The search's one Carlson pass, beam._shape at p_cap, and from it
    ĥ and ŵ: _arch(1.0, p_cap)'s h and w, the same doubles, as 1.0 * x is x."""
    _check_p_cap(p_cap)
    shape = _shape(float(p_cap))
    sp, rf, num, F2, _ = shape
    return shape, sp / rf, num / F2


def _results(constraints: DesignConstraints, shape, found) -> list[DesignResult]:
    """One result per (n, L-interval) of found, sorted as search returns them.

    Each achieved value is state_at's at p_cap on the result's spec, the
    same doubles: the natural length and the arch are _states' and _arch's
    expressions on beam._shape at p_cap.
    """
    sp, rf, num, F2, _ = shape
    h0, kind = constraints.h0, constraints.kind
    results = []
    for n, (lo, hi) in found:
        L = 0.5 * (lo + hi)
        natural = n * L + h0
        achieved = AchievedMetrics(natural, natural - (n * (sp * L / rf) + h0),
                                   L * num / F2)
        results.append(DesignResult(MuscleSpec(n, L, h0, kind), achieved, True, (lo, hi)))
    results.sort(key=lambda res: (res.achieved.width_at_full, res.spec.n, res.spec.L))
    return results


def search(constraints: DesignConstraints,
           p_cap: float = DEFAULT_P_CAP) -> list[DesignResult]:
    """All feasible designs, one per arch count with a feasible L.

    Each result carries the exact feasible L-interval of its arch count,
    both ends snapped to the outermost doubles that pass the margin check,
    and a spec at its midpoint.  Results are sorted by achieved width at
    full contraction (ascending: gentlest expansion first), ties broken by
    (n, L).  An empty list is a valid outcome.  Deterministic for identical
    inputs.  p_cap obeys the same rule as in muscle.curve.  One Carlson
    pass per search; the binding constraints of the infeasible arch counts
    are not computed (see infeasibility_report).
    """
    shape, h_unit, w_unit = _units(p_cap)
    limits, L_range = _limits(constraints), constraints.L_range
    n_lo, n_hi = constraints.n_range
    feasible = []
    for n in range(n_lo, n_hi + 1):
        found = _interval(limits, L_range, n, h_unit, w_unit)
        if found is not None:
            feasible.append((n, found))
    return _results(constraints, shape, feasible)


def _search_and_report(constraints: DesignConstraints,
                       p_cap: float) -> tuple[list[DesignResult], dict[int, str]]:
    """search and infeasibility_report from one scan."""
    shape, h_unit, w_unit = _units(p_cap)
    limits, L_range = _limits(constraints), constraints.L_range
    n_lo, n_hi = constraints.n_range
    feasible, report = [], {}
    for n in range(n_lo, n_hi + 1):
        found = _interval(limits, L_range, n, h_unit, w_unit)
        if found is None:
            report[n] = _binding(limits, L_range, n, h_unit, w_unit)
        else:
            feasible.append((n, found))
    return _results(constraints, shape, feasible), report


def infeasibility_report(constraints: DesignConstraints,
                         p_cap: float = DEFAULT_P_CAP) -> dict[int, str]:
    """For each n with no feasible L: the binding (most violated) constraint.

    The binding constraint is the smallest margin at the exact maximin of
    the margins over L_range, which names the requirement that cannot be
    met even at the most favorable L.  Its keys are exactly the arch counts
    in n_range that ``search`` returns no result for.  One Carlson pass per
    report, and no results are built.
    """
    _, h_unit, w_unit = _units(p_cap)
    limits, L_range = _limits(constraints), constraints.L_range
    n_lo, n_hi = constraints.n_range
    return {n: _binding(limits, L_range, n, h_unit, w_unit) for n in range(n_lo, n_hi + 1)
            if _interval(limits, L_range, n, h_unit, w_unit) is None}

"""Search the (n, L) plane for muscle specs meeting deformation requirements.

The length offset h0 is a fixed input (it is set by hardware, not by the
deformation model).  Arch height and width scale linearly with L, so with
ĥ, ŵ = solve_beam(1, p_cap) every constraint margin is affine in L: the
natural length is n·L + h0, the stroke n·L·(1 − ĥ) and the width L·ŵ.  For
each integer arch count n the feasible set is therefore one interval, the
intersection of at most five half-lines with L_range, computed directly.
When it is empty, the binding constraint is read off at the exact maximin
of the margins.  The whole search is a pure deterministic function of its
inputs; the only state it keeps is beam's cache of the arch shape at
p_cap.

The feasible arch counts have a closed form too: in real arithmetic n is
feasible iff A <= B, α <= β and α/B <= n <= β/A, with A and B the width
and L_range bounds on L and α and β the bounds on the arch stack n·L.  So
_counts classifies every arch count at once as surely feasible, surely
infeasible or, within a rounding bound of a threshold, undecided, and
only the undecided counts (and, for search, the feasible ones, whose
L-intervals it returns) go through _intervals: one loop over the counts
that does once the work that does not depend on n, the same loop for
search and for infeasibility_report, which makes no call when no count
is undecided.  The loop also moves each end of an L-interval to the
outermost double that passes, by a walk of at most two doubles from the
closed form clamped into L_range; only a wider plateau, as where h0 is
large next to n·L, goes to _snap's galloping search.  A count is feasible
iff some double of L_range passes every margin as _slack computes it: the
closed forms only say where to look.

beam's forward table at p_cap, beam._shape_at, gives ĥ and ŵ, and every
result's achieved values scale from them by the result's L.  At every
valid p_cap, ĥ <= 1 and ŵ > 0, which tests/test_beam.py::
test_shape_range_from_the_table_digits proves from the table's digits, so
no function here handles another shape.  beam caches ĥ and ŵ, so a
process evaluates the table once per cap: design search on the command
line calls search and then infeasibility_report, and the report evaluates
nothing.
The binding constraint is computed only where it is returned, by
infeasibility_report, in one loop over the infeasible counts, _bindings;
search does not compute it.  The rounded margins that rise with L and
those that fall keep their directions, so a count whose maximin is an end
of L_range, as nearly every count of a wide n_range has, is settled from
its margins at the two ends.  Only the others run the scan of the
crossings, whose setup, which does not depend on n, is done once.
"""

from __future__ import annotations

import functools
import math
import struct
from collections import namedtuple
from itertools import chain, combinations

from .beam import _shape_at
from .errors import DomainError, _count, _make, _real
from .muscle import DEFAULT_P_CAP, MuscleSpec, _check_p_cap, _kind

# the widest n_range searched.  A search holds a result or report entry and
# its output line for every arch count until it returns: ~0.6 µs and
# ~0.25 kB each on a 2-vCPU x86 host, half of the time the binding
# constraint of each infeasible count and most of the rest its stderr line,
# so a full-width design search takes ~0.9 s and ~0.26 GB (design search
# over [1, 10**6] on tests/data/constraints.json, fresh processes: 0.83-1.13 s
# with site and 0.87-1.09 s under -S, 258-262 MB peak RSS)
_MAX_ARCH_COUNTS = 10**6


class DesignConstraints(namedtuple(
        "DesignConstraints",
        "natural_length_range min_stroke max_width_at_full h0 n_range L_range"
        " min_width_at_full kind",
        defaults=(0.0, "radial"))):
    """Requirements on an expanding muscle at full contraction (p = p_cap).

    All lengths in mm, ranges (min, max), each stored as a Python float
    whatever real type it was given as; a str, bytes or bool is a
    DomainError, and so is a range that is not two items.  Each range is
    stored as a tuple, n_range's ends as ints and kind as a plain str.
    ``min_stroke`` is the required contraction at p_cap,
    ``max_width_at_full`` the expansion ceiling there (the proxy for
    "gentle expansion": no default is asserted, the user must pick it).
    ``kind`` is the label stamped on emitted specs; no formula effect.
    """

    __slots__ = ()

    # namedtuple's signature, so calls and their TypeErrors are its own; the
    # fields are checked in one pass (pair shapes, real types, counts, ranges,
    # kind) and the tuple is built once they pass
    def __new__(cls, natural_length_range, min_stroke, max_width_at_full, h0, n_range,
                L_range, min_width_at_full=0.0, kind="radial"):
        names = ("natural_length_range", "n_range", "L_range")
        ends = []
        for name, pair in zip(names, (natural_length_range, n_range, L_range)):
            try:
                lo, hi = pair
            except (TypeError, ValueError):  # not iterable, or not two items
                raise DomainError(f"{name}={pair!r} must be a (min, max) pair") from None
            ends += lo, hi
        nat_lo, nat_hi, n_lo, n_hi, L_lo, L_hi = ends
        nat = _real("natural_length_range", nat_lo), _real("natural_length_range", nat_hi)
        min_stroke = _real("min_stroke", min_stroke)
        max_width = _real("max_width_at_full", max_width_at_full)
        h0 = _real("h0", h0)
        L_range = _real("L_range", L_lo), _real("L_range", L_hi)
        min_width = _real("min_width_at_full", min_width_at_full)
        n_range = _count("n_range[0]", n_lo, 1), _count("n_range[1]", n_hi, 1)
        # written as "not ... < inf" so that NaN fails every check
        for name, (lo, hi) in zip(names, (nat, n_range, L_range)):
            if not 0.0 <= lo <= hi < math.inf:
                raise DomainError(f"{name}={(lo, hi)!r} must satisfy 0 <= min <= max < inf")
        for name, value in (("min_stroke", min_stroke), ("max_width_at_full", max_width),
                            ("min_width_at_full", min_width), ("h0", h0)):
            if not 0.0 <= value < math.inf:
                raise DomainError(f"{name}={value!r} must be finite and >= 0")
        if L_range[0] <= 0:
            raise DomainError("L_range must be positive")
        if n_range[1] - n_range[0] >= _MAX_ARCH_COUNTS:
            raise DomainError(f"n_range={n_range!r} spans more than "
                              f"{_MAX_ARCH_COUNTS} arch counts")
        return tuple.__new__(cls, (nat, min_stroke, max_width, h0, n_range, L_range, min_width,
                                   _kind(kind)))

    _make = classmethod(_make)  # namedtuple's own, and so _replace, skips __new__


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


def _limits(constraints: DesignConstraints) -> tuple[float, ...]:
    """What the margins read of the constraints, unpacked into a plain tuple:
    (natural length min and max, min stroke, max and min width, h0).  A
    search reads it once: a field read is not cheap."""
    (nat_lo, nat_hi), min_stroke, max_width, h0, _, _, min_width, _ = constraints
    return nat_lo, nat_hi, min_stroke, max_width, min_width, h0


def _slack(limits: tuple[float, ...], n: int, L: float,
           h_unit: float, w_unit: float) -> tuple[float, ...]:
    """Signed slack (mm) of every constraint at (n, L), from the constraints'
    _limits; >= 0 everywhere means feasible."""
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
    passes and inward if not, galloping (doubling its stride) until it
    crosses the boundary, then bisecting to adjacent doubles.  The bit
    patterns of positive doubles are ordered like the doubles, so strides
    are counted over those integers.  Returns None when even ``inward``
    fails.
    """
    ok = passes(end)
    limit = outward if ok else inward
    sign = 1 if limit > end else -1  # bit order, counted toward limit
    near, last = sign * _bits(end), sign * _bits(limit)
    stride = 1
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


# The farthest _intervals walks an L-interval end from its closed form, in
# doubles, before it hands the end to _snap.  An end moves further only
# where n·L + h0 rounds alike over several doubles of L, as when h0 is large
# next to n·L: of the 6 400 result ends of the benchmark's design sets for
# seeds 0-9, 1 339 moved, none by more than two.  A _snap call cost ~2.6 µs
# on a 2-vCPU x86 host.
_WALK = 2


def _intervals(limits: tuple[float, ...], L_range: tuple[float, float], counts,
               h_unit: float, w_unit: float):
    """(n, L-interval) of every arch count n of ``counts`` that has a
    feasible L, in their order.

    Margin i is a_i + b_i·L: a positive slope b_i bounds L from below at
    -a_i / b_i, a negative one from above, and a zero one rejects every L
    if a_i < 0.  The slopes are n, -n, n·u, -ŵ and ŵ, with u = 1 − ĥ >= 0
    and ŵ > 0, so only the stroke's can be zero, where ĥ rounds to 1.  The
    intercepts a_i and the width slopes do not depend on n, so the width
    bounds, min_width/ŵ and max_width/ŵ, and the rejection by a flat
    stroke are computed once; per count only -a0/n, -a1/-n and -a2/(n·u)
    remain.

    Margins that rise with L bound it from below (the floor: natural
    length min, stroke, width min), falling ones from above (the ceiling),
    for every n >= 1.  Rounding keeps order, so no computed floor margin
    falls as L grows and no ceiling margin rises: each group passes on one
    side of a single boundary, and each end is moved to the outermost
    double that passes its group, with _slack's expressions written out in
    the loop.  Each walk starts from its closed form clamped into L_range.
    An end that passes walks outward while the next double passes, one that
    fails walks inward until one does, at most _WALK doubles either way;
    _snap, with the same checks as predicates, settles an end that is
    further off.  So the ends are _snap's doubles, found without its calls
    where they are within _WALK, and a count has an interval iff they are
    in order: iff some double of L_range passes every margin, whether or
    not the rounded closed-form ends cross.
    """
    nat_lo, nat_hi, min_stroke, max_width, min_width, h0 = limits
    L_min, L_max = L_range
    u = 1.0 - h_unit
    a0, a1, a2, _, _ = _slack(limits, 1, 0.0, h_unit, w_unit)  # n * 0.0 is 0.0
    lo_w, hi_w = max(L_min, min_width / w_unit), min(L_max, max_width / w_unit)
    if u == 0.0 and a2 < 0.0:
        return

    def above_floor(x: float, L: float) -> bool:  # _snap's predicates
        return (x * L + h0 - nat_lo >= 0.0 and x * L * u - min_stroke >= 0.0
                and L * w_unit - min_width >= 0.0)

    def below_ceiling(x: float, L: float) -> bool:
        return nat_hi - (x * L + h0) >= 0.0 and max_width - L * w_unit >= 0.0

    nextafter = math.nextafter
    walks = range(_WALK), range(_WALK + 1)
    for n in counts:
        x = float(n)  # what n * L converts n to
        lo = max(lo_w, -a0 / x)
        if u > 0.0:
            lo = max(lo, -a2 / (x * u))
        hi = min(hi_w, -a1 / -x)
        lo = lo if lo <= L_max else L_max  # the walks start inside L_range
        hi = hi if hi >= L_min else L_min
        L = lo
        ok = (x * L + h0 - nat_lo >= 0.0 and x * L * u - min_stroke >= 0.0
              and L * w_unit - min_width >= 0.0)
        limit = L_min if ok else L_max
        for _ in walks[ok]:  # a passing end checks one double more than it moves
            if L == limit:
                lo = L if ok else None
                break
            step = nextafter(L, limit)
            if (x * step + h0 - nat_lo >= 0.0 and x * step * u - min_stroke >= 0.0
                    and step * w_unit - min_width >= 0.0) != ok:
                lo = L if ok else step
                break
            L = step
        else:
            lo = _snap(functools.partial(above_floor, x), L, L_min, L_max)
        if lo is None:
            continue
        L = hi
        ok = nat_hi - (x * L + h0) >= 0.0 and max_width - L * w_unit >= 0.0
        limit = L_max if ok else L_min
        for _ in walks[ok]:
            if L == limit:
                hi = L if ok else None
                break
            step = nextafter(L, limit)
            if (nat_hi - (x * step + h0) >= 0.0 and max_width - step * w_unit >= 0.0) != ok:
                hi = L if ok else step
                break
            L = step
        else:
            hi = _snap(functools.partial(below_ceiling, x), L, L_max, L_min)
        if hi is not None and lo <= hi:
            yield n, (lo, hi)


def _bindings(limits: tuple[float, ...], L_range: tuple[float, float], counts,
              h_unit: float, w_unit: float) -> dict[int, str]:
    """Name of the binding constraint of each arch count of ``counts``, in
    their order: counts with no feasible L.

    It is the smallest margin where the smallest margin is largest.  That
    maximin of affine functions over L_range lies at an end of L_range or
    where two margins cross, so the candidates are L_min, L_max and the
    crossings within L_range in combinations order, and the first with the
    largest smallest margin wins, as max(candidates, key=min) picks it.
    Every margin is _slack's expression, the same double.

    Most counts are settled at the ends of L_range alone.  As 1 − ĥ >= 0
    and ŵ > 0, the rising margins (natural length min, stroke, width min)
    do not fall as L grows, once rounded, and the falling ones (natural
    length max, width max) do not rise: rounding keeps order.  So with R
    the smallest rising margin and F the smallest falling one, R − F does
    not fall, and the smallest margin, min(R, F), is R up to where they
    cross and F after it.  Where F <= R at L_min, no L does better than
    L_min, which comes first and wins.  Where R <= F at L_max, no L does
    better than L_max, and of the candidates that tie it only L_min comes
    before it: L_min wins if its smallest margin is as large.  Only the
    other counts, whose maximin lies inside L_range, run _scan over the
    crossings, from the better of the two ends.

    A NaN margin (the stroke, where n·L overflows and ĥ rounds to 1) is
    passed over by min, as it is not min's first argument: the first
    margin, n·L + h0 − nat_lo, is never NaN.  The NaN only drops the
    stroke from R where n·L is inf, which cannot make R fall; there the
    natural length max is -inf, and so is F.  So the ends' argument holds
    with it.

    The scan's setup, the numerators of the crossings and the crossing of
    the two width margins, does not depend on n: it is computed once, at
    the first count that needs it.  A candidate is dropped at its first
    margin <= the best smallest margin so far, since its own cannot be
    larger and a tie goes to the earlier candidate; a NaN margin drops
    none.
    """
    nat_lo, nat_hi, min_stroke, max_width, min_width, h0 = limits
    L_min, L_max = L_range
    u = 1.0 - h_unit
    # the width margins at the ends of L_range do not depend on n
    max_lo, min_lo = max_width - L_min * w_unit, L_min * w_unit - min_width
    max_hi, min_hi = max_width - L_max * w_unit, L_max * w_unit - min_width
    pairs = None  # the scan's setup
    names = {}
    for n in counts:
        x = float(n)
        # R = min(m0, m2, width min) and F = min(m1, width max) at L_min,
        # each written out as min compares: a later argument replaces the
        # smallest so far only if it is smaller, so a NaN m2 is passed over
        nat = x * L_min + h0
        m0, m1, m2 = nat - nat_lo, nat_hi - nat, x * L_min * u - min_stroke
        rise = m2 if m2 < m0 else m0
        rise = min_lo if min_lo < rise else rise
        fall = max_lo if max_lo < m1 else m1
        lo = (m0, m1, m2, max_lo, min_lo)
        if fall <= rise:
            margins, best = lo, fall
        else:  # the same at L_max
            nat = x * L_max + h0
            m0, m1, m2 = nat - nat_lo, nat_hi - nat, x * L_max * u - min_stroke
            rise_hi = m2 if m2 < m0 else m0
            rise_hi = min_hi if min_hi < rise_hi else rise_hi
            fall_hi = max_hi if max_hi < m1 else m1
            best_lo = fall if fall < rise else rise
            best_hi = fall_hi if fall_hi < rise_hi else rise_hi
            hi = (m0, m1, m2, max_hi, min_hi)
            margins, best = (hi, best_hi) if best_hi > best_lo else (lo, best_lo)
            if not rise_hi <= fall_hi:
                if pairs is None:
                    pairs, width_crossing = _crossings(limits, L_range, h_unit, w_unit)
                margins, best = _scan(limits, L_range, x, u, w_unit, pairs, width_crossing,
                                      margins, best)
        names[n] = _CONSTRAINT_NAMES[margins.index(best)]
    return names


def _crossings(limits: tuple[float, ...], L_range: tuple[float, float],
               h_unit: float, w_unit: float) -> tuple[list, list]:
    """_scan's setup, which does not depend on n: (numerator, i, j) of the
    crossing of margins i and j for each pair of margins but the two width
    ones, and the crossing of those two, whose slopes -ŵ and ŵ differ, if
    it lies within L_range."""
    L_min, L_max = L_range
    a = _slack(limits, 1, 0.0, h_unit, w_unit)  # the intercepts: n * 0.0 is 0.0
    pairs = [(a[j] - a[i], i, j) for i, j in combinations(range(len(a)), 2) if i < 3]
    L = (a[4] - a[3]) / (-w_unit - w_unit)  # pair (3, 4): slopes -ŵ and ŵ
    return pairs, [L] if L_min <= L <= L_max else []


def _scan(limits: tuple[float, ...], L_range: tuple[float, float], x: float, u: float,
          w_unit: float, pairs: list, width_crossing: list,
          margins: tuple[float, ...], best: float) -> tuple[tuple[float, ...], float]:
    """(margins, smallest margin) of the first candidate of arch count x
    with the largest smallest margin, given those of the better end of
    L_range: the crossings within L_range are scanned after both ends."""
    nat_lo, nat_hi, min_stroke, max_width, min_width, h0 = limits
    L_min, L_max = L_range
    b = (x, -x, x * u, -w_unit, w_unit)  # the slopes in L of _slack's margins
    candidates = []
    for num, i, j in pairs:
        if b[i] != b[j]:
            L = num / (b[i] - b[j])
            if L_min <= L <= L_max:
                candidates.append(L)
    for L in candidates + width_crossing:
        nat = x * L + h0
        if nat - nat_lo <= best or nat_hi - nat <= best:
            continue
        stroke = x * L * u - min_stroke
        if stroke <= best:
            continue
        width = L * w_unit
        if max_width - width <= best or width - min_width <= best:
            continue
        margins = (nat - nat_lo, nat_hi - nat, stroke, max_width - width, width - min_width)
        best = min(margins)
    return margins, best


# Rounding bounds of _counts: one rounding moves a normal double by at most
# _EPS / 2 of itself, and _TINY (mm) is above the few underflow errors,
# 2**-1075 each, that a margin meets, even divided by 1 − ĥ >= 2**-53 or
# multiplied by an arch count below 2**53.
_EPS = 2.0**-52
_TINY = 2.0**-1000


def _least(t: float, lo: int, hi: int, strict: bool) -> int:
    """The least integer above t, or at t unless strict, clamped to [lo, hi]."""
    if t < lo:
        return lo
    if t >= hi:
        return hi
    n = math.ceil(t)
    return n + 1 if strict and n == t else n


def _counts(limits: tuple[float, ...], L_range: tuple[float, float],
            n_range: tuple[int, int], h_unit: float, w_unit: float) -> tuple[range, range]:
    """(maybe, sure): the arch counts of n_range that _intervals may find
    feasible, and a run within them that it surely finds feasible, empty
    at maybe's start when there is none.  Every count outside maybe is
    surely infeasible; the counts of maybe outside sure are undecided, and
    only _intervals can tell.

    With u = 1 − ĥ as rounded, A = max(L_min, min_width/ŵ), B = min(L_max,
    max_width/ŵ), α = max(nat_lo − h0, min_stroke/u) and β = nat_hi − h0,
    n is feasible in real arithmetic iff the four slacks B − A, β − α,
    n·B − α and β − n·A are >= 0: iff the L-interval [max(A, α/n),
    min(B, β/n)] is not empty.  _intervals departs from that by rounding
    alone: it finds an interval iff a double L in L_range passes every
    rounded margin.  Rounding keeps order, so each rounded margin passes on
    one side of a single boundary, and next to its real end a margin is
    within _EPS·nat_hi of the real one for the natural length (n·L + h0 <=
    nat_hi), 1.5·_EPS·n·L for the stroke and _EPS·L / 2 for the width.
    So n is surely feasible if each lower end of the real interval is below
    each upper end by more than the errors of their margins, taken in L,
    plus 0.5·_EPS of the upper end (L rounded to a double): some double
    between them then passes.  It is surely infeasible if a lower end is
    above an upper end by more than the errors of their margins, taken in
    L: no double passes both.  Each tolerance below is at least four times
    this bound on its slack; the excess covers the roundings of A, B, α, β
    and of the thresholds in n solved from them, under 3·_EPS of their
    operands.

    B − A and β − α do not depend on n, n·B − α rises with it and β − n·A
    falls, so maybe and sure are runs of n: holes in n are possible only
    when A ≈ B or α ≈ β, and then every count is undecided.  So is every
    count when ĥ rounds to 1 (p_cap next to P_STRAIGHT), or when n_range
    reaches 2**53, where n itself is rounded.
    """
    nat_lo, nat_hi, min_stroke, max_width, min_width, h0 = limits
    L_min, L_max = L_range
    n_lo, n_hi = n_range
    every, none = range(n_lo, n_hi + 1), range(n_lo, n_lo)
    u = 1.0 - h_unit
    if not (u > 0.0 and n_hi < 2**53):
        return every, none
    A, B = max(L_min, min_width / w_unit), min(L_max, max_width / w_unit)
    alpha, beta = max(nat_lo - h0, min_stroke / u), nat_hi - h0
    tol_L = 16 * _EPS * (A + B) + _TINY  # of B − A
    tol = 16 * _EPS * (nat_hi + h0 + alpha) + _TINY  # of β − α, and of the two
    tol_A, tol_B = 16 * _EPS * A + _TINY, 16 * _EPS * B + _TINY  # plus n·tol_A, n·tol_B
    if A - B > tol_L or alpha - beta > tol:
        return none, none
    if B - A <= tol_L or beta - alpha <= tol:
        return every, none
    # n·B − α > ±(tol + n·tol_B) and β − n·A > ±(tol + n·tol_A), solved for n
    top = (beta + tol) / (A - tol_A) if A > tol_A else math.inf
    maybe = range(_least((alpha - tol) / (B + tol_B), n_lo, n_hi + 1, False),
                  _least(top, n_lo, n_hi + 1, True))
    sure = range(_least((alpha + tol) / (B - tol_B), n_lo, n_hi + 1, True),
                 _least((beta - tol) / (A + tol_A), n_lo, n_hi + 1, False))
    return maybe, sure if sure else maybe[:0]


def _units(p_cap: float) -> tuple[float, float]:
    """ĥ and ŵ at p_cap from beam's table, cached by beam._shape_at:
    solve_beam(1.0, p_cap)'s h and w, the same doubles, as 1.0 * x is x."""
    h_unit, w_unit, _, _ = _shape_at(_check_p_cap(p_cap))
    return h_unit, w_unit


def _results(constraints: DesignConstraints, h_unit: float, w_unit: float,
             found) -> list[DesignResult]:
    """One result per (n, L-interval) of found, sorted as search returns them.

    Each achieved value is state_at's at p_cap on the result's spec, the
    same doubles: muscle._state's expressions on ĥ = h_unit and ŵ = w_unit,
    written out, since a _state call per result made a search of 34
    results ~7 % slower.  Rows sort as plain tuples, by width and then n,
    which no two rows share.  DesignResult and AchievedMetrics check
    nothing, so they are built by tuple.__new__, without the frame of
    namedtuple's __new__.
    """
    h0, kind = constraints.h0, constraints.kind
    rows = []
    for n, (lo, hi) in found:
        L = 0.5 * (lo + hi)
        natural = n * L + h0
        rows.append((L * w_unit, n, L, natural, natural - (n * (L * h_unit) + h0), lo, hi))
    rows.sort()
    new = tuple.__new__
    return [new(DesignResult, (MuscleSpec(n, L, h0, kind),
                               new(AchievedMetrics, (natural, stroke, width)), True, (lo, hi)))
            for width, n, L, natural, stroke, lo, hi in rows]


def search(constraints: DesignConstraints,
           p_cap: float = DEFAULT_P_CAP) -> list[DesignResult]:
    """All feasible designs, one per arch count with a feasible L.

    Each result carries the exact feasible L-interval of its arch count,
    both ends snapped to the outermost doubles that pass the margin check,
    and a spec at its midpoint.  Results are sorted by achieved width at
    full contraction (ascending: gentlest expansion first), ties broken by
    (n, L).  An empty list is a valid outcome.  Deterministic for identical
    inputs.  p_cap obeys the same rule as in muscle.curve.  One evaluation
    of beam's forward table, none when the process has made it at the same
    p_cap; the binding constraints of the infeasible arch counts are not
    computed (see infeasibility_report).
    """
    h_unit, w_unit = _units(p_cap)
    limits, L_range = _limits(constraints), constraints.L_range
    maybe, _ = _counts(limits, L_range, constraints.n_range, h_unit, w_unit)
    found = _intervals(limits, L_range, maybe, h_unit, w_unit)
    return _results(constraints, h_unit, w_unit, found)


def infeasibility_report(constraints: DesignConstraints,
                         p_cap: float = DEFAULT_P_CAP) -> dict[int, str]:
    """For each n with no feasible L: the binding (most violated) constraint.

    The binding constraint is the smallest margin at the exact maximin of
    the margins over L_range, which names the requirement that cannot be
    met even at the most favorable L.  Its keys are exactly the arch counts
    in n_range that ``search`` returns no result for.  Table evaluations as
    in search, none after a search at the same p_cap, and no results are
    built.
    """
    h_unit, w_unit = _units(p_cap)
    limits, L_range, n_range = _limits(constraints), constraints.L_range, constraints.n_range
    maybe, sure = _counts(limits, L_range, n_range, h_unit, w_unit)
    undecided = range(maybe.start, sure.start), range(sure.stop, maybe.stop)
    feasible = ()
    if undecided[0] or undecided[1]:
        feasible = {n for n, _ in _intervals(limits, L_range, chain(*undecided), h_unit, w_unit)}
    infeasible = chain(range(n_range[0], maybe.start),
                       (n for n in chain(*undecided) if n not in feasible),
                       range(maybe.stop, n_range[1] + 1))
    return _bindings(limits, L_range, infeasible, h_unit, w_unit)

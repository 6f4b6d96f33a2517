"""Closed-form large-deflection cantilever: the shape of one loaded arch.

Model: an inextensible elastic strip of arc length L, clamped at one end,
loaded by a point force at the free end acting perpendicular to the clamped
tangent.  The solution family is parameterized by a single shape parameter
p in [1/sqrt(2), 1): p = 1/sqrt(2) is the unloaded straight strip, p -> 1
curls the tip up to 90 degrees.

With phi1 = asin(1/(sqrt(2) p)) and the scale factor
k = (K(p) - F(phi1, p)) / L  (k is sqrt(load / bending stiffness)),
the tip position decomposes as

* along the clamped tangent:   sqrt(2 (2 p^2 - 1)) / k
* along the load direction:    (K(p) - F(phi1,p) - 2 E(p) + 2 E(phi1,p)) / k

and the tip rotates by psi0 with sin(psi0) = 2 p^2 - 1.

In the muscle exterior the clamped tangent lies along the muscle axis, so the
along-tangent coordinate is the arch *height* h (equal to L when straight)
and the along-load deflection is the radial *width* w (zero when straight).
Note the height carries the sqrt(2(2p^2-1))/k expression and the width the
bracketed one; assigning them the other way round would make the natural
(zero-load) state come out as h = 0, w = L, which the shooting oracle in the
test suite disproves.  See tests/test_beam.py::test_matches_shooting_oracle.

The differences K - F(phi1) and E - E(phi1) cancel next to the straight
end, so they are not evaluated as written.  With q = 2 p^2 - 1, the
amplitude phi2 with sin(phi2) = s = sqrt(q) / p is the complement of phi1
in the Legendre addition theorem (DLMF 19.11, cot(phi1) cot(phi2) =
sqrt(1 - p^2)), which gives

    K - F(phi1) = F(phi2),    E - E(phi1) = E(phi2) - sqrt(2 q) / 2.

Since cos^2(phi2) = (1 - p^2) / p^2 and 1 - p^2 s^2 = 2 (1 - p^2), one
Carlson pass rf, rd = R_F, R_D((1 - p^2) / p^2, 2 (1 - p^2), 1) yields
F(phi2) = s rf and E(phi2) = F(phi2) - p^2 s^3 rd / 3, with no amplitude.
Then k = F(phi2) / L, w = L (F(phi2) - 2 E(phi2) + sqrt(2 q)) / F(phi2)
and h = sqrt(2) p L / rf: q cancels exactly from h, so h is accurate to a
few ULP of L all the way to the straight end.

The pass depends on p alone.  _shape_at caches it at the last few p: the
fixed caps that design search and the inversions' range check read, so a
process makes one pass per cap.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from .elliptic import MODULUS_MAX, _rf_rd
from .errors import DomainError, OutOfRangeError

_SQRT2 = math.sqrt(2.0)
# Shape parameter of the straight (unloaded) strip.
P_STRAIGHT = 1.0 / _SQRT2
# Upper bound: keep clear of the logarithmic singularity of K at p = 1.
P_MAX = MODULUS_MAX

# Tolerance for "p is the straight-beam boundary"; 2 p^2 - 1 underflows to a
# small negative number when p is the float nearest 1/sqrt(2).
_BOUNDARY_TOL = 1e-12


class BeamSolution(namedtuple("BeamSolution", "w h psi0 k")):
    """Deflected-arch geometry for one (L, p) pair.  Lengths in mm.

    w     deflection along the load (muscle width contribution)
    h     tip coordinate along the clamped tangent (arch height)
    psi0  tip rotation relative to the clamped tangent, rad
    k     scale factor sqrt(load/stiffness), 1/mm
    """

    __slots__ = ()


def _check_shape_param(p: float) -> float:
    p = float(p)
    if not (P_STRAIGHT - _BOUNDARY_TOL) <= p <= P_MAX:
        raise DomainError(
            f"shape parameter p={p!r} outside [{P_STRAIGHT!r}, {P_MAX!r}]"
        )
    return p


def _check_length(length: float) -> float:
    length = float(length)
    if not 0.0 < length < math.inf:
        raise DomainError(f"beam length L={length!r} must be positive and finite")
    return length


def solve_beam(L: float, p: float) -> BeamSolution:
    """Deflected width, height, tip angle and scale factor of one arch.

    Args:
        L: arc length of the undeformed strip, mm (> 0).
        p: shape parameter in [1/sqrt(2), P_MAX].

    The boundary p = 1/sqrt(2) is returned as the exact straight-strip
    limit (w = 0, h = L, psi0 = 0); the general formulas degenerate to 0/0
    there because k -> 0 with the load.
    """
    return BeamSolution(*_arch(_check_length(L), _check_shape_param(p)))


def _arch(L: float, p: float) -> tuple[float, float, float, float]:
    """solve_beam's (w, h, psi0, k) for a valid L and p; neither is checked."""
    shape = _shape(p)
    if shape is None:
        return 0.0, L, 0.0, 0.0
    sp, rf, num, F2, psi0 = shape
    return L * num / F2, sp * L / rf, psi0, F2 / L


def _shape(p: float) -> tuple[float, float, float, float, float] | None:
    """The part of _arch that depends on p alone: one Carlson pass.

    Returns (sqrt(2) p, rf, F2 - 2 E2 + sqrt(2 q), F2, psi0), from which
    _arch scales by L: h = sqrt(2) p L / rf, w = L (F2 - 2 E2 + sqrt(2 q)) / F2
    and k = F2 / L.  None for the straight strip (q <= 0), whose arch is
    (0, L, 0, 0).  For a valid p; it is not checked.
    """
    pp = p * p
    q = 2.0 * pp - 1.0  # sin(psi0); 2.0 * p * p rounds to the same double
    if q <= 0.0:
        return None

    m1 = (1.0 - p) * (1.0 + p)
    s = math.sqrt(q) / p
    rf, rd = _rf_rd(m1 / pp, 2.0 * m1, 1.0)
    F2 = s * rf
    E2 = F2 - pp * (s * s * s) * rd / 3.0
    return (_SQRT2 * p, rf, F2 - 2.0 * E2 + math.sqrt(2.0 * q), F2,
            math.asin(q if q < 1.0 else 1.0))


def _height_slope(L: float, p: float, w: float, k: float) -> float:
    """dh/dp at p > P_STRAIGHT, from the width w and scale factor k at (L, p).

    With c = cos(phi1) and E - E(phi1) = k (L - w) / 2, differentiating
    kL = K(p) - F(phi1(p), p) gives
    d(kL)/dp = k (L - w) / (2 p (1 - p^2)) - kL / p + c / (1 - p^2) + 1 / (p^2 c),
    and h = L r / kL with r = sqrt(2 (2 p^2 - 1)) then gives dh/dp.
    """
    q = 2.0 * p * p - 1.0
    c = math.sqrt(q) / (_SQRT2 * p)
    one_minus_m = 1.0 - p * p
    kL = k * L
    dkL = (k * (L - w) / (2.0 * p * one_minus_m) - kL / p
           + c / one_minus_m + 1.0 / (p * p * c))
    r = math.sqrt(2.0 * q)
    return L * ((4.0 * p / r) / kL - r * dkL / (kL * kL))


# _shape at a float p, cached: the pass does not depend on L.  Its callers
# read it at a handful of fixed caps, which the small cache holds: design
# search at p_cap, and the inversions' range check at P_MAX and p_cap.
_shape_at = functools.lru_cache(maxsize=8)(_shape)


def _height(L: float, p: float) -> float:
    """solve_beam(L, p).h, the same double, from the cached pass at p.

    For a valid L and a float p; neither is checked.
    """
    if 2.0 * p * p - 1.0 <= 0.0:
        return L
    return _SQRT2 * p * L / _shape_at(p)[1]


def solve_p_for_height(L: float, h_target: float) -> float:
    """Invert h(L, p) for p by one Newton step on sqrt(L - h) in -log(1 - p).

    h falls strictly from L at P_STRAIGHT to its minimum at P_MAX.  It is
    flat at the straight end, where L - h ~ 32 L (p - P_STRAIGHT)^2 / 15,
    and has a logarithmic singularity in 1 - p next to P_MAX.  Neither end
    is singular for g = sqrt(L - h) as a function of t = -log(1 - p): g(t)
    is increasing and concave over the whole range, with a shape that does
    not depend on L (tests/test_beam.py checks it at 40 digits).  A Newton
    step from below the root of such a function lands at or below the root,
    so no bracket is needed.  The start is a degree-40 Chebyshev
    interpolant of the root as a function of u = sqrt(1 - h/L), lowered by
    a margin of 5e-12 in t plus eight ULPs of p, which exceeds the
    interpolant's error, so it stays below the root; for p - P_STRAIGHT
    below ~2e-6, one Newton step from the straight end (g = 0,
    dg/dp = sqrt(32 L / 15)) is closer, and is taken instead.  From a start
    that close, one Newton step, quadratic in the start's error, leaves an
    error far below an ULP of p, so exactly one is taken, next to P_MAX and
    next to L too.  An inversion thus takes one Carlson pass, and the
    range check at P_MAX none once its pass is cached.

    Raises OutOfRangeError when h_target is below the smallest achievable
    height (at p = P_MAX); the error carries the achievable interval.
    """
    L = _check_length(L)
    h_target = float(h_target)
    if not 0.0 < h_target <= L:
        raise DomainError(f"target height {h_target!r} must lie in (0, L={L}]")

    if h_target < L:
        h_min = _height(L, P_MAX)
        if h_target < h_min:
            raise OutOfRangeError(
                f"target height {h_target!r} below minimum achievable "
                f"{h_min!r} (heights span [{h_min!r}, {L!r}])",
                lo=h_min,
                hi=L,
            )
    return _p_for_height(L, h_target)


# Start of the Newton step in t = -log(1 - p).  h/L does not depend on
# L, so the root t* is one function of u = sqrt(1 - h/L), from u = 0 at
# P_STRAIGHT to _U_MAX at P_MAX.  _START_CHEB holds the Chebyshev
# coefficients, over u in [0, _U_MAX], of f(u) = (t* - t_S)(1 - u) / u with
# t_S = t(P_STRAIGHT): the factor u makes the start exact to first order at
# the straight end, and 1 - u cancels the logarithmic growth of t* next to
# P_MAX.  They interpolate f at the 41 Chebyshev nodes of the first kind,
# with t* at each node the root of arch_gap(t) = u at 40 digits
# (tests/oracles.py::start_coefficients rebuilds them); _U_MAX is arch_gap
# at t(P_MAX).  The interpolant is within 2e-13 of t* for p <= 0.97 and
# 1.5e-12 over the whole range (tests/test_beam.py), so _START_MARGIN and
# _START_ULPS ULPs of p, for the rounding of the start to a double p, keep
# the start below the root, and with it the one Newton step taken from it.
_T_STRAIGHT = -math.log1p(-P_STRAIGHT)
_U_MAX = 0.9303595000027977
_START_CHEB = (
    1.9128717659597265, -0.44942312833608283, -0.01989483135294769,
    0.008710756097402126, 0.005393560227422513, 0.001845735971152229,
    0.0002480346428627225, -0.00017938737884940588, -0.0001805448024480537,
    -9.406053212857195e-05, -2.9196079953740975e-05, 7.706691372227206e-07,
    8.584479682817621e-06, 7.165791361129714e-06, 3.816232510738432e-06,
    1.3001424240709803e-06, 3.6591180457021654e-08, -3.609494920108551e-07,
    -3.465258586011384e-07, -2.1335266129475829e-07, -9.391099717427137e-08,
    -2.2765271752564844e-08, 7.590253211776003e-09, 1.4416731323341242e-08,
    1.1528962641155595e-08, 6.6490901620224245e-09, 2.855460114476024e-09,
    7.100718391916683e-10, -1.9102932781819825e-10, -4.0327952934434827e-10,
    -3.335293230544447e-10, -2.0190708470165365e-10, -9.591348900457978e-11,
    -3.3035019767442046e-11, -3.850476178604176e-12, 5.8048627293855455e-12,
    6.644418306680205e-12, 4.7182284569711584e-12, 2.668904028639396e-12,
    1.2643591591535572e-12, 4.692030065775403e-13,
)
_START_TAIL = _START_CHEB[:0:-1]  # Clenshaw's order: highest degree first
_START_MARGIN = 5e-12
_START_ULPS = 8.0
# dt/du at the straight end, where 1 - h/L ~ 32 (p - P_STRAIGHT)^2 / 15
_STRAIGHT_DT_DU = math.sqrt(15.0 / 32.0) / (1.0 - P_STRAIGHT)


def _start(u: float) -> float:
    """A t below the root t* of sqrt(1 - h/L) = u, for u in [0, _U_MAX].

    The larger of the interpolant minus its margin and one Newton step from
    the straight end, which concavity puts below the root and which is the
    larger of the two for p - P_STRAIGHT below ~2e-6.
    """
    x = 2.0 * u / _U_MAX - 1.0
    x2 = 2.0 * x  # 2.0 * x * b1 is (2.0 * x) * b1: the same doubles
    b1 = b2 = 0.0
    for c in _START_TAIL:  # Clenshaw
        b1, b2 = x2 * b1 - b2 + c, b1
    t = _T_STRAIGHT + (x * b1 - b2 + _START_CHEB[0]) * u / (1.0 - u)
    # an ULP of p = 1 - exp(-t), which lies in [1/2, 1), is 2^-53 exp(t) in t
    margin = _START_MARGIN + _START_ULPS * math.ulp(0.5) * math.exp(t)
    return max(t - margin, _T_STRAIGHT + u * _STRAIGHT_DT_DU)


def _p_for_height(L: float, h_target: float) -> float:
    """p with h(L, p) = h_target, for h(L, P_MAX) <= h_target <= L.

    One Newton step on g = sqrt(L - h) in t = -log(1 - p) from _start; see
    solve_p_for_height.  One Carlson pass; none at h_target == L.
    """
    if h_target == L:
        return P_STRAIGHT
    g_target = math.sqrt(L - h_target)
    p = -math.expm1(-_start(g_target / math.sqrt(L)))
    w, h, _, k = _arch(L, p)
    slope = _height_slope(L, p, w, k)
    if not slope < 0.0:
        # the slope formula cancels next to the straight end, where the
        # start already meets the target to rounding, and can give 0
        return p
    g = math.sqrt(max(L - h, 0.0))
    # dg/dt = -h'(p) (1 - p) / (2 g)
    dt = 2.0 * g * (g - g_target) / (slope * (1.0 - p))
    return min(max(-math.expm1(math.log1p(-p) - dt), P_STRAIGHT), P_MAX)

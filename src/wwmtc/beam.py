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

The inverse, p at a given height, makes no pass at all.  h/L does not
depend on L, so the root of h(L, p) = h_target is one function of
u = sqrt(1 - h_target/L), and solve_p_for_height evaluates it from a
literal table: a piecewise Chebyshev interpolant of that root, built from
40-digit roots (tests/oracles.py::root_table), within 2 ULPs of p.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from .elliptic import MODULUS_MAX, _rf_rd
from .errors import DomainError, OutOfRangeError, _real

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
    p = _real("shape parameter p", p)
    if not (P_STRAIGHT - _BOUNDARY_TOL) <= p <= P_MAX:
        raise DomainError(
            f"shape parameter p={p!r} outside [{P_STRAIGHT!r}, {P_MAX!r}]"
        )
    return p


def _check_length(length: float) -> float:
    length = _real("beam length L", length)
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
    L, p = _check_length(L), _check_shape_param(p)
    shape = _shape(p)
    sp, rf, num, F2, psi0 = shape
    return BeamSolution(L * num / F2, sp * L / rf, psi0, 0.0 if shape is _STRAIGHT else F2 / L)


# _shape of the straight strip: h = sp L / rf is L and w = L num / F2 is 0.0
# exactly, also within _BOUNDARY_TOL below P_STRAIGHT; its k is 0, not F2 / L
_STRAIGHT = (1.0, 1.0, 0.0, 1.0, 0.0)


def _shape(p: float) -> tuple[float, float, float, float, float]:
    """The part of solve_beam that depends on p alone: one Carlson pass.

    Returns (sqrt(2) p, rf, F2 - 2 E2 + sqrt(2 q), F2, psi0), from which
    solve_beam scales by L: h = sqrt(2) p L / rf, w = L (F2 - 2 E2 +
    sqrt(2 q)) / F2 and k = F2 / L.  _STRAIGHT, with no pass, for the
    straight strip (q <= 0).  For a valid p; it is not checked.
    """
    pp = p * p
    q = 2.0 * pp - 1.0  # sin(psi0); 2.0 * p * p rounds to the same double
    if q <= 0.0:
        return _STRAIGHT

    m1 = (1.0 - p) * (1.0 + p)
    s = math.sqrt(q) / p
    rf, rd = _rf_rd(m1 / pp, 2.0 * m1, 1.0)
    F2 = s * rf
    E2 = F2 - pp * (s * s * s) * rd / 3.0
    # q < 1, since p <= P_MAX < 1
    return _SQRT2 * p, rf, F2 - 2.0 * E2 + math.sqrt(2.0 * q), F2, math.asin(q)


# _shape at a float p, cached: the pass does not depend on L.  Its callers
# read it at a handful of fixed caps, which the small cache holds: design
# search at p_cap, and the inversions' range check at P_MAX and p_cap.
_shape_at = functools.lru_cache(maxsize=8)(_shape)


def _height(L: float, p: float) -> float:
    """solve_beam(L, p).h, the same double, from the cached pass at p.

    For a valid L and a float p >= P_STRAIGHT, where sqrt(2) p is 1.0 and h
    is L; neither is checked.
    """
    return _SQRT2 * p * L / _shape_at(p)[1]


def solve_p_for_height(L: float, h_target: float) -> float:
    """Invert h(L, p) for p, in closed form: the exact root, evaluated.

    h falls strictly from L at P_STRAIGHT to its minimum at P_MAX, and h/L
    does not depend on L, so the root is one function of
    u = sqrt(1 - h_target/L).  h is flat at the straight end, where
    L - h ~ 32 L (p - P_STRAIGHT)^2 / 15, and has a logarithmic singularity
    in 1 - p next to P_MAX.  In t = -log(1 - p) the root is
    t* = t_S + f(u) u / (1 - u), t_S = t(P_STRAIGHT): the factor u carries
    the first end and 1 / (1 - u) the second, and f is analytic over the
    whole range.  A piecewise Chebyshev interpolant of f, built from
    40-digit roots and stored as a literal table, gives t*, and
    p = 1 - exp(-t*) is within 2 ULPs of the 40-digit root for every
    target.  An inversion makes no Carlson pass; the range check at P_MAX
    makes one until its pass is cached.

    Raises OutOfRangeError when h_target is below the smallest achievable
    height (at p = P_MAX); the error carries the achievable interval.
    """
    L = _check_length(L)
    h_target = _real("target height h", h_target)
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


# The root in t = -log(1 - p).  h/L does not depend on L, so the root t*
# of sqrt(1 - h/L) = u is one function of u, from u = 0 at P_STRAIGHT to
# _U_MAX at P_MAX; _U_MAX is arch_gap at t(P_MAX) (tests/oracles.py).  It
# is stored as f(u) = (t* - t_S)(1 - u) / u with t_S = t(P_STRAIGHT): the
# factor u makes t* - t_S vanish to first order at the straight end, and
# 1 - u cancels the growth of t* towards u = 1, so f is analytic on
# [0, _U_MAX].  _ROOT_TABLE holds (u_lo, u_hi, coefficients) for each
# piece of [0, _U_MAX]: the degree-17 Chebyshev interpolant of f at the
# piece's 18 Chebyshev nodes of the first kind, with t* at each node the
# root of arch_gap(t) = u at 40 digits, rounded once.  The pieces narrow
# towards _U_MAX, where f varies fastest.  tests/oracles.py::root_table
# rebuilds the table and format_root_table prints it as this literal.  The
# p evaluated from it is within 2 ULPs of the 40-digit root for every
# target (tests/test_beam.py).
_T_STRAIGHT = -math.log1p(-P_STRAIGHT)
_U_MAX = 0.9303595000027977
_ROOT_TABLE = (
    (0.0, 0.25, (
        2.239762809368048, -0.09972889843141657, -0.00197651961876148,
        -3.8918051423245107e-05, -1.8067893038396757e-06, 7.052746697922899e-08,
        2.0515401964831053e-09, 6.801453202896664e-10, 3.149542718333395e-11,
        3.646802354115061e-12, 1.8613370367202614e-13, 1.6221429940879628e-14,
        8.344697624654435e-16, 6.082895905110724e-17, 2.8659884270604152e-18,
        1.679641423859001e-19, 5.079369345142456e-21, 6.294983404409003e-23,
    )),
    (0.25, 0.5, (
        2.02277789455363, -0.11772746694316616, -0.0025339771801959343,
        -4.2871438126850294e-05, 3.10388456747212e-06, 6.92206306309495e-07,
        7.973342286316555e-08, 8.05625845652532e-09, 7.151563943045717e-10,
        5.7381717083021484e-11, 3.8991029583828235e-12, 1.8447444107778703e-13,
        -2.963642570201213e-15, -2.3667100976495555e-15, -4.2290237603579354e-16,
        -5.748256464554296e-17, -6.807345871607076e-18, -7.248049096816339e-19,
    )),
    (0.5, 0.7, (
        1.795270111676394, -0.10862717117020965, -0.001312923628619598,
        0.00012824650664712802, 2.3771486459567625e-05, 2.6183762580727862e-06,
        2.059260628069284e-07, 7.067310017604451e-09, -1.363016678603006e-09,
        -3.880373329164938e-10, -6.314220987354331e-11, -7.840782539086497e-12,
        -7.396816915412348e-13, -3.8531376467217815e-14, 3.658100186438968e-15,
        1.5258034696008526e-15, 2.9721748268277546e-16, 4.3427737496600864e-17,
    )),
    (0.7, 0.8, (
        1.6300994680248975, -0.055006096107498084, 0.0004627810053295149,
        8.767124169150184e-05, 4.107398350173431e-06, -1.2110662128600608e-07,
        -4.18447499634986e-08, -4.023273611627522e-09, -1.4761539730115914e-10,
        1.8101159763865676e-11, 4.079366635314733e-12, 4.2107963680951356e-13,
        2.1561906341016926e-14, -1.093812739792284e-15, -3.990543542128564e-16,
        -5.1436946704965696e-17, -3.959473081647551e-18, -9.654565030774637e-20,
    )),
    (0.8, 0.87, (
        1.5409444630524756, -0.03401219333149747, 0.0007214836883045095,
        2.8485165185322956e-05, -2.105893322535382e-06, -2.1207098779497793e-07,
        5.453076075997296e-09, 2.2127339457884125e-09, 1.3043561156570435e-10,
        -9.771991612174302e-12, -2.3355070625407915e-12, -1.5633654869075474e-13,
        5.884892100409826e-15, 2.2899419822974686e-15, 2.2410484887515313e-16,
        6.085422314501517e-18, -1.3254900733065899e-18, -2.281276977913618e-19,
    )),
    (0.87, 0.9, (
        1.4948971788771672, -0.012628431878830471, 0.00015401165166908663,
        -4.02228454479214e-07, -9.310223771327785e-08, 3.331318130095896e-09,
        1.8278885818655213e-10, -9.548964820121755e-12, -7.45799865788195e-13,
        1.2497738905875264e-14, 3.043690869181436e-15, 8.882309302258831e-17,
        -6.235770251745209e-18, -6.618274368815131e-19, -1.8780059042469702e-20,
        1.0915655032174529e-21, 1.4535026893381792e-22, 7.077920785928848e-24,
    )),
    (0.9, 0.9303595000027977, (
        1.4707096047493478, -0.011565152776871026, 0.0001462340717473391,
        -1.2922106269716062e-06, -1.3545249379713476e-08, 3.2452835588397823e-09,
        -2.0172327275609876e-10, -5.5209242355618996e-12, 1.3145947999917176e-12,
        2.3186801945615338e-14, -8.078445089135012e-15, -3.480007292571506e-16,
        4.0281388293254325e-17, 4.272776611123844e-18, -2.6955748171147964e-20,
        -3.129514734388574e-20, -2.1121292352359527e-21, 5.2123257474828794e-23,
    )),
)
# Clenshaw's order: (u_hi, u_lo + u_hi, u_hi - u_lo, c_0, the rest highest
# degree first) for each piece, in order of u
_ROOT_PIECES = tuple((hi, lo + hi, hi - lo, cs[0], cs[:0:-1]) for lo, hi, cs in _ROOT_TABLE)


def _p_for_height(L: float, h_target: float) -> float:
    """p with h(L, p) = h_target, for h(L, P_MAX) <= h_target <= L.

    The root t* evaluated from _ROOT_TABLE at u = sqrt(1 - h_target/L),
    then p = 1 - exp(-t*), capped at P_MAX; see solve_p_for_height.  No
    Carlson pass.  p >= P_STRAIGHT with no clamp: u = 0 gives P_STRAIGHT
    exactly, and u > 1e-8 and f > 1.45 otherwise (tests/test_beam.py).
    """
    u = math.sqrt(L - h_target) / math.sqrt(L)
    for u_hi, lo_plus_hi, width, c0, tail in _ROOT_PIECES:
        if u <= u_hi:
            break
    # else the last piece: u rounds past _U_MAX when h_target is h(L, P_MAX)
    x = (2.0 * u - lo_plus_hi) / width
    x2 = 2.0 * x  # 2.0 * x * b1 is (2.0 * x) * b1: the same doubles
    b1 = b2 = 0.0
    for c in tail:  # Clenshaw
        b1, b2 = x2 * b1 - b2 + c, b1
    t = _T_STRAIGHT + (x * b1 - b2 + c0) * u / (1.0 - u)
    return min(-math.expm1(-t), P_MAX)

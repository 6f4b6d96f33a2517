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

Since cos^2(phi2) = (1 - p^2) / p^2 and 1 - p^2 s^2 = 2 (1 - p^2), Carlson's
rf, rd = R_F, R_D((1 - p^2) / p^2, 2 (1 - p^2), 1) give F(phi2) = s rf and
E(phi2) = F(phi2) - p^2 s^3 rd / 3, with no amplitude.  So
k = F(phi2) / L, h/L = sqrt(2) p / rf and w/L = h/L - 1 + (2 q / 3) rd / rf.

h/L and w/L depend on p alone, and solve_beam evaluates neither from these
forms: in d = t - t_S, with t = -log(1 - p) and t_S its value at the
straight end, h/L and G = (w/L) / d are analytic over the whole range
[0, _D_MAX] (K's logarithmic singularity at p = 1 is linear growth in t),
and a literal table holds both as piecewise Chebyshev interpolants, built
from mpmath's R_F and R_D at 40 digits (tests/oracles.py::forward_table).
w/L = d G(d) keeps its relative accuracy down to the straight end, where
it vanishes.  psi0 and k = sqrt(2 q) / (h/L) / L take q from
p - 1/sqrt(2) as a double-double difference, without cancellation.  Over
the whole range h is within one ULP of L of its 40-digit value, and w, k
and psi0 within 2.6 ULPs of theirs (tests/test_beam.py).

_shape evaluates the table at a p, for every L; _shape_at caches it at the
last few p: the fixed caps that design search and the inversions' range
check read.

The inverse, p at a given height, is a table too.  The root of
h(L, p) = h_target is one function of u = sqrt(1 - h_target/L), and
solve_p_for_height evaluates it from a literal table: a piecewise
Chebyshev interpolant of that root, built from 40-digit roots
(tests/oracles.py::root_table), within 2 ULPs of p.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from .elliptic import MODULUS_MAX
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
    limit (w = 0, h = L, psi0 = 0, k = 0); the general formulas degenerate
    to 0/0 there because k -> 0 with the load.
    """
    # every argument's type before any range, as in state_for_length
    L, p = _real("beam length L", L), _real("shape parameter p", p)
    L, p = _check_length(L), _check_shape_param(p)
    h_unit, w_unit, psi0, q = _shape(p)
    return BeamSolution(L * w_unit, L * h_unit, psi0, math.sqrt(2.0 * q) / h_unit / L)


# p - 1/sqrt(2) is (p - P_STRAIGHT) - _P_LO to one rounding: _P_LO is the
# double nearest 1/sqrt(2) - P_STRAIGHT, and p - P_STRAIGHT is exact
# (Sterbenz), so the difference keeps its relative accuracy next to the
# straight end
_P_LO = 6.268583589525109e-17

# _shape of the straight strip, for every p <= P_STRAIGHT, also within
# _BOUNDARY_TOL below it: h = L * 1.0 is L and w, psi0 and k are 0.0
_STRAIGHT = (1.0, 0.0, 0.0, 0.0)


# The forward shape in d = t - t_S, t = -log(1 - p), from d = 0 at
# P_STRAIGHT to _D_MAX at P_MAX; _D_MAX is t(P_MAX) - t_S at 40 digits.
# _SHAPE_TABLE holds (d_lo, d_hi, h/L coefficients, G coefficients) for each
# piece of [0, _D_MAX]: the degree-17 Chebyshev interpolants of h/L and of
# G = (w/L) / d at the piece's 18 Chebyshev nodes of the first kind, which
# never fall on d = 0, with both values at each node from R_F and R_D at 40
# digits, rounded once.  tests/oracles.py::forward_table rebuilds the table
# and format_forward_table prints it as this literal.
_D_MAX = 19.495318687928826
_SHAPE_TABLE = (
    (0.0, 1.0, (
        0.9564034082321919, -0.054676580897382664, -0.009264409771040712,
        0.0016486521960232673, -0.0001555321849526649, 1.0746209703589725e-05,
        -6.111515731398851e-07, 3.438779052378927e-08, -2.7991292009451537e-09,
        3.6472101074901474e-10, -5.507579163543749e-11, 8.192922252009092e-12,
        -1.1790068805356426e-12, 1.660003998858933e-13, -2.311146362063046e-14,
        3.2022685312300958e-15, -4.429369369543087e-16, 6.015626317867987e-17,
    ), (
        0.47737480194578563, -0.07251142708031771, 0.002583445549446041,
        0.00014721558338309606, -3.398411412716571e-05, 3.454692023666366e-06,
        -2.557026103344964e-07, 1.4314852509157884e-08, -4.028004746058744e-10,
        -4.900753906817195e-11, 1.3371695397186023e-11, -2.2645703529340594e-12,
        3.404276558997868e-13, -4.898839019029465e-14, 6.920110572471857e-15,
        -9.693680429835567e-16, 1.3523978969932864e-16, -1.849113700637658e-17,
    )),
    (1.0, 2.5, (
        0.7766270046534207, -0.11513374854612718, 0.0030124172871844974,
        0.0006582937945202641, -0.0001325226546672831, 1.5218362628066962e-05,
        -1.3299758442517496e-06, 9.51761218628633e-08, -5.6899717051945355e-09,
        2.822611566700327e-10, -1.1669241929169783e-11, 5.382731579485626e-13,
        -6.126628260681831e-14, 1.1024117558958983e-14, -1.8199846524231137e-15,
        2.6750229556026483e-16, -3.6454073862981256e-17, 4.6781589051557744e-18,
    ), (
        0.33342675137525296, -0.06857745597754278, 0.005311993980968027,
        -0.0002530886059142093, -3.310739917635318e-06, 2.3538830923033514e-06,
        -3.2527095829411253e-07, 3.2383688385844346e-08, -2.70168735099904e-09,
        1.985497351443158e-10, -1.2995365646860952e-11, 7.295800985552928e-13,
        -2.8165090735981257e-14, -7.50673571039715e-16, 3.802626016297635e-16,
        -6.695043146924026e-17, 9.70839304471526e-18, -1.2859789387666933e-18,
    )),
    (2.5, 5.0, (
        0.5370045154667148, -0.11672991605086534, 0.010672401568706094,
        -0.0006571139343519609, -6.796286912767137e-06, 9.653539884361549e-06,
        -1.8070272840607008e-06, 2.3876669605758505e-07, -2.603269151674929e-08,
        2.4656565635464785e-09, -2.067886949932699e-10, 1.5346806897231212e-11,
        -9.828384199631959e-13, 4.9958271713506316e-14, -1.3596281629512108e-15,
        -9.020548504788249e-17, 1.8618637849385462e-17, -1.7447046336640223e-18,
    ), (
        0.21068796322040015, -0.05258798167086848, 0.005990190619938193,
        -0.0005910247088982922, 4.7276847439165065e-05, -2.5581330473534497e-06,
        -1.3403600270171874e-08, 2.7701111008382887e-08, -4.884257550882226e-09,
        6.232210465388496e-10, -6.784338514011728e-11, 6.660104392096186e-12,
        -6.053079768709387e-13, 5.16924784779048e-14, -4.184517054538244e-15,
        3.221850252219017e-16, -2.346320845015817e-17, 1.570964006628881e-18,
    )),
    (5.0, 9.0, (
        0.3399334369572364, -0.08002210192033653, 0.00921693648992599,
        -0.0010096616422549337, 0.0001003518073852463, -8.279260114972769e-06,
        4.208497283487884e-07, 2.3390683431511117e-08, -1.0881294335201693e-08,
        2.0360272859929582e-09, -2.9432054464669696e-10, 3.6832641586781586e-11,
        -4.16637456071359e-12, 4.3514234806988167e-13, -4.242522917759046e-14,
        3.876473772268465e-15, -3.3086078870471024e-16, 2.591827989899125e-17,
    ), (
        0.12712175475588663, -0.03190407111878328, 0.003973208680191109,
        -0.0004823711496804199, 5.5821810050845316e-05, -6.0100599886102106e-06,
        5.856894419979436e-07, -4.953152215561234e-08, 3.2791645209851042e-09,
        -9.742498161193735e-11, -1.7123261413976748e-11, 4.4960105220449335e-12,
        -7.120126171311404e-13, 9.38822215468521e-14, -1.11686171828769e-14,
        1.238609333671435e-15, -1.3013164266360522e-16, 1.2954930849655643e-17,
    )),
    (9.0, 13.0, (
        0.2283836431047626, -0.036637224077487276, 0.002935725147132988,
        -0.00023442423592792946, 1.8547308053619442e-05, -1.43827431490462e-06,
        1.0740774415554895e-07, -7.516142815244831e-09, 4.701901573383072e-10,
        -2.3529573822647244e-11, 5.323062244845617e-13, 7.35513809998881e-14,
        -1.4857770971946585e-14, 1.8070821604076535e-15, -1.8171805991439434e-16,
        1.635356738956721e-17, -1.361878168568741e-18, 1.0629536173930663e-19,
    ), (
        0.08357235567020388, -0.013918162050828117, 0.0011623294827025662,
        -9.71903779528552e-05, 8.105910518232123e-06, -6.698126365738749e-07,
        5.43190549039484e-08, -4.2736070476490315e-09, 3.2205282892990036e-10,
        -2.2916653270082086e-11, 1.5121183598856406e-12, -8.982974716644777e-14,
        4.497412366010439e-15, -1.490875156371693e-16, -3.2186160057271273e-18,
        1.2619127201692325e-18, -1.6240794648463099e-19, 1.630447421562247e-20,
    )),
    (13.0, 19.495318687928826, (
        0.16168541324086194, -0.02976262236186629, 0.002739261969982337,
        -0.00025209215909633846, 2.3192715188340635e-05, -2.13178043941889e-06,
        1.9548399701593864e-07, -1.7833002338498803e-08, 1.6103986751381654e-09,
        -1.4284348585064104e-10, 1.2303121270310983e-11, -1.0116451721947574e-12,
        7.72734733405748e-14, -5.195893275868859e-15, 2.6344604013898506e-16,
        -1.8799401031489244e-18, -1.994255720395023e-18, 3.7312872357965043e-19,
    ), (
        0.05852916784817397, -0.011044620819993349, 0.0010438497267234881,
        -9.882614152046526e-05, 9.371492638042922e-06, -8.897822401736309e-07,
        8.450770343116255e-08, -8.014337433539025e-09, 7.566802796111661e-10,
        -7.082393349626719e-11, 6.535690508460953e-12, -5.908042897278089e-13,
        5.1940021722720876e-14, -4.405300803925592e-15, 3.570549624626242e-16,
        -2.730396139211242e-17, 1.929609243234821e-18, -1.207331732708538e-19,
    )),
)
# Clenshaw's order: (d_hi, d_lo + d_hi, d_hi - d_lo, then c_0 and the rest
# highest degree first, of h/L and then of G) for each piece, in order of d
_SHAPE_PIECES = tuple((hi, lo + hi, hi - lo, hs[0], hs[:0:-1], gs[0], gs[:0:-1])
                      for lo, hi, hs, gs in _SHAPE_TABLE)


def _shape(p: float) -> tuple[float, float, float, float]:
    """The part of solve_beam that depends on p alone, from _SHAPE_TABLE.

    Returns (h/L, w/L, psi0, q), from which solve_beam scales by L: h and w
    are L times the first two, and k = sqrt(2 q) / (h/L) / L.  _STRAIGHT
    for the straight strip.  For a valid p; it is not checked.  For every
    float p in (P_STRAIGHT, P_MAX], h/L <= 1 and w/L > 0, which design
    relies on: tests/test_beam.py::test_shape_range_from_the_table_digits
    proves both from _SHAPE_TABLE's digits.

    delta = p - 1/sqrt(2) is rounded once, d = log1p(delta / (1 - p)) with
    1 - p exact, and q = 2 delta (p + 1/sqrt(2)) is computed as
    2 delta (p + P_STRAIGHT): _P_LO is below half an ULP of the sum, which
    lies in [1.4, 2), so adding it changes no double.  q is then within
    ~2 ULPs.  Dekker's product would give 2 p^2 - 1 to half an ULP, at a
    dozen more float operations a call; delta is needed for d anyway.
    psi0 is atan2(q, cos(psi0)), not asin(q): next to P_MAX asin magnifies
    an error in q by 1 / cos(psi0), ~1e4, and would put psi0 ~5 700 ULPs
    off at P_MAX.
    """
    delta = (p - P_STRAIGHT) - _P_LO
    if delta <= 0.0:
        return _STRAIGHT
    d = math.log1p(delta / (1.0 - p))
    for d_hi, lo_plus_hi, width, h_c0, h_tail, g_c0, g_tail in _SHAPE_PIECES:
        if d <= d_hi:
            break
    # else the last piece: d rounds past _D_MAX at P_MAX
    x = (2.0 * d - lo_plus_hi) / width
    x2 = 2.0 * x
    b1 = b2 = 0.0
    for c in h_tail:  # Clenshaw, h/L
        b1, b2 = x2 * b1 - b2 + c, b1
    h_unit = x * b1 - b2 + h_c0
    b1 = b2 = 0.0
    for c in g_tail:  # and G; one loop carrying both sums was slower
        b1, b2 = x2 * b1 - b2 + c, b1
    q = 2.0 * delta * (p + P_STRAIGHT)
    # cos(psi0) = sqrt((1 - q)(1 + q)), with 1 - q = 2 (1 - p)(1 + p) free
    # of cancellation; q < 1, since p <= P_MAX < 1
    psi0 = math.atan2(q, math.sqrt(2.0 * (1.0 - p) * (1.0 + p) * (1.0 + q)))
    return h_unit, d * (x * b1 - b2 + g_c0), psi0, q


# _shape at a float p, cached: it does not depend on L.  Its callers read
# it at a handful of fixed caps, which the small cache holds: design search
# at p_cap, and the inversions' range check at P_MAX and p_cap.
_shape_at = functools.lru_cache(maxsize=8)(_shape)


def _height(L: float, p: float) -> float:
    """solve_beam(L, p).h, the same double, from the cached table value at p.

    For a valid L and a float p; neither is checked.
    """
    return L * _shape_at(p)[0]


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
    target.  An inversion evaluates no forward shape; the range check at
    P_MAX evaluates one until it is cached.

    Raises OutOfRangeError when h_target is below the smallest achievable
    height (at p = P_MAX); the error carries the achievable interval.
    """
    L, h_target = _real("beam length L", L), _real("target height h", h_target)
    L = _check_length(L)
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
    then p = 1 - exp(-t*), capped at P_MAX; see solve_p_for_height.  p >= P_STRAIGHT with no clamp: u = 0 gives P_STRAIGHT
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


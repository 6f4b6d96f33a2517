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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .elliptic import MODULUS_MAX, _rf_rd
from .errors import DomainError, NumericalInstabilityError, OutOfRangeError

# Shape parameter of the straight (unloaded) strip.
P_STRAIGHT = 1.0 / math.sqrt(2.0)
# Upper bound: keep clear of the logarithmic singularity of K at p = 1.
P_MAX = MODULUS_MAX

# Tolerance for "p is the straight-beam boundary"; 2 p^2 - 1 underflows to a
# small negative number when p is the float nearest 1/sqrt(2).
_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class BeamSolution:
    """Deflected-arch geometry for one (L, p) pair.  Lengths in mm."""

    w: float      # deflection along the load (muscle width contribution)
    h: float      # tip coordinate along the clamped tangent (arch height)
    psi0: float   # tip rotation relative to the clamped tangent, rad
    k: float      # scale factor sqrt(load/stiffness), 1/mm


def _check_shape_param(p: float) -> float:
    p = float(p)
    if not (P_STRAIGHT - _BOUNDARY_TOL) <= p <= P_MAX:
        raise DomainError(
            f"shape parameter p={p!r} outside [{P_STRAIGHT!r}, {P_MAX!r}]"
        )
    return p


def _check_length(length: float) -> float:
    length = float(length)
    if not length > 0.0:
        raise DomainError(f"beam length L={length!r} must be positive")
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
    L = _check_length(L)
    p = _check_shape_param(p)

    q = 2.0 * p * p - 1.0  # sin(psi0)
    if q <= 0.0:
        return BeamSolution(w=0.0, h=L, psi0=0.0, k=0.0)

    m1 = (1.0 - p) * (1.0 + p)
    s = math.sqrt(q) / p
    rf, rd = _rf_rd(m1 / (p * p), 2.0 * m1, 1.0)
    F2 = s * rf
    E2 = F2 - (p * p) * (s * s * s) * rd / 3.0
    h = math.sqrt(2.0) * p * L / rf
    w = L * (F2 - 2.0 * E2 + math.sqrt(2.0 * q)) / F2
    psi0 = math.asin(min(1.0, q))
    return BeamSolution(w=w, h=h, psi0=psi0, k=F2 / L)


def _height_slope(L: float, p: float, sol: BeamSolution) -> float:
    """dh/dp at p > P_STRAIGHT, from the fields of ``sol = solve_beam(L, p)``.

    With c = cos(phi1) and E - E(phi1) = k (L - w) / 2, differentiating
    kL = K(p) - F(phi1(p), p) gives
    d(kL)/dp = k (L - w) / (2 p (1 - p^2)) - kL / p + c / (1 - p^2) + 1 / (p^2 c),
    and h = L r / kL with r = sqrt(2 (2 p^2 - 1)) then gives dh/dp.
    """
    q = 2.0 * p * p - 1.0
    c = math.sqrt(q) / (math.sqrt(2.0) * p)
    one_minus_m = 1.0 - p * p
    kL = sol.k * L
    dkL = (sol.k * (L - sol.w) / (2.0 * p * one_minus_m) - kL / p
           + c / one_minus_m + 1.0 / (p * p * c))
    r = math.sqrt(2.0 * q)
    return L * ((4.0 * p / r) / kL - r * dkL / (kL * kL))


def solve_p_for_height(L: float, h_target: float) -> float:
    """Invert h(L, p) for p by a bracketed, safeguarded Newton iteration.

    h is strictly decreasing in p on [P_STRAIGHT, P_MAX] (verified by dense
    sampling in the test suite) but flat at the straight end, where L - h
    grows like (p - P_STRAIGHT)^2.  The iteration therefore runs on
    g(p) = sqrt(L - h(p)), which is linear there, starting from the linear
    interpolation of g between the bracket ends.  Each evaluation narrows
    the bracket; a Newton step that leaves it, or that is longer than half
    the step before last, is replaced by a bisection step.  Once a Newton
    step is no longer than 1e-8 (1 - p) and the evaluated p meets h_target
    to 1e-9 L, the stepped-to p is returned: Newton converges
    quadratically, so its error is far below an ULP.  (The 1 - p scale
    keeps the test meaningful next to P_MAX, where h is steep in p.)  If the
    bracket shrinks to adjacent doubles first, as it can next to P_MAX,
    where one ULP of p moves h by ~1e-9 L, the end nearer the target is
    returned, or NumericalInstabilityError raised when it misses by more
    than 1e-9 L.

    Raises OutOfRangeError when h_target is below the smallest achievable
    height (at p = P_MAX); the error carries the achievable interval.
    """
    L = _check_length(L)
    h_target = float(h_target)
    if not 0.0 < h_target <= L:
        raise DomainError(f"target height {h_target!r} must lie in (0, L={L}]")

    if h_target == L:
        return P_STRAIGHT
    h_min = solve_beam(L, P_MAX).h
    if h_target < h_min:
        raise OutOfRangeError(
            f"target height {h_target!r} below minimum achievable "
            f"{h_min!r} (heights span [{h_min!r}, {L!r}])",
            lo=h_min,
            hi=L,
        )

    g_target = math.sqrt(L - h_target)
    lo, hi = P_STRAIGHT, P_MAX  # h(lo) = L >= h_target >= h(hi)
    p = P_STRAIGHT + (P_MAX - P_STRAIGHT) * (g_target / math.sqrt(L - h_min))
    # misses at the bracket ends, for the answer once the bracket is two
    # adjacent doubles
    miss_lo, miss_hi = L - h_target, h_min - h_target
    step = prev = hi - lo
    while True:
        sol = solve_beam(L, p)
        miss = sol.h - h_target
        if miss >= 0.0:
            lo, miss_lo = p, miss
        else:
            hi, miss_hi = p, miss
        g = math.sqrt(max(L - sol.h, 0.0))
        slope = _height_slope(L, p, sol) if g > 0.0 else 0.0
        # Newton on g, whose slope is -h' / (2 g)
        newton = p + 2.0 * g * (g - g_target) / slope if slope < 0.0 else p
        if (abs(newton - p) <= 1e-8 * (1.0 - p) and abs(miss) <= 1e-9 * L
                and lo <= newton <= hi):
            return newton
        if lo < newton < hi and abs(newton - p) <= 0.5 * abs(prev):
            prev, step, p = step, newton - p, newton
            continue
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            p, miss = (lo, miss_lo) if miss_lo <= -miss_hi else (hi, miss_hi)
            if abs(miss) > 1e-9 * L:
                raise NumericalInstabilityError(
                    f"height inversion did not converge at h_target={h_target!r}"
                )
            return p
        prev, step, p = step, mid - p, mid

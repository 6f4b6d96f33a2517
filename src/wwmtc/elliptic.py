"""Legendre elliptic integrals of the first and second kind.

All functions take the *modulus* p (the integrands contain p^2 sin^2(theta)),
not the parameter m = p^2.  Amplitudes are restricted to the first quadrant,
where the arch's integrals lie; beam reads those from tables, not from here.

Evaluation is built on Carlson symmetric forms (duplication theorem, the
SLATEC algorithm; Carlson, Numer. Algorithms 10, 1995), accurate to a few
ULP.  The algorithm-independent references that cross-check it, adaptive
Simpson quadrature of the defining integrals, live in ``tests/oracles.py``.

The fast path rests on one kernel, ``_rf_rd``: R_F and R_D apply the same
duplication step to the same arguments, so a single duplication sequence
with one stop rule, SLATEC's R_F rule, yields both: each form sums its own
series at that step.  The pairs ``ellip_fe`` = (F, E)(phi, p) and
``ellip_ke`` = (K, E)(p) return both integrals of one amplitude from that
single pass; ``ellip_f``, ``ellip_e``, ``ellip_k`` and ``ellip_e_complete``
are their halves.
"""

from __future__ import annotations

import math
from math import sqrt

from .errors import DomainError, _real

# K(p) has a logarithmic singularity at p = 1; the beam model never needs
# moduli this close to it (the tip angle is already 90 deg in that limit).
MODULUS_MAX = 1.0 - 1e-9

HALF_PI = math.pi / 2.0


def _check_modulus(p: float) -> float:
    p = _real("modulus p", p)
    if not 0.0 <= p <= MODULUS_MAX:
        raise DomainError(
            f"modulus p={p!r} outside [0, {MODULUS_MAX}] "
            "(integrals diverge as p approaches 1)"
        )
    return p


def _check_amplitude(phi: float) -> float:
    phi = _real("amplitude phi", phi)
    # allow half a ULP of slack at pi/2 so that computed amplitudes
    # such as asin(...) never trip the guard
    if not 0.0 <= phi <= HALF_PI * (1.0 + 1e-15):
        raise DomainError(f"amplitude phi={phi!r} outside [0, pi/2]")
    return min(phi, HALF_PI)


# ---------------------------------------------------------------------------
# Carlson symmetric forms
# ---------------------------------------------------------------------------

_TOL = 1e-4  # deviation threshold; 5th-order tail then contributes < 1 ULP


def _rf_rd(x: float, y: float, z: float) -> tuple[float, float]:
    """Carlson R_F(x, y, z) and R_D(x, y, z) from one duplication sequence.

    Both forms apply the same duplication step to the same arguments, so one
    loop with one stop rule serves both: SLATEC's R_F rule on the plain mean,
    after which each form sums its own series at that step.  z must be
    positive.
    """
    total = 0.0
    pow4 = 1.0
    while True:
        sx, sy, sz = sqrt(x), sqrt(y), sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        total += pow4 / (sz * (z + lam))
        pow4 *= 0.25
        x = (x + lam) * 0.25
        y = (y + lam) * 0.25
        z = (z + lam) * 0.25
        mu = (x + y + z) / 3.0
        dx = (mu - x) / mu
        dy = (mu - y) / mu
        dz = (mu - z) / mu
        # max(abs(d)) < _TOL without the calls; the same test for any non-NaN d
        if -_TOL < dx < _TOL and -_TOL < dy < _TOL and -_TOL < dz < _TOL:
            break
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    rf = (1.0 + (e2 / 24.0 - 0.1 - 3.0 * e3 / 44.0) * e2 + e3 / 14.0) / sqrt(mu)
    # R_D's mean (x + y + 3z)/5 is mu*(1 - 0.4*dz), so its deviations are
    # (d - 0.4*dz)/(1 - 0.4*dz), below 1.4*_TOL: its series needs no more steps
    mu = (x + y + 3.0 * z) * 0.2
    dx = (mu - x) / mu
    dy = (mu - y) / mu
    dz = (mu - z) / mu
    ea = dx * dy
    eb = dz * dz
    ec = ea - eb
    ed = ea - 6.0 * eb
    ef = ed + ec + ec
    s1 = ed * (-3.0 / 14.0 + 0.25 * (9.0 / 22.0) * ed - 1.5 * (3.0 / 26.0) * dz * ef)
    s2 = dz * ((1.0 / 6.0) * ef + dz * (-(9.0 / 22.0) * ec + dz * (3.0 / 26.0) * ea))
    return rf, 3.0 * total + pow4 * (1.0 + s1 + s2) / (mu * sqrt(mu))


# ---------------------------------------------------------------------------
# Fast path
# ---------------------------------------------------------------------------

def ellip_f(phi: float, p: float) -> float:
    """Incomplete elliptic integral of the first kind F(phi, p).

    Integral of 1/sqrt(1 - p^2 sin^2 theta) for theta in [0, phi],
    with 0 <= phi <= pi/2 and modulus 0 <= p <= MODULUS_MAX.
    """
    return ellip_fe(phi, p)[0]


def ellip_fe(phi: float, p: float) -> tuple[float, float]:
    """Both incomplete integrals (F(phi, p), E(phi, p)) from one Carlson pass."""
    phi = _check_amplitude(phi)
    p = _check_modulus(p)
    if phi == 0.0:
        return 0.0, 0.0
    s = math.sin(phi)
    c = math.cos(phi)
    ps = p * s
    rf, rd = _rf_rd(c * c, 1.0 - ps * ps, 1.0)
    f = s * rf
    return f, f - (p * p) * (s * s * s) * rd / 3.0


def ellip_e(phi: float, p: float) -> float:
    """Incomplete elliptic integral of the second kind E(phi, p).

    Integral of sqrt(1 - p^2 sin^2 theta) for theta in [0, phi].
    """
    return ellip_fe(phi, p)[1]


def ellip_k(p: float) -> float:
    """Complete elliptic integral of the first kind K(p) = F(pi/2, p)."""
    return ellip_ke(p)[0]


def ellip_ke(p: float) -> tuple[float, float]:
    """Both complete integrals (K(p), E(p)) from one Carlson pass."""
    p = _check_modulus(p)
    m = p * p
    rf, rd = _rf_rd(0.0, 1.0 - m, 1.0)
    return rf, rf - m * rd / 3.0


def ellip_e_complete(p: float) -> float:
    """Complete elliptic integral of the second kind E(p) = E(pi/2, p)."""
    return ellip_ke(p)[1]

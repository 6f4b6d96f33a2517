"""Independent oracles for the closed-form fast paths.

``shoot_tip`` is the elastica oracle: direct integration of the rod
equations.  It solves the same physical problem as :mod:`wwmtc.beam` — a
clamped inextensible strip with a transverse point load at the free end —
but by numerically integrating the planar rod equilibrium equation

    psi''(s) = -lambda * cos(psi),   psi(0) = 0,

and shooting on the load magnitude lambda until the free end (the first
point of zero curvature) lands exactly at arc length L.  No elliptic
integrals are involved, so agreement with the closed form is a genuine
cross-check rather than a tautology.

The initial curvature psi'(0) = sqrt(2 lambda sin(psi0)) follows from the
first integral of the rod equation (moment balance at the clamp) for a
trajectory whose turning point is at tip angle psi0.  The arc length of
that first turning point is strictly decreasing in lambda, which gives the
shooting residual a single bracketed root.

``ellip_*_quadrature`` are the elliptic-kernel oracles: adaptive Simpson
quadrature of the defining integrals, with no Carlson forms.
``beam_reference`` evaluates the closed-form arch solution from its
definition, K - F(phi1) and E - E(phi1), at 40 significant digits with
mpmath; it shares no formula or rounding with the single Carlson pass of
``wwmtc.beam.solve_beam``.

``arch_gap`` evaluates g = sqrt(1 - h/L) from the same definition as a
function of t = -log(1 - p), the variable in which
``wwmtc.beam.solve_p_for_height`` runs Newton's method, and
``start_coefficients`` rebuilds that method's start from its roots.

``evaluate`` is the design oracle: it re-checks a candidate through the
forward model (``state_at`` and ``natural_length``) and never uses the
affine form of the margins that ``wwmtc.design`` solves.

``play_operator`` and ``play_operator_scan`` are the winch oracles for
``wwmtc.actuators.simulate_winch``, which runs one clamp per sample:
the recursion as plain comparisons, and a log-step prefix scan of clamp
compositions over numpy arrays, which shares no loop with either.
``branches`` walks the current steps one by one to split a sweep into the
monotone runs that ``wwmtc.actuators._branches`` finds from array masks.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from wwmtc.beam import P_MAX
from wwmtc.design import DesignConstraints
from wwmtc.elliptic import HALF_PI, _check_amplitude, _check_modulus
from wwmtc.errors import DomainError
from wwmtc.muscle import DEFAULT_P_CAP, MuscleSpec, natural_length, state_at

# generous cap: a rod that has not turned by 20 lengths is effectively straight
_S_MAX = 20.0


def shoot_tip(L: float, psi0: float, rtol: float = 1e-12) -> tuple[float, float, float]:
    """Tip position of the loaded strip found by shooting, no closed forms.

    Args:
        L: strip arc length (mm).
        psi0: target tip angle in (0, pi/2), radians.
        rtol: relative tolerance of the ODE integrator.

    Returns:
        (h, w, k): tip coordinate along the clamped tangent, tip deflection
        along the load, and the fitted load scale sqrt(lambda) in 1/mm.
    """
    if not 0.0 < psi0 < math.pi / 2.0:
        raise DomainError(f"tip angle psi0={psi0!r} outside (0, pi/2)")
    if not L > 0.0:
        raise DomainError(f"beam length L={L!r} must be positive")

    sin_psi0 = math.sin(psi0)

    def first_turn(lam: float):
        """Integrate until curvature first hits zero; dimensionless arc length."""

        def rhs(s, u):
            psi, dpsi, x, y = u
            return (dpsi, -lam * math.cos(psi), math.cos(psi), math.sin(psi))

        def turning(s, u):
            return u[1]

        turning.terminal = True
        turning.direction = -1.0

        u0 = (0.0, math.sqrt(2.0 * lam * sin_psi0), 0.0, 0.0)
        sol = solve_ivp(
            rhs,
            (0.0, _S_MAX),
            u0,
            method="DOP853",
            rtol=rtol,
            atol=1e-14,
            events=turning,
        )
        if sol.t_events[0].size:
            return sol.t_events[0][0], sol.y_events[0][0]
        return _S_MAX, sol.y[:, -1]

    def residual(lam: float) -> float:
        return first_turn(lam)[0] - 1.0

    lam = brentq(residual, 1e-10, 1.5e3, xtol=1e-14, rtol=8.9e-16, maxiter=200)
    _, (psi_end, _, x_end, y_end) = first_turn(lam)
    # energy conservation puts the turning point at the target angle; a large
    # mismatch would mean the root finder latched onto a higher buckling mode
    if abs(psi_end - psi0) > 1e-8:
        raise DomainError(
            f"shooting converged to tip angle {psi_end!r}, wanted {psi0!r}"
        )
    return x_end * L, y_end * L, math.sqrt(lam) / L


def _adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    """Adaptive Simpson quadrature with Richardson extrapolation."""
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)

    def recurse(a, fa, b, fb, m, fm, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (
            recurse(a, fa, m, fm, lm, flm, left, tol * 0.5, depth - 1)
            + recurse(m, fm, b, fb, rm, frm, right, tol * 0.5, depth - 1)
        )

    m = 0.5 * (a + b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return recurse(a, fa, b, fb, m, fm, whole, tol, 48)


def ellip_f_quadrature(phi: float, p: float, tol: float = 1e-12) -> float:
    """F(phi, p) by adaptive Simpson on the defining integral."""
    phi = _check_amplitude(phi)
    p = _check_modulus(p)
    if phi == 0.0:
        return 0.0
    m = p * p

    def integrand(theta: float) -> float:
        s = math.sin(theta)
        return 1.0 / math.sqrt(1.0 - m * s * s)

    return _adaptive_simpson(integrand, 0.0, phi, tol)


def ellip_e_quadrature(phi: float, p: float, tol: float = 1e-12) -> float:
    """E(phi, p) by adaptive Simpson on the defining integral."""
    phi = _check_amplitude(phi)
    p = _check_modulus(p)
    if phi == 0.0:
        return 0.0
    m = p * p

    def integrand(theta: float) -> float:
        s = math.sin(theta)
        return math.sqrt(1.0 - m * s * s)

    return _adaptive_simpson(integrand, 0.0, phi, tol)


def ellip_k_quadrature(p: float, tol: float = 1e-12) -> float:
    """K(p) by adaptive Simpson."""
    return ellip_f_quadrature(HALF_PI, p, tol)


def ellip_e_complete_quadrature(p: float, tol: float = 1e-12) -> float:
    """Complete E(p) by adaptive Simpson."""
    return ellip_e_quadrature(HALF_PI, p, tol)


def beam_reference(L: float, p: float) -> tuple[float, float, float]:
    """(h, w, k) of ``solve_beam(L, p)`` from the definition, at 40 digits.

    Evaluates phi1 = asin(1/(sqrt(2) p)), kL = K(p) - F(phi1, p) and
    E(p) - E(phi1, p) in 40-digit arithmetic, so the cancellation of both
    differences next to the straight end costs nothing at double precision.
    L and p are taken exactly as the doubles given.  A p at or below the
    exact 1/sqrt(2), such as the double P_STRAIGHT, is the straight strip
    (L, 0, 0).
    """
    with mpmath.workdps(40):
        L, p = mpmath.mpf(L), mpmath.mpf(p)
        m = p * p
        if 2 * m - 1 <= 0:
            return float(L), 0.0, 0.0
        phi1 = mpmath.asin(1 / (mpmath.sqrt(2) * p))
        kL = mpmath.ellipk(m) - mpmath.ellipf(phi1, m)
        dE = mpmath.ellipe(m) - mpmath.ellipe(phi1, m)
        h = L * mpmath.sqrt(2 * (2 * m - 1)) / kL
        w = L * (kL - 2 * dE) / kL
        return float(h), float(w), float(kL / L)


def arch_gap(t, dps: int = 40):
    """g = sqrt(1 - h/L) at p = 1 - exp(-t) from the definition, as an mpf.

    h/L does not depend on L.  Next to the straight end 1 - h/L is of order
    (p - 1/sqrt(2))^2, so the subtraction cancels about twice as many digits
    as p - 1/sqrt(2) has leading zeros; the evaluation runs at 2 * dps
    digits so that g keeps dps of them down to p - 1/sqrt(2) = 1e-20.  t may
    be any mpmath-convertible number; it is taken at 2 * dps digits.
    """
    with mpmath.workdps(2 * dps):
        t = mpmath.mpf(t)
        p = -mpmath.expm1(-t)
        m = p * p
        phi1 = mpmath.asin(1 / (mpmath.sqrt(2) * p))
        kL = mpmath.ellipk(m) - mpmath.ellipf(phi1, m)
        return mpmath.sqrt(1 - mpmath.sqrt(2 * (2 * m - 1)) / kL)


def start_coefficients(degree: int, u_max: float, dps: int = 40) -> tuple[float, ...]:
    """Chebyshev interpolant of f(u) = (t* - t_S)(1 - u) / u on [0, u_max].

    t* is the root of arch_gap(t) = u and t_S = -log(1 - 1/sqrt(2)); the
    interpolation points are the degree + 1 Chebyshev nodes of the first
    kind.  Each root is bracketed between t_S and t(P_MAX) and found at dps
    digits, and the coefficients are summed at dps digits and rounded once,
    which reproduces ``wwmtc.beam._START_CHEB`` for degree 40 and
    u_max = ``wwmtc.beam._U_MAX``.  c_0 carries the usual factor 1/2, so
    f = sum c_k T_k(2 u / u_max - 1).
    """
    n = degree + 1
    with mpmath.workdps(dps):
        t_s = -mpmath.log(1 - 1 / mpmath.sqrt(2))
        bracket = (t_s + mpmath.mpf(10) ** -dps, -mpmath.log1p(-mpmath.mpf(P_MAX)))
        angles = [mpmath.pi * (j + mpmath.mpf(1) / 2) / n for j in range(n)]
        values = []
        for a in angles:
            u = mpmath.mpf(u_max) * (mpmath.cos(a) + 1) / 2
            t = mpmath.findroot(lambda t: arch_gap(t, dps) - u, bracket, solver="anderson")
            values.append((t - t_s) * (1 - u) / u)
        return tuple(
            float(sum(f * mpmath.cos(k * a) for f, a in zip(values, angles)) * (2 if k else 1) / n)
            for k in range(n)
        )


def evaluate(constraints: DesignConstraints, n: int, L: float,
             p_cap: float = DEFAULT_P_CAP) -> tuple[float, ...]:
    """Constraint margins (mm) at one candidate, from the exact forward model."""
    spec = MuscleSpec(n=n, L=L, h0=constraints.h0, kind=constraints.kind)
    state = state_at(spec, p_cap)
    nat = natural_length(spec)
    return (
        nat - constraints.natural_length_range[0],
        constraints.natural_length_range[1] - nat,
        state.contraction - constraints.min_stroke,
        constraints.max_width_at_full - state.width,
        state.width - constraints.min_width_at_full,
    )


def play_operator(c: float, r: float, currents, t0: float) -> list[float]:
    """T_k = clamp(T_{k-1}, c*I_k - r, c*I_k + r), one sample at a time."""
    out = []
    t = t0
    for i in currents:
        lo = c * i - r
        hi = c * i + r
        t = lo if t < lo else hi if t > hi else t
        out.append(t)
    return out


def play_operator_scan(c: float, r: float, currents, t0: float):
    """The play operator as a log-step prefix scan; an array.

    Clamps compose into clamps, clamp(clamp(x, A1, B1), A2, B2) =
    clamp(x, clamp(A1, A2, B2), clamp(B1, A2, B2)), so the bands are folded
    by a Hillis-Steele scan (CACM 29(12), 1986): after the step of stride s,
    (lo_k, hi_k) is the composition of the clamps k-2s+1 .. k.  Each T_k is
    then one clamp of t0.  A clamp only selects one of its arguments, so
    every output is the recursion's value up to the sign of a zero, which
    ``+ 0.0`` fixes.
    """
    with np.errstate(over="ignore"):
        ideal = c * np.asarray(currents, dtype=float)
        lo = ideal - r
        hi = ideal + r
    s = 1
    while s < lo.size:
        a, b = lo[s:], hi[s:]
        folded_lo = np.minimum(np.maximum(lo[:-s], a), b)
        hi[s:] = np.minimum(np.maximum(hi[:-s], a), b)
        lo[s:] = folded_lo
        s *= 2
    return np.minimum(np.maximum(float(t0), lo), hi) + 0.0


def branches(currents) -> list[tuple[int, int, int]]:
    """Maximal monotone runs as (start, stop, direction); stop is inclusive."""
    runs = []
    cur_dir = 0
    start = 0
    for k in range(len(currents) - 1):
        dk = (currents[k + 1] > currents[k]) - (currents[k + 1] < currents[k])
        if dk == 0:
            continue
        if cur_dir == 0:
            cur_dir, start = dk, k
        elif dk != cur_dir:
            runs.append((start, k, cur_dir))
            cur_dir, start = dk, k
    if cur_dir != 0:
        runs.append((start, len(currents) - 1, cur_dir))
    return runs

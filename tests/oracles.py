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
monotone runs that ``wwmtc.actuators._branches`` finds in its one pass.

``fit_winch_polyfit`` and ``fit_winch_exact`` are the winch-fit oracles for
``wwmtc.actuators.fit_winch``, which fits its two lines in closed form on
Python floats: the same definitions on numpy (boolean masks, ``np.polyfit``
and the mean gap over a 101-point grid), and in exact rational arithmetic
over the doubles given.

``fit_tendon_lm`` is the tendon-fit oracle for ``wwmtc.actuators.fit_tendon``,
which solves a in closed form and runs Gauss-Newton in b alone: a damped
Levenberg-Marquardt in (a, b) together, with a 2x2 solve per damped step.
``tendon_optimum_b`` finds the b of the same least-squares problem at 40
significant digits with mpmath, by a secant on the cost's derivative.

``read_log_loadtxt`` is the oracle of ``wwmtc.fileio``'s log parser, which
parses each cell with ``float``: the same file rules, written out again
here, in front of numpy's C parser ``np.loadtxt``.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from wwmtc.actuators import HysteresisParams, TendonFit
from wwmtc.beam import P_MAX
from wwmtc.design import DesignConstraints
from wwmtc.elliptic import HALF_PI, _check_amplitude, _check_modulus
from wwmtc.errors import (
    DomainError,
    FitConvergenceError,
    InsufficientDataError,
    InsufficientSweepError,
)
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


def _contact_halves(currents, select):
    """Per direction, the indices of each branch's contact half in branch
    order, and the (lo, hi) current span of each branch.

    ``select(x, lo, hi, d)`` says whether current x of a branch of direction
    d spanning [lo, hi] is in its contact half.
    """
    contact = {1: [], -1: []}
    spans = {1: [], -1: []}
    for start, stop, d in branches(list(currents)):
        run = range(start, stop + 1)
        lo, hi = min(currents[k] for k in run), max(currents[k] for k in run)
        spans[d].append((lo, hi))
        contact[d].extend(k for k in run if select(currents[k], lo, hi, d))
    return contact, spans


def _overlap(spans) -> tuple:
    lo = max(min(lo for lo, _ in spans[1]), min(lo for lo, _ in spans[-1]))
    hi = min(max(hi for _, hi in spans[1]), max(hi for _, hi in spans[-1]))
    return lo, hi


def _check_sweep(spans) -> None:
    if not (spans[1] and spans[-1]):
        raise InsufficientSweepError("need at least one up-down sweep")


def _float_half(x, lo, hi, d) -> bool:
    mid = lo + 0.5 * (hi - lo)
    return x >= mid if d == 1 else x <= mid


def fit_winch_polyfit(currents, tensions) -> HysteresisParams:
    """The winch fit on numpy arrays: boolean-mask contact halves, one
    ``np.polyfit`` line per direction, r from the mean gap over a 101-point
    grid of the overlap and the residual of an array replay.

    numpy's overflow and invalid results and polyfit's rank warning become a
    DomainError, as the shipped fit's own checks raise one.
    """
    currents = np.asarray(currents, dtype=float)
    tensions = np.asarray(tensions, dtype=float)
    if currents.shape != tensions.shape or currents.ndim != 1:
        raise DomainError("current and tension series must be equal-length 1-D")
    if not (np.isfinite(currents).all() and np.isfinite(tensions).all()):
        raise DomainError("every current and tension must be finite")
    contact, spans = _contact_halves(currents.tolist(), _float_half)
    _check_sweep(spans)

    def line(index) -> tuple[float, float]:
        xs = currents[index]
        if xs.size < 2 or xs.min() == xs.max():
            raise InsufficientDataError("too few distinct currents per sweep direction")
        slope, intercept = np.polyfit(xs, tensions[index], 1)
        return float(slope), float(intercept)

    try:
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise",
                                                    divide="raise"):
            warnings.simplefilter("error", np.exceptions.RankWarning)
            c_up, b_up = line(contact[1])
            c_dn, b_dn = line(contact[-1])
            if c_up <= 0.0:
                raise FitConvergenceError("increasing-branch slope not positive",
                                          best_rms=float("nan"))
            lo, hi = _overlap(spans)
            if hi <= lo:
                raise InsufficientSweepError("up and down branches share no current range")
            grid = np.linspace(lo, hi, 101)
            gap = (c_dn * grid + b_dn) - (c_up * grid + b_up)
            r = max(0.0, 0.5 * float(gap.mean()))
            replay = np.array(play_operator(c_up, r, currents.tolist(), float(tensions[0])))
            rms = float(np.sqrt(np.mean((replay - tensions) ** 2)))
    except (FloatingPointError, np.exceptions.RankWarning) as exc:
        raise DomainError(f"winch data past the range or precision of doubles: {exc}") from exc
    return HysteresisParams(c=c_up, r=r, rms_residual=rms)


def fit_winch_exact(currents, tensions) -> tuple[Fraction, Fraction]:
    """(c, r) of the winch fit's definitions, exactly, over the given doubles.

    Each contact half is the half of its branch at or beyond the exact
    midpoint of the branch's span; each line is the exact least-squares line
    through its samples; r is half the exact gap at the midpoint of the
    overlap, which equals the gap's mean over any grid symmetric about it.
    """
    xs = [Fraction(x) for x in currents]
    ys = [Fraction(y) for y in tensions]
    contact, spans = _contact_halves(
        xs, lambda x, lo, hi, d: (x - (lo + hi) / 2) * d >= 0)
    _check_sweep(spans)

    def line(index) -> tuple[Fraction, Fraction]:
        n = len(index)
        xm = sum(xs[k] for k in index) / n
        ym = sum(ys[k] for k in index) / n
        sxx = sum((xs[k] - xm) ** 2 for k in index)
        if sxx == 0:
            raise InsufficientDataError("too few distinct currents per sweep direction")
        slope = sum((xs[k] - xm) * (ys[k] - ym) for k in index) / sxx
        return slope, ym - slope * xm

    c_up, b_up = line(contact[1])
    c_dn, b_dn = line(contact[-1])
    lo, hi = _overlap(spans)
    mid = (lo + hi) / 2
    return c_up, max(Fraction(0), ((c_dn - c_up) * mid + (b_dn - b_up)) / 2)


# Levenberg damping schedule (fixed for determinism)
_LM_LAMBDA0 = 1e-3
_LM_UP = 10.0
_LM_DOWN = 0.1
_LM_LAMBDA_MIN = 1e-14
_LM_LAMBDA_MAX = 1e12
_LM_MAX_ITER = 200


def _tendon_problem(strain, load, cycle) -> tuple[float, np.ndarray, np.ndarray]:
    """(eps0, strains, loads): the first cycle's terminal strain, and the
    samples of every later cycle, which the fit uses."""
    strain = np.asarray(strain, dtype=float)
    load = np.asarray(load, dtype=float)
    cycle = np.asarray(cycle, dtype=int)
    first = cycle == cycle.min()
    return float(strain[first][-1]), strain[~first], load[~first]


def fit_tendon_lm(strain, load, cycle) -> TendonFit:
    """The tendon fit as damped least squares in (a, b) together, from
    a0 = max load and b0 = 1, on the samples after the first cycle.

    A trial step is kept when a > 0, b > 0 and the cost does not rise;
    the fit stops when neither parameter moves by more than 1e-14 of
    itself, and raises the shipped fit's stall error when no damping
    finds a step.
    """
    eps0, strain, load = _tendon_problem(strain, load, cycle)
    u = strain - eps0

    def cost(a: float, b: float):
        resid = load - a * np.expm1(b * u)
        return float(resid @ resid), resid

    a, b = max(float(load.max()), 1e-9), 1.0
    f, resid = cost(a, b)
    if not math.isfinite(f):
        raise DomainError("loads too large to fit: their squared residuals overflow a double")
    lam = _LM_LAMBDA0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_LM_MAX_ITER):
            eb = np.exp(b * u)
            jac = np.column_stack([-(eb - 1.0), -a * u * eb])
            jtj = jac.T @ jac
            jtr = jac.T @ resid
            step_ok = False
            while lam <= _LM_LAMBDA_MAX:
                damped = jtj + lam * np.diag(np.diag(jtj))
                try:
                    delta = np.linalg.solve(damped, -jtr)
                except np.linalg.LinAlgError:
                    lam *= _LM_UP
                    continue
                a_new, b_new = a + delta[0], b + delta[1]
                if a_new > 0.0 and b_new > 0.0:
                    f_new, resid_new = cost(a_new, b_new)
                    if f_new <= f:
                        step_ok = True
                        break
                lam *= _LM_UP
            if not step_ok:
                rms = math.sqrt(f / load.size)
                raise FitConvergenceError(f"tendon fit stalled; best rms residual {rms!r} N",
                                          best_rms=rms)
            converged = (
                abs(a_new - a) <= 1e-14 * max(1.0, abs(a))
                and abs(b_new - b) <= 1e-14 * max(1.0, abs(b))
            )
            a, b, f, resid = a_new, b_new, f_new, resid_new
            lam = max(lam * _LM_DOWN, _LM_LAMBDA_MIN)
            if converged:
                break
    return TendonFit(a=float(a), b=float(b), eps0=eps0,
                     rms_residual=math.sqrt(f / load.size))


def tendon_optimum_b(strain, load, cycle, b0: float, dps: int = 40) -> mpmath.mpf:
    """The b that minimises the tendon fit's sum of squared residuals, at
    ``dps`` significant digits over the given doubles, found near b0.

    With a(b) = g.P / g.g and g = expm1(b * u) in closed form, the residual
    r = P - a * g is orthogonal to g, so the cost's derivative in b is
    -2 * a * sum(r * u * exp(b * u)); a secant finds that sum's root.
    """
    eps0, strain, load = _tendon_problem(strain, load, cycle)
    with mpmath.workdps(dps + 10):
        u = [mpmath.mpf(s) - mpmath.mpf(eps0) for s in strain.tolist()]
        P = [mpmath.mpf(p) for p in load.tolist()]

        def slope(b):
            e = [mpmath.exp(b * x) for x in u]
            g = [x - 1 for x in e]
            a = mpmath.fsum(gi * p for gi, p in zip(g, P)) / mpmath.fsum(gi * gi for gi in g)
            return mpmath.fsum((p - a * gi) * x * ei for p, gi, x, ei in zip(P, g, u, e))

        b_old, b = mpmath.mpf(b0) * (1 - mpmath.mpf("1e-6")), mpmath.mpf(b0)
        s_old, s = slope(b_old), slope(b)
        for _ in range(50):
            if s == s_old:
                break
            b_old, b, s_old = b, b - s * (b - b_old) / (s - s_old), s
            s = slope(b)
            if abs(b - b_old) <= abs(b) * mpmath.mpf(10) ** -dps:
                break
        else:
            raise RuntimeError(f"secant for the tendon optimum did not settle near b0={b0!r}")
        return +b


def read_log_loadtxt(path, header: str):
    """Every data row of a log as one row of a float array, one column per
    header field, parsed by ``np.loadtxt``; a DomainError for a file that
    breaks the log rules.

    The rules: UTF-8 text whose lines end at ``\\n``; blank lines dropped;
    the header first; at least one data row; no ``_``, U+001F or non-ASCII
    character in a data row, since loadtxt reads U+001F as a space and
    Unicode digits and spaces as ASCII ones; and each row as many finite
    numbers as the header has fields.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    lines = [line for line in text.split("\n") if line.strip()]
    if not lines or lines[0].strip() != header:
        raise DomainError(f"{path}: expected header {header!r}")
    rows = lines[1:]
    if not rows:
        raise DomainError(f"{path}: no data rows")
    if any("_" in row or "\x1f" in row or not row.isascii() for row in rows):
        raise DomainError(f"{path}: a data row holds '_', U+001F or non-ASCII text")
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:  # a non-number, or rows of unequal length
        raise DomainError(f"{path}: {exc}") from exc
    if data.shape[1] != header.count(",") + 1:
        raise DomainError(f"{path}: rows of {data.shape[1]} numbers")
    if not np.isfinite(data).all():
        raise DomainError(f"{path}: a data cell is not a finite number")
    return data

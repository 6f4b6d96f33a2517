"""Empirical actuator models fitted from bench data.

Two measured nonlinearities are covered:

* the braided-sleeve tendon's stiffening load-strain response, modeled as
  P = a * (exp(b * (eps - eps0)) - 1) where eps0 absorbs the one-time
  bedding-in elongation of the first loading cycle, and
* the winch's tension-current hysteresis, modeled as a rate-independent
  play (backlash) operator around the ideal proportional response c * I.

Both model forms are the minimal ones reproducing the observed behavior;
the data formats are defined in :mod:`wwmtc.fileio`.

Only the tendon fit uses numpy, and it imports it when it runs.  It fits by
variable projection: a in closed form for each b, and Gauss-Newton in b
alone.  It keeps numpy for ``np.expm1``, which is correctly rounded where
glibc's ``math.expm1`` is 1 ULP off on some strains; the fitted residual,
printed to the last digit, would move with those ULPs.  The play operator
is one clamp per sample, and the winch fit is two least-squares lines in
closed form and a midpoint gap, all on Python floats, so ``winch simulate``
and ``winch fit`` start on the standard library alone.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from .errors import (
    DomainError,
    FitConvergenceError,
    InsufficientDataError,
    InsufficientSweepError,
)


class TendonFit(namedtuple("TendonFit", "a b eps0 rms_residual")):
    """Fitted tendon parameters: P = a * (exp(b*(eps - eps0)) - 1).

    a             stiffening amplitude, N
    b             exponential rate, dimensionless
    eps0          bedding-in strain offset from the first cycle
    rms_residual  N, over the data actually fitted
    """

    __slots__ = ()


class HysteresisParams(namedtuple("HysteresisParams", "c r rms_residual", defaults=(0.0,))):
    """Play-operator winch model: ideal gain c (N/A), friction half-band r (N).

    rms_residual  N, of the tension fit; 0.0 when not fitted
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# Tendon
# ---------------------------------------------------------------------------

def tendon_load(fit: TendonFit, strain: float) -> float:
    """Forward tendon model; clamped to zero below the bedding-in offset."""
    # written as "not ... < inf" so that NaN fails the check
    if not 0.0 <= strain < math.inf:
        raise DomainError(f"strain={strain!r} must be finite and >= 0")
    return max(0.0, fit.a * math.expm1(fit.b * (strain - fit.eps0)))


# Gauss-Newton in b: its iteration cap, and the relative step at which b has
# stopped moving
_VP_MAX_ITER = 100
_VP_TOL = 1e-14


def _vp_fit_exponential(u, load) -> tuple[float, float, float]:
    """Least squares for (a, b) in load ~ a * expm1(b * u), over arrays.

    Variable projection (Golub and Pereyra): for a fixed b the best a is
    a(b) = g.P / g.g with g = expm1(b * u), so the fit is Gauss-Newton in b
    alone on the projected residual, with Kaufman's Jacobian
    a * u * (g + 1) + g * da/db, whose da/db drops the term that vanishes
    at a zero residual.  From b = 1, a step is halved until b > 0, a > 0
    and the cost does not rise, the cost's change being summed from the
    model's change so that it stays exact to rounding near the optimum.  The
    fit stops when b stops moving, taking that last step with only b > 0 and
    a > 0 checked, or when a halved step no longer changes b.
    """
    import numpy as np

    def project(b):
        g = np.expm1(b * u)
        gg = g @ g
        a = (g @ load) / gg
        return a, g, gg, load - a * g

    def stalled(resid) -> FitConvergenceError:
        rms = math.sqrt(float(resid @ resid) / resid.size)
        return FitConvergenceError(f"tendon fit stalled; best rms residual {rms!r} N",
                                   best_rms=rms)

    b = 1.0
    a, g, gg, resid = project(b)
    if not (gg > 0.0 and a > 0.0):
        # every g is zero at the start, or its best a is not positive: the
        # best a >= 0 is then 0, whose residual is the load
        raise stalled(load)
    if not math.isfinite(resid @ resid):
        raise DomainError("loads too large to fit: their squared residuals overflow a double")
    for _ in range(_VP_MAX_ITER):
        e = g + 1.0  # exp(b * u)
        gp = u * e  # dg/db
        dadb = -a * (g @ gp) / gg  # Kaufman's: without the residual's term
        jac = a * gp + g * dadb
        step = float(jac @ resid / (jac @ jac))
        if not math.isfinite(step):  # the projected model does not move with b
            raise stalled(resid)
        # b has stopped moving: the cost cannot tell steps this small apart,
        # so the last one is taken as long as b and a stay positive
        last = abs(step) <= _VP_TOL * max(1.0, b)
        while b + step != b:
            b_new = b + step
            if b_new > 0.0:
                a_new, g_new, gg_new, resid_new = project(b_new)
                # near the optimum the cost's change is below the rounding
                # of the cost itself, but not below that of this sum
                change = a_new * e * np.expm1((b_new - b) * u) + (a_new - a) * g
                if a_new > 0.0 and (last or change @ (change - 2.0 * resid) <= 0.0):
                    break
            step *= 0.5
        else:
            break  # a halved step no longer changes b
        b, a, g, gg, resid = b_new, a_new, g_new, gg_new, resid_new
        if last:
            break
    return float(a), b, math.sqrt(resid @ resid / load.size)


def fit_tendon(strain, load, cycle) -> TendonFit:
    """Fit the stiffening model from a cycle-tagged load-strain series.

    The bedding-in offset eps0 is the terminal strain of the first loading
    cycle; the exponential parameters are then least-squares fitted on the
    remaining cycles only (the fit uses the unclamped model, so any noisy
    sample slightly below eps0 still contributes gradient information).
    Deterministic: a is solved in closed form for each b, and b runs
    Gauss-Newton from b = 1 (see ``_vp_fit_exponential``).  A log whose
    strains leave b undetermined, or that no positive a fits, raises
    FitConvergenceError.  A strain outside [0, 0.5], a load below 0, a
    cycle that is not a whole number below 2**63 in magnitude, or a NaN in
    any series, is a DomainError.
    """
    import numpy as np

    strain = np.asarray(strain, dtype=float)
    load = np.asarray(load, dtype=float)
    cycle = np.asarray(cycle, dtype=float)  # tags compared as read_tendon_csv reads them
    if not (strain.shape == load.shape == cycle.shape) or strain.ndim != 1:
        raise DomainError("strain, load and cycle must be equal-length 1-D series")
    if strain.size < 10:
        raise InsufficientDataError(
            f"need at least 10 samples, got {strain.size}"
        )
    # written as "not 0 <= x" so that NaN fails every check
    if not ((0.0 <= strain) & (strain <= 0.5)).all():
        raise DomainError("strains must lie in [0, 0.5]")
    if not (0.0 <= load).all():
        raise DomainError("loads must be >= 0")
    if not ((np.floor(cycle) == cycle) & (abs(cycle) < 2.0 ** 63)).all():
        raise DomainError("cycles must be whole numbers of magnitude below 2**63")

    first = cycle.min()
    first_mask = cycle == first
    rest = ~first_mask
    if not np.any(rest):
        raise InsufficientDataError(
            "need at least one loading cycle after the first (bedding-in) cycle"
        )
    eps0 = float(strain[first_mask][-1])
    s, P = strain[rest], load[rest]
    if s.size < 3:
        raise InsufficientDataError(
            f"need at least 3 post-first-cycle samples, got {s.size}"
        )
    # the start's cost is finite, so a trial step whose model overflows or
    # underflows gives an inf or nan a or cost and is rejected: numpy's flags
    # for it carry no news
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a, b, rms = _vp_fit_exponential(s - eps0, P)
    return TendonFit(a=a, b=b, eps0=eps0, rms_residual=rms)


# ---------------------------------------------------------------------------
# Winch
# ---------------------------------------------------------------------------

def simulate_winch(params: HysteresisParams, currents, initial_tension: float = 0.0) -> list[float]:
    """Run the play operator over a current series; a list of floats.

    T_k = clamp(T_{k-1}, c*I_k - r, c*I_k + r).  Rate independent: only the
    sequence of current values matters, not their timing.  The initial
    tension state is exposed because the operator's memory decides whether
    tension rises immediately with current or sits inside the band first.

    One clamp per sample on Python floats, T = min(max(T, c*I - r), c*I + r)
    + 0.0 written as two comparisons.  A clamp only selects one of its
    arguments, so only the sign of a zero can depend on how it is written,
    and ``+ 0.0`` fixes it: a simulated tension is never -0.0.  A band
    c*I +- r past the range of doubles gives an infinite tension; the
    writers in fileio reject it.  ``currents`` is any sequence of numbers,
    arrays included.
    """
    c, r, t = float(params.c), float(params.r), float(initial_tension)
    if not 0.0 < c < math.inf:
        raise DomainError(f"gain c={c!r} must be positive and finite")
    if not 0.0 <= r < math.inf:
        raise DomainError(f"half-band r={r!r} must be finite and >= 0")
    if not math.isfinite(t):
        raise DomainError(f"initial tension {t!r} must be finite")
    try:
        currents = list(map(float, currents))
    except TypeError:  # not a sequence of numbers: a 2-D array, for one
        currents = []
    if not currents:
        raise DomainError("current series must be a nonempty 1-D array")
    # a finite sum has only finite terms; an infinite one may have overflowed
    if not (math.isfinite(sum(currents)) or all(map(math.isfinite, currents))):
        raise DomainError("every current must be finite")
    return _play(c, r, t, currents)


def _play(c: float, r: float, t: float, currents: list[float]) -> list[float]:
    """The play operator's clamp loop over checked floats: c > 0, r >= 0,
    and t and every current finite."""
    out = []
    append = out.append
    for i in currents:
        ci = c * i
        if t < ci - r:
            t = ci - r
        elif t > ci + r:
            t = ci + r
        append(t + 0.0)
    return out


def _branches(currents) -> list[tuple[int, int, int]]:
    """Maximal monotone runs of a current series as (start, stop, direction);
    stop is inclusive.

    Flat steps extend the run they sit in; each run ends at the sample where
    the next one turns back, which also starts that next run.  One pass over
    the steps.
    """
    runs = []
    direction = start = 0
    for k, (a, b) in enumerate(zip(currents, currents[1:])):
        if b > a:
            d = 1
        elif b < a:
            d = -1
        else:
            continue
        if d != direction:
            if direction:
                runs.append((start, k, direction))
            direction, start = d, k
    if direction:
        runs.append((start, len(currents) - 1, direction))
    return runs


_PAST_DOUBLES = "winch data past the range or precision of doubles"
# np.polyfit calls a line fit rank deficient when the smaller singular value
# of the column-scaled matrix [x, 1] is at most len(x) * eps times the larger.
# The squared ratio of the two is Sxx / sum(x**2) / (1 + |rho|)**2, with rho
# the cosine of the angle between x and the ones vector, and near that
# tolerance |rho| is 1 to double precision: the test is
# Sxx <= (2 * len(x) * eps)**2 * sum(x**2), with sum(x**2) = Sxx + n * mean(x)**2.
_RANK_TOL = 2.0 * math.ulp(1.0)


def _line(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Least-squares line through the points -> (slope, intercept).

    Closed form on centred data, slope = Sxy / Sxx and intercept =
    mean(y) - slope * mean(x), with every sum taken by ``math.fsum``.  A
    fit that ``np.polyfit`` would call rank deficient, or one whose sums
    leave the range of doubles, is a DomainError.
    """
    n = len(xs)
    # one distinct current leaves the slope undetermined
    if n < 2 or min(xs) == max(xs):
        raise InsufficientDataError(
            "too few distinct currents per sweep direction to fit"
        )
    try:
        xm = math.fsum(xs) / n
        ym = math.fsum(ys) / n
        dx = [x - xm for x in xs]
        dy = [y - ym for y in ys]
        sxx = math.fsum(map(operator.mul, dx, dx))
        sxy = math.fsum(map(operator.mul, dx, dy))
    except (OverflowError, ValueError) as exc:  # past doubles, or inf - inf
        raise DomainError(f"{_PAST_DOUBLES}: {exc}") from exc
    # false for an infinite or nan Sxx, and for one that underflowed to 0
    if not sxx > (_RANK_TOL * n) ** 2 * (sxx + n * xm * xm):
        raise DomainError(f"{_PAST_DOUBLES}: the currents of one sweep direction "
                          "are too close together to fit a line")
    slope = sxy / sxx
    intercept = ym - slope * xm
    if not math.isfinite(slope + intercept):
        raise DomainError(f"{_PAST_DOUBLES}: the fitted line overflows")
    return slope, intercept


def fit_winch(currents, tensions) -> HysteresisParams:
    """Identify (c, r) of the play operator from an up-down sweep.

    The gain c is the least-squares slope through the contact section of the
    increasing branches (their upper half by current, where the operator has
    escaped the friction band); r is half the mean vertical gap between the
    increasing- and decreasing-branch contact lines over their common current
    range.  The gap is affine in the current, so its mean over that range is
    its value at the range's midpoint.  The reported residual replays the
    fitted operator over the input currents, starting from the first
    measured tension.  ``currents`` and ``tensions`` are any equal-length
    sequences of numbers, arrays included.
    """
    shape = "current and tension series must be equal-length 1-D"
    try:
        currents = list(map(float, currents))
        tensions = list(map(float, tensions))
    except TypeError as exc:  # not a sequence of numbers: a 2-D array, for one
        raise DomainError(shape) from exc
    if len(currents) != len(tensions):
        raise DomainError(shape)
    # a finite sum has only finite terms; an infinite one may have overflowed
    if not (math.isfinite(sum(currents) + sum(tensions))
            or all(map(math.isfinite, currents + tensions))):
        raise DomainError("every current and tension must be finite")

    branches = _branches(currents)
    directions = {d for _, _, d in branches}
    if len(branches) < 2 or directions != {-1, 1}:
        raise InsufficientSweepError(
            "need at least one up-down sweep (a direction reversal) in the "
            "current series"
        )

    # per direction, the samples of each branch's contact half, in branch
    # order; a branch is monotone, so its contact half is what follows the
    # samples short of the midpoint of its span
    contact = {1: ([], []), -1: ([], [])}
    spans: dict[int, list[tuple[float, float]]] = {1: [], -1: []}
    for start, stop, d in branches:
        lo, hi = sorted((currents[start], currents[stop]))
        spans[d].append((lo, hi))
        mid = lo + 0.5 * (hi - lo)
        short = mid.__gt__ if d == 1 else mid.__lt__
        k = start + sum(map(short, currents[start:stop + 1]))
        xs, ys = contact[d]
        xs += currents[k:stop + 1]
        ys += tensions[k:stop + 1]

    c_up, b_up = _line(*contact[1])
    c_dn, b_dn = _line(*contact[-1])
    if c_up <= 0.0:
        raise FitConvergenceError(
            f"increasing-branch slope {c_up!r} not positive; data does not "
            "look like a proportional winch", best_rms=float("nan"),
        )
    c = c_up

    overlap_lo = max(min(lo for lo, _ in spans[1]), min(lo for lo, _ in spans[-1]))
    overlap_hi = min(max(hi for _, hi in spans[1]), max(hi for _, hi in spans[-1]))
    if overlap_hi <= overlap_lo:
        raise InsufficientSweepError("up and down branches share no current range")
    mid = 0.5 * overlap_lo + 0.5 * overlap_hi
    half_gap = 0.5 * ((c_dn - c_up) * mid + (b_dn - b_up))
    if not math.isfinite(half_gap):
        raise DomainError(f"{_PAST_DOUBLES}: the gap between the branches overflows")
    r = max(0.0, half_gap)

    replay = _play(c, r, tensions[0], currents)
    try:
        residual = list(map(operator.sub, replay, tensions))
        rms = math.sqrt(math.fsum(map(operator.mul, residual, residual)) / len(residual))
    except OverflowError as exc:
        raise DomainError(f"{_PAST_DOUBLES}: {exc}") from exc
    if not math.isfinite(rms):
        raise DomainError(f"{_PAST_DOUBLES}: the replay residual overflows")
    return HysteresisParams(c=c, r=r, rms_residual=rms)

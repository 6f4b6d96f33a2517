"""Empirical actuator models fitted from bench data.

Two measured nonlinearities are covered:

* the braided-sleeve tendon's stiffening load-strain response, modeled as
  P = a * (exp(b * (eps - eps0)) - 1) where eps0 absorbs the one-time
  bedding-in elongation of the first loading cycle, and
* the winch's tension-current hysteresis, modeled as a rate-independent
  play (backlash) operator around the ideal proportional response c * I.

Both model forms are the minimal ones reproducing the observed behavior;
the data formats are defined in :mod:`wwmtc.fileio`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    FitConvergenceError,
    InsufficientDataError,
    InsufficientSweepError,
)


@dataclass(frozen=True)
class TendonFit:
    """Fitted tendon parameters: P = a * (exp(b*(eps - eps0)) - 1)."""

    a: float             # stiffening amplitude, N
    b: float             # exponential rate, dimensionless
    eps0: float          # bedding-in strain offset from the first cycle
    rms_residual: float  # N, over the data actually fitted


@dataclass(frozen=True)
class HysteresisParams:
    """Play-operator winch model: ideal gain c (N/A), friction half-band r (N)."""

    c: float
    r: float
    rms_residual: float = 0.0


# ---------------------------------------------------------------------------
# Tendon
# ---------------------------------------------------------------------------

def tendon_load(fit: TendonFit, strain: float) -> float:
    """Forward tendon model; clamped to zero below the bedding-in offset."""
    if strain < 0.0:
        raise DomainError(f"strain={strain!r} must be >= 0")
    return max(0.0, fit.a * math.expm1(fit.b * (strain - fit.eps0)))


# Levenberg damping schedule (fixed for determinism)
_LM_LAMBDA0 = 1e-3
_LM_UP = 10.0
_LM_DOWN = 0.1
_LM_LAMBDA_MIN = 1e-14
_LM_LAMBDA_MAX = 1e12
_LM_MAX_ITER = 200


def _lm_fit_exponential(strain: np.ndarray, load: np.ndarray, eps0: float,
                        a0: float, b0: float) -> tuple[float, float, float]:
    """Damped least squares for (a, b) with eps0 held fixed."""
    u = strain - eps0

    def cost(a: float, b: float) -> tuple[float, np.ndarray]:
        resid = load - a * np.expm1(b * u)
        return float(resid @ resid), resid

    a, b = a0, b0
    f, resid = cost(a, b)
    lam = _LM_LAMBDA0
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
            raise FitConvergenceError(
                f"tendon fit stalled; best rms residual "
                f"{math.sqrt(f / load.size)!r} N",
                best_rms=math.sqrt(f / load.size),
            )
        converged = (
            abs(a_new - a) <= 1e-14 * max(1.0, abs(a))
            and abs(b_new - b) <= 1e-14 * max(1.0, abs(b))
        )
        a, b, f, resid = a_new, b_new, f_new, resid_new
        lam = max(lam * _LM_DOWN, _LM_LAMBDA_MIN)
        if converged:
            break
    return a, b, math.sqrt(f / load.size)


def fit_tendon(strain, load, cycle) -> TendonFit:
    """Fit the stiffening model from a cycle-tagged load-strain series.

    The bedding-in offset eps0 is the terminal strain of the first loading
    cycle; the exponential parameters are then least-squares fitted on the
    remaining cycles only (the fit uses the unclamped model, so any noisy
    sample slightly below eps0 still contributes gradient information).
    Deterministic: fixed initial guesses (a0 = max load, b0 = 1) and a fixed
    damping schedule.
    """
    strain = np.asarray(strain, dtype=float)
    load = np.asarray(load, dtype=float)
    cycle = np.asarray(cycle, dtype=int)
    if not (strain.shape == load.shape == cycle.shape) or strain.ndim != 1:
        raise DomainError("strain, load and cycle must be equal-length 1-D series")
    if strain.size < 10:
        raise InsufficientDataError(
            f"need at least 10 samples, got {strain.size}"
        )
    if np.any(strain < 0.0) or np.any(strain > 0.5):
        raise DomainError("strains must lie in [0, 0.5]")
    if np.any(load < 0.0):
        raise DomainError("loads must be >= 0")

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
    a0 = max(float(P.max()), 1e-9)
    a, b, rms = _lm_fit_exponential(s, P, eps0, a0=a0, b0=1.0)
    return TendonFit(a=a, b=b, eps0=eps0, rms_residual=rms)


# ---------------------------------------------------------------------------
# Winch
# ---------------------------------------------------------------------------

def simulate_winch(params: HysteresisParams, currents, initial_tension: float = 0.0) -> np.ndarray:
    """Run the play operator over a current series.

    T_k = clamp(T_{k-1}, c*I_k - r, c*I_k + r).  Rate independent: only the
    sequence of current values matters, not their timing.  The initial
    tension state is exposed because the operator's memory decides whether
    tension rises immediately with current or sits inside the band first.

    Clamps compose into clamps, clamp(clamp(x, A1, B1), A2, B2) =
    clamp(x, clamp(A1, A2, B2), clamp(B1, A2, B2)), so the bands are folded
    by a log-step prefix scan (Hillis & Steele, CACM 29(12), 1986): after
    the step of stride s, (lo_k, hi_k) is the composition of the clamps
    k-2s+1 .. k.  Each T_k is then one clamp of the initial tension.  A
    clamp only selects one of its arguments, so every output is the value
    the sample-by-sample recursion gives; only the sign of a zero can
    depend on the order of selection, and it is fixed by ``+ 0.0``: a
    simulated tension is never -0.0.
    """
    if not 0.0 < params.c < math.inf:
        raise DomainError(f"gain c={params.c!r} must be positive and finite")
    if not 0.0 <= params.r < math.inf:
        raise DomainError(f"half-band r={params.r!r} must be finite and >= 0")
    if not math.isfinite(initial_tension):
        raise DomainError(f"initial tension {initial_tension!r} must be finite")
    currents = np.asarray(currents, dtype=float)
    if currents.ndim != 1 or currents.size == 0:
        raise DomainError("current series must be a nonempty 1-D array")
    if not np.isfinite(currents).all():
        raise DomainError("every current must be finite")
    ideal = params.c * currents
    lo = ideal - params.r
    hi = ideal + params.r
    s = 1
    while s < lo.size:
        a, b = lo[s:], hi[s:]
        folded_lo = np.minimum(np.maximum(lo[:-s], a), b)
        hi[s:] = np.minimum(np.maximum(hi[:-s], a), b)
        lo[s:] = folded_lo
        s *= 2
    return np.minimum(np.maximum(float(initial_tension), lo), hi) + 0.0


def _branches(currents: np.ndarray) -> list[tuple[int, int, int]]:
    """Maximal monotone runs as (start, stop, direction); stop is inclusive.

    Flat steps extend the run they sit in; each run ends at the sample where
    the next one turns back, which also starts that next run.
    """
    d = np.sign(np.diff(currents))
    steps = np.flatnonzero(d)
    if steps.size == 0:
        return []
    turns = np.flatnonzero(d[steps[1:]] != d[steps[:-1]]) + 1
    firsts = steps[np.r_[0, turns]]
    starts = firsts.tolist()
    stops = firsts[1:].tolist() + [currents.size - 1]
    return list(zip(starts, stops, d[firsts].astype(int).tolist()))


def fit_winch(currents, tensions) -> HysteresisParams:
    """Identify (c, r) of the play operator from an up-down sweep.

    The gain c is the least-squares slope through the contact section of the
    increasing branches (their upper half by current, where the operator has
    escaped the friction band); r is half the mean vertical gap between the
    increasing- and decreasing-branch contact lines over their common current
    range.  The reported residual replays the fitted operator over the input
    currents, starting from the first measured tension.
    """
    currents = np.asarray(currents, dtype=float)
    tensions = np.asarray(tensions, dtype=float)
    if currents.shape != tensions.shape or currents.ndim != 1:
        raise DomainError("current and tension series must be equal-length 1-D")
    if not (np.isfinite(currents).all() and np.isfinite(tensions).all()):
        raise DomainError("every current and tension must be finite")

    branches = _branches(currents)
    directions = {d for _, _, d in branches}
    if len(branches) < 2 or directions != {-1, 1}:
        raise InsufficientSweepError(
            "need at least one up-down sweep (a direction reversal) in the "
            "current series"
        )

    # per direction, the samples of each branch's contact half; branches of
    # one direction share no sample, so a mask keeps them in branch order
    contact = {1: np.zeros(currents.size, bool), -1: np.zeros(currents.size, bool)}
    spans: dict[int, list[tuple[float, float]]] = {1: [], -1: []}
    for start, stop, d in branches:
        bi = currents[start:stop + 1]
        lo, hi = float(bi.min()), float(bi.max())
        spans[d].append((lo, hi))
        mid = lo + 0.5 * (hi - lo)
        contact[d][start:stop + 1] = bi >= mid if d == 1 else bi <= mid

    def line(mask: np.ndarray) -> tuple[float, float]:
        xs = currents[mask]
        # one distinct current leaves the slope undetermined (polyfit fails
        # or returns a minimum-norm guess)
        if xs.size < 2 or xs.min() == xs.max():
            raise InsufficientDataError(
                "too few distinct currents per sweep direction to fit"
            )
        slope, intercept = np.polyfit(xs, tensions[mask], 1)
        return float(slope), float(intercept)

    c_up, b_up = line(contact[1])
    c_dn, b_dn = line(contact[-1])
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
    grid = np.linspace(overlap_lo, overlap_hi, 101)
    gap = (c_dn * grid + b_dn) - (c_up * grid + b_up)
    r = max(0.0, 0.5 * float(gap.mean()))

    params = HysteresisParams(c=c, r=r)
    replay = simulate_winch(params, currents, initial_tension=float(tensions[0]))
    rms = float(np.sqrt(np.mean((replay - tensions) ** 2)))
    return HysteresisParams(c=c, r=r, rms_residual=rms)

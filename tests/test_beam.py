"""Single-arch elastica: boundary case, oracle agreement, inversion, properties."""

import math

import mpmath
import numpy as np
import pytest

from wwmtc import beam
from wwmtc.beam import P_MAX, P_STRAIGHT, solve_beam, solve_p_for_height
from wwmtc.errors import DomainError, OutOfRangeError
from wwmtc.muscle import DEFAULT_P_CAP

from oracles import arch_gap, beam_reference, shoot_tip, start_coefficients


def test_straight_strip_boundary_is_exact():
    sol = solve_beam(27.0, P_STRAIGHT)
    assert sol.w == 0.0
    assert sol.h == 27.0
    assert sol.psi0 == 0.0
    assert sol.k == 0.0


# Frozen from the ODE shooting oracle (DOP853 rtol 1e-12 + brentq to 1e-14);
# the closed form agreed with the oracle to < 1e-12 relative when frozen.
FROZEN_TIP = [
    # (L, p, w, h)
    (27.0, 0.85, 8.143443230024689, 25.477469756472694),
    (35.0, 0.75, 2.9201641219949743, 34.85346625193776),
]


@pytest.mark.parametrize("L, p, w, h", FROZEN_TIP)
def test_frozen_oracle_values(L, p, w, h):
    sol = solve_beam(L, p)
    assert sol.w == pytest.approx(w, rel=1e-6)
    assert sol.h == pytest.approx(h, rel=1e-6)


def test_tip_angle_is_arcsin_arithmetic():
    sol = solve_beam(35.0, 0.75)
    assert sol.psi0 == pytest.approx(math.asin(0.125), rel=1e-14)


def test_matches_shooting_oracle():
    # spot sample here; the full 20 x {27, 35} sweep runs in the acceptance suite
    for L in (27.0, 35.0):
        for p in (0.72, 0.85, 0.97):
            sol = solve_beam(L, p)
            h_ode, w_ode, k_ode = shoot_tip(L, sol.psi0)
            assert sol.h == pytest.approx(h_ode, rel=1e-6)
            assert sol.w == pytest.approx(w_ode, rel=1e-6)
            assert sol.k == pytest.approx(k_ode, rel=1e-6)


def test_solution_invariants():
    for p in np.linspace(P_STRAIGHT, P_MAX, 25):
        sol = solve_beam(27.0, float(p))
        assert 0.0 <= sol.w <= 27.0
        assert 0.0 < sol.h <= 27.0
        # tip-angle identity restated exactly
        assert math.sin(sol.psi0) == pytest.approx(2 * p * p - 1 if p > P_STRAIGHT else 0.0, abs=1e-12)
        # scale factor against K - F(phi1) evaluated at 40 digits
        assert sol.k * 27.0 == pytest.approx(
            beam_reference(27.0, float(p))[2] * 27.0, abs=1e-12
        )


def test_boundary_continuity():
    # no jump across the straight-strip branch switch
    for L in (27.0, 35.0):
        sol = solve_beam(L, P_STRAIGHT + 1e-9)
        assert abs(sol.w - 0.0) <= 1e-6 * L
        assert abs(sol.h - L) <= 1e-6 * L


def test_height_strictly_decreasing_width_monotone():
    # dense sampling backs the monotonicity the inversion solver relies on
    ps = np.linspace(P_STRAIGHT, P_MAX, 4001)
    sols = [solve_beam(27.0, float(p)) for p in ps]
    hs = [s.h for s in sols]
    ws = [s.w for s in sols]
    assert all(b < a for a, b in zip(hs, hs[1:]))
    assert all(b >= a for a, b in zip(ws, ws[1:]))


def test_height_within_ulps_of_reference():
    # h = sqrt(2) p L / R_F has no cancellation, even next to the straight end
    ps = ([P_STRAIGHT + float(d) for d in np.logspace(-14, -1, 50)]
          + [float(p) for p in np.linspace(P_STRAIGHT, P_MAX, 60)])
    for L in (1.0, 27.0, 35.0):
        for p in ps:
            h_ref = beam_reference(L, p)[0]
            assert abs(solve_beam(L, p).h - h_ref) <= 4 * math.ulp(L), (L, p)


def test_cached_height_is_solve_beam_height():
    # h at a cap comes from a cached Carlson pass: the same double for every L
    rng = np.random.default_rng(16)
    ps = [P_STRAIGHT, math.nextafter(P_STRAIGHT, 1.0), 0.75, 0.97, P_MAX]
    ps += [float(p) for p in rng.uniform(P_STRAIGHT, P_MAX, 20)]
    for L in np.logspace(-3, 3, 25):
        for p in ps:
            assert beam._height(float(L), p) == solve_beam(float(L), p).h, (L, p)
    info = beam._rf_at.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    for p in rng.uniform(P_STRAIGHT, P_MAX, 200):
        beam._height(1.0, float(p))
    assert beam._rf_at.cache_info().currsize <= info.maxsize


def test_width_matches_reference():
    for p in np.linspace(P_STRAIGHT, DEFAULT_P_CAP, 100)[1:]:
        w_ref = beam_reference(27.0, float(p))[1]
        assert solve_beam(27.0, float(p)).w == pytest.approx(w_ref, rel=1e-13)
    for d in np.logspace(-8, -1, 50):
        p = P_STRAIGHT + float(d)
        w_ref = beam_reference(27.0, p)[1]
        assert solve_beam(27.0, p).w == pytest.approx(w_ref, rel=1e-7)


def test_width_monotone_next_to_straight_end():
    for L in (1.0, 27.0, 35.0):
        ws = [solve_beam(L, P_STRAIGHT + float(d)).w for d in np.logspace(-12, -1, 5000)]
        assert all(b >= a for a, b in zip(ws, ws[1:])), L
        assert all(solve_beam(L, P_STRAIGHT + float(d)).w >= 0.0
                   for d in np.logspace(-16, -1, 300)), L


def test_scale_equivariance():
    for c in (0.5, 2.0, 10.0):
        base = solve_beam(27.0, 0.9)
        scaled = solve_beam(27.0 * c, 0.9)
        assert scaled.w == pytest.approx(c * base.w, rel=1e-12)
        assert scaled.h == pytest.approx(c * base.h, rel=1e-12)


# --- inversion ---------------------------------------------------------------

def test_invert_full_height_is_straight():
    assert solve_p_for_height(27.0, 27.0) == P_STRAIGHT


def test_invert_round_trip():
    h = solve_beam(27.0, 0.8).h
    assert solve_p_for_height(27.0, h) == pytest.approx(0.8, abs=1e-9)


def test_invert_matches_dense_scan():
    # frozen from a 1e-6-step scan over p (292893 evaluations): the scan's
    # best |h - 20| was at p = 0.9891039536956032
    p = solve_p_for_height(35.0, 20.0)
    assert p == pytest.approx(0.9891039536956032, abs=1e-6)
    assert solve_beam(35.0, p).h == pytest.approx(20.0, abs=1e-9 * 35.0)


def test_invert_kernel_budget(monkeypatch):
    # every Carlson pass of one inversion, the P_MAX range check included:
    # the range check's pass is cached, so a cold inversion makes one more
    # than a warm one, which makes the one solve of its single Newton step,
    # next to P_MAX too
    calls = []

    def counted(x, y, z):
        calls.append(x)
        return rf_rd(x, y, z)

    rf_rd = beam._rf_rd
    monkeypatch.setattr(beam, "_rf_rd", counted)
    beam._rf_at.cache_clear()
    h = solve_beam(27.0, 0.85).h
    calls.clear()
    solve_p_for_height(27.0, h)
    assert len(calls) == 2
    rng = np.random.default_rng(10)
    for L in (1.0, 27.0, 35.0, 250.0):
        for p in rng.uniform(P_STRAIGHT + 1e-3, 0.97, 60):
            h = solve_beam(L, float(p)).h
            calls.clear()
            assert solve_p_for_height(L, h) == pytest.approx(p, abs=1e-9)
            assert len(calls) == 1, (L, p, len(calls))
        # h has a logarithmic singularity in 1 - p next to P_MAX
        h_min = solve_beam(L, P_MAX).h
        for u in np.linspace(-16.0, -1.0, 61):
            h = h_min + (L - h_min) * 10.0 ** float(u)
            calls.clear()
            solve_p_for_height(L, h)
            assert len(calls) == 1, (L, u, len(calls))


def test_height_gap_concave_in_log_variable():
    # solve_p_for_height needs no bracket because g = sqrt(L - h) is
    # increasing and concave in t = -log(1 - p) over the whole range (its
    # shape does not depend on L): chord slopes are positive and decreasing
    with mpmath.workdps(80):
        t_lo = -mpmath.log(1 - 1 / mpmath.sqrt(2))
        t_hi = -mpmath.log1p(-mpmath.mpf(P_MAX))
        offsets = [mpmath.mpf(10) ** float(e) for e in np.linspace(-12, -1, 23)]
        ts = sorted([t_lo + d for d in offsets] + [t_hi - d for d in offsets]
                    + mpmath.linspace(t_lo, t_hi, 50)[1:])
        gs = [arch_gap(t) for t in ts]
        slopes = [(g1 - g0) / (t1 - t0)
                  for t0, t1, g0, g1 in zip(ts, ts[1:], gs, gs[1:])]
    assert all(s > 0 for s in slopes)
    assert all(b < a for a, b in zip(slopes, slopes[1:]))


def test_newton_start_below_root():
    # _start(u) must not exceed the root t* of arch_gap(t) = u: the margin
    # keeps it below, and by concavity the one Newton step from it lands at
    # or below the root.  It must be within its margin plus the
    # interpolant's error of it (1.5e-12 over the whole range, 2e-13 for
    # p <= 0.97) for that one step to leave an error far below an ULP of p.
    # g is increasing, so start <= t* iff arch_gap(start) <= u; the start
    # rounded to a double p, which the step begins from, is below the root too.
    t_97 = -math.log1p(-0.97)
    with mpmath.workdps(80):
        t_lo = -mpmath.log(1 - 1 / mpmath.sqrt(2))
        t_hi = -mpmath.log1p(-mpmath.mpf(P_MAX))
        offsets = [mpmath.mpf(10) ** float(e) for e in np.linspace(-12, -1, 23)]
        ts = ([t_lo + d for d in offsets] + [t_hi - d for d in offsets]
              + mpmath.linspace(t_lo, t_hi, 60)[1:-1])
        for t in ts:
            u = float(arch_gap(t))
            start = beam._start(u)
            assert arch_gap(start) <= u, t
            p = -math.expm1(-start)
            assert arch_gap(-mpmath.log1p(-mpmath.mpf(p))) <= u, t
            margin = beam._START_MARGIN + beam._START_ULPS * math.ulp(p) / (1.0 - p)
            err = margin + (2e-13 if t < t_97 else 1.5e-12)
            assert arch_gap(start + err) >= u, t


def test_start_coefficients_rebuild():
    # the committed interpolant is the generator's output, bit for bit, and
    # _U_MAX is arch_gap at t(P_MAX)
    assert start_coefficients(40, beam._U_MAX) == beam._START_CHEB
    assert float(arch_gap(-mpmath.log1p(-mpmath.mpf(P_MAX)))) == beam._U_MAX


def test_invert_extreme_targets_converge():
    # next to P_MAX one ULP of p moves h by ~1e-9 L, so targets next to
    # either end are met to 1e-9 L
    for L in (1.0, 27.0, 35.0):
        h_min = solve_beam(L, P_MAX).h
        for frac in (1e-16, 1e-13, 1e-10, 1e-7, 1e-4):
            for h in (L * (1.0 - frac), h_min + (L - h_min) * frac):
                p = solve_p_for_height(L, h)
                assert P_STRAIGHT <= p <= P_MAX
                assert solve_beam(L, p).h == pytest.approx(h, abs=1e-9 * L)
        assert solve_p_for_height(L, h_min) == P_MAX


def test_invert_next_to_straight_end():
    # h is accurate to a few ULP there, so the inverse meets targets to ULPs
    assert solve_beam(1.0, solve_p_for_height(1.0, 0.9999999999999954)).h == (
        pytest.approx(0.9999999999999954, abs=8 * math.ulp(1.0)))
    for L in (1.0, 27.0, 35.0):
        for f in np.logspace(-15, -4, 400):
            h = L * (1.0 - float(f))
            p = solve_p_for_height(L, h)
            assert abs(solve_beam(L, p).h - h) <= 8 * math.ulp(L), (L, f)
    # a few ULP below L the height slope cancels to 0 for some L
    rng = np.random.default_rng(13)
    for L in [30.546118649399524] + [float(x) for x in 10.0 ** rng.uniform(-3, 3, 2000)]:
        for k in (1, 2, 3):
            h = L - k * math.ulp(L)
            p = solve_p_for_height(L, h)
            assert abs(solve_beam(L, p).h - h) <= 8 * math.ulp(L), (L, k)


def test_invert_reports_achievable_minimum():
    h_min = solve_beam(27.0, P_MAX).h
    with pytest.raises(OutOfRangeError) as err:
        solve_p_for_height(27.0, h_min * 0.5)
    assert err.value.lo == pytest.approx(h_min, rel=1e-12)
    assert err.value.hi == 27.0
    assert repr(h_min) in str(err.value) or f"{h_min!r}" in str(err.value)


# --- domain guards -----------------------------------------------------------

@pytest.mark.parametrize("bad_p", [0.5, 0.70710, 1.0, 1.2])
def test_rejects_bad_shape_parameter(bad_p):
    with pytest.raises(DomainError):
        solve_beam(27.0, bad_p)


def test_rejects_bad_length():
    with pytest.raises(DomainError):
        solve_beam(0.0, 0.8)
    with pytest.raises(DomainError):
        solve_beam(-1.0, 0.8)
    with pytest.raises(DomainError):
        solve_p_for_height(27.0, 0.0)
    with pytest.raises(DomainError):
        solve_p_for_height(27.0, 28.0)

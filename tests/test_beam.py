"""Single-arch elastica: boundary case, oracle agreement, inversion, properties."""

import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from wwmtc import beam
from wwmtc.beam import P_MAX, P_STRAIGHT, solve_beam, solve_p_for_height
from wwmtc.errors import DomainError, OutOfRangeError
from wwmtc.muscle import DEFAULT_P_CAP

from oracles import (arch_gap, arch_reference, beam_reference, format_forward_table,
                     format_root_table, forward_table, root_table, shoot_tip)


def test_straight_strip_boundary_is_exact():
    # p down to _BOUNDARY_TOL = 1e-12 below P_STRAIGHT is the straight strip
    # too, with h = L exactly: beam._STRAIGHT's sp is 1.0, not sqrt(2) p
    for p in (P_STRAIGHT, P_STRAIGHT - 5e-13, P_STRAIGHT - 1e-12):
        sol = solve_beam(27.0, p)
        assert [x.hex() for x in sol] == [x.hex() for x in (0.0, 27.0, 0.0, 0.0)], p
    assert beam._SQRT2 * P_STRAIGHT == 1.0  # so a curve's straight samples need no branch


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


# solve_beam(27, p) from P_STRAIGHT and its neighbours to P_MAX, as hex
# doubles: p, then (w, h, psi0, k) as the Carlson R_F/R_D pass gave them
# before the forward table, then (w, h, psi0, k) as solve_beam gives them,
# its arithmetic pinned to the bit
ARCH_HEX = [
    ("0x1.6a09e667f3bccp-1",
     "0x0.0p+0", "0x1.b000000000000p+4",
     "0x0.0p+0", "0x0.0p+0",
     "0x0.0p+0", "0x1.b000000000000p+4",
     "0x0.0p+0", "0x0.0p+0"),
    ("0x1.6a09e667f3bcdp-1",
     "0x0.0p+0", "0x1.b000000000000p+4",
     "0x1.0000000000000p-52", "0x1.ad1536fff1778p-31",
     "0x1.62a6db749e66ep-49", "0x1.b000000000000p+4",
     "0x1.3b3efbf5e2229p-53", "0x1.50b0cc29fb266p-31"),
    ("0x1.6a09e667f3bd5p-1",
     "0x1.b8e87cc2cd6aap-45", "0x1.b000000000000p+4",
     "0x1.8000000000000p-49", "0x1.7398bf1d1ee6fp-29",
     "0x1.ad7590ec3c1b3p-45", "0x1.b000000000000p+4",
     "0x1.7dbdd62751df3p-49", "0x1.728096f76893bp-29"),
    ("0x1.6a09e667f5efbp-1",
     "0x1.bfbe068cc74d7p-35", "0x1.b000000000000p+4",
     "0x1.8e08000000000p-39", "0x1.7a53246e83382p-24",
     "0x1.bfc9351ff4342p-35", "0x1.b000000000000p+4",
     "0x1.8e082f38d911ep-39", "0x1.7a533adface02p-24"),
    ("0x1.6a09e6708ac2bp-1",
     "0x1.b553fa837c870p-25", "0x1.b000000000000p+4",
     "0x1.84bc6c0000000p-29", "0x1.75e1943516b39p-19",
     "0x1.b553f9f07e70ap-25", "0x1.b000000000000p+4",
     "0x1.84bc6c63fe9d1p-29", "0x1.75e194652ce7cp-19"),
    ("0x1.6a0a07f5e2fe3p-1",
     "0x1.ab14186726289p-15", "0x1.affffffffc0acp+4",
     "0x1.7ba015b0022c9p-19", "0x1.717952d59a79bp-14",
     "0x1.ab141865e6feep-15", "0x1.affffffffc0aap+4",
     "0x1.7ba015afeaf45p-19", "0x1.717952d58f2d2p-14"),
    ("0x1.6a8cf8d68b4a1p-1",
     "0x1.a15d1c8c540fcp-5", "0x1.afffc38434af1p+4",
     "0x1.72fd805521cddp-9", "0x1.6d3f899afbd5ap-9",
     "0x1.a15d1c8c5433fp-5", "0x1.afffc38434af0p+4",
     "0x1.72fd805521ddcp-9", "0x1.6d3f899afbdd7p-9"),
    ("0x1.6b851eb851eb8p-1",
     "0x1.2e494e2571b59p-3", "0x1.affe045837632p+4",
     "0x1.0cb35b43099c5p-7", "0x1.36d8af5a41a67p-8",
     "0x1.2e494e2571accp-3", "0x1.affe04583762fp+4",
     "0x1.0cb35b4309993p-7", "0x1.36d8af5a41a4bp-8"),
    ("0x1.70a3d70a3d70ap-1",
     "0x1.532f0e84b9058p-1", "0x1.afd80b9b85cb9p+4",
     "0x1.2d889f88b1498p-5", "0x1.495e5357868cbp-7",
     "0x1.532f0e84b9056p-1", "0x1.afd80b9b85cbap+4",
     "0x1.2d889f88b1494p-5", "0x1.495e5357868c8p-7"),
    ("0x1.8000000000000p-1",
     "0x1.205868c645029p+1", "0x1.ae30fca22c15dp+4",
     "0x1.00abe0c129e1ep-3", "0x1.30aeda37ef158p-6",
     "0x1.205868c645023p+1", "0x1.ae30fca22c15bp+4",
     "0x1.00abe0c129e1ep-3", "0x1.30aeda37ef158p-6"),
    ("0x1.999999999999ap-1",
     "0x1.448f559fd7158p+2", "0x1.a6be28576c9b5p+4",
     "0x1.229aec47638e1p-2", "0x1.d00ade1e7444bp-6",
     "0x1.448f559fd7154p+2", "0x1.a6be28576c9b3p+4",
     "0x1.229aec47638dfp-2", "0x1.d00ade1e74449p-6"),
    ("0x1.b333333333333p-1",
     "0x1.04971641b93c1p+3", "0x1.97a3b753ce117p+4",
     "0x1.d83e10c02b40fp-2", "0x1.2f56db153d6cfp-5",
     "0x1.04971641b93c0p+3", "0x1.97a3b753ce115p+4",
     "0x1.d83e10c02b411p-2", "0x1.2f56db153d6d1p-5"),
    ("0x1.ccccccccccccdp-1",
     "0x1.720a1f3e3eee9p+3", "0x1.7d0e2947ff6f1p+4",
     "0x1.5665718f62b98p-1", "0x1.7f07ab4f1f1cbp-5",
     "0x1.720a1f3e3eeeep+3", "0x1.7d0e2947ff6f2p+4",
     "0x1.5665718f62b98p-1", "0x1.7f07ab4f1f1c9p-5"),
    ("0x1.e666666666666p-1",
     "0x1.f2b33907ffda0p+3", "0x1.4cf2987ebf9b5p+4",
     "0x1.df10dadf475f6p-1", "0x1.f3835dae35974p-5",
     "0x1.f2b33907ffda2p+3", "0x1.4cf2987ebf9b6p+4",
     "0x1.df10dadf475f4p-1", "0x1.f3835dae35971p-5"),
    ("0x1.f0a3d70a3d70ap-1",
     "0x1.18c777311f3d6p+4", "0x1.2c49c773eecd9p+4",
     "0x1.1464f1cec1077p+0", "0x1.21d433b53a006p-4",
     "0x1.18c777311f3d4p+4", "0x1.2c49c773eecd9p+4",
     "0x1.1464f1cec1077p+0", "0x1.21d433b53a007p-4"),
    ("0x1.fae147ae147aep-1",
     "0x1.426dde97d4a19p+4", "0x1.e60284e335dc1p+3",
     "0x1.49a7d8a237d22p+0", "0x1.75bb7c75faa28p-4",
     "0x1.426dde97d4a19p+4", "0x1.e60284e335dc1p+3",
     "0x1.49a7d8a237d22p+0", "0x1.75bb7c75faa28p-4"),
    ("0x1.ff7ced916872bp-1",
     "0x1.6937425807002p+4", "0x1.5181a6eb989f1p+3",
     "0x1.7b39805edc2f1p+0", "0x1.120eec770e93dp-3",
     "0x1.6937425807005p+4", "0x1.5181a6eb989f1p+3",
     "0x1.7b39805edc2eep+0", "0x1.120eec770e93ep-3"),
    ("0x1.ffffde7210be9p-1",
     "0x1.8c2f9e5c63d8ap+4", "0x1.59d78fa026027p+2",
     "0x1.916658213f9fap+0", "0x1.0bfd1355d8884p-2",
     "0x1.8c2f9e5c63d87p+4", "0x1.59d78fa026025p+2",
     "0x1.916658213fa41p+0", "0x1.0bfd1355d8885p-2"),
    ("0x1.ffffffaa19c47p-1",
     "0x1.94fd1fbbfb915p+4", "0x1.04d7edb1e8f0dp+2",
     "0x1.920d2bf40eaa8p+0", "0x1.6350ef4f63cc9p-2",
     "0x1.94fd1fbbfb918p+4", "0x1.04d7edb1e8f0ep+2",
     "0x1.920d2bf40e949p+0", "0x1.6350ef4f63cc8p-2"),
    ("0x1.fffffff768fa0p-1",
     "0x1.97f1e15ecf853p+4", "0x1.d0981f9af7b02p+1",
     "0x1.9219d8aab10c0p+0", "0x1.8efae046ebdacp-2",
     "0x1.97f1e15ecf84ep+4", "0x1.d0981f9af7b02p+1",
     "0x1.9219d8aab1124p+0", "0x1.8efae046ebdabp-2"),
    ("0x1.fffffff768fa1p-1",
     "0x1.97f1e160f0b0cp+4", "0x1.d0981f71d666ap+1",
     "0x1.9219d8aab6818p+0", "0x1.8efae06a3e199p-2",
     "0x1.97f1e160f0b0fp+4", "0x1.d0981f71d666bp+1",
     "0x1.9219d8aab687dp+0", "0x1.8efae06a3e197p-2"),
]


@pytest.mark.parametrize("p, w_rf, h_rf, psi0_rf, k_rf, w, h, psi0, k", ARCH_HEX)
def test_solve_beam_is_bit_identical(p, w_rf, h_rf, psi0_rf, k_rf, w, h, psi0, k):
    sol = solve_beam(27.0, float.fromhex(p))
    assert [x.hex() for x in sol] == [w, h, psi0, k]
    # and the row's worst ULP distance from the 40-digit definition is no
    # larger than the Carlson pass's
    h_ref, w_ref, k_ref, psi0_ref = arch_reference(27.0, float.fromhex(p))
    refs = (w_ref, h_ref, psi0_ref, k_ref)
    carlson = [float.fromhex(x) for x in (w_rf, h_rf, psi0_rf, k_rf)]
    assert max(map(ulps, sol, refs)) <= max(map(ulps, carlson, refs))


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
    # h = L h/L from the table has no cancellation, even next to the
    # straight end: within one ULP of L of the 40-digit height, the worst
    # measured
    ps = ([P_STRAIGHT + float(d) for d in np.logspace(-14, -1, 50)]
          + [float(p) for p in np.linspace(P_STRAIGHT, P_MAX, 60)])
    for L in (1.0, 27.0, 35.0):
        for p in ps:
            h_ref = beam_reference(L, p)[0]
            assert abs(solve_beam(L, p).h - h_ref) <= math.ulp(L), (L, p)


def test_cached_height_is_solve_beam_height():
    # h at a cap comes from a cached table value: the same double for every L
    rng = np.random.default_rng(16)
    ps = [P_STRAIGHT, math.nextafter(P_STRAIGHT, 1.0), 0.75, 0.97, P_MAX]
    ps += [float(p) for p in rng.uniform(P_STRAIGHT, P_MAX, 20)]
    for L in np.logspace(-3, 3, 25):
        for p in ps:
            assert beam._height(float(L), p) == solve_beam(float(L), p).h, (L, p)
    info = beam._shape_at.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    for p in rng.uniform(P_STRAIGHT, P_MAX, 200):
        beam._height(1.0, float(p))
    assert beam._shape_at.cache_info().currsize <= info.maxsize


def ulps(x: float, ref) -> float:
    """|x - ref| in ULPs of the model value ref, an mpf at 40 digits."""
    with mpmath.workdps(40):
        return float(abs(mpmath.mpf(x) - ref) / math.ulp(float(ref)))


# solve_beam's w, k and psi0 are within these many ULPs of the 40-digit
# definition, from the straight end to P_MAX: the worst measured on the
# points of test_width_matches_reference
BEAM_ULPS = {"w": 2.6, "k": 2.3, "psi0": 2.2}


def test_width_matches_reference():
    # w = L d G(d) keeps its relative accuracy down to the straight end, and
    # k and psi0 take q = 2 p^2 - 1 without cancellation: every
    # delta = p - P_STRAIGHT from 1e-16 (the next double) to 0.1, and the
    # whole range of p
    ps = [float(p) for p in np.linspace(P_STRAIGHT, P_MAX, 100)[1:]]
    ps += [P_STRAIGHT + float(d) for d in np.logspace(-16, -1, 60)]
    for L in (1.0, 27.0, 35.0):
        for p in ps:
            sol = solve_beam(L, p)
            _, w, k, psi0 = arch_reference(L, p)
            for name, x, ref in (("w", sol.w, w), ("k", sol.k, k), ("psi0", sol.psi0, psi0)):
                assert ulps(x, ref) <= BEAM_ULPS[name], (name, L, p, ulps(x, ref))


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


def test_invert_kernel_budget(shape_evaluations):
    # every forward-table evaluation of one inversion: the root is evaluated
    # in closed form and makes none, so a warm inversion makes none and a
    # cold one only the range check's at P_MAX, which is then cached; a
    # target at L needs no range check
    calls = shape_evaluations
    beam._shape_at.cache_clear()
    assert solve_p_for_height(27.0, 27.0) == P_STRAIGHT and calls == []
    h = solve_beam(27.0, 0.85).h
    calls.clear()
    solve_p_for_height(27.0, h)
    assert len(calls) == 1
    rng = np.random.default_rng(10)
    for L in (1.0, 27.0, 35.0, 250.0):
        for p in rng.uniform(P_STRAIGHT + 1e-3, 0.97, 60):
            h = solve_beam(L, float(p)).h
            calls.clear()
            assert solve_p_for_height(L, h) == pytest.approx(p, abs=1e-9)
            assert calls == [], (L, p, len(calls))
        # h has a logarithmic singularity in 1 - p next to P_MAX
        h_min = solve_beam(L, P_MAX).h
        for u in np.linspace(-16.0, -1.0, 61):
            h = h_min + (L - h_min) * 10.0 ** float(u)
            calls.clear()
            solve_p_for_height(L, h)
            assert calls == [], (L, u, len(calls))


def test_height_gap_concave_in_log_variable():
    # a property of the model: g = sqrt(L - h) is increasing and concave in
    # t = -log(1 - p) over the whole range, with a shape that does not
    # depend on L, so each height has one root, a smooth function of
    # sqrt(1 - h/L), which solve_p_for_height evaluates in closed form:
    # chord slopes are positive and decreasing
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


def test_root_table_rebuild():
    # the committed table is the generator's output, bit for bit, pasted as
    # format_root_table prints it, and _U_MAX is arch_gap at t(P_MAX)
    table = root_table(beam._U_MAX)
    assert table == beam._ROOT_TABLE
    assert format_root_table(table) in Path(beam.__file__).read_text()
    assert float(arch_gap(-mpmath.log1p(-mpmath.mpf(P_MAX)))) == beam._U_MAX
    assert [lo for lo, _, _ in table[1:]] == [hi for _, hi, _ in table[:-1]]


def test_forward_table_rebuild():
    # the committed forward table is the generator's output, bit for bit,
    # pasted as format_forward_table prints it; _D_MAX is t(P_MAX) - t_S
    # and _P_LO the tail of 1/sqrt(2) past P_STRAIGHT, each rounded once
    table = forward_table(beam._D_MAX)
    assert table == beam._SHAPE_TABLE
    assert format_forward_table(table) in Path(beam.__file__).read_text()
    with mpmath.workdps(40):
        t_s = -mpmath.log(1 - 1 / mpmath.sqrt(2))
        assert float(-mpmath.log1p(-mpmath.mpf(P_MAX)) - t_s) == beam._D_MAX
        assert float(1 / mpmath.sqrt(2) - P_STRAIGHT) == beam._P_LO
    assert [lo for lo, *_ in table[1:]] == [hi for _, hi, *_ in table[:-1]]
    # the double d of P_MAX falls in the last piece, past its end at most
    delta = (P_MAX - P_STRAIGHT) - beam._P_LO
    assert table[-1][0] < math.log1p(delta / (1.0 - P_MAX)) <= math.nextafter(beam._D_MAX, 20.0)


def chebyshev_values(x: Fraction, count: int, second_kind: bool = False) -> list[Fraction]:
    """T_0(x), ..., T_{count-1}(x), or U_0(x), ..., U_{count-1}(x), exactly."""
    values = [Fraction(1), (2 if second_kind else 1) * x]
    while len(values) < count:
        values.append(2 * x * values[-1] - values[-2])
    return values[:count]


def chebyshev_derivative(cs: list[Fraction]) -> list[Fraction]:
    """The Chebyshev coefficients of the derivative of sum c_k T_k, exactly."""
    n = len(cs) - 1
    ds = [Fraction(0)] * (n + 2)
    for k in range(n, 0, -1):
        ds[k - 1] = ds[k + 1] + 2 * k * cs[k]
    ds[0] /= 2
    return ds[:n]


def chebyshev_sum(cs: list[Fraction], x: Fraction) -> Fraction:
    return sum(c * t for c, t in zip(cs, chebyshev_values(x, len(cs))))


def clenshaw_rounding_bound(cs: list[Fraction], X: Fraction) -> Fraction:
    """A bound on the rounding error of beam._shape's Clenshaw sum before
    its last "+ c_0", fl(fl(x·b_1) − b_2), at any double x with |x| <= X,
    for X >= 1.

    Rounding adds some ε_k to each b_k, which is adding ε_k to c_k: the sum
    moves by at most Σ |ε_k| T_k(X).  The computed b_k is Σ_{j>=k} (c_j +
    ε_j) U_{j-k}(x), so at most Σ (|c_j| + |ε_j|) U_{j-k}(X) in size, and
    one rounding to nearest moves a result r by at most 2**-53·|r|, plus
    2**-1074 if r is subnormal.
    """
    u, tiny = Fraction(1, 2**53), Fraction(1, 2**1074)
    n = len(cs) - 1
    T, U = chebyshev_values(X, n + 1), chebyshev_values(X, n + 1, second_kind=True)
    size = [abs(c) for c in cs]
    eps = [Fraction(0)] * (n + 1)
    b = [Fraction(0)] * (n + 3)  # bounds on the computed |b_k|
    for k in range(n, 0, -1):  # b_k = fl(fl(fl(2x·b_{k+1}) − b_{k+2}) + c_k)
        r1 = 2 * X * b[k + 1] * (1 + u) + tiny
        r2 = (r1 + b[k + 2]) * (1 + u) + tiny
        r3 = (r2 + size[k]) * (1 + u) + tiny
        eps[k] = u * (r1 + r2 + r3) + 3 * tiny
        b[k] = sum((size[j] + eps[j]) * U[j - k] for j in range(k, n + 1))
    r1 = X * b[1] * (1 + u) + tiny
    r2 = (r1 + b[2]) * (1 + u) + tiny
    return sum(e * t for e, t in zip(eps[1:], T[1:])) + u * (r1 + r2) + 2 * tiny


def test_shape_range_from_the_table_digits():
    # _shape(p) gives h/L <= 1 and w/L > 0 for every float p in
    # (P_STRAIGHT, P_MAX], proved in exact arithmetic from _SHAPE_TABLE's
    # literal digits, with no sampling; design relies on both.  u is half an
    # ULP of 1.  x lies in [-1, 1] on the first five pieces: there d is in
    # (lo, hi], and 2d, lo + hi and hi - lo are exact, so each rounding
    # stays within [-1, 1].  On the last, lo + hi is rounded and d may round
    # past _D_MAX (test_forward_table_rebuild): |x| <= 1 + 2**-44, and
    # X = 1 + 2**-40 bounds it.
    u = Fraction(1, 2**53)
    pieces = []
    for lo, hi, hs, gs in beam._SHAPE_TABLE:
        exact = (Fraction(lo + hi) == Fraction(lo) + Fraction(hi)
                 and Fraction(hi - lo) == Fraction(hi) - Fraction(lo))
        X = Fraction(1) if exact else 1 + Fraction(1, 2**40)
        pieces.append((X, [Fraction(c) for c in hs], [Fraction(c) for c in gs]))
    assert [X == 1 for X, _, _ in pieces] == [True] * 5 + [False]

    # w/L = d·G.  On each piece G's Clenshaw sum is at least c_0 − Σ |c_k|
    # T_k(X) less its rounding bound, above 0.04, and so is the rounded
    # "+ c_0".  delta = p − 1/sqrt(2) is positive from the first float p
    # past P_STRAIGHT on, since p − P_STRAIGHT is exact and rounding is
    # monotone, and so d = log1p(delta / (1 − p)) >= (1 − 2u)·log1p(z_1)
    # with z_1 its argument there: log1p is within an ULP.  d·G is then far
    # above the smallest normal double and cannot round to 0.
    g_lows = []
    for X, _, gs in pieces:
        T = chebyshev_values(X, len(gs))
        low = gs[0] - sum(abs(c) * t for c, t in zip(gs[1:], T[1:]))
        g_lows.append((low - clenshaw_rounding_bound(gs, X)) * (1 - u))
    assert min(g_lows) > Fraction(4, 100)
    p_1 = math.nextafter(P_STRAIGHT, 1.0)
    z_1 = Fraction(((p_1 - P_STRAIGHT) - beam._P_LO) / (1.0 - p_1))
    assert z_1 > 0
    d_low = (1 - 2 * u) * (z_1 - z_1 * z_1 / 2)  # log1p(z) >= z − z²/2
    assert d_low * Fraction(4, 100) > Fraction(1, 2**1022)

    # h/L on the last five pieces: c_0 + Σ |c_k| T_k(X) and the rounding
    # bound stay below 0.9
    for X, hs, _ in pieces[1:]:
        T = chebyshev_values(X, len(hs))
        high = hs[0] + sum(abs(c) * t for c, t in zip(hs[1:], T[1:]))
        assert high + clenshaw_rounding_bound(hs, X) < Fraction(9, 10)

    # h/L on the first piece, which reaches 1 at the straight end: its
    # interpolant S falls on the whole of [-1, 1].  S'(-1) < 0, S'' < 0 on
    # [-1, -1/2] (S''(-1) plus half the bound Σ |c'''| of |S'''|), and on
    # [-1/2, 1] S' at a grid of step 1/20 plus the step times the bound
    # Σ |c''| of |S''| is below 0.  So S <= S(-1) < 1, and the sum before
    # "+ c_0" is within 2**-53 of S − c_0: the sum rounds to at most 1.0
    _, hs, _ = pieces[0]
    d1 = chebyshev_derivative(hs)
    d2 = chebyshev_derivative(d1)
    d3 = chebyshev_derivative(d2)
    assert chebyshev_sum(d1, Fraction(-1)) < 0
    assert chebyshev_sum(d2, Fraction(-1)) + sum(map(abs, d3)) / 2 < 0
    step = Fraction(1, 20)
    grid = [Fraction(-1, 2) + i * step for i in range(30)]
    assert grid[-1] + step == 1
    assert max(chebyshev_sum(d1, x) for x in grid) + step * sum(map(abs, d2)) < 0
    assert chebyshev_sum(hs, Fraction(-1)) < 1
    assert clenshaw_rounding_bound(hs, Fraction(1)) < u

    # the straight end, where both bounds are closest
    h_unit, w_unit, _, _ = beam._shape(p_1)
    assert h_unit == 1.0 and 0.0 < w_unit == pytest.approx(9.1144e-17, rel=1e-4)


def test_invert_needs_no_lower_clamp():
    # _p_for_height returns min(-expm1(-t), P_MAX), with no clamp at
    # P_STRAIGHT and no branch at h_target == L.  There u = 0, so t is
    # _T_STRAIGHT, whose p is P_STRAIGHT exactly.  Below L, u is at least
    # sqrt(2**-53) ~ 1.05e-8 (one ULP below a power of two), and f is at
    # least c_0 - sum |c_k| on each piece, since |T_k| <= 1, so t lies
    # ~1.5e-8 above _T_STRAIGHT, ~7e7 of its ULPs
    assert -math.expm1(-beam._T_STRAIGHT) == P_STRAIGHT
    assert all(cs[0] - sum(map(abs, cs[1:])) > 1.45 for _, _, cs in beam._ROOT_TABLE)
    rng = np.random.default_rng(36)
    Ls = [5e-324, 1e-323, 2.0**-1022, 1e300, *(2.0**e for e in range(-1021, 997, 3)),
          *(float(x) for x in 10.0 ** rng.uniform(-323, 300, 2000))]
    for L in Ls:
        assert beam._p_for_height(L, L) == P_STRAIGHT, L
        h = math.nextafter(L, 0.0)
        if h > 0.0:
            assert math.sqrt(L - h) / math.sqrt(L) > 1.05e-8, L
            assert beam._p_for_height(L, h) > P_STRAIGHT, L


# The returned p is within this many ULPs of the 40-digit root
ROOT_ULPS = 2.0


def ulps_from_root(L: float, h: float, p: float) -> float:
    """(p - p*) in ULPs of p, where p* is the root of h(L, p*) = h exactly,
    capped at P_MAX as solve_p_for_height caps it.

    p* comes from one Newton step in t from p itself, on arch_gap at 40
    digits, with the slope from a forward difference at 20: p is within a
    few ULPs of p*, so the step's error, quadratic in that distance, is far
    below 1e-30.
    """
    with mpmath.workdps(40):
        t = -mpmath.log1p(-mpmath.mpf(p))
        u = mpmath.sqrt(1 - mpmath.mpf(h) / mpmath.mpf(L))
        g = arch_gap(t)
        step = (t - beam._T_STRAIGHT) * mpmath.mpf(10) ** -8
        slope = (arch_gap(t + step, 20) - g) / step
        root = min(-mpmath.expm1(-(t + (u - g) / slope)), mpmath.mpf(P_MAX))
        return float((mpmath.mpf(p) - root) / mpmath.mpf(math.ulp(0.5)))


def test_invert_within_ulps_of_root():
    # the closed form against the 40-digit root, on 2 000 targets: L from
    # 0.5 to 500, p uniform, t = -log(1 - p) uniform up to t(P_MAX), which
    # reaches every piece of the table, and offsets log-spaced from 1e-15 to
    # 0.1 of L - h_min next to both ends.  The worst is 1.63 ULPs.  The
    # Newton step that this replaced met the computed h, whose few ULPs map
    # into p next to the straight end: it was up to 2.3e7 ULPs off there,
    # and 2 143 on the uniform targets
    rng = np.random.default_rng(35)
    t_max = -math.log1p(-P_MAX)
    ps = [float(p) for p in rng.uniform(P_STRAIGHT, P_MAX, 700)]
    ps += [-math.expm1(-float(t)) for t in rng.uniform(beam._T_STRAIGHT, t_max, 700)]
    targets = []
    for p in ps:
        L = float(10.0 ** rng.uniform(math.log10(0.5), math.log10(500.0)))
        targets.append((L, solve_beam(L, min(max(p, P_STRAIGHT), P_MAX)).h))
    for L in (0.5, 27.0, 500.0):
        h_min = solve_beam(L, P_MAX).h
        for f in np.logspace(-15, -1, 100):
            targets += [(L, L * (1.0 - float(f))), (L, h_min + (L - h_min) * float(f))]
    assert len(targets) == 2000
    worst = max(abs(ulps_from_root(L, h, solve_p_for_height(L, h))) for L, h in targets)
    assert worst <= ROOT_ULPS, worst


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

@pytest.mark.parametrize("bad_p", [0.5, 0.70710, P_STRAIGHT - 2e-12, 1.0, 1.2])
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

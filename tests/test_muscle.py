"""Whole-muscle geometry: published parameter sets, inversion, curve shape."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wwmtc import beam, muscle
from wwmtc.beam import P_MAX, P_STRAIGHT, solve_beam, solve_p_for_height
from wwmtc.cli import dispatch
from wwmtc.errors import DomainError, OutOfRangeError
from wwmtc.muscle import (
    DEFAULT_P_CAP,
    KINDS,
    MuscleSpec,
    MuscleState,
    curve,
    length_range,
    natural_length,
    state_at,
    state_for_length,
)

from conftest import DATA_DIR


def test_natural_lengths_of_production_specs(radial_spec, planar_spec):
    assert natural_length(radial_spec) == 238.0
    assert natural_length(planar_spec) == 224.5
    assert natural_length(MuscleSpec(1, 10.0, 0.0)) == 10.0


def test_natural_state(radial_spec):
    # as solve_beam, down to _BOUNDARY_TOL below P_STRAIGHT
    for p in (P_STRAIGHT, P_STRAIGHT - 5e-13, P_STRAIGHT - 1e-12):
        st = state_at(radial_spec, p)
        assert [x.hex() for x in st] == [x.hex() for x in (p, 0.0, 238.0, 0.0, 0.0)], p


def test_state_is_exactly_the_arch_decomposition(radial_spec, planar_spec):
    # width = w(L,p) and length = n*h(L,p) + h0 with no hidden corrections,
    # to the last bit, and Python floats for an int L too
    rng = np.random.default_rng(3)
    ps = [P_STRAIGHT, math.nextafter(P_STRAIGHT, 1.0),
          *(P_STRAIGHT + 10.0 ** e for e in range(-15, 0)), 0.97, P_MAX,
          *(float(p) for p in rng.uniform(P_STRAIGHT, 0.99, 25))]
    for spec in (radial_spec, planar_spec, MuscleSpec(8, 27, 22)):
        for p in ps:
            sol = solve_beam(spec.L, p)
            st = state_at(spec, p)
            assert st.width == sol.w and st.psi0 == sol.psi0, p
            assert st.length == spec.n * sol.h + spec.h0, p
            assert st.contraction == natural_length(spec) - st.length, p
            assert all(type(v) is float for v in (st.width, st.length, st.psi0)), p


@pytest.mark.parametrize("bad_p", [0.5, 0.70710, 1.0, 1.2, math.nan, math.inf])
def test_state_at_rejects_bad_shape_parameter(radial_spec, bad_p):
    with pytest.raises(DomainError, match="shape parameter"):
        state_at(radial_spec, bad_p)


def test_state_at_radial_example(radial_spec):
    sol = solve_beam(27.0, 0.8)
    st = state_at(radial_spec, 0.8)
    assert st.width == sol.w
    assert st.length == 8 * sol.h + 22.0


def test_planar_wider_than_radial_at_same_contraction_ratio(radial_spec, planar_spec):
    st_p = state_at(planar_spec, 0.8)
    ratio = st_p.contraction / natural_length(planar_spec)
    st_r = state_for_length(radial_spec, natural_length(radial_spec) * (1.0 - ratio))
    assert st_p.width > st_r.width


def test_curve_endpoints_and_ordering(radial_spec):
    cur = curve(radial_spec, 2)
    assert cur.samples[0].p == P_STRAIGHT
    assert cur.samples[0].width == 0.0
    assert cur.samples[0].length == 238.0
    assert cur.samples[1].p == DEFAULT_P_CAP

    cur = curve(radial_spec, 100)
    lengths = [s.length for s in cur.samples]
    widths = [s.width for s in cur.samples]
    assert all(b < a for a, b in zip(lengths, lengths[1:]))
    assert all(b >= a for a, b in zip(widths, widths[1:]))
    assert len(cur.samples) == 100
    # length decreases in exact arithmetic only: with a cap within a few
    # ULPs of the straight end, neighbouring lengths round to one double.
    # Five ULPs out, n (L - h) is ~1e-28, far below an ULP of 238
    cap = math.nextafter(P_STRAIGHT, 1.0)
    assert [s.length for s in curve(radial_spec, 3, cap).samples] == [238.0] * 3
    for _ in range(4):
        cap = math.nextafter(cap, 1.0)
    assert [s.length for s in curve(radial_spec, 3, cap).samples] == [238.0] * 3


def test_curve_respects_p_cap(radial_spec):
    cur = curve(radial_spec, 10, p_cap=0.9)
    assert cur.samples[-1].p == 0.9


def test_planar_curve_above_radial_at_shared_contraction(radial_spec, planar_spec):
    # the two production specs have roughly equal volume; compared at the
    # same stroke the planar one expands strictly more
    stroke_max = min(
        state_at(radial_spec, DEFAULT_P_CAP).contraction,
        state_at(planar_spec, DEFAULT_P_CAP).contraction,
    )
    for stroke in np.linspace(stroke_max / 100.0, stroke_max, 100):
        w_r = state_for_length(radial_spec, 238.0 - stroke).width
        w_p = state_for_length(planar_spec, 224.5 - stroke).width
        assert w_p > w_r


def test_same_absolute_length_comparison_crosses_over(radial_spec, planar_spec):
    # At equal *absolute* length the radial muscle is wider near the planar
    # natural length (it is already contracted there) and the planar one is
    # wider once both are deep in stroke; the curves cross near 207.5 mm.
    # This is why the dominance check above is done at matched contraction.
    def gap(length):
        return (
            state_for_length(planar_spec, length).width
            - state_for_length(radial_spec, length).width
        )

    assert gap(224.4) < 0.0
    assert gap(190.0) > 0.0
    lo, hi = 190.0, 224.4
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(207.45, abs=0.05)


def test_max_width_comparison_over_common_contraction(radial_spec, planar_spec):
    stroke_max = min(
        state_at(radial_spec, DEFAULT_P_CAP).contraction,
        state_at(planar_spec, DEFAULT_P_CAP).contraction,
    )
    w_r = state_for_length(radial_spec, 238.0 - stroke_max).width
    w_p = state_for_length(planar_spec, 224.5 - stroke_max).width
    assert w_p > w_r


# --- inversion ---------------------------------------------------------------

def test_invert_natural_length(radial_spec):
    st = state_for_length(radial_spec, 238.0)
    assert st.p == P_STRAIGHT
    assert st.width == 0.0


def test_invert_next_to_natural_length(radial_spec):
    # small deflection: L - h = 32 L delta^2 / 15 per arch, so a length d
    # below natural sits at delta = sqrt(15 d / (32 n L))
    d = 1e-9
    st = state_for_length(radial_spec, 238.0 - d)
    delta = math.sqrt(15.0 * d / (32.0 * radial_spec.n * radial_spec.L))
    assert st.p - P_STRAIGHT == pytest.approx(delta, rel=1e-3)


def test_invert_round_trip(radial_spec):
    st = state_at(radial_spec, 0.85)
    back = state_for_length(radial_spec, st.length)
    assert back.p == pytest.approx(0.85, abs=1e-7)


def test_invert_round_trip_random(radial_spec, planar_spec):
    rng = np.random.default_rng(11)
    for spec in (radial_spec, planar_spec):
        for p in rng.uniform(P_STRAIGHT + 1e-6, DEFAULT_P_CAP, 50):
            st = state_at(spec, float(p))
            back = state_for_length(spec, st.length)
            assert back.p == pytest.approx(float(p), abs=1e-7)
            assert abs(back.length - st.length) <= 1e-6


def test_invert_planar_matches_dense_scan(planar_spec):
    # frozen from a 1e-6-step scan over p: best |length - 200| at
    # p = 0.8992097811920715
    st = state_for_length(planar_spec, 200.0)
    assert st.p == pytest.approx(0.8992097811920715, abs=1e-6)
    assert st.length == pytest.approx(200.0, abs=1e-6)


def test_invert_both_ends_of_feasible_interval():
    # (length - h0) / n can round past [h(p_cap), L]; both ends must invert
    rng = np.random.default_rng(12)
    specs = [MuscleSpec(6, 0.7, 87.50872873361456), MuscleSpec(31, 0.7, 0.7)]
    specs += [MuscleSpec(int(rng.integers(1, 41)), float(10 ** rng.uniform(-1, 2.5)),
                         float(rng.uniform(0.0, 100.0))) for _ in range(200)]
    for spec in specs:
        for p_cap in (DEFAULT_P_CAP, P_MAX):
            for length in length_range(spec, p_cap):
                st = state_for_length(spec, length, p_cap)
                assert P_STRAIGHT <= st.p <= p_cap, (spec, p_cap)
                assert abs(st.length - length) <= 1e-8 * natural_length(spec), (spec, p_cap)


# solve_beam's h is within this many ULPs of L of the 40-digit reference
# (tests/test_beam.py::test_height_within_ulps_of_reference)
H_ULPS = 4


def height_slope(L: float, p: float, w: float, k: float) -> float:
    """dh/dp at p > P_STRAIGHT, from the width w and scale factor k at (L, p).

    With c = cos(phi1) and E - E(phi1) = k (L - w) / 2, differentiating
    kL = K(p) - F(phi1(p), p) gives
    d(kL)/dp = k (L - w) / (2 p (1 - p^2)) - kL / p + c / (1 - p^2) + 1 / (p^2 c),
    and h = L r / kL with r = sqrt(2 (2 p^2 - 1)) then gives dh/dp.
    """
    q = 2.0 * p * p - 1.0
    c = math.sqrt(q) / (math.sqrt(2.0) * p)
    one_minus_m = 1.0 - p * p
    kL = k * L
    dkL = (k * (L - w) / (2.0 * p * one_minus_m) - kL / p
           + c / one_minus_m + 1.0 / (p * p * c))
    r = math.sqrt(2.0 * q)
    return L * ((4.0 * p / r) / kL - r * dkL / (kL * kL))


def length_miss_bound(spec: MuscleSpec, length: float, state: MuscleState) -> float:
    """The largest miss of the returned length that rounding can explain.

    The target becomes the height h_t = (length - h0) / n, rounded twice.
    The bound was derived for the Newton step that solved for p before the
    closed-form root: that step met h_t on the computed h, off by up to
    H_ULPS ULPs of L, so the exact height at its p missed h_t by that much,
    plus |h'(p)| times half an ULP of p for p's own rounding.  The returned
    state's computed h adds up to H_ULPS ULPs of L again, and n * h + h0 is
    rounded twice.  The closed-form root is within 2 ULPs of p of the exact
    one (tests/test_beam.py), which the bound covers unchanged on p up to
    DEFAULT_P_CAP.
    """
    n, L, h0, _ = spec
    p = state.p
    w, h, _, k = solve_beam(L, p)
    h_t = (length - h0) / n
    per_arch = (abs(height_slope(L, p, w, k)) * math.ulp(p) / 2
                + 2 * H_ULPS * math.ulp(L) + math.ulp(h_t) / 2)
    return n * per_arch + (math.ulp(length - h0) + math.ulp(n * h) + math.ulp(length)) / 2


def test_invert_round_trip_length_miss():
    # targets like the geometry benchmark's; seed 777 reached 7 ULPs of the
    # length with the Newton start before the fitted one
    for seed in (14, 777, 15):
        rng = np.random.default_rng(seed)
        for _ in range(10_000):
            spec = MuscleSpec(int(rng.integers(4, 11)), float(rng.uniform(15.0, 40.0)),
                              float(rng.uniform(5.0, 25.0)))
            p = float(rng.uniform(P_STRAIGHT + 1e-3, DEFAULT_P_CAP))
            length = state_at(spec, p).length
            state = state_for_length(spec, length)
            miss = abs(state.length - length)
            assert miss <= length_miss_bound(spec, length, state), (seed, spec, length)


def test_invert_kernel_budget(shape_evaluations):
    # forward-table evaluations per inversion: the root takes none, so one
    # for the returned state, none for the natural state, for every cap and
    # at both ends of the feasible interval; one more for h(p_cap) when it
    # is not cached.  The state is state_at's at its p, the same doubles
    calls = shape_evaluations
    rng = np.random.default_rng(15)
    specs = [MuscleSpec(8, 27.0, 22.0), MuscleSpec(6, 0.7, 87.50872873361456)]
    specs += [MuscleSpec(int(rng.integers(1, 41)), float(10 ** rng.uniform(-1, 2.5)),
                         float(rng.uniform(0.0, 100.0))) for _ in range(40)]
    for spec in specs:
        for p_cap in (0.75, DEFAULT_P_CAP, P_MAX):
            lo, hi = length_range(spec, p_cap)
            inner = [float(x) for x in rng.uniform(lo, hi, 20)]
            ends = [lo, hi, math.nextafter(lo, hi), math.nextafter(hi, lo),
                    lo + (hi - lo) * 1e-12, hi - (hi - lo) * 1e-12]
            beam._shape_at.cache_clear()  # the first target finds h(p_cap) uncached
            for i, length in enumerate(inner + ends):
                calls.clear()
                state = state_for_length(spec, length, p_cap)
                natural = state.p == P_STRAIGHT
                assert len(calls) == (i == 0) + (not natural), (spec, p_cap, length, len(calls))
                assert state == state_at(spec, state.p)
    length_range(specs[0])
    calls.clear()
    assert state_for_length(specs[0], 238.0).p == P_STRAIGHT and calls == []


def assert_samples_are_solve_beams(spec, num, p_cap, samples):
    """Each sample as state_at used to build it: the sampled p, solve_beam's
    fields and natural_length, compared bit for bit."""
    step = (p_cap - P_STRAIGHT) / (num - 1)
    assert len(samples) == num
    for i, sample in enumerate(samples):
        p = p_cap if i == num - 1 else P_STRAIGHT + i * step
        sol = solve_beam(spec.L, p)
        length = spec.n * sol.h + spec.h0
        old = (p, sol.w, length, natural_length(spec) - length, sol.psi0)
        assert type(sample) is MuscleState
        assert all(type(v) is float for v in sample), sample
        assert [v.hex() for v in sample] == [v.hex() for v in old], (i, sample, old)


def test_curve_kernel_budget(shape_evaluations, monkeypatch, tmp_path, capsys, radial_spec,
                             planar_spec):
    # one forward-table evaluation per sample but the first, the straight
    # strip, on a grid (num_samples, p_cap) other than the last four that
    # curves were drawn on; none on one of those four, whatever the spec
    calls = shape_evaluations

    def passes(*args):
        calls.clear()
        curve(*args)
        return len(calls)

    for num in (2, 3, 17, 100, 1001):
        for p_cap in (0.75, DEFAULT_P_CAP, P_MAX):
            assert passes(radial_spec, num, p_cap) == num - 1, (num, p_cap)
            assert passes(planar_spec, num, p_cap) == 0, (num, p_cap)
            assert passes(radial_spec, num, p_cap) == 0, (num, p_cap)
    # the key is the grid's value: a numpy count or cap finds the same table
    assert passes(planar_spec, np.int64(1001), np.float64(P_MAX)) == 0
    # the last four grids are kept, and a fifth evicts the least recently
    # used one
    muscle._grid.cache_clear()
    grids = [(100, 0.9), (100, DEFAULT_P_CAP), (17, 0.9), (1001, P_MAX)]
    for num, p_cap in grids:
        assert passes(radial_spec, num, p_cap) == num - 1, (num, p_cap)
    for num, p_cap in grids + grids[::-1]:  # the last used is now grids[0]
        assert passes(planar_spec, num, p_cap) == 0, (num, p_cap)
    assert passes(radial_spec, 3, 0.75) == 2
    for num, p_cap in grids[:3]:
        assert passes(planar_spec, num, p_cap) == 0, (num, p_cap)
    assert passes(planar_spec, 1001, P_MAX) == 1000  # evicts (3, 0.75)
    assert_samples_are_solve_beams(planar_spec, 1001, P_MAX,
                                   curve(planar_spec, 1001, P_MAX).samples)
    assert passes(radial_spec, 3, 0.75) == 2
    # a round of the geometry benchmark: the dense curve between small ones
    # of other specs finds its table
    muscle._grid.cache_clear()
    assert passes(radial_spec, 10_000, DEFAULT_P_CAP) == 9_999
    assert passes(planar_spec, 100, DEFAULT_P_CAP) == 99
    assert passes(MuscleSpec(5, 19.5, 8.0), 100, DEFAULT_P_CAP) == 0
    assert passes(planar_spec, 10_000, DEFAULT_P_CAP) == 0
    # the specs of one run share the table
    muscle._grid.cache_clear()
    calls.clear()
    monkeypatch.delenv("WWMTC_P_CAP", raising=False)
    code = dispatch(["muscle", "curve", "--spec", str(DATA_DIR / "radial.json"),
                     "--spec", str(DATA_DIR / "planar.json"), "--samples", "60",
                     "--svg", str(tmp_path / "curves.svg")])
    assert code == 0, capsys.readouterr().err
    assert len(calls) == 59


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    specs=st.lists(st.tuples(st.integers(1, 40),
                             st.one_of(st.integers(1, 300), st.floats(0.1, 300.0)),
                             st.floats(0.0, 200.0),
                             st.sampled_from(KINDS)), min_size=2, max_size=2),
    num=st.sampled_from([2, 3, 17, 1001]),
    p_cap=st.sampled_from([0.75, DEFAULT_P_CAP, P_MAX]),
)
def test_curve_is_bit_identical_to_state_by_state(specs, num, p_cap):
    # the second spec's curve scales the table that the first one's left
    for fields in specs:
        spec = MuscleSpec(*fields)
        assert_samples_are_solve_beams(spec, num, p_cap, curve(spec, num, p_cap).samples)


def test_curves_on_one_grid_share_its_p_and_psi0(radial_spec, planar_spec):
    # p and psi0 do not depend on the spec: every curve on a grid holds the
    # table's own floats, and only width, length and contraction are new
    muscle._grid.cache_clear()
    first = curve(radial_spec, 100, 0.9).samples
    second = curve(planar_spec, 100, 0.9).samples
    for a, b in zip(first, second, strict=True):
        assert a.p is b.p and a.psi0 is b.psi0, (a, b)
        assert all(type(v) is float for v in a + b), (a, b)


def test_dense_curve_is_state_at_sample_by_sample(radial_spec, planar_spec):
    # the geometry benchmark's dense curve, every sample against state_at
    for spec in (radial_spec, planar_spec, MuscleSpec(5, 19.5, 8.0)):
        samples = curve(spec, 10_000).samples
        assert len(samples) == 10_000
        for i, sample in enumerate(samples):
            want = state_at(spec, sample.p)
            assert [v.hex() for v in sample] == [v.hex() for v in want], (i, sample, want)


def test_invert_rejects_bad_p_cap(radial_spec):
    # the same rule as curve's; p_cap = P_STRAIGHT is no cap at all, and
    # length_range used to return (238.0, 238.0) for it
    for p_cap in (0.6, P_STRAIGHT, 1.0, math.nan):
        with pytest.raises(DomainError, match="p_cap="):
            state_for_length(radial_spec, 238.0, p_cap)
        with pytest.raises(DomainError, match="p_cap="):
            length_range(radial_spec, p_cap)


def test_invert_out_of_range_reports_interval(radial_spec):
    lo, hi = length_range(radial_spec)
    assert hi == 238.0
    with pytest.raises(OutOfRangeError) as err:
        state_for_length(radial_spec, 238.5)
    assert err.value.lo == lo
    assert err.value.hi == hi
    with pytest.raises(OutOfRangeError):
        state_for_length(radial_spec, lo - 0.5)


# --- validation ---------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(DomainError):
        MuscleSpec(0, 27.0, 22.0)
    with pytest.raises(DomainError):
        MuscleSpec(8, -1.0, 22.0)
    with pytest.raises(DomainError):
        MuscleSpec(8, 27.0, -0.1)
    for L, h0 in ((math.inf, 22.0), (math.nan, 22.0), (27.0, math.nan), (27.0, math.inf)):
        with pytest.raises(DomainError):
            MuscleSpec(8, L, h0)
    with pytest.raises(DomainError):
        MuscleSpec(8, 27.0, 22.0, kind="spherical")
    # float() would parse a string and take a bool as 0 or 1
    for bad in ("27", b"27", True, None, Decimal("sNaN")):
        with pytest.raises(DomainError, match="L="):
            MuscleSpec(8, bad, 22.0)
        with pytest.raises(DomainError, match="h0="):
            MuscleSpec(8, 27.0, bad)
    with pytest.raises(DomainError, match="beam length L is too large"):
        MuscleSpec(8, 10**400, 22.0)
    with pytest.raises(DomainError, match="length offset h0 is too large"):
        MuscleSpec(8, 27.0, Fraction(10**400))


@pytest.mark.parametrize("number", [int, np.float64, np.float32, Fraction, Decimal])
def test_spec_lengths_are_floats(number):
    # an L or h0 of another real type used to reach the lengths: an int
    # natural length, np.float64 lengths, a Fraction natural length
    L, h0 = (27, 22) if number is int else (number("27.5"), number("21.25"))
    spec = MuscleSpec(8, L, h0)
    ref = MuscleSpec(8, float(L), float(h0))
    assert type(spec.n) is int and type(spec.L) is float and type(spec.h0) is float
    assert spec == ref and spec._replace(L=L) == ref
    pairs = [((natural_length(spec),), (natural_length(ref),)),
             (length_range(spec), length_range(ref)),
             (state_at(spec, 0.8), state_at(ref, 0.8)),
             (state_for_length(spec, 230.0), state_for_length(ref, 230.0)),
             *zip(curve(spec, 17).samples, curve(ref, 17).samples)]
    for got, want in pairs:
        assert all(type(v) is float for v in got), got
        assert [v.hex() for v in got] == [v.hex() for v in want], (got, want)


def test_curve_validation(radial_spec):
    with pytest.raises(DomainError):
        curve(radial_spec, 1)
    # a float count used to reach range() and raise TypeError
    for count in (3.0, np.float64(3.0), True, "5", None):
        with pytest.raises(DomainError, match="num_samples="):
            curve(radial_spec, count)
    for count in (np.int64(5), np.int32(2)):
        assert len(curve(radial_spec, count).samples) == count
    # a numpy p_cap used to make every sample's p a numpy scalar
    cur = curve(radial_spec, 5, np.float64(0.97))
    for sample in cur.samples:
        assert all(type(v) is float for v in sample), sample
    assert cur == curve(radial_spec, 5, 0.97)
    info = muscle._grid.cache_info()
    with pytest.raises(DomainError):
        curve(radial_spec, 10, p_cap=0.5)
    assert muscle._grid.cache_info() == info  # no table for a rejected call


def test_numpy_p_and_p_cap_give_floats(radial_spec):
    # state_at, length_range and state_for_length used to pass a numpy p or
    # p_cap through to p and to the shortest length
    state = state_at(radial_spec, np.float64(0.8))
    assert all(type(v) is float for v in state), state
    assert state == state_at(radial_spec, 0.8)
    ends = length_range(radial_spec, np.float64(0.9))
    assert all(type(v) is float for v in ends), ends
    assert ends == length_range(radial_spec, 0.9)
    at_cap = state_for_length(radial_spec, ends[0], np.float64(0.9))
    assert at_cap.p == 0.9
    assert all(type(v) is float for v in at_cap), at_cap
    assert at_cap == state_for_length(radial_spec, ends[0], 0.9)


# every real type a caller may pass, and how a drawn float becomes one
REAL_TYPES = {
    "float": float, "int": lambda x: int(x), "bool": bool, "np.float64": np.float64,
    "np.float32": np.float32, "np.int64": lambda x: np.int64(int(x)), "Fraction": Fraction,
    "Decimal": Decimal, "str": repr,
}


def geometry_call(name, spec, a, b):
    """The function called name and its real arguments as floats: a places
    a p, a height or a length inside its valid range for a in [0, 1], and
    outside it otherwise; b places p_cap the same way, and for solve_beam
    and solve_p_for_height gives the beam length L, or -L for b outside
    [0, 1]."""
    n, L, h0, _ = spec
    p = P_STRAIGHT + a * (P_MAX - P_STRAIGHT)
    p_cap = P_STRAIGHT + b * (P_MAX - P_STRAIGHT)
    beam_L = L if 0.0 <= b <= 1.0 else -L
    if name == "solve_beam":
        return solve_beam, (beam_L, p)
    if name == "solve_p_for_height":
        h_min = solve_beam(L, P_MAX).h
        return solve_p_for_height, (beam_L, h_min + a * (L - h_min))
    if name == "state_at":
        return (lambda p: state_at(spec, p)), (p,)
    if name == "length_range":
        return (lambda p_cap: length_range(spec, p_cap)), (p_cap,)
    lo, hi = length_range(spec, min(max(p_cap, 0.75), P_MAX))
    length = lo + a * (hi - lo)
    return (lambda length, p_cap: state_for_length(spec, length, p_cap)), (length, p_cap)


def outcome(fn, args):
    """fn(*args)'s doubles as hex, each checked to be a float, or the type
    and message of the DomainError or OutOfRangeError it raised."""
    try:
        result = fn(*args)
    except (DomainError, OutOfRangeError) as err:
        return type(err), str(err)
    values = (result,) if type(result) is float else tuple(result)
    assert all(type(v) is float for v in values), result
    return [v.hex() for v in values]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(["solve_beam", "solve_p_for_height", "state_at", "state_for_length",
                          "length_range"]),
    spec=st.tuples(st.integers(1, 40), st.floats(0.05, 500.0), st.floats(0.0, 100.0)),
    a=st.floats(-0.2, 1.2),
    b=st.floats(-0.2, 1.2),
    kinds=st.tuples(st.sampled_from(list(REAL_TYPES)), st.sampled_from(list(REAL_TYPES))),
)
def test_geometry_numbers_are_floats(name, spec, a, b, kinds):
    # one rule for every real argument of the geometry entry points, the
    # one MuscleSpec applies to its fields: a real number of any type is
    # taken as its float, and a str or bool is a DomainError.  A Decimal
    # length target used to raise a bare TypeError, and a str p or height
    # was parsed.  Every argument's type is checked before any range: a
    # negative L with a bool p used to report L's range
    fn, args = geometry_call(name, MuscleSpec(*spec), a, b)
    given_args = [REAL_TYPES[kind](x) for kind, x in zip(kinds, args)]
    got = outcome(fn, given_args)
    if any(kind in ("str", "bool") for kind in kinds[:len(args)]):
        assert got[0] is DomainError and "must be a real number" in got[1], got
    else:
        assert got == outcome(fn, [float(x) for x in given_args])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 40),
    L=st.floats(0.5, 500.0),
    h0=st.floats(0.0, 200.0),
    p_cap=st.floats(0.75, 0.999),
    u=st.floats(0.0, 1.0),
)
def test_length_inversion_round_trip(n, L, h0, p_cap, u):
    spec = MuscleSpec(n, L, h0)
    p_lo = P_STRAIGHT + 1e-3
    p = min(p_lo + u * (p_cap - p_lo), p_cap)
    back = state_for_length(spec, state_at(spec, p).length, p_cap)
    assert abs(back.p - p) <= 1e-7

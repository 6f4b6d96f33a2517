"""Whole-muscle geometry: published parameter sets, inversion, curve shape."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wwmtc import beam
from wwmtc.beam import P_MAX, P_STRAIGHT, solve_beam
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


def test_natural_lengths_of_production_specs(radial_spec, planar_spec):
    assert natural_length(radial_spec) == 238.0
    assert natural_length(planar_spec) == 224.5
    assert natural_length(MuscleSpec(1, 10.0, 0.0)) == 10.0


def test_natural_state(radial_spec):
    st = state_at(radial_spec, P_STRAIGHT)
    assert st.width == 0.0
    assert st.length == 238.0
    assert st.contraction == 0.0
    assert st.psi0 == 0.0


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


def length_miss_bound(spec: MuscleSpec, length: float, state: MuscleState) -> float:
    """The largest miss of the returned length that rounding can explain.

    The target becomes the height h_t = (length - h0) / n, rounded twice.
    The Newton step meets h_t on the computed h, which is off by up to
    H_ULPS ULPs of L at its start, so the exact height at the returned p
    misses h_t by that much, plus |h'(p)| times half an ULP of p for p's own
    rounding.  The returned state's computed h adds up to H_ULPS ULPs of L
    again, and n * h + h0 is rounded twice.
    """
    n, L, h0, _ = spec
    p = state.p
    w, h, _, k = solve_beam(L, p)
    h_t = (length - h0) / n
    per_arch = (abs(beam._height_slope(L, p, w, k)) * math.ulp(p) / 2
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


def test_invert_kernel_budget(monkeypatch):
    # Carlson passes per inversion: the solve of the one Newton step and the
    # returned state, for every cap and at both ends of the feasible
    # interval; one more for h(p_cap) when its pass is not cached
    calls = []

    def counted(x, y, z):
        calls.append(x)
        return rf_rd(x, y, z)

    rf_rd = beam._rf_rd
    monkeypatch.setattr(beam, "_rf_rd", counted)
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
            beam._rf_at.cache_clear()  # the first target finds h(p_cap) uncached
            for i, length in enumerate(inner + ends):
                calls.clear()
                state_for_length(spec, length, p_cap)
                assert len(calls) <= 2 + (i == 0), (spec, p_cap, length, len(calls))


def test_curve_kernel_budget(monkeypatch, radial_spec, planar_spec):
    # one Carlson pass per sample but the first, the straight strip
    calls = []

    def counted(x, y, z):
        calls.append(x)
        return rf_rd(x, y, z)

    rf_rd = beam._rf_rd
    monkeypatch.setattr(beam, "_rf_rd", counted)
    for spec in (radial_spec, planar_spec):
        for num in (2, 3, 17, 100, 1001):
            for p_cap in (0.75, DEFAULT_P_CAP, P_MAX):
                calls.clear()
                curve(spec, num, p_cap)
                assert len(calls) == num - 1, (spec.kind, num, p_cap)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 40),
    L=st.one_of(st.integers(1, 300), st.floats(0.1, 300.0)),
    h0=st.floats(0.0, 200.0),
    kind=st.sampled_from(KINDS),
    num=st.sampled_from([2, 3, 17, 1001]),
    p_cap=st.sampled_from([0.75, DEFAULT_P_CAP, P_MAX]),
)
def test_curve_is_bit_identical_to_state_by_state(n, L, h0, kind, num, p_cap):
    # each sample as state_at used to build it: the sampled p, solve_beam's
    # fields and natural_length, compared bit for bit
    spec = MuscleSpec(n, L, h0, kind)
    samples = curve(spec, num, p_cap).samples
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


def test_curve_validation(radial_spec):
    with pytest.raises(DomainError):
        curve(radial_spec, 1)
    # a float count used to reach range() and raise TypeError
    for count in (3.0, np.float64(3.0), True, "5", None):
        with pytest.raises(DomainError, match="num_samples="):
            curve(radial_spec, count)
    for count in (np.int64(5), np.int32(2)):
        assert len(curve(radial_spec, count).samples) == count
    with pytest.raises(DomainError):
        curve(radial_spec, 10, p_cap=0.5)


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

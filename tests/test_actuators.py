"""Actuator models: tendon stiffening fit and winch play-operator hysteresis."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles

from conftest import DATA_DIR, GOLDEN_DIR
from synth import (
    TENDON_TRUE,
    WINCH_TRUE,
    make_tendon_data,
    make_triangle_profile,
    make_winch_data,
)
from wwmtc.actuators import (
    HysteresisParams,
    TendonFit,
    _branches,
    fit_tendon,
    fit_winch,
    simulate_winch,
    tendon_load,
)
from wwmtc.errors import (
    DomainError,
    FitConvergenceError,
    InsufficientDataError,
    InsufficientSweepError,
)


# --- tendon -------------------------------------------------------------------

def test_tendon_noiseless_exact_recovery():
    strain, load, cycle = make_tendon_data(**TENDON_TRUE)
    fit = fit_tendon(strain, load, cycle)
    assert fit.a == pytest.approx(TENDON_TRUE["a"], rel=1e-6)
    assert fit.b == pytest.approx(TENDON_TRUE["b"], rel=1e-6)
    assert fit.eps0 == TENDON_TRUE["eps0"]
    assert fit.rms_residual < 1e-9
    assert type(fit.a) is float and type(fit.b) is float


def test_tendon_bedding_in_isolated_from_first_cycle():
    strain, load, cycle = make_tendon_data(a=80.0, b=5.0, eps0=0.035)
    fit = fit_tendon(strain, load, cycle)
    # eps0 is read off the first cycle's terminal sample, not fitted
    assert fit.eps0 == 0.035
    post = cycle > 0
    assert strain[post].max() - strain[post].min() < strain.max()


def test_tendon_monte_carlo_recovery():
    passed = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        strain, load, cycle = make_tendon_data(**TENDON_TRUE, noise=0.02, rng=rng)
        fit = fit_tendon(strain, load, cycle)
        if (
            abs(fit.a - TENDON_TRUE["a"]) / TENDON_TRUE["a"] < 0.05
            and abs(fit.b - TENDON_TRUE["b"]) / TENDON_TRUE["b"] < 0.05
        ):
            passed += 1
    assert passed >= 95


def test_tendon_linear_data_degrades_gracefully():
    # straight-line data: the exponential flattens (b small) but the fit
    # still converges and reports its finite residual
    strain = np.concatenate([[0.0, 0.0], np.linspace(0.001, 0.3, 30)])
    load = np.concatenate([[0.0, 0.0], np.linspace(0.001, 0.3, 30) * 100.0])
    cycle = np.concatenate([[0, 0], np.ones(30, int)])
    fit = fit_tendon(strain, load, cycle)
    assert fit.b < 1.0
    assert fit.a * fit.b == pytest.approx(100.0, rel=0.05)  # recovered slope
    assert np.isfinite(fit.rms_residual) and fit.rms_residual > 0.0


def test_tendon_fit_deterministic():
    strain, load, cycle = make_tendon_data(**TENDON_TRUE, noise=0.02,
                                           rng=np.random.default_rng(5))
    f1 = fit_tendon(strain, load, cycle)
    f2 = fit_tendon(strain, load, cycle)
    assert (f1.a, f1.b, f1.eps0, f1.rms_residual) == (f2.a, f2.b, f2.eps0, f2.rms_residual)


def test_tendon_forward_model():
    fit = TendonFit(a=50.0, b=8.0, eps0=0.02, rms_residual=0.0)
    assert tendon_load(fit, 0.02) == 0.0
    assert tendon_load(fit, 0.0) == 0.0  # clamped below the offset
    strains = np.linspace(0.025, 0.4, 50)
    loads = [tendon_load(fit, s) for s in strains]
    diffs = np.diff(loads)
    assert np.all(diffs > 0)          # increasing
    assert np.all(np.diff(diffs) > 0)  # convex
    with pytest.raises(DomainError):
        tendon_load(fit, -0.1)
    # NaN passes a sign check and max(0.0, nan) is 0.0, so it needs its own
    for strain in (math.nan, math.inf):
        with pytest.raises(DomainError, match="strain"):
            tendon_load(fit, strain)


@pytest.mark.parametrize("seed", range(6))
def test_tendon_fit_reaches_the_optimum(seed):
    # the cost is flat to rounding within ~1e-8 of its optimum in b, so a
    # fit that stops on the cost stops short: the damped Levenberg-Marquardt
    # ends 4 639 and 2 543 ULP from it on seeds 2 and 4
    strain, load, cycle = make_tendon_data(**TENDON_TRUE, noise=0.05,
                                           rng=np.random.default_rng(seed))
    fit = fit_tendon(strain, load, cycle)
    optimum = oracles.tendon_optimum_b(strain, load, cycle, b0=fit.b)
    assert abs(fit.b - optimum) <= 4 * math.ulp(fit.b)
    # both residuals carry their own rounding: equal to a few ULP
    lm = oracles.fit_tendon_lm(strain, load, cycle)
    assert abs(fit.rms_residual - lm.rms_residual) <= 4 * math.ulp(lm.rms_residual)


@pytest.mark.filterwarnings("error")  # numpy's cast of a NaN cycle used to warn
def test_tendon_input_validation():
    with pytest.raises(InsufficientDataError):
        fit_tendon([0.1] * 5, [1.0] * 5, [0] * 5)
    bad_strain = np.full(20, 0.9)
    with pytest.raises(DomainError):
        fit_tendon(bad_strain, np.ones(20), np.r_[np.zeros(10), np.ones(10)])
    with pytest.raises(InsufficientDataError):
        # all samples in the first cycle: nothing left to fit
        fit_tendon(np.linspace(0, 0.1, 20), np.linspace(0, 5, 20), np.zeros(20, int))

    # a NaN strain or load used to stall the fit, and a cycle that is not a
    # whole int64 was cast to one: NaN, inf and 1e300 to INT64_MIN, which
    # made its sample the bedding-in cycle, and 0.5 to cycle 0
    s = np.linspace(0.0, 0.2, 40)
    series = dict(strain=s, load=10.0 * np.expm1(5.0 * s), cycle=[0.0] * 20 + [1.0] * 20)
    for name, k, value in [("strain", 25, math.nan), ("load", 25, math.nan),
                           ("cycle", 5, math.nan), ("cycle", 5, math.inf),
                           ("cycle", 5, 1e300), ("cycle", 5, 0.5)]:
        bad = dict(series, **{name: np.array(series[name], dtype=float)})
        bad[name][k] = value
        with pytest.raises(DomainError, match=f"^{name}s "):
            fit_tendon(**bad)
    fit_tendon(**series)


def test_tendon_fit_stalls_on_a_zero_jacobian():
    # every strain past bedding-in equals eps0: no step changes the model,
    # every damped system is singular, and the fit stalls at its start
    strain = np.r_[np.linspace(0.0, 0.02, 10), np.full(10, 0.02)]
    load = np.r_[np.linspace(0.0, 5.0, 10), np.linspace(1.0, 9.0, 10)]
    cycle = np.r_[np.zeros(10, int), np.ones(10, int)]
    with pytest.raises(FitConvergenceError, match="tendon fit stalled") as info:
        fit_tendon(strain, load, cycle)
    # the start a0 * expm1(0) = 0 fits nothing, so the residual is the load
    rest = load[10:]
    assert info.value.best_rms == math.sqrt(float(rest @ rest) / rest.size)
    assert info.value.best_rms == pytest.approx(5.614135598515459, rel=1e-15)


# --- winch simulate ------------------------------------------------------------

def test_zero_band_is_ideal_proportional():
    params = HysteresisParams(c=20.0, r=0.0)
    out = simulate_winch(params, [0.0, 0.5, 1.0, 0.3])
    assert np.array_equal(out, [0.0, 10.0, 20.0, 6.0])


def test_monotone_ramp_lags_by_half_band():
    params = WINCH_TRUE
    currents = np.linspace(0.0, 2.0, 41)
    out = np.asarray(simulate_winch(params, currents))
    # once past the band the output tracks c*I - r exactly
    past = currents > 2.0 * params.r / params.c
    assert np.allclose(out[past], params.c * currents[past] - params.r, atol=1e-12)


def test_triangle_loop_area_matches_closed_form():
    params = WINCH_TRUE
    amplitude = 1.0  # half the 0..2 A peak-to-peak sweep
    profile = make_triangle_profile(periods=3)
    tension = simulate_winch(params, profile)
    n_per = (profile.size - 1) // 3
    xs = profile[-n_per - 1:]
    ys = tension[-n_per - 1:]
    assert xs[0] == xs[-1] and ys[0] == ys[-1]  # closed loop at steady state
    area = 0.5 * abs(np.sum(xs[:-1] * ys[1:] - xs[1:] * ys[:-1]))
    expected = 4.0 * params.r * (params.c * amplitude - params.r) / params.c
    assert area == pytest.approx(expected, rel=1e-6)


def test_loop_area_zero_without_band():
    profile = make_triangle_profile(periods=2)
    tension = simulate_winch(HysteresisParams(c=20.0, r=0.0), profile)
    n_per = profile.size // 2
    xs, ys = profile[-n_per - 1:], tension[-n_per - 1:]
    area = 0.5 * abs(np.sum(xs[:-1] * ys[1:] - xs[1:] * ys[:-1]))
    assert area == pytest.approx(0.0, abs=1e-12)


def test_rate_independence_under_resampling():
    params = WINCH_TRUE
    profile = make_triangle_profile(n_half=21, periods=2)
    base = simulate_winch(params, profile)

    factor = 8
    dense = []
    for a, b in zip(profile[:-1], profile[1:]):
        dense.extend(np.linspace(a, b, factor + 1)[:-1])
    dense.append(profile[-1])
    resampled = simulate_winch(params, np.array(dense))
    assert np.array_equal(resampled[::factor], base)  # exact at shared points


def test_initial_state_controls_startup_rise():
    # starting at the lower band edge, tension rises with current immediately;
    # starting mid-band it first sits still (the measured startup behavior)
    params = WINCH_TRUE
    ramp = np.linspace(0.0, 1.0, 11)
    from_edge = simulate_winch(params, ramp, initial_tension=-params.r)
    from_mid = simulate_winch(params, ramp, initial_tension=0.0)
    assert from_edge[1] > from_edge[0]
    assert from_mid[1] == from_mid[0]


# --- winch fit -------------------------------------------------------------------

def test_winch_noiseless_exact_recovery():
    current, tension = make_winch_data()
    fit = fit_winch(current, tension)
    assert fit.c == pytest.approx(WINCH_TRUE.c, abs=1e-9)
    assert fit.r == pytest.approx(WINCH_TRUE.r, abs=1e-9)
    assert fit.rms_residual < 1e-9


def test_winch_monte_carlo_recovery():
    passed = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        current, tension = make_winch_data(noise=0.03, rng=rng)
        fit = fit_winch(current, tension)
        if abs(fit.c - WINCH_TRUE.c) / WINCH_TRUE.c < 0.05 and \
           abs(fit.r - WINCH_TRUE.r) / WINCH_TRUE.r < 0.05:
            passed += 1
    assert passed >= 95


def test_winch_fit_deterministic():
    rng = np.random.default_rng(9)
    current, tension = make_winch_data(noise=0.03, rng=rng)
    f1 = fit_winch(current, tension)
    f2 = fit_winch(current, tension)
    assert (f1.c, f1.r, f1.rms_residual) == (f2.c, f2.r, f2.rms_residual)


def test_winch_requires_a_reversal():
    with pytest.raises(InsufficientSweepError):
        fit_winch(np.full(20, 1.0), np.full(20, 3.0))
    with pytest.raises(InsufficientSweepError):
        fit_winch(np.linspace(0, 1, 20), np.linspace(0, 20, 20))


def test_winch_fit_needs_two_currents_per_direction():
    # every contact half holds one current (3 up, 0 down): no slope to fit
    with pytest.raises(InsufficientDataError, match="distinct currents"):
        fit_winch([0.0, 3.0, 0.0, 3.0, 0.0], [0.0, 60.0, 0.0, 60.0, 0.0])


def test_winch_simulate_validation():
    for c, r in ((-1.0, 0.0), (1.0, -0.5), (math.nan, 0.0), (math.inf, 0.0),
                 (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(DomainError):
            simulate_winch(HysteresisParams(c=c, r=r), [0.0])
    with pytest.raises(DomainError):
        simulate_winch(WINCH_TRUE, [])
    for bad in (math.nan, math.inf, -math.inf):
        # a non-finite current has no band; it must not hold the last tension
        with pytest.raises(DomainError, match="finite"):
            simulate_winch(HysteresisParams(c=1.0, r=0.0), [bad, 1.0, bad], 0.5)


def test_winch_fit_rejects_non_finite_samples():
    current, tension = make_winch_data()
    bad_current, bad_tension = current.copy(), tension.copy()
    bad_current[7], bad_tension[7] = math.nan, math.inf
    for args in ((bad_current, tension), (current, bad_tension)):
        with pytest.raises(DomainError, match="finite"):
            fit_winch(*args)



# --- winch fit against its oracles ------------------------------------------------

def ulps(got: float, want) -> float:
    """|got - want| in units in the last place of want, rounded to a double."""
    return abs(got - want) / math.ulp(float(want))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), noise=st.sampled_from((0.01, 0.03, 0.05)))
def test_winch_fit_matches_exact_and_polyfit_fits(seed, noise):
    current, tension = make_winch_data(noise=noise, rng=np.random.default_rng(seed))
    fit = fit_winch(current, tension)
    c, r = oracles.fit_winch_exact(current, tension)
    # the closed form on centred data, every sum exact, against exact rationals
    assert ulps(fit.c, c) <= 2 and ulps(fit.r, r) <= 8
    # np.polyfit's lines and a grid mean carry rounding of their own
    numpy_fit = oracles.fit_winch_polyfit(current, tension)
    assert ulps(fit.c, numpy_fit.c) <= 4 and ulps(fit.r, numpy_fit.r) <= 24
    assert fit.rms_residual == pytest.approx(numpy_fit.rms_residual, rel=1e-12)


def bench_log(edit=lambda i, tension: (i, tension)):
    """(currents, tensions) of the shipped winch log, edited per sample."""
    _, *rows = (DATA_DIR / "winch_bench.csv").read_text().splitlines()
    return tuple(map(list, zip(*(edit(*map(float, row.split(",")[1:])) for row in rows))))


RAMP = np.linspace(0.0, 2.0, 20)
TRIANGLE = make_triangle_profile()


@pytest.mark.parametrize("currents, tensions, error", [
    (np.full(20, 1.0), np.full(20, 3.0), InsufficientSweepError),
    (RAMP, 20.0 * RAMP, InsufficientSweepError),
    ([0.0, 3.0, 0.0, 3.0, 0.0], [0.0, 60.0, 0.0, 60.0, 0.0], InsufficientDataError),
    (TRIANGLE, 100.0 - 20.0 * TRIANGLE, FitConvergenceError),
    (*bench_log(lambda i, tension: (1e6 + math.ulp(1e6) * round(i / 0.025), tension)),
     DomainError),
    (*bench_log(lambda i, tension: (1e300 * i, tension / 35 * 1e308)), DomainError),
    (*bench_log(lambda i, tension: (i, tension / 35 * 1e308)), DomainError),
    (*bench_log(lambda i, tension: (i * 5e-324 / 0.025, tension)), DomainError),
    (TRIANGLE, np.append(20.0 * TRIANGLE[1:], math.nan), DomainError),
    (TRIANGLE, 20.0 * TRIANGLE[1:], DomainError),
    (np.ones((3, 2)), np.ones((3, 2)), DomainError),
], ids=["flat", "ramp", "one-current-per-direction", "falling-gain", "close-currents",
        "huge-both", "huge-tensions", "subnormal-currents", "nan", "unequal-lengths",
        "two-dimensional"])
def test_winch_fit_rejects_what_polyfit_rejects(currents, tensions, error):
    with pytest.raises(error):
        oracles.fit_winch_polyfit(currents, tensions)
    with pytest.raises(error):
        fit_winch(currents, tensions)


def test_winch_fit_golden_is_the_exact_fit():
    # winch_fit.json holds the exact least-squares gain and midpoint gap of the
    # shipped log, each rounded once; with them the replay meets every logged
    # tension, so the exact rms residual is 0
    golden = json.loads((GOLDEN_DIR / "winch_fit.json").read_text())
    current, tension = bench_log()
    c, r = oracles.fit_winch_exact(current, tension)
    assert (golden["c_N_per_A"], golden["r_N"]) == (float(c), float(r)) == (20.0, 5.0)
    replay = oracles.play_operator(golden["c_N_per_A"], golden["r_N"], current, tension[0])
    assert replay == tension and golden["rms_residual_N"] == 0.0


# --- play-operator properties --------------------------------------------------------

# signed zeros, the smallest subnormal and normal, and small integers that
# repeat, around a body of ordinary values
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 2.0, 3.0)
values = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e3, 1e3))
gains = st.one_of(st.sampled_from((1.0, 0.5, 20.0, 5e-324)), st.floats(1e-3, 1e3))
bands = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, 1.0, 5.0)), st.floats(0.0, 1e3))
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def assert_bits_equal(got, want) -> None:
    assert np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


@PROPERTY
@given(c=gains, r=bands, t0=values, currents=st.lists(values, min_size=1, max_size=70))
def test_scan_matches_recursion_and_stays_in_band(c, r, t0, currents):
    tensions = simulate_winch(HysteresisParams(c=c, r=r), currents, t0)
    assert type(tensions) is list and all(type(t) is float for t in tensions)
    out = np.asarray(tensions)
    # the recursion plus 0.0: only a zero's sign may differ, and +0.0 fixes it
    assert_bits_equal(out, np.array(oracles.play_operator(c, r, currents, t0)) + 0.0)
    # the scan of clamp compositions, which shares no loop with the shipped one
    assert_bits_equal(out, oracles.play_operator_scan(c, r, currents, t0))
    assert not np.signbit(out[out == 0.0]).any()
    # the band |T - cI| <= r as the model rounds it, from the first sample on
    ideal = c * np.array(currents)
    assert np.all(ideal - r <= out) and np.all(out <= ideal + r)


@PROPERTY
@given(c=gains, r=bands, t0=values, currents=st.lists(values, min_size=2, max_size=70),
       where=st.integers(0, 68), u=st.floats(0.0, 1.0))
def test_rate_independent_under_repeats_and_insertions(c, r, t0, currents, where, u):
    params = HysteresisParams(c=c, r=r)
    base = simulate_winch(params, currents, t0)
    j = where % (len(currents) - 1)
    a, b = currents[j], currents[j + 1]

    repeated = currents[:j + 1] + [a] + currents[j + 1:]
    assert_bits_equal(np.delete(simulate_winch(params, repeated, t0), j + 1), base)

    # a value between two neighbours: the pair is a monotone run on its own
    v = min(max(a + u * (b - a), min(a, b)), max(a, b))
    inserted = currents[:j + 1] + [v] + currents[j + 1:]
    assert_bits_equal(np.delete(simulate_winch(params, inserted, t0), j + 1), base)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from((0.0, 1.0, 2.0, 3.0)), min_size=1, max_size=40))
def test_branches_match_the_step_by_step_scan(currents):
    # few levels: flat steps, runs of one step and reversals on every sample
    assert _branches(currents) == oracles.branches(currents)

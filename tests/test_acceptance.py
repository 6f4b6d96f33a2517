"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion as it completes.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from synth import (
    TENDON_TRUE,
    WINCH_TRUE,
    make_tendon_data,
    make_triangle_profile,
    make_winch_data,
)
from conftest import DATA_DIR, GOLDEN_DIR
from oracles import (
    ellip_e_complete_quadrature,
    ellip_e_quadrature,
    ellip_f_quadrature,
    ellip_k_quadrature,
    evaluate,
    shoot_tip,
)

from wwmtc import elliptic
from wwmtc.actuators import fit_tendon, fit_winch, simulate_winch
from wwmtc.beam import P_MAX, P_STRAIGHT, solve_beam
from wwmtc.cli import dispatch
from wwmtc.design import search
from wwmtc.errors import OutOfRangeError
from wwmtc.muscle import (
    DEFAULT_P_CAP,
    MuscleSpec,
    natural_length,
    state_at,
    state_for_length,
)

from test_design import assert_complete, radial_roundtrip_constraints, random_constraints

RADIAL = MuscleSpec(8, 27.0, 22.0, "radial")
PLANAR = MuscleSpec(6, 35.0, 14.5, "planar")


def _report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE CRITERION {num}: PASS - {text}")


def test_criterion_1_elliptic_oracle_suite():
    start = time.perf_counter()
    phis = np.linspace(0.0, math.pi / 2, 50)
    ps = np.linspace(0.0, 0.995, 50)

    def rel(a, b):
        return abs(a - b) / max(1.0, abs(b))

    for p in ps:
        for phi in phis:
            assert rel(elliptic.ellip_f(phi, p),
                       ellip_f_quadrature(phi, p)) < 1e-10
            assert rel(elliptic.ellip_e(phi, p),
                       ellip_e_quadrature(phi, p)) < 1e-10
        assert rel(elliptic.ellip_k(p), ellip_k_quadrature(p)) < 1e-10
        assert rel(elliptic.ellip_e_complete(p),
                   ellip_e_complete_quadrature(p)) < 1e-10

    rng = np.random.default_rng(1)
    for p in rng.uniform(1e-6, 1.0 - 1e-6, 100):
        q = math.sqrt(1.0 - p * p)
        lhs = (
            elliptic.ellip_e_complete(p) * elliptic.ellip_k(q)
            + elliptic.ellip_e_complete(q) * elliptic.ellip_k(p)
            - elliptic.ellip_k(p) * elliptic.ellip_k(q)
        )
        assert abs(lhs - math.pi / 2) < 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"elliptic oracle suite took {elapsed:.1f}s (budget 10s)"
    _report(1, f"four kernels vs quadrature oracle on 50x50 grid + Legendre "
               f"relation ({elapsed:.1f}s)")


def test_criterion_2_elastica_oracle_suite():
    start = time.perf_counter()
    p_values = [P_STRAIGHT + (0.99 - P_STRAIGHT) * (i + 0.5) / 20 for i in range(20)]
    for L in (27.0, 35.0):
        for p in p_values:
            sol = solve_beam(L, p)
            h_ode, w_ode, _ = shoot_tip(L, sol.psi0)
            assert abs(sol.h - h_ode) / abs(h_ode) < 1e-6
            assert abs(sol.w - w_ode) / abs(w_ode) < 1e-6
        edge = solve_beam(L, P_STRAIGHT + 1e-9)
        assert abs(edge.w) <= 1e-6 * L
        assert abs(edge.h - L) <= 1e-6 * L
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"elastica oracle suite took {elapsed:.1f}s (budget 30s)"
    _report(2, f"solve_beam matches rod-equation shooting oracle at 1e-6 on "
               f"20 p x L in {{27, 35}} mm; boundary continuous ({elapsed:.1f}s)")


def test_criterion_3_published_parameter_checks():
    assert natural_length(RADIAL) == 238.0
    assert natural_length(PLANAR) == 224.5

    # Expansiveness is compared at matched contraction over the shared stroke
    # range (the comparison the geometry module's invariant states).  At equal
    # absolute length the curves cross near 207.5 mm because the radial muscle
    # is already contracted at the planar natural length of 224.5 mm; see
    # tests/test_muscle.py::test_same_absolute_length_comparison_crosses_over.
    stroke_max = min(
        state_at(RADIAL, DEFAULT_P_CAP).contraction,
        state_at(PLANAR, DEFAULT_P_CAP).contraction,
    )
    for stroke in np.linspace(stroke_max / 100.0, stroke_max, 100):
        w_r = state_for_length(RADIAL, 238.0 - stroke).width
        w_p = state_for_length(PLANAR, 224.5 - stroke).width
        assert w_p > w_r
    _report(3, "natural lengths exactly 238 / 224.5 mm; planar curve strictly "
               "above radial at 100 matched contractions")


def test_criterion_4_inversion():
    rng = np.random.default_rng(4)
    for spec in (RADIAL, PLANAR):
        for p in rng.uniform(P_STRAIGHT + 1e-6, DEFAULT_P_CAP, 50):
            st = state_at(spec, float(p))
            back = state_for_length(spec, st.length)
            assert abs(back.p - float(p)) <= 1e-7

        # reported feasible interval vs a dense scan over p
        ps = np.linspace(P_STRAIGHT, DEFAULT_P_CAP, 20001)
        lengths = [state_at(spec, float(p)).length for p in ps]
        lo_scan, hi_scan = min(lengths), max(lengths)
        with pytest.raises(OutOfRangeError) as too_long:
            state_for_length(spec, hi_scan + 1.0)
        with pytest.raises(OutOfRangeError) as too_short:
            state_for_length(spec, lo_scan - 1.0)
        for err in (too_long.value, too_short.value):
            assert err.lo == pytest.approx(lo_scan, abs=1e-9)
            assert err.hi == pytest.approx(hi_scan, abs=1e-9)
    _report(4, "length inversion round-trips p to 1e-7 (50 random p per spec); "
               "out-of-range errors report the dense-scan feasible interval")


def test_criterion_5_design_search():
    results = search(radial_roundtrip_constraints(), DEFAULT_P_CAP)
    match = [r for r in results if r.spec.n == 8]
    assert match and abs(match[0].spec.L - 27.0) <= 0.1

    rng = np.random.default_rng(2024)
    for _ in range(25):
        cons = random_constraints(rng)
        res = search(cons, DEFAULT_P_CAP)
        for r in res:
            assert min(evaluate(cons, r.spec.n, r.spec.L, DEFAULT_P_CAP)) >= -1e-6
        assert_complete(cons, res)
    _report(5, "25 randomized constraint sets: all results re-validate, dense "
               "scans find no missed design with margin >= 0; radial "
               "round-trip returns (n=8, L=27+-0.1)")


def test_criterion_6_hysteresis_properties():
    # rate independence: exact equality at shared points after 8x resampling
    profile = make_triangle_profile(n_half=21, periods=2)
    base = simulate_winch(WINCH_TRUE, profile)
    dense = []
    for a, b in zip(profile[:-1], profile[1:]):
        dense.extend(np.linspace(a, b, 9)[:-1])
    dense.append(profile[-1])
    resampled = simulate_winch(WINCH_TRUE, np.array(dense))
    assert np.array_equal(resampled[::8], base)

    # triangle loop area vs closed form
    profile = make_triangle_profile(periods=3)
    tension = simulate_winch(WINCH_TRUE, profile)
    n_per = (profile.size - 1) // 3
    xs, ys = profile[-n_per - 1:], tension[-n_per - 1:]
    area = 0.5 * abs(np.sum(xs[:-1] * ys[1:] - xs[1:] * ys[:-1]))
    expected = 4.0 * WINCH_TRUE.r * (WINCH_TRUE.c * 1.0 - WINCH_TRUE.r) / WINCH_TRUE.c
    assert area == pytest.approx(expected, rel=1e-6)

    current, tension = make_winch_data()
    fit = fit_winch(current, tension)
    assert fit.c == pytest.approx(WINCH_TRUE.c, abs=1e-9)
    assert fit.r == pytest.approx(WINCH_TRUE.r, abs=1e-9)

    passed = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        current, tension = make_winch_data(noise=0.03, rng=rng)
        f = fit_winch(current, tension)
        if abs(f.c - WINCH_TRUE.c) / WINCH_TRUE.c < 0.05 and \
           abs(f.r - WINCH_TRUE.r) / WINCH_TRUE.r < 0.05:
            passed += 1
    assert passed >= 95
    _report(6, f"play operator rate-independent, loop area matches closed form, "
               f"fit exact noiseless and {passed}/100 within 5% at 3% noise")


def test_criterion_7_tendon_fit():
    strain, load, cycle = make_tendon_data(**TENDON_TRUE)
    fit = fit_tendon(strain, load, cycle)
    assert fit.a == pytest.approx(TENDON_TRUE["a"], rel=1e-6)
    assert fit.b == pytest.approx(TENDON_TRUE["b"], rel=1e-6)
    assert fit.eps0 == TENDON_TRUE["eps0"]  # bedding-in isolated exactly

    passed = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        strain, load, cycle = make_tendon_data(**TENDON_TRUE, noise=0.02, rng=rng)
        f = fit_tendon(strain, load, cycle)
        if abs(f.a - TENDON_TRUE["a"]) / TENDON_TRUE["a"] < 0.05 and \
           abs(f.b - TENDON_TRUE["b"]) / TENDON_TRUE["b"] < 0.05:
            passed += 1
    assert passed >= 95
    _report(7, f"tendon fit exact on noiseless data, {passed}/100 within 5% at "
               f"2% noise, first-cycle bedding-in isolated into eps0")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    def invocations(out_dir: Path):
        d = str(DATA_DIR)
        return [
            ("elliptic_eval_K0.txt", ["elliptic", "eval", "--kind", "K", "--p", "0"], None),
            ("beam_solve.txt", ["beam", "solve", "--L", "27", "--p", "0.85"], None),
            ("muscle_curve_radial.csv",
             ["muscle", "curve", "--spec", f"{d}/radial.json", "--samples", "100",
              "--out", str(out_dir / "curve.csv")], out_dir / "curve.csv"),
            ("muscle_curves.svg",
             ["muscle", "curve", "--spec", f"{d}/radial.json", "--spec",
              f"{d}/planar.json", "--samples", "60", "--svg", str(out_dir / "fig.svg")],
             out_dir / "fig.svg"),
            ("muscle_invert_natural.txt",
             ["muscle", "invert", "--spec", f"{d}/radial.json", "--length", "238"], None),
            ("design_search.json",
             ["design", "search", "--constraints", f"{d}/constraints.json",
              "--out", str(out_dir / "res.json")], out_dir / "res.json"),
            ("tendon_fit.json", ["tendon", "fit", "--data", f"{d}/tendon_bench.csv"], None),
            ("winch_fit.json", ["winch", "fit", "--data", f"{d}/winch_bench.csv"], None),
            ("winch_simulate.csv",
             ["winch", "simulate", "--params", f"{d}/winch_params.json",
              "--profile", f"{d}/triangle_profile.csv",
              "--out", str(out_dir / "sim.csv")], out_dir / "sim.csv"),
        ]

    outputs: list[dict[str, bytes]] = []
    for tag in ("a", "b"):
        run_dir = tmp_path / tag
        run_dir.mkdir()
        produced = {}
        for golden_name, args, out_file in invocations(run_dir):
            code = dispatch(args)
            captured = capsys.readouterr()
            assert code == 0, f"{args} failed: {captured.err}"
            produced[golden_name] = (
                out_file.read_bytes() if out_file else captured.out.encode()
            )
        outputs.append(produced)

    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"
        golden = GOLDEN_DIR / name
        assert outputs[0][name] == golden.read_bytes(), f"{name} differs from golden"
    _report(8, "every subcommand byte-identical across runs and equal to its "
               "golden file")

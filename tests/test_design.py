"""Design search: round trip, soundness, exact completeness, properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA_DIR
from oracles import evaluate

from wwmtc import beam, design
from wwmtc.beam import P_STRAIGHT, solve_beam
from wwmtc.design import (DesignConstraints, _margins, _search_and_report,
                          infeasibility_report, search)
from wwmtc.elliptic import _rf_rd
from wwmtc.errors import DomainError
from wwmtc.fileio import read_design_constraints
from wwmtc.muscle import DEFAULT_P_CAP, MuscleSpec, natural_length, state_at

PCAP = DEFAULT_P_CAP


def radial_roundtrip_constraints() -> DesignConstraints:
    spec = MuscleSpec(8, 27.0, 22.0)
    st = state_at(spec, PCAP)
    return DesignConstraints(
        natural_length_range=(237.2, 238.8),
        min_stroke=st.contraction * (1.0 - 1e-9),
        max_width_at_full=st.width * (1.0 + 1e-9),
        h0=22.0,
        n_range=(1, 12),
        L_range=(10.0, 50.0),
    )


def random_constraints(rng: np.random.Generator) -> DesignConstraints:
    h0 = float(rng.uniform(0.0, 30.0))
    nat_lo = float(rng.uniform(50.0, 250.0))
    nat_hi = nat_lo + float(rng.uniform(1.0, 120.0))
    return DesignConstraints(
        natural_length_range=(nat_lo, nat_hi),
        min_stroke=float(rng.uniform(0.0, 60.0)),
        max_width_at_full=float(rng.uniform(2.0, 40.0)),
        min_width_at_full=float(rng.uniform(0.0, 1.5)),
        h0=h0,
        n_range=(1, int(rng.integers(2, 13))),
        L_range=(float(rng.uniform(3.0, 12.0)), float(rng.uniform(30.0, 70.0))),
    )


def dense_margin(cons: DesignConstraints, n: int, Ls: np.ndarray) -> np.ndarray:
    """Smallest constraint margin at each L, in the search's own float operations."""
    sol = solve_beam(1.0, PCAP)
    nat = n * Ls + cons.h0
    stroke = n * Ls * (1.0 - sol.h)
    width = Ls * sol.w
    return np.minimum.reduce([
        nat - cons.natural_length_range[0],
        cons.natural_length_range[1] - nat,
        stroke - cons.min_stroke,
        cons.max_width_at_full - width,
        width - cons.min_width_at_full,
    ])


def assert_complete(cons: DesignConstraints, results, num: int = 4001) -> None:
    """Every dense-scan L with margin >= 0 lies in a returned interval."""
    dense = np.linspace(cons.L_range[0], cons.L_range[1], num)
    for n in range(cons.n_range[0], cons.n_range[1] + 1):
        intervals = [r.L_interval for r in results if r.spec.n == n]
        for L in dense[dense_margin(cons, n, dense) >= 0.0]:
            assert any(lo - 1e-9 <= L <= hi + 1e-9 for lo, hi in intervals), (
                f"missed feasible L={L} for n={n}"
            )


def test_radial_round_trip():
    results = search(radial_roundtrip_constraints(), PCAP)
    match = [r for r in results if r.spec.n == 8]
    assert match, "search must recover the production radial design"
    assert match[0].spec.L == pytest.approx(27.0, abs=0.1)


def test_results_sorted_by_width():
    results = search(radial_roundtrip_constraints(), PCAP)
    widths = [r.achieved.width_at_full for r in results]
    assert widths == sorted(widths)


def assert_achieved_recompute_exactly(results) -> None:
    """Every result's achieved values are its spec's, to the bit."""
    for res in results:
        st = state_at(res.spec, PCAP)
        assert res.achieved == (natural_length(res.spec), st.contraction, st.width), res


def test_achieved_values_recompute_exactly():
    results = search(radial_roundtrip_constraints(), PCAP)
    assert results
    assert_achieved_recompute_exactly(results)


@pytest.mark.parametrize("n_range", [(1, 12), (1, 400)], ids=["fixture", "wide"])
def test_one_carlson_pass_per_search(monkeypatch, n_range):
    cons = radial_roundtrip_constraints()._replace(n_range=n_range)
    calls = []

    def counting_rf_rd(*args):
        calls.append(args)
        return _rf_rd(*args)

    monkeypatch.setattr(beam, "_rf_rd", counting_rf_rd)
    for fn in (search, infeasibility_report, _search_and_report):
        calls.clear()
        fn(cons, PCAP)
        assert len(calls) == 1, (fn.__name__, len(calls))


def test_search_computes_no_binding_constraint(monkeypatch):
    cons = radial_roundtrip_constraints()._replace(n_range=(1, 40))
    results = search(cons, PCAP)
    assert infeasibility_report(cons, PCAP), "the test needs infeasible arch counts"

    def no_binding(*args):
        raise AssertionError("search computed a binding constraint")

    monkeypatch.setattr(design, "_binding", no_binding)
    assert search(cons, PCAP) == results


def test_stroke_with_zero_width_budget_is_infeasible():
    cons = DesignConstraints(
        natural_length_range=(0.0, 1e9),
        min_stroke=1.0,
        max_width_at_full=0.0,
        h0=5.0,
        n_range=(1, 5),
        L_range=(5.0, 50.0),
    )
    assert search(cons, PCAP) == []
    report = infeasibility_report(cons, PCAP)
    assert set(report) == {1, 2, 3, 4, 5}
    assert all(v == "max_width_at_full" for v in report.values())


def test_single_n_boundary_matches_dense_scan():
    cons = DesignConstraints(
        natural_length_range=(0.0, 1e9),
        min_stroke=5.0,
        max_width_at_full=1e9,
        h0=10.0,
        n_range=(1, 1),
        L_range=(5.0, 60.0),
    )
    results = search(cons, PCAP)
    assert len(results) == 1
    lo, hi = results[0].L_interval
    assert hi == 60.0

    sol = solve_beam(1.0, PCAP)
    Ls = np.arange(5.0, 60.0, 1e-4)
    feasible = Ls * (1.0 - sol.h) >= 5.0
    scan_boundary = Ls[feasible].min()
    assert lo == pytest.approx(scan_boundary, abs=1e-4)


def test_soundness_and_completeness_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        cons = random_constraints(rng)
        results = search(cons, PCAP)

        # soundness: every returned spec re-validates through the forward model
        for res in results:
            margins = evaluate(cons, res.spec.n, res.spec.L, PCAP)
            assert min(margins) >= -1e-6
            mid_margins = evaluate(
                cons, res.spec.n, 0.5 * (res.L_interval[0] + res.L_interval[1]), PCAP
            )
            assert min(mid_margins) >= -1e-6

        # completeness: every dense-scan point with margin >= 0 is covered
        assert_complete(cons, results)


def test_fixture_window_between_old_grid_points():
    # n = 11 is feasible only for L in about [19.636, 19.709], between the
    # 200-step grid points 19.6 and 19.8 that the search used to scan
    cons = read_design_constraints(DATA_DIR / "constraints.json")
    match = [r for r in search(cons, PCAP) if r.spec.n == 11]
    assert len(match) == 1
    res = match[0]
    lo, hi = res.L_interval
    assert 19.6 < lo < 19.68 < hi < 19.8
    for L in (res.spec.L, lo, hi):
        assert min(evaluate(cons, 11, L, PCAP)) >= -1e-6
    assert 11 not in infeasibility_report(cons, PCAP)


@pytest.mark.parametrize("h0", [1e7, 1e12])
def test_interval_ends_exact_when_offset_dwarfs_arches(h0):
    # n·L + h0 rounds to one value over about h0 / (n·L) doubles of L, so
    # the closed-form ends can sit far from the outermost passing doubles
    cons = DesignConstraints(
        natural_length_range=(h0 + 5.3, h0 + 7.1),
        min_stroke=0.0,
        max_width_at_full=100.0,
        h0=h0,
        n_range=(1, 3),
        L_range=(0.5, 10.0),
    )
    sol = solve_beam(1.0, PCAP)
    results = search(cons, PCAP)
    assert sorted(r.spec.n for r in results) == [1, 2, 3]
    assert infeasibility_report(cons, PCAP) == {}
    for res in results:
        n = res.spec.n

        def passes(L):
            return min(_margins(cons, n, L, sol.h, sol.w)) >= 0.0

        lo, hi = res.L_interval
        assert passes(lo) and passes(hi)
        assert not passes(np.nextafter(lo, 0.0))
        assert not passes(np.nextafter(hi, np.inf))


def test_interval_ends_snapped_on_random_constraints():
    # every interval end passes _margins and its outward neighbour fails,
    # unless the end is the end of L_range; results and report split n_range
    rng = np.random.default_rng(1717)
    sol = solve_beam(1.0, PCAP)
    inner_ends = 0
    for _ in range(250):
        cons = random_constraints(rng)
        results = search(cons, PCAP)
        report = infeasibility_report(cons, PCAP)
        found = [res.spec.n for res in results]
        assert sorted(found + list(report)) == list(range(cons.n_range[0], cons.n_range[1] + 1))
        L_min, L_max = cons.L_range
        for res in results:
            n = res.spec.n

            def passes(L):
                return min(_margins(cons, n, L, sol.h, sol.w)) >= 0.0

            lo, hi = res.L_interval
            assert passes(lo) and passes(hi), (cons, n)
            assert lo == L_min or not passes(np.nextafter(lo, 0.0)), (cons, n)
            assert hi == L_max or not passes(np.nextafter(hi, np.inf)), (cons, n)
            inner_ends += (lo != L_min) + (hi != L_max)
    assert inner_ends >= 200, inner_ends


def test_search_deterministic():
    cons = radial_roundtrip_constraints()
    assert search(cons, PCAP) == search(cons, PCAP)


def test_empty_result_is_not_an_error():
    cons = DesignConstraints(
        natural_length_range=(1.0, 2.0),
        min_stroke=50.0,
        max_width_at_full=1.0,
        h0=20.0,
        n_range=(1, 3),
        L_range=(5.0, 10.0),
    )
    assert search(cons, PCAP) == []
    assert set(infeasibility_report(cons, PCAP)) == {1, 2, 3}


def test_constraint_validation():
    with pytest.raises(DomainError):
        DesignConstraints(
            natural_length_range=(5.0, 1.0),
            min_stroke=0.0,
            max_width_at_full=1.0,
            h0=0.0,
            n_range=(1, 2),
            L_range=(1.0, 2.0),
        )
    with pytest.raises(DomainError):
        DesignConstraints(
            natural_length_range=(1.0, 5.0),
            min_stroke=-1.0,
            max_width_at_full=1.0,
            h0=0.0,
            n_range=(1, 2),
            L_range=(1.0, 2.0),
        )
    with pytest.raises(DomainError):
        DesignConstraints(
            natural_length_range=(1.0, 5.0),
            min_stroke=0.0,
            max_width_at_full=1.0,
            h0=0.0,
            n_range=(0, 2),
            L_range=(1.0, 2.0),
        )


# --- properties over random constraint sets --------------------------------------

@st.composite
def constraint_sets(draw) -> DesignConstraints:
    nat_lo = draw(st.floats(20.0, 300.0))
    L_lo = draw(st.floats(2.0, 40.0))
    n_lo = draw(st.integers(1, 12))
    return DesignConstraints(
        natural_length_range=(nat_lo, nat_lo + draw(st.floats(0.0, 150.0))),
        min_stroke=draw(st.floats(0.0, 80.0)),
        max_width_at_full=draw(st.floats(0.0, 40.0)),
        min_width_at_full=draw(st.floats(0.0, 5.0)),
        h0=draw(st.floats(0.0, 30.0)),
        n_range=(n_lo, n_lo + draw(st.integers(0, 8))),
        L_range=(L_lo, L_lo + draw(st.floats(0.0, 60.0))),
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(constraint_sets())
def test_search_and_report_properties(cons):
    results = search(cons, PCAP)
    report = infeasibility_report(cons, PCAP)
    # design search's single scan gives both
    assert _search_and_report(cons, PCAP) == (results, report)

    # results and report split n_range with no overlap
    found = [r.spec.n for r in results]
    assert len(found) == len(set(found))
    assert not set(found) & set(report)
    assert set(found) | set(report) == set(range(cons.n_range[0], cons.n_range[1] + 1))

    assert_achieved_recompute_exactly(results)

    # every spec and both interval ends re-validate through the forward model
    for res in results:
        for L in (res.spec.L, *res.L_interval):
            assert min(evaluate(cons, res.spec.n, L, PCAP)) >= -1e-6

    # a reported arch count has no dense-scan point with margin >= 0
    dense = np.linspace(cons.L_range[0], cons.L_range[1], 2001)
    for n in report:
        assert not (dense_margin(cons, n, dense) >= 0.0).any(), n


VALID_FIELDS = dict(natural_length_range=(237.2, 238.8), min_stroke=65.8,
                    max_width_at_full=17.5, h0=22.0, n_range=(1, 12), L_range=(10.0, 50.0))


@pytest.mark.parametrize("field, value", [
    ("h0", float("nan")),
    ("min_stroke", float("nan")),
    ("max_width_at_full", float("inf")),
    ("min_width_at_full", float("nan")),
    ("L_range", (10.0, float("nan"))),
    ("L_range", (float("nan"), 50.0)),
    ("natural_length_range", (237.2, float("inf"))),
])
def test_constraint_validation_rejects_non_finite(field, value):
    # NaN used to pass every "< 0" check: h0 = nan was accepted and blamed
    # on natural_length_min for every n
    with pytest.raises(DomainError, match=field):
        DesignConstraints(**{**VALID_FIELDS, field: value})


def test_constraint_validation_rejects_nan_stroke_and_range():
    # search used to raise a bare ValueError from max() on these
    with pytest.raises(DomainError):
        DesignConstraints(**{**VALID_FIELDS, "min_stroke": float("nan"),
                             "L_range": (10.0, float("nan"))})


@pytest.mark.parametrize("p_cap", [0.6, P_STRAIGHT, 0.70710678118650, 1.0, float("nan")])
def test_search_and_report_reject_bad_p_cap(p_cap):
    # the rule of muscle.curve and state_for_length: p_cap = P_STRAIGHT, or a
    # value below it that solve_beam's boundary tolerance lets through, is no cap
    cons = radial_roundtrip_constraints()
    for fn in (search, infeasibility_report, _search_and_report):
        with pytest.raises(DomainError, match="p_cap="):
            fn(cons, p_cap)

"""Design search: round trip, soundness, exact completeness, properties."""

import contextlib
import io
import json
import math
import tempfile
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import DATA_DIR
from oracles import binding_maximin, evaluate, oracle_report, oracle_search

from wwmtc import beam, design
from wwmtc.beam import P_STRAIGHT, solve_beam
from wwmtc.cli import dispatch
from wwmtc.design import (DesignConstraints, _limits, _slack, infeasibility_report,
                          search)
from wwmtc.errors import DomainError
from wwmtc.fileio import (design_results_to_csv, design_results_to_json,
                          read_design_constraints)
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
def test_one_table_evaluation_per_search(shape_evaluations, n_range):
    # beam keeps the forward-table value at each cap: the report after a
    # search evaluates none
    cons = radial_roundtrip_constraints()._replace(n_range=n_range)
    calls = shape_evaluations

    def passes(fn, p_cap):
        calls.clear()
        fn(cons, p_cap)
        return len(calls)

    assert passes(search, PCAP) == 1
    assert passes(infeasibility_report, PCAP) == 0
    assert passes(search, np.float64(PCAP)) == 0  # the key is the cap's value
    assert passes(search, 0.9) == 1
    assert passes(infeasibility_report, 0.9) == 0
    beam._shape_at.cache_clear()
    assert passes(infeasibility_report, PCAP) == 1


def test_search_computes_no_binding_constraint(monkeypatch):
    cons = radial_roundtrip_constraints()._replace(n_range=(1, 40))
    results = search(cons, PCAP)
    assert infeasibility_report(cons, PCAP), "the test needs infeasible arch counts"

    def no_binding(*args):
        raise AssertionError("search computed a binding constraint")

    monkeypatch.setattr(design, "_bindings", no_binding)
    assert search(cons, PCAP) == results


@pytest.mark.parametrize("n_range", [(1, 40), (1, 400)])
def test_report_reads_each_binding_constraint_once(monkeypatch, n_range):
    # one _slack for the intercepts, shared by every count, and one for the
    # name of each reported count: no margins of a candidate are built
    # twice, nor those of a candidate that cannot win
    cons = radial_roundtrip_constraints()._replace(n_range=n_range)
    expected = oracle_report(cons, PCAP)
    slack, calls = design._slack, []

    def counting_slack(*args):
        calls.append(args)
        return slack(*args)

    monkeypatch.setattr(design, "_slack", counting_slack)
    report = infeasibility_report(cons, PCAP)
    assert report == expected
    assert len(report) > n_range[1] / 2, len(report)
    assert len(calls) <= 1 + len(report), (len(calls), len(report))


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
            at_mid = evaluate(
                cons, res.spec.n, 0.5 * (res.L_interval[0] + res.L_interval[1]), PCAP
            )
            assert min(at_mid) >= -1e-6

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
            return min(_slack(_limits(cons), n, L, sol.h, sol.w)) >= 0.0

        lo, hi = res.L_interval
        assert passes(lo) and passes(hi)
        assert not passes(np.nextafter(lo, 0.0))
        assert not passes(np.nextafter(hi, np.inf))


def count_snaps(monkeypatch) -> list[float]:
    """The ends that design._snap is called with from now on."""
    snap, ends = design._snap, []

    def counting_snap(passes, end, outward, inward):
        ends.append(end)
        return snap(passes, end, outward, inward)

    monkeypatch.setattr(design, "_snap", counting_snap)
    return ends


def test_interval_ends_snapped_on_random_constraints(monkeypatch):
    # every interval end passes the margin check and its outward neighbour fails,
    # unless the end is the end of L_range; results and report split n_range.
    # Every end lies within two doubles of its closed form and is settled in
    # _intervals' loop, without _snap
    rng = np.random.default_rng(1717)
    snapped = count_snaps(monkeypatch)
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
                return min(_slack(_limits(cons), n, L, sol.h, sol.w)) >= 0.0

            lo, hi = res.L_interval
            assert passes(lo) and passes(hi), (cons, n)
            assert lo == L_min or not passes(np.nextafter(lo, 0.0)), (cons, n)
            assert hi == L_max or not passes(np.nextafter(hi, np.inf)), (cons, n)
            inner_ends += (lo != L_min) + (hi != L_max)
    assert inner_ends >= 200, inner_ends
    assert snapped == []


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


P_CAPS = [PCAP, 0.75, 0.9, 0.999]


def assert_matches_the_scan(cons: DesignConstraints, p_cap: float) -> None:
    """search and infeasibility_report equal the one-_interval-per-count scan,
    and _bindings names every count, feasible ones too, as the maximin does."""
    assert search(cons, p_cap) == oracle_search(cons, p_cap)
    report = infeasibility_report(cons, p_cap)
    assert report == oracle_report(cons, p_cap)
    assert list(report) == sorted(report)
    h_unit, w_unit = design._units(p_cap)
    assert_bindings_are_the_maximin(cons, h_unit, w_unit)


def assert_bindings_are_the_maximin(cons: DesignConstraints, h_unit: float,
                                    w_unit: float) -> None:
    limits, L_range = _limits(cons), cons.L_range
    counts = range(cons.n_range[0], cons.n_range[1] + 1)
    assert design._bindings(limits, L_range, counts, h_unit, w_unit) == {
        n: binding_maximin(limits, L_range, n, h_unit, w_unit) for n in counts}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(constraint_sets(), st.sampled_from(P_CAPS))
def test_closed_form_matches_the_scan(cons, p_cap):
    assert_matches_the_scan(cons, p_cap)


def at_an_edge(case: str) -> DesignConstraints:
    """A constraint set at an edge of the closed form in n."""
    fixture = radial_roundtrip_constraints()  # β/A = 21.68
    if case == "one-point-L-range":
        return fixture._replace(L_range=(27.0, 27.0))
    if case == "one-point-natural-length":  # α = β = 216: only n·L = 216 can pass
        return fixture._replace(natural_length_range=(238.0, 238.0), min_stroke=0.0,
                                max_width_at_full=40.0, n_range=(1, 30))
    if case == "alpha-negative":  # nat_lo < h0 and no stroke asked
        return fixture._replace(natural_length_range=(10.0, 238.8), min_stroke=0.0)
    if case == "beta-negative":  # nat_hi < h0
        return fixture._replace(natural_length_range=(5.0, 20.0), min_stroke=0.0)
    if case == "n-range-above-beta-over-A":
        return fixture._replace(n_range=(22, 40))
    if case == "n-range-at-2**53":  # where n itself rounds to a double
        return fixture._replace(n_range=(2**53 - 3, 2**53 + 3))
    if case == "h0=1e15":  # n·L + h0 rounds to multiples of 0.125; L_min is β/27 rounded
        h0 = 1e15
        return DesignConstraints(
            natural_length_range=(h0 + 37.4, h0 + 74.9), min_stroke=0.0,
            max_width_at_full=45.0, h0=h0, n_range=(20, 32),
            L_range=((h0 + 74.9 - h0) / 27, 71.0))
    if case == "h0=1e7":  # at p_cap 0.999, α/B is 28 + 4e-15
        return DesignConstraints(
            natural_length_range=(1e7, 10000181.835874453), min_stroke=30.392192192011017,
            max_width_at_full=7.406856365744918, min_width_at_full=0.7238385064720809,
            h0=1e7, n_range=(27, 36), L_range=(0.5277054202041196, 1.7812492137891427))
    if case == "integer-h0":  # at p_cap 0.97, α/B is 13 + 2e-15
        return DesignConstraints(
            natural_length_range=(26.0, 191.28115837752424), min_stroke=49.11116179573969,
            max_width_at_full=41.87593890005098, min_width_at_full=0.34176405218937056,
            h0=26, n_range=(8, 13), L_range=(3.1112766138612495, 12.390702124380107))
    raise ValueError(case)


@pytest.mark.parametrize("p_cap", P_CAPS)
@pytest.mark.parametrize("case", [
    "one-point-L-range", "one-point-natural-length", "alpha-negative", "beta-negative",
    "h0=1e7", "h0=1e15", "integer-h0", "n-range-above-beta-over-A", "n-range-at-2**53"])
def test_closed_form_matches_the_scan_at_its_edges(case, p_cap):
    assert_matches_the_scan(at_an_edge(case), p_cap)


@pytest.mark.parametrize("p_cap", [np.nextafter(P_STRAIGHT, 1.0), P_STRAIGHT + 1e-12])
def test_closed_form_matches_the_scan_next_to_the_straight_end(p_cap):
    # ĥ rounds to 1, and ŵ to 0 or to ~2e-12: every count is undecided.  In
    # the last set L = 1 passes, and above L ~ 1.6e7, where n·L overflows,
    # the stroke n·L·0 is NaN at ĥ = 1
    fixture = radial_roundtrip_constraints()
    for cons in (fixture, fixture._replace(min_stroke=0.0),
                 fixture._replace(min_stroke=0.0, max_width_at_full=1e-13, n_range=(1, 30)),
                 DesignConstraints(natural_length_range=(0.0, 1.7e308), min_stroke=0.0,
                                   max_width_at_full=1e300, h0=0.0,
                                   n_range=(2**1000, 2**1000), L_range=(1.0, 1.7e308))):
        assert_matches_the_scan(cons, float(p_cap))


@st.composite
def touching_sets(draw) -> tuple[DesignConstraints, int, float, float]:
    """(constraints, n, L, p_cap) where some margins of n at L read exactly 0.0
    as _slack computes them and none is negative: the tight designs, width at
    the ceiling or stroke at the floor, where the rounded closed-form ends of
    the L-interval may cross although L passes."""
    p_cap = draw(st.one_of(st.sampled_from([*P_CAPS, math.nextafter(P_STRAIGHT, 1.0)]),
                           st.floats(math.nextafter(P_STRAIGHT, 1.0), beam.P_MAX)))
    h_unit, w_unit = design._units(p_cap)
    n = draw(st.integers(1, 1000))
    L = draw(st.floats(0.01, 100.0))
    h0 = draw(st.sampled_from([0.0, 22.0, 1e6]) | st.floats(0.0, 50.0))
    nat, stroke, width = n * L + h0, n * L * (1.0 - h_unit), L * w_unit  # _slack's doubles
    touch = draw(st.lists(st.booleans(), min_size=5, max_size=5))
    gaps = draw(st.lists(st.floats(0.0, 10.0), min_size=5, max_size=5))
    cons = DesignConstraints(
        natural_length_range=(nat if touch[0] else max(0.0, nat - gaps[0]),
                              nat if touch[1] else nat + gaps[1]),
        min_stroke=stroke if touch[2] else max(0.0, stroke - gaps[2]),
        max_width_at_full=width if touch[3] else width + gaps[3],
        min_width_at_full=width if touch[4] else max(0.0, width - gaps[4]),
        h0=h0, n_range=(max(1, n - draw(st.integers(0, 3))), n + draw(st.integers(0, 3))),
        L_range=(draw(st.sampled_from([L, L / 2, 1e-3])), draw(st.sampled_from([L, 2 * L]))))
    return cons, n, L, p_cap


def all_touching(n: int, L: float, p_cap: float) -> tuple[DesignConstraints, int, float, float]:
    """A touching set with every margin of n at L at 0.0, n alone in n_range
    and L alone in L_range, as touching_sets draws it."""
    h_unit, w_unit = design._units(p_cap)
    nat, stroke, width = n * L, n * L * (1.0 - h_unit), L * w_unit
    return DesignConstraints(natural_length_range=(nat, nat), min_stroke=stroke,
                             max_width_at_full=width, min_width_at_full=width, h0=0.0,
                             n_range=(n, n), L_range=(L, L)), n, L, p_cap


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(touching_sets())
# the width bounds on L meet within rounding: _counts' tol_L must leave n
# undecided, and at tol_L = 0.0 it drops n
@example(all_touching(1, 15.0, PCAP))
def test_touching_sets_are_feasible(case):
    # an arch count is feasible iff some double of L_range passes every
    # margin: no closed-form shortcut may drop it where the margins touch 0
    cons, n, L, p_cap = case
    h_unit, w_unit = design._units(p_cap)
    assert min(_slack(_limits(cons), n, L, h_unit, w_unit)) >= 0.0
    results = search(cons, p_cap)
    assert [res.L_interval[0] <= L <= res.L_interval[1]
            for res in results if res.spec.n == n] == [True], cons
    assert results == oracle_search(cons, p_cap)
    assert infeasibility_report(cons, p_cap) == oracle_report(cons, p_cap)


def at_a_tie(case: str, p_cap: float) -> DesignConstraints:
    """A constraint set where maximin candidates coincide or margins tie."""
    fixture = radial_roundtrip_constraints()._replace(n_range=(1, 40))
    h_unit, w_unit = design._units(p_cap)
    if case == "one-point-L-range":  # every candidate is L = 27
        return fixture._replace(L_range=(27.0, 27.0))
    if case == "crossings-at-both-ends":
        # the width margins cross at L_min (where ŵ is 0 or all but 0, so
        # that they cross past L_max, the natural length min and the stroke
        # of n = 5), the natural-length ones of n = 2 at L_max, each
        # computed as _bindings and the maximin compute it
        a = _slack(_limits(fixture), 1, 0.0, h_unit, w_unit)
        L_max = (a[1] - a[0]) / (2.0 - -2.0)
        L_min = (a[4] - a[3]) / (-w_unit - w_unit) if w_unit > 0.0 else math.inf
        if not L_min < L_max:
            L_min = (a[2] - a[0]) / (5.0 - 5.0 * (1.0 - h_unit))
        assert L_min < L_max
        return fixture._replace(L_range=(L_min, L_max))
    if case == "three-margins-through-one-point":
        # natural length min, stroke and width max all read -d at n = 5, L = 20
        d = min(1.0, 10.0 * w_unit)
        return fixture._replace(
            natural_length_range=(5 * 20.0 + 22.0 + d, 5 * 20.0 + 22.0 + 60.0),
            min_stroke=5 * 20.0 * (1.0 - h_unit) + d, max_width_at_full=20.0 * w_unit - d,
            min_width_at_full=0.0, L_range=(5.0, 60.0), n_range=(1, 12))
    if case in ("flat-width-margin", "flat-stroke-margin"):
        # at ŵ = 0 the min-width margin is flat, at ĥ = 1 the stroke: -1 at
        # every L.  For n = 1, L_min = 9 reads -1 at the natural length min
        # too, which names it; L_max reads -1 at the flat margin alone and
        # ties, so it must not win
        flat_width = case == "flat-width-margin"
        return DesignConstraints(natural_length_range=(10.0, 100.0),
                                 min_stroke=0.0 if flat_width else 1.0, max_width_at_full=5.0,
                                 min_width_at_full=1.0 if flat_width else 0.0, h0=0.0,
                                 n_range=(1, 12), L_range=(9.0, 20.0))
    if case == "rounding-plateau":
        # where h0 = 2**52, n·L + h0 rounds to whole numbers.  For n = 1 the
        # stroke reads -1 at L_min, the natural length max -1 at L_max and
        # at the crossing of the two, where the stroke is larger: a tie
        # that names min_stroke, since L_min comes first
        u = 1.0 - h_unit
        K = math.floor(2.5 / u) if u > 0.0 else 8  # L_min·u in [2, 3): the +1 is exact
        return DesignConstraints(
            natural_length_range=(2.0**52 + K, 2.0**52 + K), min_stroke=(K + 0.4) * u + 1.0,
            max_width_at_full=1e6, h0=2.0**52, n_range=(1, 3), L_range=(K + 0.4, K + 1.1))
    if case == "overflowing-margins":  # n·L is inf: margins are ±inf, or NaN at ĥ = 1
        return fixture._replace(n_range=(2**1023 - 3, 2**1023 + 3), L_range=(1e307, 1.7e308))
    raise ValueError(case)


TIES = ["one-point-L-range", "crossings-at-both-ends", "three-margins-through-one-point",
        "flat-width-margin", "flat-stroke-margin", "rounding-plateau", "overflowing-margins"]


@pytest.mark.parametrize("p_cap", P_CAPS)
@pytest.mark.parametrize("case", TIES)
def test_bindings_are_the_maximin_at_ties(case, p_cap):
    cons = at_a_tie(case, p_cap)
    assert_matches_the_scan(cons, p_cap)
    # and with ŵ = 0, which the width margins share with the straight end
    h_unit, _ = design._units(p_cap)
    assert_bindings_are_the_maximin(cons, h_unit, 0.0)


@pytest.mark.parametrize("case", TIES)
def test_bindings_are_the_maximin_next_to_the_straight_end(case):
    # ĥ = 1: the stroke margin is flat, and NaN where n·L is inf; ŵ is
    # (2/3) q to within ULPs, q = 2 p^2 - 1 ~ 1.4e-16, so the width margins
    # are all but flat too
    p_cap = math.nextafter(P_STRAIGHT, 1.0)
    h_unit, w_unit = design._units(p_cap)
    assert h_unit == 1.0 and w_unit == pytest.approx(9.1144e-17, rel=1e-4)
    assert_matches_the_scan(at_a_tie(case, p_cap), p_cap)


def bindings_branch(limits: tuple[float, ...], L_range: tuple[float, float], n: int,
                    h_unit: float, w_unit: float) -> str:
    """Where the maximin of arch count n lies, read off its margins at the
    ends of L_range: "L_min" where the smallest falling margin (natural
    length max, width max) is at most the smallest rising one (natural
    length min, stroke, width min) at L_min; "L_max" where the rising one
    is at most the falling one at L_max, or "tie" where L_min's smallest
    margin equals L_max's then; "scan" where only the crossings inside
    L_range can tell, and wherever a stroke or width margin would not rise
    or fall as its group does (1 − ĥ < 0 or ŵ < 0)."""
    if not (1.0 - h_unit >= 0.0 and w_unit >= 0.0):
        return "scan"
    (rise_lo, fall_lo), (rise_hi, fall_hi) = (
        (min(m[0], m[2], m[4]), min(m[1], m[3]))
        for m in (_slack(limits, n, L, h_unit, w_unit) for L in L_range))
    if fall_lo <= rise_lo:
        return "L_min"
    if rise_hi <= fall_hi:
        return "tie" if rise_lo == rise_hi else "L_max"
    return "scan"


def count_scans(monkeypatch) -> list[float]:
    """The arch counts, as floats, that design._scan is called for from now on."""
    scan, counts = design._scan, []

    def counting_scan(limits, L_range, x, *args):
        counts.append(x)
        return scan(limits, L_range, x, *args)

    monkeypatch.setattr(design, "_scan", counting_scan)
    return counts


def end_name(limits, L_range, n, h_unit, w_unit, end: int) -> str:
    margins = _slack(limits, n, L_range[end], h_unit, w_unit)
    return design._CONSTRAINT_NAMES[margins.index(min(margins))]


def branch_case(case: str) -> tuple[tuple[float, ...], tuple[float, float], int, float, float]:
    """(limits, L_range, n, ĥ, ŵ) of one arch count for each way _bindings
    settles a count.  The last two have a ĥ above 1 or a ŵ below 0, which
    the table does not give, to show where the ends cannot decide."""
    fixture = radial_roundtrip_constraints()
    h_unit, w_unit = design._units(PCAP)
    if case == "L_max-end":  # an arch too few: the natural length min rises to L_max
        return _limits(fixture), fixture.L_range, 1, h_unit, w_unit
    if case == "L_min-end":  # arches too many: the natural length max falls from L_min
        return _limits(fixture), fixture.L_range, 30, h_unit, w_unit
    if case == "one-point-L-range":
        return _limits(fixture), (27.0, 27.0), 1, h_unit, w_unit
    if case == "flat-width-tie":  # -1 at L_min's natural length min and at the flat width min
        return _limits(at_a_tie("flat-width-margin", PCAP)), (9.0, 20.0), 1, h_unit, 0.0
    if case == "interior":  # the stroke and the width max cross inside L_range
        return (240.0, 310.0, 75.0, 34.0, 3.0, 10.0), (20.0, 70.0), 4, h_unit, w_unit
    if case == "stroke-falls":  # 1 − ĥ < 0
        return (240.0, 360.0, 40.0, 14.0, 4.0, 0.0), (15.0, 40.0), 5, 1.25, 0.5
    if case == "width-margins-swap":  # ŵ < 0: the width min falls, the width max rises
        return (240.0, 310.0, 75.0, 34.0, 3.0, 10.0), (20.0, 70.0), 4, h_unit, -0.5
    raise ValueError(case)


BRANCHES = [  # (case, how _bindings settles it, the maximin's name, the names at the ends)
    ("L_max-end", "L_max", "natural_length_min", ["natural_length_min"] * 2),
    ("L_min-end", "L_min", "natural_length_max", ["natural_length_max"] * 2),
    ("one-point-L-range", "tie", "natural_length_min", ["natural_length_min"] * 2),
    ("flat-width-tie", "tie", "natural_length_min", ["natural_length_min", "min_width_at_full"]),
    ("interior", "scan", "min_stroke", ["natural_length_min", "max_width_at_full"]),
    ("stroke-falls", "scan", "natural_length_min", ["natural_length_min", "min_stroke"]),
    ("width-margins-swap", "scan", "natural_length_min",
     ["natural_length_min", "min_width_at_full"]),
]


@pytest.mark.parametrize("case, branch, name, at_ends", BRANCHES, ids=[b[0] for b in BRANCHES])
def test_bindings_settle_a_count_at_an_end_or_by_the_scan(monkeypatch, case, branch, name,
                                                          at_ends):
    # at_ends names the smallest margin at L_min and at L_max: a tie goes to
    # L_min, and where the scan runs, L_max's is not the maximin's name,
    # although its smallest margin is the larger one of the two ends
    limits, L_range, n, h_unit, w_unit = args = branch_case(case)
    assert bindings_branch(*args) == branch
    assert binding_maximin(*args) == name
    assert [end_name(*args, end) for end in (0, 1)] == at_ends
    scanned = count_scans(monkeypatch)
    assert design._bindings(limits, L_range, [n], h_unit, w_unit) == {n: name}
    assert scanned == ([n] if branch == "scan" else [])


@pytest.mark.parametrize("p_cap", [PCAP, math.nextafter(P_STRAIGHT, 1.0)],
                         ids=["inf-margins", "nan-stroke"])
def test_bindings_where_arch_stacks_overflow(monkeypatch, p_cap):
    # n·L is inf: the natural length margins are ±inf, and at ĥ = 1 the
    # stroke n·L·0 is NaN, which min passes over.  Overflowing at L_min,
    # a count is settled there; overflowing only past it, by the scan
    h_unit, w_unit = design._units(p_cap)
    assert (1.0 - h_unit == 0.0) == (p_cap != PCAP)
    wide = DesignConstraints(natural_length_range=(0.0, 1.7e308), min_stroke=0.0,
                             max_width_at_full=1e300, h0=0.0, n_range=(2**1000, 2**1000),
                             L_range=(1.0, 1.7e308))
    scanned = count_scans(monkeypatch)
    for cons, branch in ((at_a_tie("overflowing-margins", p_cap), "L_min"), (wide, "scan")):
        limits, L_range = _limits(cons), cons.L_range
        counts = range(cons.n_range[0], cons.n_range[1] + 1)
        assert math.isinf(float(counts[0]) * L_range[1])
        assert {bindings_branch(limits, L_range, n, h_unit, w_unit) for n in counts} == {branch}
        scanned.clear()
        assert_bindings_are_the_maximin(cons, h_unit, w_unit)
        assert len(scanned) == (len(counts) if branch == "scan" else 0)
    if p_cap != PCAP:
        assert math.isnan(_slack(_limits(wide), 2**1000, 1.7e308, h_unit, w_unit)[2])


def test_bindings_over_a_million_arch_counts():
    # the fixture over [1, 10**6]: every infeasible count is named in one
    # _bindings call, nearly all of them at L_min; a seeded sample of them
    # is checked against the maximin
    cons = read_design_constraints(DATA_DIR / "constraints.json")._replace(n_range=(1, 10**6))
    h_unit, w_unit = design._units(PCAP)
    limits, L_range = _limits(cons), cons.L_range
    calls = []
    bindings = design._bindings

    def counting_bindings(*args):
        calls.append(args)
        return bindings(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(design, "_bindings", counting_bindings)
        report = infeasibility_report(cons, PCAP)
    assert len(calls) == 1 and len(report) == 999_986
    rng = np.random.default_rng(42)
    sample = sorted(set(rng.integers(1, 10**6 + 1, 12_000).tolist()) & set(report))
    assert len(sample) >= 10_000
    assert {n: report[n] for n in sample} == {
        n: binding_maximin(limits, L_range, n, h_unit, w_unit) for n in sample}
    branches = [bindings_branch(limits, L_range, n, h_unit, w_unit) for n in sample]
    assert branches.count("L_min") >= len(sample) - 10


@pytest.mark.parametrize("n_range", [(1, 12), (1, 400)], ids=["fixture", "wide"])
def test_report_decides_most_counts_in_closed_form(monkeypatch, n_range):
    # the scan solved every arch count for its interval: 12 and 400 of them
    cons = radial_roundtrip_constraints()._replace(n_range=n_range)
    expected = oracle_report(cons, PCAP)
    intervals, counts = design._intervals, []

    def counting_intervals(limits, L_range, given, h_unit, w_unit):
        given = list(given)
        counts.extend(given)
        return intervals(limits, L_range, given, h_unit, w_unit)

    monkeypatch.setattr(design, "_intervals", counting_intervals)
    assert infeasibility_report(cons, PCAP) == expected
    assert len(counts) <= 4, counts


def test_interval_ends_settle_in_line_and_fall_back_to_snap(monkeypatch):
    # _intervals walks each end at most two doubles from its closed form in
    # its loop, and calls _snap only for a wider plateau, as where n·L + h0
    # rounds to multiples of 0.125
    fixture = read_design_constraints(DATA_DIR / "constraints.json")
    edge = at_an_edge("h0=1e15")
    expected = [oracle_search(cons, PCAP) for cons in (fixture, edge)]
    ends = count_snaps(monkeypatch)
    assert search(fixture, PCAP) == expected[0]
    assert ends == []
    assert search(edge, PCAP) == expected[1]
    assert ends


# Constraint sets of one arch count, each end of whose L-interval lies the
# given number of doubles from its closed form, outward (+) or inward (-).
# The natural length binds both ends; where h0 dwarfs n·L, n·L + h0 rounds
# alike over a plateau of doubles of L.  Found by a scan of short decimals.
WALK_BASE = dict(min_stroke=0.0, max_width_at_full=1000.0, L_range=(1.0, 100.0))
WALKS = [  # (n, natural_length_range, h0, floor end's move, ceiling end's move)
    (3, (183.7, 191.7), 30.0, 0, 0),
    (3, (266.75, 279.75), 100.25, 1, 1),
    (9, (1302.45, 1325.45), 1016.25, 2, 1),
    (12, (1268.2, 1301.2), 1023.5, 1, 2),
    (7, (1276.9, 1281.9), 1002.0, 3, 2),
    (10, (1262.3, 1264.3), 1019.0, 2, 3),
    (5, (211.1, 243.1), 33.5, -1, -1),
    (11, (214.0, 238.0), 38.0, 0, -1),
    (6, (191.1, 231.1), 38.7, -2, 0),
    (3, (65.5, 105.51), 33.4, 2, -2),
]


def walk_constraints(n: int, natural_length_range, h0: float, **fields) -> DesignConstraints:
    return DesignConstraints(**{**WALK_BASE, "natural_length_range": natural_length_range,
                                "h0": h0, "n_range": (n, n), **fields})


def closed_form_ends(n: int, natural_length_range, h0: float) -> tuple[float, float]:
    """The ends -a0/n and -a1/-n that _intervals starts a WALKS row's walks from."""
    nat_lo, nat_hi = natural_length_range
    return (nat_lo - h0) / n, (nat_hi - h0) / n


def doubles_between(a: float, b: float) -> int:
    """How many doubles b lies above a."""
    return int(np.float64(b).view(np.int64)) - int(np.float64(a).view(np.int64))


@pytest.mark.parametrize("n, nat, h0, lo_moved, hi_moved", WALKS)
def test_interval_ends_walk_two_doubles_in_line(monkeypatch, n, nat, h0, lo_moved, hi_moved):
    cons = walk_constraints(n, nat, h0)
    closed_lo, closed_hi = closed_form_ends(n, nat, h0)
    expected = oracle_search(cons, PCAP), oracle_report(cons, PCAP)
    snapped = count_snaps(monkeypatch)
    results = search(cons, PCAP)
    assert (results, infeasibility_report(cons, PCAP)) == expected
    [res] = results
    lo, hi = res.L_interval
    assert doubles_between(lo, closed_lo) == lo_moved
    assert doubles_between(closed_hi, hi) == hi_moved
    # a plateau of three doubles is _snap's
    assert len(snapped) == (abs(lo_moved) > 2) + (abs(hi_moved) > 2)


def test_interval_end_walks_stop_at_L_range(monkeypatch):
    # an end walking outward stops at L_min or L_max, before the plateau of
    # three doubles that would need _snap; one walking inward that reaches
    # them before a double passes leaves the count infeasible
    nextafter, inf = math.nextafter, math.inf
    lo_3, hi_3, both_in_1, hi_in_1, lo_in_2 = (WALKS[i][:3] for i in (4, 5, 6, 7, 8))
    L, H = closed_form_ends(*lo_3)[0], closed_form_ends(*hi_3)[1]
    cases = [  # (row, L_range, the end of the L-interval at L_range's end, or None)
        (lo_3, (L, 100.0), L),
        (lo_3, (nextafter(L, 0.0), 100.0), nextafter(L, 0.0)),
        (hi_3, (1.0, H), H),
        (hi_3, (1.0, nextafter(H, inf)), nextafter(H, inf)),
        (both_in_1, (1.0, closed_form_ends(*both_in_1)[0]), None),
        (lo_in_2, (1.0, nextafter(closed_form_ends(*lo_in_2)[0], inf)), None),
        (hi_in_1, (closed_form_ends(*hi_in_1)[1], 100.0), None),
    ]
    constraints = [walk_constraints(*row, L_range=L_range) for row, L_range, _ in cases]
    expected = [(oracle_search(cons, PCAP), oracle_report(cons, PCAP)) for cons in constraints]
    snapped = count_snaps(monkeypatch)
    for cons, (_, _, end), want in zip(constraints, cases, expected):
        results = search(cons, PCAP)
        assert (results, infeasibility_report(cons, PCAP)) == want, cons
        if end is None:
            assert results == [], cons
        else:
            [res] = results
            assert end in res.L_interval and end in cons.L_range, cons
    assert snapped == []


@pytest.mark.parametrize("number", [int, np.float64, np.float32, Fraction, Decimal])
def test_constraint_lengths_are_floats(number):
    # a real field of another type used to reach the results: np.float64
    # fields gave np.float64 interval ends and achieved values
    lengths = dict(natural_length_range=(230, 240), min_stroke=60, max_width_at_full=20,
                   min_width_at_full=1, h0=22, L_range=(10, 50))
    cons = DesignConstraints(n_range=(1, 12), **{
        name: tuple(map(number, v)) if isinstance(v, tuple) else number(v)
        for name, v in lengths.items()})
    ref = DesignConstraints(n_range=(1, 12), **{
        name: tuple(map(float, v)) if isinstance(v, tuple) else float(v)
        for name, v in lengths.items()})
    assert cons == ref
    assert all(type(v) is float for v in (*cons.natural_length_range, *cons.L_range,
                                          *cons[1:4], cons.min_width_at_full))
    results = search(cons, PCAP)
    assert results == search(ref, PCAP) and len(results) == 6
    assert infeasibility_report(cons, PCAP) == infeasibility_report(ref, PCAP)
    for res in results:
        assert all(type(v) is float
                   for v in (res.spec.L, res.spec.h0, *res.achieved, *res.L_interval)), res


def constraints_json(cons: DesignConstraints) -> str:
    """cons as the JSON file that fileio.read_design_constraints reads."""
    return json.dumps({
        "natural_length_range_mm": list(cons.natural_length_range),
        "min_stroke_mm": cons.min_stroke,
        "max_width_at_full_mm": cons.max_width_at_full,
        "min_width_at_full_mm": cons.min_width_at_full,
        "h0_mm": cons.h0,
        "n_range": list(cons.n_range),
        "L_range_mm": list(cons.L_range),
        "kind": cons.kind,
    })


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(constraint_sets(), st.sampled_from([PCAP, 0.75, 0.9, 0.999]))
@example(read_design_constraints(DATA_DIR / "constraints.json"), PCAP)
@example(radial_roundtrip_constraints()._replace(n_range=(1, 40)), 0.9)
def test_design_search_command_is_search_then_report(cons, p_cap):
    # design search prints search's results and writes them as CSV, then one
    # stderr line per arch count of infeasibility_report, in its order
    results = search(cons, p_cap)
    report = infeasibility_report(cons, p_cap)
    with tempfile.TemporaryDirectory() as tmp:
        path, csv = Path(tmp) / "c.json", Path(tmp) / "out.csv"
        path.write_text(constraints_json(cons), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch(["design", "search", "--constraints", str(path),
                             "--csv", str(csv), f"--p-cap={p_cap!r}"])
        assert code == 0, err.getvalue()
        assert csv.read_text(encoding="utf-8") == design_results_to_csv(results)
    assert out.getvalue() == design_results_to_json(results)
    assert err.getvalue() == "".join(f"n={n}: infeasible, binding constraint {name}\n"
                                     for n, name in report.items())


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
    for fn in (search, infeasibility_report):
        with pytest.raises(DomainError, match="p_cap="):
            fn(cons, p_cap)

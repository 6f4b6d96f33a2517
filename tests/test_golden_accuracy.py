"""The geometry goldens against the model, recomputed at 40 digits.

Every number of beam_solve.txt, muscle_curve_radial.csv,
muscle_invert_natural.txt and the achieved values of design_search.json
and .csv is the print of a double that the library computes.  Each test
first ties the golden's cells to those doubles: the cell is the double's
print (%.15g, or repr in the JSON), at the row's own p and L.  It then
measures each double against oracles.arch_reference, the definition
evaluated at 40 digits at that p and L, in ULPs of the model value;
stroke and contraction, which are natural - length, in ULPs of the natural
length.  The bounds are the measured worst, so a change that makes a
column less accurate fails here before its goldens can be regenerated.

Each column also counts its cells that differ from the correctly rounded
model value, printed as the golden prints it: the 40-digit value rounded
once to a double, then formatted.  A count may fall, never rise.
"""

import json
import math

import mpmath

from wwmtc import muscle
from wwmtc.beam import solve_beam
from wwmtc.design import search
from wwmtc.fileio import read_design_constraints, read_muscle_spec
from wwmtc.muscle import DEFAULT_P_CAP, curve, state_for_length

from conftest import DATA_DIR, GOLDEN_DIR
from oracles import arch_reference

DPS = 40

# (worst ULPs, cells that differ from the correctly rounded model value) of
# each column, as measured; "h" is the arch height behind the length column
BOUNDS = {
    "beam_solve.txt": {
        "w_mm": (0.6, 0), "h_mm": (0.37, 0), "k_per_mm": (0.59, 0),
        "psi0_rad": (0.79, 0), "psi0_deg": (0.9, 0),
    },
    "muscle_curve_radial.csv": {
        "h": (1.16, None), "width_mm": (2.17, 1), "length_mm": (1.16, 1),
        "contraction_mm": (1.16, 48), "psi0_rad": (2.46, None), "psi0_deg": (2.77, 1),
    },
    "design_search.json": {
        "natural_length_mm": (0.25, 0), "stroke_mm": (0.7, 4), "width_at_full_mm": (0.52, 1),
    },
    "design_search.csv": {
        "natural_length_mm": (0.25, 0), "stroke_mm": (0.7, 0), "width_at_full_mm": (0.52, 0),
    },
}


def ulps(x: float, ref, unit=None) -> float:
    """|x - ref| in ULPs of the model value ref (of unit, when given)."""
    with mpmath.workdps(DPS):
        return float(abs(mpmath.mpf(x) - ref) / math.ulp(float(ref if unit is None else unit)))


def check_column(file: str, column: str, doubles, refs, cells, unit=None, show=format):
    """Assert the column's bound and return (worst ULPs, miscounted cells).

    doubles are what the library computed, refs the 40-digit model values
    and cells the golden's printed cells (None where the golden prints no
    such column); unit, per row, is what the ULPs are counted in.
    """
    bound, miscount = BOUNDS[file][column]
    units = unit or [None] * len(doubles)
    worst = max(ulps(x, r, u) for x, r, u in zip(doubles, refs, units))
    assert worst <= bound, (file, column, worst)
    if cells is None:
        return worst, None
    assert [show(x) for x in doubles] == cells, (file, column)
    wrong = sum(show(float(r)) != c for r, c in zip(refs, cells))
    assert wrong <= miscount, (file, column, wrong)
    return worst, wrong


def fmt(x: float) -> str:
    return format(x, ".15g")


def degrees(psi0):
    """The CLI's psi0 * 180 / pi, at 40 digits for an mpf."""
    with mpmath.workdps(DPS):
        return psi0 * 180 / mpmath.pi


def read_rows(name: str) -> tuple[list[str], list[list[str]]]:
    header, *rows = (GOLDEN_DIR / name).read_text().splitlines()
    return header.split(","), [row.split(",") for row in rows]


def test_beam_solve_golden():
    # beam solve --L 27 --p 0.85 prints solve_beam's four doubles and degrees
    cells = dict(kv.split("=") for kv in (GOLDEN_DIR / "beam_solve.txt").read_text().split())
    sol = solve_beam(27.0, 0.85)
    h, w, k, psi0 = arch_reference(27.0, 0.85)
    for column, x, ref in (("w_mm", sol.w, w), ("h_mm", sol.h, h), ("k_per_mm", sol.k, k),
                           ("psi0_rad", sol.psi0, psi0),
                           ("psi0_deg", sol.psi0 * 180.0 / math.pi, degrees(psi0))):
        check_column("beam_solve.txt", column, [x], [ref], [cells[column]], show=fmt)


def curve_columns(spec, samples):
    """The model's (h, width, length, contraction, psi0) at each sample's
    own p, at 40 digits."""
    n, L, h0, _ = spec
    out = []
    with mpmath.workdps(DPS):
        for s in samples:
            h, w, _, psi0 = arch_reference(L, s.p)
            length = n * h + h0
            out.append((h, w, length, n * mpmath.mpf(L) + h0 - length, psi0))
    return out


def test_muscle_curve_golden():
    header, rows = read_rows("muscle_curve_radial.csv")
    spec = read_muscle_spec(DATA_DIR / "radial.json")
    samples = curve(spec, 100, DEFAULT_P_CAP).samples
    assert [fmt(s.p) for s in samples] == [row[0] for row in rows]
    refs = list(zip(*curve_columns(spec, samples)))
    col = dict(zip(header, zip(*rows)))
    n, L, h0, _ = spec
    hs = [solve_beam(L, s.p).h for s in samples]
    assert [s.length for s in samples] == [n * h + h0 for h in hs]
    natural = [muscle.natural_length(spec)] * len(samples)
    file = "muscle_curve_radial.csv"
    check_column(file, "h", hs, refs[0], None)
    check_column(file, "width_mm", [s.width for s in samples], refs[1], list(col["width_mm"]),
                 show=fmt)
    check_column(file, "length_mm", [s.length for s in samples], refs[2],
                 list(col["length_mm"]), show=fmt)
    check_column(file, "contraction_mm", [s.contraction for s in samples], refs[3],
                 list(col["contraction_mm"]), unit=natural, show=fmt)
    check_column(file, "psi0_rad", [s.psi0 for s in samples], refs[4], None)
    check_column(file, "psi0_deg", [s.psi0 * 180.0 / math.pi for s in samples],
                 [degrees(r) for r in refs[4]], list(col["psi0_deg"]), show=fmt)


def test_muscle_invert_golden():
    # muscle invert --length 238: the natural state, exact in every column
    header, rows = read_rows("muscle_invert_natural.txt")
    spec = read_muscle_spec(DATA_DIR / "radial.json")
    state = state_for_length(spec, 238.0)
    assert rows == [[fmt(x) for x in state[:4]] + [fmt(state.psi0 * 180.0 / math.pi)]]
    ((h, w, length, contraction, psi0),) = curve_columns(spec, [state])
    assert (state.width, state.length, state.contraction, state.psi0) == (w, length,
                                                                           contraction, psi0)


def test_design_search_golden():
    # the achieved values of each result, at its L and p_cap, in the JSON
    # (repr of the doubles) and the CSV (%.15g of the same doubles)
    results = json.loads((GOLDEN_DIR / "design_search.json").read_text())
    header, rows = read_rows("design_search.csv")
    constraints = read_design_constraints(DATA_DIR / "constraints.json")
    assert [r.achieved._asdict() for r in search(constraints, DEFAULT_P_CAP)] == [
        {k[:-3]: v for k, v in r["achieved"].items()} for r in results]
    assert [row[:3] for row in rows] == [
        [str(r["spec"]["n"]), fmt(r["spec"]["L_mm"]), fmt(r["spec"]["h0_mm"])] for r in results]
    col = dict(zip(header, zip(*rows)))
    refs = {"natural_length_mm": [], "stroke_mm": [], "width_at_full_mm": []}
    with mpmath.workdps(DPS):
        for r in results:
            n, L, h0 = r["spec"]["n"], r["spec"]["L_mm"], r["spec"]["h0_mm"]
            h, w, _, _ = arch_reference(L, DEFAULT_P_CAP)
            natural = n * mpmath.mpf(L) + h0
            refs["natural_length_mm"].append(natural)
            refs["stroke_mm"].append(natural - (n * h + h0))
            refs["width_at_full_mm"].append(w)
    natural = [r["achieved"]["natural_length_mm"] for r in results]
    for column, values in refs.items():
        doubles = [r["achieved"][column] for r in results]
        unit = natural if column == "stroke_mm" else None
        check_column("design_search.csv", column, doubles, values, list(col[column]), unit,
                     show=fmt)
        check_column("design_search.json", column, doubles, values,
                     [repr(x) for x in doubles], unit, show=repr)

"""CLI: golden files for every subcommand, byte determinism, exit codes.

Set WWMTC_REGEN_GOLDEN=1 to rewrite the golden files after an intentional
output change, then review the diff.
"""

import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from wwmtc import svgplot
from wwmtc.beam import solve_beam
from wwmtc.cli import dispatch
from wwmtc.fileio import CURVE_HEADER, read_muscle_spec
from wwmtc.muscle import MuscleState

from conftest import DATA_DIR, GOLDEN_DIR

REGEN = os.environ.get("WWMTC_REGEN_GOLDEN") == "1"


def check_golden(name: str, produced: bytes) -> None:
    path = GOLDEN_DIR / name
    if REGEN:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(produced)
        return
    assert path.exists(), f"golden file {name} missing; run with WWMTC_REGEN_GOLDEN=1"
    assert produced == path.read_bytes(), f"output differs from golden {name}"


def run(args, capsys) -> tuple[int, str, str]:
    code = dispatch(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- elliptic ------------------------------------------------------------------

def test_elliptic_eval_k_zero(capsys):
    code, out, err = run(["elliptic", "eval", "--kind", "K", "--p", "0"], capsys)
    assert code == 0 and err == ""
    assert out.strip() == format(math.pi / 2, ".15g")
    check_golden("elliptic_eval_K0.txt", out.encode())


def test_elliptic_eval_incomplete(capsys):
    code, out, _ = run(
        ["elliptic", "eval", "--kind", "F", "--phi", "0.7853981633974483", "--p", "0.9"],
        capsys,
    )
    assert code == 0
    assert float(out) == pytest.approx(0.8579401978855108, rel=1e-12)


def test_elliptic_eval_missing_phi(capsys):
    code, _, err = run(["elliptic", "eval", "--kind", "F", "--p", "0.9"], capsys)
    assert code == 2
    assert "--phi" in err


def test_elliptic_eval_spurious_phi(capsys):
    code, _, err = run(
        ["elliptic", "eval", "--kind", "K", "--phi", "0.5", "--p", "0.9"], capsys
    )
    assert code == 2
    assert "--phi" in err


def test_elliptic_eval_bad_modulus(capsys):
    code, _, err = run(["elliptic", "eval", "--kind", "K", "--p", "1.0"], capsys)
    assert code == 2
    assert "modulus" in err


# --- beam ------------------------------------------------------------------------

def test_beam_solve_row_and_json(capsys):
    code, out, _ = run(["beam", "solve", "--L", "27", "--p", "0.85"], capsys)
    assert code == 0
    check_golden("beam_solve.txt", out.encode())

    code, out_json, _ = run(["beam", "solve", "--L", "27", "--p", "0.85", "--json"], capsys)
    assert code == 0
    obj = json.loads(out_json)
    assert obj["w_mm"] == pytest.approx(8.143443230024689, rel=1e-9)
    assert obj["h_mm"] == pytest.approx(25.477469756472694, rel=1e-9)
    assert obj["psi0_deg"] == pytest.approx(math.degrees(obj["psi0_rad"]), rel=1e-12)


def test_beam_solve_domain_error_names_range(capsys):
    code, out, err = run(["beam", "solve", "--L", "27", "--p", "1.2"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "0.70710" in err  # names the valid range


def test_unknown_flag_rejected(capsys):
    code, _, err = run(["beam", "solve", "--L", "27", "--p", "0.8", "--bogus"], capsys)
    assert code == 2
    assert "bogus" in err


@pytest.mark.parametrize("argv", [
    ["beam", "solve", "--L", "27", "--p", "0.8", "--bogus", "1"],
    ["beam", "solve", "--p", "0.8"],
    ["muscle", "invert", "--spec", str(DATA_DIR / "radial.json"), "--length", "abc"],
    ["muscle"],
    [],
    ["muscle", "bend"],
    ["muscle", "invert", "--spec"],
])
def test_bad_argv_is_one_line(capsys, argv):
    # argparse's usage line is not printed: the contract is one line
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: wwmtc") and err.count("\n") == 1, err


def test_negative_numbers_with_exponents_parse(capsys):
    # argparse alone takes -1e+16 for an option ("expected one argument")
    spec = str(DATA_DIR / "radial.json")
    for value in ("-1e+16", "-inf", "-2.5E-3"):
        for argv in (["muscle", "invert", "--spec", spec, "--length", value],
                     ["muscle", "invert", "--spec", spec, "--len", value]):
            code, _, err = run(argv, capsys)
            assert code == 2 and "unreachable" in err, (argv, err)
    code, _, err = run(["elliptic", "eval", "--kind", "F", "--p", "0.5", "--phi", "-1e-1"],
                       capsys)
    assert code == 2 and "phi=-0.1" in err
    code, out, _ = run(["winch", "simulate", "--params", str(DATA_DIR / "winch_params.json"),
                        "--profile", str(DATA_DIR / "triangle_profile.csv"),
                        "--initial-tension", "-1e+1"], capsys)
    assert code == 0 and out.split("\n")[1] == "0,0,-5"


# --- muscle ------------------------------------------------------------------------

def test_muscle_curve_csv(tmp_path, capsys):
    out_csv = tmp_path / "c.csv"
    code, _, err = run(
        ["muscle", "curve", "--spec", str(DATA_DIR / "radial.json"),
         "--samples", "100", "--out", str(out_csv)],
        capsys,
    )
    assert code == 0, err
    text = out_csv.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "p,width_mm,length_mm,contraction_mm,psi0_deg"
    assert len(lines) == 101  # header + 100 samples
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    assert first[1] == "0"
    assert first[2] == "238"
    check_golden("muscle_curve_radial.csv", out_csv.read_bytes())


def read_curve_csv(path: Path) -> list[MuscleState]:
    """Re-parse a written curve CSV into states (psi0 back in radians)."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert header == CURVE_HEADER
    states = []
    for row in rows:
        p, width, length, contraction, psi0_deg = map(float, row.split(","))
        states.append(MuscleState(p=p, width=width, length=length,
                                  contraction=contraction, psi0=math.radians(psi0_deg)))
    return states


def test_muscle_curve_round_trip(tmp_path, capsys):
    # written CSV re-parses to the same states at full printed precision
    out_csv = tmp_path / "c.csv"
    run(["muscle", "curve", "--spec", str(DATA_DIR / "radial.json"),
         "--samples", "25", "--out", str(out_csv)], capsys)
    spec = read_muscle_spec(DATA_DIR / "radial.json")
    reparsed = read_curve_csv(out_csv)
    from wwmtc.muscle import curve

    original = curve(spec, 25)
    assert len(reparsed) == len(original.samples)
    for a, b in zip(original.samples, reparsed):
        for field in ("p", "width", "length", "contraction"):
            x, y = getattr(a, field), getattr(b, field)
            assert format(x, ".15g") == format(y, ".15g")
        # the printed column is degrees; the deg->rad->deg conversion may
        # wobble the 15th digit, so compare at printed precision
        assert math.degrees(b.psi0) == pytest.approx(math.degrees(a.psi0), rel=1e-14)


def test_muscle_curve_svg_overlay(tmp_path, capsys):
    svg = tmp_path / "fig.svg"
    code, _, err = run(
        ["muscle", "curve",
         "--spec", str(DATA_DIR / "radial.json"),
         "--spec", str(DATA_DIR / "planar.json"),
         "--samples", "60", "--svg", str(svg)],
        capsys,
    )
    assert code == 0, err
    body = svg.read_text()
    assert body.count("<polyline") == 2
    assert body.count('font-size="12"') == 2  # legend entries, input order
    assert "radial" in body and "planar" in body
    assert "length [mm]" in body and "width [mm]" in body
    check_golden("muscle_curves.svg", svg.read_bytes())


def test_muscle_curve_svg_escapes_markup_in_labels(tmp_path, capsys):
    from xml.dom import minidom

    odd_spec = tmp_path / "x<&.json"
    odd_spec.write_bytes((DATA_DIR / "radial.json").read_bytes())
    svg = tmp_path / "o.svg"
    code, _, err = run(
        ["muscle", "curve", "--spec", str(odd_spec),
         "--spec", str(DATA_DIR / "planar.json"), "--svg", str(svg)],
        capsys,
    )
    assert code == 0, err
    texts = minidom.parse(str(svg)).getElementsByTagName("text")
    captions = [t.firstChild.data for t in texts]
    assert "x<& (radial n=8 L=27)" in captions


def test_muscle_curve_two_point_svg(tmp_path, capsys):
    svg = tmp_path / "two.svg"
    code, _, _ = run(
        ["muscle", "curve", "--spec", str(DATA_DIR / "radial.json"),
         "--samples", "2", "--svg", str(svg), "--out", str(tmp_path / "c.csv")],
        capsys,
    )
    assert code == 0
    body = svg.read_text()
    assert body.count("<polyline") == 1
    pts = body.split('points="')[1].split('"')[0].split()
    assert len(pts) == 2  # a single segment


def test_axis_ticks_aim_at_six():
    # a span of 12 in five steps takes the 1/2/5 step 5; in six steps, 2
    assert svgplot._nice_ticks(0.0, 12.0) == [0.0, 5.0, 10.0]


def test_unwritable_output_path(tmp_path, capsys):
    code, _, err = run(
        ["muscle", "curve", "--spec", str(DATA_DIR / "radial.json"),
         "--samples", "5", "--out", str(tmp_path / "no_such_dir" / "c.csv")],
        capsys,
    )
    assert code == 2
    assert "cannot write" in err


def test_muscle_curve_csv_needs_single_spec(tmp_path, capsys):
    code, _, err = run(
        ["muscle", "curve", "--spec", str(DATA_DIR / "radial.json"),
         "--spec", str(DATA_DIR / "planar.json"), "--samples", "10",
         "--out", str(tmp_path / "c.csv")],
        capsys,
    )
    assert code == 2
    assert "exactly one" in err


def test_muscle_invert(capsys):
    code, out, _ = run(
        ["muscle", "invert", "--spec", str(DATA_DIR / "radial.json"),
         "--length", "238"],
        capsys,
    )
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert float(row[1]) == 0.0 and float(row[2]) == 238.0
    check_golden("muscle_invert_natural.txt", out.encode())


def test_muscle_invert_interior_length(capsys):
    # 237.999999999 lies ~1.5e-6 in p from the straight end
    for length in ("220", "237.999999999"):
        code, out, _ = run(
            ["muscle", "invert", "--spec", str(DATA_DIR / "radial.json"),
             "--length", length],
            capsys,
        )
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[2] == length
        if length == "220":
            assert abs(float(row[0]) - 0.875303679276549) <= 1e-12


def test_muscle_invert_out_of_range(capsys):
    code, _, err = run(
        ["muscle", "invert", "--spec", str(DATA_DIR / "radial.json"),
         "--length", "239"],
        capsys,
    )
    assert code == 2
    assert "feasible interval" in err


def test_muscle_invert_bad_p_cap_names_flag(capsys):
    code, _, err = run(
        ["muscle", "invert", "--spec", str(DATA_DIR / "radial.json"),
         "--length", "220", "--p-cap", "0.6"],
        capsys,
    )
    assert_bad_input(code, err)
    assert "p_cap=0.6 must lie in" in err


@pytest.mark.parametrize("p_cap", ["0.7071067811865475", "0.70710678118650"])
def test_design_search_bad_p_cap_is_one_line(capsys, p_cap):
    # the same rule and message as muscle curve and invert
    code, out, err = run(
        ["design", "search", "--constraints", str(DATA_DIR / "constraints.json"),
         "--p-cap", p_cap],
        capsys,
    )
    assert_bad_input(code, err)
    assert f"p_cap={float(p_cap)!r} must lie in" in err
    assert out == ""


def test_p_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("WWMTC_P_CAP", "0.9")
    code, out, _ = run(
        ["muscle", "curve", "--spec", str(DATA_DIR / "radial.json"), "--samples", "3"],
        capsys,
    )
    assert code == 0
    last_p = float(out.strip().split("\n")[-1].split(",")[0])
    assert last_p == 0.9

    # explicit flag beats the environment
    code, out, _ = run(
        ["muscle", "curve", "--spec", str(DATA_DIR / "radial.json"),
         "--samples", "3", "--p-cap", "0.95"],
        capsys,
    )
    last_p = float(out.strip().split("\n")[-1].split(",")[0])
    assert last_p == 0.95

    monkeypatch.setenv("WWMTC_P_CAP", "abc")
    code, out, err = run(
        ["muscle", "invert", "--spec", str(DATA_DIR / "radial.json"), "--length", "220"],
        capsys,
    )
    assert_bad_input(code, err)
    assert err == "error: WWMTC_P_CAP='abc' is not a number\n"
    assert out == ""


# --- design ------------------------------------------------------------------------

def test_design_search(tmp_path, capsys):
    out_json = tmp_path / "res.json"
    out_csv = tmp_path / "res.csv"
    code, _, err = run(
        ["design", "search", "--constraints", str(DATA_DIR / "constraints.json"),
         "--out", str(out_json), "--csv", str(out_csv)],
        capsys,
    )
    assert code == 0
    results = json.loads(out_json.read_text())
    assert any(r["spec"]["n"] == 8 and abs(r["spec"]["L_mm"] - 27.0) < 0.1
               for r in results)
    assert "infeasible" in err  # per-n diagnostics on stderr
    check_golden("design_search.json", out_json.read_bytes())
    check_golden("design_search.csv", out_csv.read_bytes())


def test_design_search_keeps_counts_whose_margins_touch_zero(tmp_path, capsys):
    # at n = 2, L = 1.01 the natural length max and the stroke read exactly
    # 0.0 and every margin passes, but the rounded closed-form ends of the
    # L-interval cross: a count is feasible iff some double passes, so both
    # n = 1 and n = 2 are results.  min_stroke is 2 * 1.01 * (1 - ĥ) at
    # p_cap 0.97, as design._slack computes the stroke there
    cons = tmp_path / "touching.json"
    cons.write_text(json.dumps({
        "natural_length_range_mm": [0.0, 24.02], "min_stroke_mm": 0.6158746219641211,
        "max_width_at_full_mm": 1000.0, "h0_mm": 22.0, "n_range": [1, 3],
        "L_range_mm": [1.0, 100.0]}))
    code, out, err = run(["design", "search", "--constraints", str(cons), "--p-cap", "0.97"],
                         capsys)
    assert code == 0
    assert [(r["spec"]["n"], r["L_interval_mm"]) for r in json.loads(out)] == [
        (2, [1.01, 1.0100000000000005]), (1, [2.02, 2.020000000000001])]
    assert err == "n=3: infeasible, binding constraint natural_length_max\n"


# --- tendon / winch -------------------------------------------------------------------

def test_tendon_fit(capsys):
    code, out, _ = run(
        ["tendon", "fit", "--data", str(DATA_DIR / "tendon_bench.csv")], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["a_N"] == pytest.approx(50.0, rel=1e-6)
    assert obj["b"] == pytest.approx(8.0, rel=1e-6)
    assert obj["eps0"] == pytest.approx(0.02, rel=1e-12)
    check_golden("tendon_fit.json", out.encode())


def test_parser_reused_after_bad_argv(capsys):
    # dispatch builds the parser once per process; a failed parse leaves
    # nothing behind for the next invocation
    data = str(DATA_DIR / "tendon_bench.csv")
    code, out, err = run(["tendon", "fit", "--data", data, "--bogus"], capsys)
    assert code == 2 and out == "" and "bogus" in err
    code, out, _ = run(["tendon", "fit", "--data", data], capsys)
    assert code == 0
    assert out == (GOLDEN_DIR / "tendon_fit.json").read_text()


def test_winch_fit(capsys):
    code, out, _ = run(
        ["winch", "fit", "--data", str(DATA_DIR / "winch_bench.csv")], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["c_N_per_A"] == pytest.approx(20.0, abs=1e-9)
    assert obj["r_N"] == pytest.approx(5.0, abs=1e-9)
    check_golden("winch_fit.json", out.encode())


def test_winch_simulate(tmp_path, capsys):
    out_csv = tmp_path / "sim.csv"
    svg = tmp_path / "loop.svg"
    code, _, err = run(
        ["winch", "simulate", "--params", str(DATA_DIR / "winch_params.json"),
         "--profile", str(DATA_DIR / "triangle_profile.csv"),
         "--out", str(out_csv), "--svg", str(svg)],
        capsys,
    )
    assert code == 0, err
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "time_s,current_A,tension_N"
    # simulated output reproduces the bench tensions (same operator, T0=0)
    bench = (DATA_DIR / "winch_bench.csv").read_text().strip().split("\n")
    assert [ln.split(",")[2] for ln in lines[1:]] == [ln.split(",")[2] for ln in bench[1:]]
    body = svg.read_text()
    assert "current [A]" in body and "tension [N]" in body
    check_golden("winch_simulate.csv", out_csv.read_bytes())
    check_golden("winch_loop.svg", svg.read_bytes())


def test_winch_simulate_loop_closes(tmp_path, capsys):
    out_csv = tmp_path / "sim.csv"
    run(
        ["winch", "simulate", "--params", str(DATA_DIR / "winch_params.json"),
         "--profile", str(DATA_DIR / "triangle_profile.csv"), "--out", str(out_csv)],
        capsys,
    )
    rows = [ln.split(",") for ln in out_csv.read_text().strip().split("\n")[1:]]
    n_per = (len(rows) - 1) // 3
    first, last = rows[-n_per - 1], rows[-1]
    assert first[1] == last[1] and first[2] == last[2]


# --- malformed input ---------------------------------------------------------------

RADIAL = {"n": 8, "L_mm": 27.0, "h0_mm": 22.0, "kind": "radial"}


def assert_bad_input(code: int, err: str) -> None:
    assert code == 2, err
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("field, text", [
    ("L_mm", '"abc"'),
    ("h0_mm", "NaN"),
    ("L_mm", "Infinity"),
    ("L_mm", "null"),
    ("n", "8.7"),
    ("n", "true"),
    ("L_mm", "1" + "0" * 400),  # an int past the largest double
])
def test_muscle_spec_rejects_bad_field(tmp_path, capsys, field, text):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**RADIAL, field: "@"}).replace('"@"', text))
    code, _, err = run(["muscle", "invert", "--spec", str(spec), "--length", "220"], capsys)
    assert_bad_input(code, err)
    assert field in err


@pytest.mark.parametrize("body", [b"\x80{}", b"[" * 100_000, b'{"n": ' + b"1" * 5000 + b"}"],
                         ids=["bad-utf8", "deep-nesting", "5000-digit-int"])
def test_unparsable_input_files_are_bad_input(tmp_path, capsys, body):
    # each used to escape the readers as an internal error (exit 1)
    path = tmp_path / "input"
    path.write_bytes(body)
    for argv in (["muscle", "invert", "--spec", str(path), "--length", "220"],
                 ["design", "search", "--constraints", str(path)],
                 ["winch", "fit", "--data", str(path)]):
        code, _, err = run(argv, capsys)
        assert_bad_input(code, err)


@pytest.mark.filterwarnings("error")  # a numpy warning is a second stderr line
@pytest.mark.parametrize("argv", [
    ["beam", "solve", "--L", "1e-320", "--p", "0.8"],  # k = inf
    ["beam", "solve", "--L", "1e-320", "--p", "0.8", "--json"],  # not JSON
    ["muscle", "curve", "--spec", "{huge}"],  # length inf, contraction nan
    ["muscle", "curve", "--spec", "{huge}", "--svg", "{out}"],
    ["winch", "simulate", "--params", "{params}", "--profile", "{profile}"],
    ["winch", "simulate", "--params", "{params}", "--profile", "{profile}",
     "--out", "{out}", "--svg", "{out}.svg"],
], ids=["beam-k", "beam-json", "curve-csv", "curve-svg", "winch-stdout", "winch-files"])
def test_overflowing_results_are_bad_input(tmp_path, capsys, argv):
    # finite inputs whose results overflow used to print inf or nan with exit 0
    files = {"huge": tmp_path / "huge.json", "params": tmp_path / "params.json",
             "profile": tmp_path / "profile.csv", "out": tmp_path / "out"}
    files["huge"].write_text(json.dumps({"n": 8, "L_mm": 1e308, "h0_mm": 22}))
    files["params"].write_text(json.dumps({"c_N_per_A": 1e300, "r_N": 1.0}))
    files["profile"].write_text("time_s,current_A,tension_N\n0,0,0\n1,1e10,0\n2,-1e10,0\n")
    code, out, err = run([arg.format(**files) for arg in argv], capsys)
    assert_bad_input(code, err)
    assert "finite number" in err
    assert out == ""
    assert not list(tmp_path.glob("out*"))


def test_beam_solve_at_the_largest_lengths(capsys):
    # w and h are L times w/L and h/L, both at most 1, so neither overflows
    # for a finite L: at L = 1.7e308 they used to come out inf through
    # sqrt(2) p L, and the command exited 2
    code, out, err = run(["beam", "solve", "--L", "1.7e308", "--p", "0.999"], capsys)
    assert code == 0 and err == ""
    sol = solve_beam(1.7e308, 0.999)
    assert sol.h == 1.7e308 * solve_beam(1.0, 0.999).h < 1.7e308
    assert out.startswith(f"w_mm={format(sol.w, '.15g')} h_mm={format(sol.h, '.15g')} ")


def test_muscle_invert_at_natural_length_of_any_spec(tmp_path, capsys):
    # (length - h0) / n rounds to just above L for this spec
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 6, "L_mm": 0.7, "h0_mm": 87.50872873361456}))
    code, out, err = run(["muscle", "invert", "--spec", str(spec),
                          "--length", "91.70872873361456"], capsys)
    assert code == 0, err
    assert out.splitlines()[1].split(",")[1:] == ["0", "91.7087287336146", "0", "0"]


@pytest.mark.parametrize("L", ["inf", "nan"])
def test_beam_solve_rejects_non_finite_length(capsys, L):
    code, out, err = run(["beam", "solve", "--L", L, "--p", "0.9"], capsys)
    assert_bad_input(code, err)
    assert out == ""


def test_muscle_spec_integral_float_count_accepted(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**RADIAL, "n": 8.0}))
    code, out, _ = run(["muscle", "invert", "--spec", str(spec), "--length", "238"], capsys)
    assert code == 0
    assert out == (GOLDEN_DIR / "muscle_invert_natural.txt").read_text()


def test_muscle_spec_must_be_object(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text("[8, 27.0, 22.0]")
    code, _, err = run(["muscle", "invert", "--spec", str(spec), "--length", "220"], capsys)
    assert_bad_input(code, err)


@pytest.mark.parametrize("field, value", [
    ("min_stroke_mm", "abc"),
    ("n_range", [1, 12.5]),
    ("n_range", [1]),
    ("L_range_mm", [10.0, None]),
    ("natural_length_range_mm", 237.2),
])
def test_design_constraints_reject_bad_field(tmp_path, capsys, field, value):
    raw = json.loads((DATA_DIR / "constraints.json").read_text())
    raw[field] = value
    cons = tmp_path / "cons.json"
    cons.write_text(json.dumps(raw))
    code, _, err = run(["design", "search", "--constraints", str(cons)], capsys)
    assert_bad_input(code, err)
    assert field in err


@pytest.mark.parametrize("bad_row", ["0.5,1.0", "0.5,1.0,2.0,3.0", "0.5,abc,2.0"])
def test_winch_csv_rejects_malformed_row(tmp_path, capsys, bad_row):
    lines = (DATA_DIR / "winch_bench.csv").read_text().splitlines()
    lines.insert(3, bad_row)
    data = tmp_path / "winch.csv"
    data.write_text("\n".join(lines) + "\n")
    code, _, err = run(["winch", "fit", "--data", str(data)], capsys)
    assert_bad_input(code, err)
    assert "3 numbers" in err


def test_winch_fit_degenerate_sweep_is_bad_input(tmp_path, capsys):
    data = tmp_path / "winch.csv"
    data.write_text("time_s,current_A,tension_N\n0,0,0\n1,3,60\n2,0,0\n3,3,60\n4,0,0\n")
    code, _, err = run(["winch", "fit", "--data", str(data)], capsys)
    assert_bad_input(code, err)


def test_winch_csv_rejects_short_rows_throughout(tmp_path, capsys):
    data = tmp_path / "winch.csv"
    data.write_text("time_s,current_A,tension_N\n0.0,1.0\n0.1,2.0\n")
    code, _, err = run(["winch", "fit", "--data", str(data)], capsys)
    assert_bad_input(code, err)
    assert "got 2" in err


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_winch_simulate_rejects_non_finite_profile_cell(tmp_path, capsys, cell):
    lines = (DATA_DIR / "triangle_profile.csv").read_text().splitlines()
    lines[3] = f"{lines[3].split(',')[0]},{cell},0"
    profile = tmp_path / "profile.csv"
    profile.write_text("\n".join(lines) + "\n")
    code, out, err = run(
        ["winch", "simulate", "--params", str(DATA_DIR / "winch_params.json"),
         "--profile", str(profile)],
        capsys,
    )
    assert_bad_input(code, err)
    assert out == "" and "finite" in err


@pytest.mark.parametrize("field, text", [
    ("r_N", "NaN"),
    ("c_N_per_A", '"20"'),
    ("initial_tension_N", "true"),
])
def test_winch_params_reject_bad_field(tmp_path, capsys, field, text):
    raw = json.loads((DATA_DIR / "winch_params.json").read_text())
    params = tmp_path / "params.json"
    params.write_text(json.dumps({**raw, field: "@"}).replace('"@"', text))
    code, _, err = run(
        ["winch", "simulate", "--params", str(params),
         "--profile", str(DATA_DIR / "triangle_profile.csv")],
        capsys,
    )
    assert_bad_input(code, err)
    assert field in err


@pytest.mark.parametrize("fixture, key, argv", [
    ("constraints.json", "min_width_at_full", ["design", "search", "--constraints"]),
    ("radial.json", "L", ["muscle", "invert", "--length", "220", "--spec"]),
    ("winch_params.json", "initial_tension",
     ["winch", "simulate", "--profile", str(DATA_DIR / "triangle_profile.csv"), "--params"]),
], ids=["constraints", "muscle-spec", "winch-params"])
def test_json_inputs_reject_an_unknown_field(tmp_path, capsys, fixture, key, argv):
    # a misspelled optional field, such as min_width_at_full for
    # min_width_at_full_mm, used to be ignored: the run went on without it
    raw = json.loads((DATA_DIR / fixture).read_text())
    path = tmp_path / fixture
    path.write_text(json.dumps({**raw, key: 1000.0}))
    code, out, err = run([*argv, str(path)], capsys)
    assert_bad_input(code, err)
    assert out == "" and f"unknown field {key!r}" in err


WINCH_SIMULATE = ["winch", "simulate", "--profile", str(DATA_DIR / "triangle_profile.csv"),
                  "--params"]


@pytest.mark.parametrize("fixture, edit, argv, message", [
    ("radial.json", {"L_mm": -1}, ["muscle", "invert", "--length", "220", "--spec"],
     "muscle spec {path}: beam length L=-1.0 must be positive and finite"),
    ("radial.json", {"kind": "spiral"}, ["muscle", "invert", "--length", "220", "--spec"],
     "muscle spec {path}: kind='spiral' must be one of ('radial', 'planar')"),
    ("constraints.json", {"L_range_mm": [50, 10]}, ["design", "search", "--constraints"],
     "constraints {path}: L_range=(50.0, 10.0) must satisfy 0 <= min <= max < inf"),
    ("winch_params.json", {"c_N_per_A": -1, "r_N": 1}, WINCH_SIMULATE,
     "winch params {path}: gain c=-1.0 must be positive and finite"),
    ("winch_params.json", {"r_N": -0.5}, WINCH_SIMULATE,
     "winch params {path}: half-band r=-0.5 must be finite and >= 0"),
], ids=["muscle-spec-L", "muscle-spec-kind", "constraints-L_range", "winch-params-c",
        "winch-params-r"])
def test_value_type_errors_name_their_file(tmp_path, capsys, fixture, edit, argv, message):
    # the range checks of MuscleSpec, DesignConstraints and HysteresisParams
    # used to be reported without the file, unlike every other error in a
    # JSON input
    path = tmp_path / fixture
    path.write_text(json.dumps({**json.loads((DATA_DIR / fixture).read_text()), **edit}))
    code, out, err = run([*argv, str(path)], capsys)
    assert (code, out, err) == (2, "", f"error: {message.format(path=path)}\n")


def test_winch_simulate_reads_the_params_that_winch_fit_writes(capsys):
    # winch_fit.json holds rms_residual_N besides the parameters
    profile = str(DATA_DIR / "triangle_profile.csv")
    fitted = run(["winch", "simulate", "--params", str(GOLDEN_DIR / "winch_fit.json"),
                  "--profile", profile], capsys)
    given = run(["winch", "simulate", "--params", str(DATA_DIR / "winch_params.json"),
                 "--profile", profile], capsys)
    assert fitted == given and fitted[0] == 0


def test_winch_simulate_rejects_non_finite_initial_tension(capsys):
    code, _, err = run(
        ["winch", "simulate", "--params", str(DATA_DIR / "winch_params.json"),
         "--profile", str(DATA_DIR / "triangle_profile.csv"), "--initial-tension", "nan"],
        capsys,
    )
    assert_bad_input(code, err)
    assert "initial tension" in err


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "files"])
def test_winch_simulate_one_row_svg_is_bad_input(tmp_path, capsys, to_file):
    # a one-point loop cannot be plotted; the CSV used to be written first,
    # then an internal error
    profile = tmp_path / "one.csv"
    profile.write_text("time_s,current_A,tension_N\n0,1,0\n")
    argv = ["winch", "simulate", "--params", str(DATA_DIR / "winch_params.json"),
            "--profile", str(profile), "--svg", str(tmp_path / "z.svg")]
    if to_file:
        argv += ["--out", str(tmp_path / "z.csv")]
    code, out, err = run(argv, capsys)
    assert_bad_input(code, err)
    assert out == ""
    assert not list(tmp_path.glob("z*"))


SRC_DIR = Path(__file__).resolve().parent.parent / "src"
CHILD_MEMORY = 1 << 30


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    """``python -m wwmtc argv`` in a fresh interpreter, its address space
    capped, so that a runaway loop ends in MemoryError and not in a hang."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))

    return subprocess.run([sys.executable, "-m", "wwmtc", *argv], capture_output=True,
                          text=True, env=env, timeout=60, preexec_fn=cap_memory)


@pytest.mark.parametrize("currents, code", [
    # a flat axis whose widening by 1 is lost to rounding divided by zero
    (("1e17", "1e17", "1e17"), 0),
    # a tick step below half an ULP never moved the tick, and ran out of memory
    (("1e17", "100000000000000016", "1e17"), 0),
    # a tick step that underflows to 0 met log10(0)
    (("0", "5e-324", "0"), 0),
    # a tick magnitude that underflows to 0 left no step
    (("0", "1.5e-323", "0"), 0),
    # ticks that overflow to inf never stopped
    (("1e308", "1.7976931348623157e308", "1.2e308"), 0),
    # a flat axis at the largest double, widened by an ULP, reaches inf
    (("1.7976931348623157e308",) * 3, 2),
], ids=["flat-1e17", "step-below-half-ulp", "step-underflow", "magnitude-underflow",
        "ticks-overflow", "flat-largest-double"])
def test_svg_axes_of_extreme_finite_currents(tmp_path, currents, code):
    params = tmp_path / "params.json"
    params.write_text('{"c_N_per_A": 1.0, "r_N": 0.5}')
    profile = tmp_path / "profile.csv"
    profile.write_text("time_s,current_A,tension_N\n"
                       + "".join(f"{t},{i},0\n" for t, i in enumerate(currents)))
    svg = tmp_path / "loop.svg"
    proc = run_child(["winch", "simulate", "--params", str(params), "--profile",
                      str(profile), "--out", str(tmp_path / "loop.csv"), "--svg", str(svg)])
    if code == 2:
        assert_bad_input(proc.returncode, proc.stderr)
        assert not svg.exists()
    else:
        assert (proc.returncode, proc.stderr) == (0, "")
        assert svg.read_text().endswith("</svg>\n")


def test_svg_axis_of_a_flat_length_at_large_magnitude(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"n": 8, "L_mm": 1e-300, "h0_mm": 1e17}')
    svg = tmp_path / "curve.svg"
    proc = run_child(["muscle", "curve", "--spec", str(spec), "--svg", str(svg)])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert svg.read_text().endswith("</svg>\n")


def test_design_search_over_a_too_wide_n_range_is_bad_input(tmp_path):
    # the search held every arch count's output, and ran out of memory
    raw = json.loads((DATA_DIR / "constraints.json").read_text())
    raw["n_range"] = [1, 10_000_000]
    cons = tmp_path / "cons.json"
    cons.write_text(json.dumps(raw))
    proc = run_child(["design", "search", "--constraints", str(cons)])
    assert_bad_input(proc.returncode, proc.stderr)
    assert proc.stdout == "" and "n_range" in proc.stderr


@pytest.mark.parametrize("specs, samples, outputs", [
    (["radial.json"], "3000000", ["--out", "c.csv"]),
    (["radial.json", "planar.json"], "600000", ["--svg", "overlay.svg"]),
])
def test_muscle_curve_of_too_many_samples_is_bad_input(tmp_path, specs, samples, outputs):
    # the cap is on the total over all specs; every sample is held until the
    # outputs are written, and 3 000 000 of them ran out of memory
    argv = ["muscle", "curve", "--samples", samples]
    for spec in specs:
        argv += ["--spec", str(DATA_DIR / spec)]
    proc = run_child(argv + [outputs[0], str(tmp_path / outputs[1])])
    assert_bad_input(proc.returncode, proc.stderr)
    assert proc.stdout == "" and "--samples" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def _tendon_log_after_bedding_in(tmp_path, strain, load) -> str:
    """A tendon log: a 10-row bedding-in cycle that ends at strain 0.02,
    then one cycle of the given strains and loads."""
    strain = [0.02 * k / 9 for k in range(10)] + strain
    load = [5.0 * k / 9 for k in range(10)] + load
    cycle = [0] * 10 + [1] * (len(strain) - 10)
    data = tmp_path / "tendon.csv"
    data.write_text("time_s,load_N,strain,cycle\n" + "".join(
        f"{k},{f!r},{s!r},{c}\n" for k, (f, s, c) in enumerate(zip(load, strain, cycle))))
    return str(data)


def test_tendon_fit_that_stalls_is_bad_input(tmp_path, capsys):
    # every strain past bedding-in equals eps0, so the Jacobian is zero
    data = _tendon_log_after_bedding_in(tmp_path, [0.02] * 10,
                                        [1.0 + 8.0 * k / 9 for k in range(10)])
    code, out, err = run(["tendon", "fit", "--data", data], capsys)
    assert_bad_input(code, err)
    assert "tendon fit stalled" in err
    assert out == ""


def _ramp(lo: float, hi: float, n: int = 20) -> list[float]:
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


@pytest.mark.filterwarnings("error")  # a numpy warning is a second stderr line
@pytest.mark.parametrize("strain, load", [
    (_ramp(0.03, 0.2), [0.0] * 20),
    (_ramp(0.0, 0.019), _ramp(1.0, 9.0)),
    (_ramp(0.03, 0.2), _ramp(9.0, 1.0)),
    ([0.02, 0.1] * 10, [1.0, 9.0] * 10),
], ids=["zero-loads", "strains-below-eps0", "falling-loads", "two-strains"])
def test_degenerate_tendon_log_is_a_fit_or_bad_input(tmp_path, capsys, strain, load):
    # no positive a fits the first two, the third's b runs down to 0, and
    # the fourth's strains leave b undetermined: never an internal fault
    data = _tendon_log_after_bedding_in(tmp_path, strain, load)
    code, out, err = run(["tendon", "fit", "--data", data], capsys)
    if code == 0:
        fit = json.loads(out)
        assert err == "" and fit["a_N"] > 0.0 and fit["b"] > 0.0
    else:
        assert_bad_input(code, err)
        assert out == ""


def test_tendon_csv_rejects_ragged_row(tmp_path, capsys):
    lines = (DATA_DIR / "tendon_bench.csv").read_text().splitlines()
    lines.insert(2, "0.0,1.0,0.1")
    data = tmp_path / "tendon.csv"
    data.write_text("\n".join(lines) + "\n")
    code, _, err = run(["tendon", "fit", "--data", str(data)], capsys)
    assert_bad_input(code, err)
    assert "4 numbers" in err


def test_tendon_csv_rejects_fractional_cycle(tmp_path, capsys):
    header, *rows = (DATA_DIR / "tendon_bench.csv").read_text().splitlines()
    shifted = []
    for row in rows:
        *cells, cycle = row.split(",")
        shifted.append(",".join([*cells, repr(int(cycle) + 0.7)]))
    data = tmp_path / "tendon.csv"
    data.write_text("\n".join([header, *shifted]) + "\n")
    code, _, err = run(["tendon", "fit", "--data", str(data)], capsys)
    assert_bad_input(code, err)
    assert "cycle" in err


def test_tendon_csv_accepts_integral_float_cycle(tmp_path, capsys):
    header, *rows = (DATA_DIR / "tendon_bench.csv").read_text().splitlines()
    data = tmp_path / "tendon.csv"
    data.write_text("\n".join([header, *(row + ".0" for row in rows)]) + "\n")
    code, out, _ = run(["tendon", "fit", "--data", str(data)], capsys)
    assert code == 0
    assert out == (GOLDEN_DIR / "tendon_fit.json").read_text()


def edited_log(tmp_path, fixture, edit):
    """The shipped log with edit(*cells) applied to the numbers of each row."""
    header, *rows = (DATA_DIR / fixture).read_text().splitlines()
    edited = [",".join(map(repr, edit(*map(float, row.split(","))))) for row in rows]
    path = tmp_path / fixture
    path.write_text("\n".join([header, *edited]) + "\n")
    return path


@pytest.mark.filterwarnings("error")  # a numpy warning is a second stderr line
@pytest.mark.parametrize("command, fixture, edit", [
    ("tendon", "tendon_bench.csv", lambda t, load, strain, c: (t, 1e300 * strain, strain, c)),
    ("winch", "winch_bench.csv", lambda t, i, tension: (t, 1e300 * i, tension / 35 * 1e308)),
    ("winch", "winch_bench.csv", lambda t, i, tension: (t, i, tension / 35 * 1e308)),
    # the 0.025 A steps become steps of one ULP of 1e6
    ("winch", "winch_bench.csv",
     lambda t, i, tension: (t, 1e6 + math.ulp(1e6) * round(i / 0.025), tension)),
], ids=["tendon-loads", "winch-both", "winch-tensions", "winch-close-currents"])
def test_fits_past_double_range_are_bad_input(tmp_path, capsys, command, fixture, edit):
    # each used to print numpy warnings before its error line, and the close
    # currents gave a fit from a rank-deficient polyfit with exit 0
    code, out, err = run([command, "fit", "--data", str(edited_log(tmp_path, fixture, edit))],
                         capsys)
    assert_bad_input(code, err)
    assert out == ""


@pytest.mark.filterwarnings("error")  # a numpy cast warning is a second stderr line
def test_tendon_csv_rejects_cycle_past_int64(tmp_path, capsys):
    # these used to become int64 garbage, and the fit then reported no
    # loading cycle after the first
    data = edited_log(tmp_path, "tendon_bench.csv",
                      lambda t, load, strain, c: (t, load, strain, (c + 1) * 1e300))
    code, out, err = run(["tendon", "fit", "--data", str(data)], capsys)
    assert_bad_input(code, err)
    assert out == "" and "cycle" in err


# Every log command reads through one parser.  Per command: argv for a log
# file, the shipped log, and the golden its output must equal.
LOG_COMMANDS = {
    "winch simulate": (
        lambda path: ["winch", "simulate", "--params", str(DATA_DIR / "winch_params.json"),
                      "--profile", str(path)],
        "triangle_profile.csv", "winch_simulate.csv",
    ),
    "tendon fit": (lambda path: ["tendon", "fit", "--data", str(path)],
                   "tendon_bench.csv", "tendon_fit.json"),
    "winch fit": (lambda path: ["winch", "fit", "--data", str(path)],
                  "winch_bench.csv", "winch_fit.json"),
}


def run_edited_log(tmp_path, capsys, command, edit, newline="\n"):
    argv, fixture, _ = LOG_COMMANDS[command]
    lines = (DATA_DIR / fixture).read_text().splitlines()
    edit(lines)
    path = tmp_path / fixture
    path.write_bytes((newline.join(lines) + newline).encode())
    return run(argv(path), capsys)


def comment_line(lines):
    lines.insert(3, "# a comment line")


def ragged_row(lines):
    lines.insert(3, lines[3].rsplit(",", 1)[0])


def trailing_comma(lines):
    lines[3] += ","


def grouped_digits(lines):
    lines[3] = lines[3].rsplit(",", 1)[0] + ",1_0"


def unicode_space(lines):
    # float and np.loadtxt would both read a no-break space as a space
    lines[3] = lines[3].rsplit(",", 1)[0] + ",\xa00"


def unit_separator(lines):
    # np.loadtxt reads U+001F as a space, float does not
    lines[3] += "\x1f"


# str.splitlines also ends a line at each of these; a log line ends at "\n"
# only, so the two rows joined by one are one malformed row
def join_rows(lines, separator):
    lines[3:5] = [lines[3] + separator + lines[4]]


def form_feed_join(lines):
    join_rows(lines, "\x0c")


def record_separator_join(lines):
    join_rows(lines, "\x1e")


def next_line_join(lines):
    join_rows(lines, "\x85")


def blank_line(lines):
    lines.insert(3, " \t ")


def unedited(lines):
    pass


@pytest.mark.parametrize("command", LOG_COMMANDS)
@pytest.mark.parametrize("edit", [comment_line, ragged_row, trailing_comma, grouped_digits,
                                  unicode_space, unit_separator, form_feed_join,
                                  record_separator_join, next_line_join],
                         ids=lambda edit: edit.__name__)
def test_log_reader_rejects_malformed_lines(tmp_path, capsys, command, edit):
    code, out, err = run_edited_log(tmp_path, capsys, command, edit)
    assert_bad_input(code, err)
    assert out == "" and "numbers" in err


@pytest.mark.parametrize("command", LOG_COMMANDS)
@pytest.mark.parametrize("edit, newline", [(blank_line, "\n"), (unedited, "\r\n")],
                         ids=["blank-line", "crlf"])
def test_log_reader_accepts_blank_lines_and_crlf(tmp_path, capsys, command, edit, newline):
    code, out, err = run_edited_log(tmp_path, capsys, command, edit, newline)
    assert code == 0, err
    assert out == (GOLDEN_DIR / LOG_COMMANDS[command][2]).read_text()


# --- writing outputs ---------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["beam", "solve", "--L", "1", "--p=--"],
    ["elliptic", "eval", "--kind", "K", "--p=--"],
    ["muscle", "invert", "--spec", str(DATA_DIR / "radial.json"), "--length=--"],
    ["muscle", "curve", "--spec", str(DATA_DIR / "radial.json"), "--samples=--"],
    ["muscle", "curve", "--spec", str(DATA_DIR / "radial.json"), "--p-cap=--"],
    ["muscle", "curve", "--spec=--"],
    ["design", "search", "--constraints=--"],
    ["muscle", "curve", "--spec", str(DATA_DIR / "radial.json"), "--out=--"],
])
def test_double_dash_value_is_bad_argv(capsys, argv):
    # argparse drops a '--' written as the value and stores [] unconverted:
    # an internal error, or for --out the CSV on stdout
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: wwmtc") and err.count("\n") == 1, err


CURVE = ["muscle", "curve", "--spec", str(DATA_DIR / "radial.json"), "--samples", "5"]
SEARCH = ["design", "search", "--constraints", str(DATA_DIR / "constraints.json")]
SIMULATE = ["winch", "simulate", "--params", str(DATA_DIR / "winch_params.json"),
            "--profile", str(DATA_DIR / "triangle_profile.csv")]


@pytest.mark.parametrize("argv", [
    CURVE + ["--out", "{tmp}/c.csv", "--svg", "{tmp}/no/c.svg"],
    SEARCH + ["--out", "{tmp}/d.json", "--csv", "{tmp}/no/d.csv"],
    SEARCH + ["--csv", "{tmp}/no/d.csv"],
    SEARCH + ["--out", "{tmp}/old.txt", "--csv", "{tmp}/no/d.csv"],
    SIMULATE + ["--out", "{tmp}/w.csv", "--svg", "{tmp}/no/w.svg"],
    SIMULATE + ["--svg", "{tmp}/no/w.svg"],
    CURVE + ["--out", "{tmp}/old.txt", "--svg", "{tmp}/no/c.svg"],
    SIMULATE + ["--out", "{tmp}/old.txt", "--svg", "{tmp}/no/w.svg"],
])
def test_unwritable_last_output_writes_nothing(tmp_path, capsys, argv):
    # the earlier outputs used to be written before the last one failed,
    # and a file that was there before the run emptied and overwritten;
    # it is kept with its content
    (tmp_path / "old.txt").write_text("old\n")
    code, out, err = run([arg.format(tmp=tmp_path) for arg in argv], capsys)
    assert_bad_input(code, err)
    assert "cannot write" in err and "/no/" in err and out == ""
    assert [path.name for path in tmp_path.iterdir()] == ["old.txt"]
    assert (tmp_path / "old.txt").read_bytes() == b"old\n"


def test_existing_outputs_are_replaced_and_dev_null_kept(tmp_path, capsys):
    # a longer old file is emptied before the write, not written over in
    # place; /dev/null, a character device, is written and left in place
    old = tmp_path / "d.json"
    old.write_text("x" * 100_000)
    argv = SEARCH + ["--out", str(old), "--csv", os.devnull]
    code, out, err = run(argv, capsys)
    assert code == 0 and out == ""
    assert old.read_bytes() == (GOLDEN_DIR / "design_search.json").read_bytes()
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_write_failing_midway_keeps_existing_file(tmp_path, capsys):
    # /dev/full opens but every write to it fails; keep.json used to be
    # emptied and written with the new JSON before that failure
    keep = tmp_path / "keep.json"
    keep.write_text("old\n")
    code, out, err = run(SEARCH + ["--out", str(keep), "--csv", "/dev/full"], capsys)
    assert_bad_input(code, err)
    assert "cannot write /dev/full" in err and out == ""
    assert keep.read_bytes() == b"old\n"
    assert [path.name for path in tmp_path.iterdir()] == ["keep.json"]


def test_replaced_file_keeps_mode_and_new_file_follows_umask(tmp_path, capsys):
    old, new = tmp_path / "d.json", tmp_path / "d.csv"
    old.write_text("old\n")
    old.chmod(0o600)
    umask = os.umask(0o027)
    try:
        code, _, err = run(SEARCH + ["--out", str(old), "--csv", str(new)], capsys)
    finally:
        os.umask(umask)
    assert code == 0, err
    assert old.read_bytes() == (GOLDEN_DIR / "design_search.json").read_bytes()
    assert old.stat().st_mode & 0o777 == 0o600
    assert new.stat().st_mode & 0o777 == 0o640  # 0o666 under the umask 0o027
    assert sorted(path.name for path in tmp_path.iterdir()) == ["d.csv", "d.json"]


def test_symlinked_output_replaces_its_target(tmp_path, capsys):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old\n")
    link.symlink_to(target.name)
    code, _, err = run(SEARCH + ["--out", str(link)], capsys)
    assert code == 0, err
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == (GOLDEN_DIR / "design_search.json").read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.json", "target.json"]


@pytest.mark.parametrize("argv", [
    CURVE + ["--out", "{tmp}/c.csv", "--svg", "{tmp}/c.csv"],
    SEARCH + ["--out", "{tmp}/d.json", "--csv", "{tmp}/./d.json"],
    SIMULATE + ["--out", "{tmp}/w.csv", "--svg", "{tmp}/../{name}/w.csv"],
])
def test_two_outputs_naming_one_file_are_bad_input(tmp_path, capsys, argv):
    # the second output used to overwrite the first, with exit 0
    argv = [arg.format(tmp=tmp_path, name=tmp_path.name) for arg in argv]
    code, out, err = run(argv, capsys)
    assert_bad_input(code, err)
    assert "same file" in err and out == ""
    assert not list(tmp_path.iterdir())


# --- determinism -------------------------------------------------------------------

def test_byte_identical_reruns(tmp_path, capsys):
    """Two identical invocations produce byte-identical CSV and SVG."""
    paths = []
    for tag in ("one", "two"):
        csv_path = tmp_path / f"curve_{tag}.csv"
        svg_path = tmp_path / f"curve_{tag}.svg"
        code, _, _ = run(
            ["muscle", "curve", "--spec", str(DATA_DIR / "radial.json"),
             "--spec", str(DATA_DIR / "planar.json"),
             "--samples", "80", "--svg", str(svg_path)],
            capsys,
        )
        assert code == 0
        code, _, _ = run(
            ["muscle", "curve", "--spec", str(DATA_DIR / "radial.json"),
             "--samples", "80", "--out", str(csv_path)],
            capsys,
        )
        assert code == 0
        paths.append((csv_path, svg_path))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["muscle", "invert", "-h"]):
        assert dispatch(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: wwmtc") and captured.err == ""


# every group, its commands and each command's flags, in the order of --help
COMMANDS = {
    "elliptic": {"eval": ["--kind", "--phi", "--p"]},
    "beam": {"solve": ["--L", "--p", "--json"]},
    "muscle": {"curve": ["--spec", "--samples", "--out", "--svg", "--p-cap"],
               "invert": ["--spec", "--length", "--p-cap"]},
    "design": {"search": ["--constraints", "--out", "--csv", "--p-cap"]},
    "tendon": {"fit": ["--data"]},
    "winch": {"fit": ["--data"],
              "simulate": ["--params", "--profile", "--out", "--svg", "--initial-tension"]},
}


def test_help_lists_every_group_command_and_flag(capsys):
    def help_text(*argv):
        assert dispatch([*argv, "-h"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        return captured.out

    def choices(text):  # the subcommands that the usage line lists
        return re.search(r"\{([\w,]+)\} \.\.\.", text).group(1).split(",")

    assert choices(help_text()) == list(COMMANDS)
    for group, commands in COMMANDS.items():
        assert choices(help_text(group)) == list(commands)
        for command, flags in commands.items():
            text = help_text(group, command)
            assert text.startswith(f"usage: wwmtc {group} {command} [-h] ")
            assert re.findall(r"^  (-[-\w]+)", text, re.M) == ["-h", *flags]

"""Mutation checks: does each listed fault fail the tests named for it?

Each mutant is an exact-string edit of one file of the package, the test
files that should kill it, and what is expected of it: ``killed`` (a test
fails against it) or ``survived`` (an open gap: no test sees it yet, and
``note`` says what is missing).

For each mutant the script copies ``src`` and ``tests`` to a temporary
directory, applies the edit there and runs pytest on the named files,
stopping at the first failure; a failing run kills the mutant.  The
working tree is never edited.  It prints one line per mutant and exits 1
when a mutant comes out other than expected, or its edit no longer applies.
tests/test_float_constants.py requires a mutant here, or a stated reason,
for every module-level float constant of the package.

    python tests/mutants.py             # every mutant
    python tests/mutants.py NAME ...    # the named ones
    python tests/mutants.py --list

Standard library only, and not collected by pytest (the file name does not
start with ``test_``).  A mutant takes ~2-30 s, one at a time.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "name path old new tests expect note")

MUTANTS = [
    Mutant("design-crossing-shortcut", "src/wwmtc/design.py",
           "        lo = lo if lo <= L_max else L_max  # the walks start inside L_range\n"
           "        hi = hi if hi >= L_min else L_min\n",
           "        if not lo <= hi:\n            continue\n",
           ["tests/test_design.py", "tests/test_cli.py"], "killed",
           "drops a count whose rounded closed-form ends cross although a double "
           "passes: test_touching_sets_are_feasible and the CLI repro"),
    Mutant("design-bindings-strict-first-skip", "src/wwmtc/design.py",
           "if nat - nat_lo <= best or nat_hi - nat <= best:",
           "if nat - nat_lo < best or nat_hi - nat < best:",
           ["tests/test_design.py"], "killed",
           "sends a tie to the later candidate: the rounding-plateau case of "
           "test_bindings_are_the_maximin_at_ties"),
    Mutant("design-bindings-end-tie-to-L_max", "src/wwmtc/design.py",
           "if best_hi > best_lo else", "if best_hi >= best_lo else",
           ["tests/test_design.py"], "killed",
           "gives L_max a tie with L_min: the flat-stroke-tie case of "
           "test_bindings_settle_a_count_at_an_end_or_by_the_scan"),
    Mutant("design-bindings-L_max-without-its-test", "src/wwmtc/design.py",
           "if not rise_hi <= fall_hi:", "if False:",
           ["tests/test_design.py"], "killed",
           "takes the better end where the maximin lies inside L_range: the interior "
           "case of test_bindings_settle_a_count_at_an_end_or_by_the_scan"),
    Mutant("actuators-tendonfit-without-real", "src/wwmtc/actuators.py",
           '        a, b, eps0 = _real("a", a), _real("b", b), _real("eps0", eps0)\n'
           '        rms_residual = _real("rms_residual", rms_residual)\n',
           "",
           ["tests/test_actuators.py", "tests/test_values.py"], "killed",
           "keeps a str or bool field: test_tendon_fit_numbers_are_floats"),
    Mutant("actuators-tendonfit-admits-negative-load", "src/wwmtc/actuators.py",
           "    if not (0.0 <= load).all():\n"
           '        raise DomainError("loads must be >= 0")\n',
           "",
           ["tests/test_actuators.py"], "killed",
           "fits a negative load: test_tendon_input_validation"),
    Mutant("design-counts-tol-zero", "src/wwmtc/design.py",
           "tol = 16 * _EPS * (nat_hi + h0 + alpha) + _TINY",
           "tol = 0.0",
           ["tests/test_design.py"], "killed",
           "decides counts within rounding of a threshold in n: the touching sets"),
    Mutant("design-counts-tol_L-zero", "src/wwmtc/design.py",
           "tol_L = 16 * _EPS * (A + B) + _TINY",
           "tol_L = 0.0",
           ["tests/test_design.py"], "killed",
           "decides counts where the width bounds meet within rounding: the touching "
           "sets' pinned example all_touching(1, 15.0, 0.97)"),
    Mutant("design-counts-tol_L-2eps", "src/wwmtc/design.py",
           "tol_L = 16 * _EPS * (A + B) + _TINY",
           "tol_L = 2 * _EPS * (A + B) + _TINY",
           ["tests/test_design.py"], "survived",
           "below the 4x headroom _counts' docstring claims, above the rounding bound"),
    Mutant("design-counts-tol-1eps", "src/wwmtc/design.py",
           "tol = 16 * _EPS * (nat_hi + h0 + alpha) + _TINY",
           "tol = 1 * _EPS * (nat_hi + h0 + alpha) + _TINY",
           ["tests/test_design.py"], "survived",
           "below the 4x headroom _counts' docstring claims"),
    Mutant("beam-forward-coefficient-last-digit", "src/wwmtc/beam.py",
           "        0.9564034082321919, -0.054676580897382664, -0.009264409771040712,\n",
           "        0.9564034082321918, -0.054676580897382664, -0.009264409771040712,\n",
           ["tests/test_beam.py"], "killed",
           "moves c_0 of h/L on the first piece by an ULP: test_forward_table_rebuild"),
    Mutant("beam-h-c0-one-ulp-up", "src/wwmtc/beam.py",
           "0.9564034082321919", "0.956403408232192",
           ["tests/test_beam.py::test_shape_range_from_the_table_digits"], "killed",
           "lifts the first piece's h/L interpolant above 1 at the straight end, "
           "which the proof of h/L <= 1 rests on"),
    Mutant("beam-delta-without-p-lo", "src/wwmtc/beam.py",
           "    delta = (p - P_STRAIGHT) - _P_LO\n",
           "    delta = p - P_STRAIGHT\n",
           ["tests/test_beam.py"], "killed",
           "takes P_STRAIGHT for 1/sqrt(2): w, k and psi0 next to the straight end, "
           "test_width_matches_reference and ARCH_HEX"),
    Mutant("beam-clenshaw-highest-term-dropped", "src/wwmtc/beam.py",
           "    for c in h_tail:  # Clenshaw, h/L\n",
           "    for c in h_tail[1:]:  # Clenshaw, h/L\n",
           ["tests/test_beam.py", "tests/test_golden_accuracy.py"], "killed",
           "evaluates h/L at degree 16: ARCH_HEX and the height bound"),
    Mutant("beam-psi0-asin", "src/wwmtc/beam.py",
           "    psi0 = math.atan2(q, math.sqrt(2.0 * (1.0 - p) * (1.0 + p) * (1.0 + q)))\n",
           "    psi0 = math.asin(q)\n",
           ["tests/test_beam.py"], "killed",
           "magnifies q's rounding by 1 / cos(psi0) next to P_MAX: "
           "test_width_matches_reference's psi0 bound"),
    Mutant("actuators-rank-tol-halved", "src/wwmtc/actuators.py",
           "_RANK_TOL = 2.0 * math.ulp(1.0)",
           "_RANK_TOL = 1.0 * math.ulp(1.0)",
           ["tests/test_actuators.py"], "killed",
           "fits a line np.polyfit calls rank deficient: the between-rank-thresholds "
           "case of test_winch_fit_rejects_what_polyfit_rejects"),
    Mutant("svgplot-seven-ticks", "src/wwmtc/svgplot.py",
           "_TICKS = 6  #",
           "_TICKS = 7  #",
           ["tests/test_cli.py"], "killed",
           "steps a span of 12 by 2, not 5: test_axis_ticks_aim_at_six"),
    Mutant("errors-count-takes-a-bool", "src/wwmtc/errors.py",
           "if type(x) is not int and not isinstance(x, bool) and hasattr(x, \"__index__\"):",
           "if type(x) is not int and hasattr(x, \"__index__\"):",
           ["tests/test_values.py"], "killed",
           "takes True as the count 1: test_series_and_counts_follow_the_number_rule"),
    Mutant("errors-reals-fast-path-takes-a-bool", "src/wwmtc/errors.py",
           "if not {float}.issuperset(map(type, xs)):",
           "if not {float, bool}.issuperset(map(type, xs)):",
           ["tests/test_values.py"], "killed",
           "keeps a bool element of a series: test_series_and_counts_follow_the_number_rule"),
    Mutant("errors-reals-without-finite-check", "src/wwmtc/errors.py",
           "    if not (math.isfinite(sum(xs)) or all(map(math.isfinite, xs))):\n",
           "    if False:\n",
           ["tests/test_actuators.py"], "killed",
           "plays a NaN current: test_winch_simulate_validation"),
    Mutant("actuators-vp-tol-loose", "src/wwmtc/actuators.py",
           "_VP_TOL = 1e-14", "_VP_TOL = 1e-6",
           ["tests/test_actuators.py", "tests/test_cli.py"], "killed",
           "stops Gauss-Newton while b still moves: test_tendon_fit_reaches_the_optimum"),
    Mutant("beam-boundary-tol-zero", "src/wwmtc/beam.py",
           "_BOUNDARY_TOL = 1e-12", "_BOUNDARY_TOL = 0.0",
           ["tests/test_beam.py"], "killed",
           "refuses a p that rounds just below P_STRAIGHT: "
           "test_straight_strip_boundary_is_exact"),
    Mutant("beam-d-max-last-digit", "src/wwmtc/beam.py",
           "_D_MAX = 19.495318687928826", "_D_MAX = 19.495318687928822",
           ["tests/test_beam.py"], "killed",
           "moves the forward table's domain end by an ULP: test_forward_table_rebuild"),
    Mutant("beam-u-max-last-digit", "src/wwmtc/beam.py",
           "_U_MAX = 0.9303595000027977", "_U_MAX = 0.9303595000027975",
           ["tests/test_beam.py"], "killed",
           "moves the root table's domain end by an ULP: test_root_table_rebuild"),
    Mutant("elliptic-tol-tenfold", "src/wwmtc/elliptic.py",
           "_TOL = 1e-4  #", "_TOL = 1e-3  #",
           ["tests/test_elliptic.py"], "killed",
           "stops the Carlson duplication while the series tail is above an ULP: "
           "test_kernel_returns_frozen_doubles"),
    Mutant("muscle-default-p-cap", "src/wwmtc/muscle.py",
           "DEFAULT_P_CAP = 0.97", "DEFAULT_P_CAP = 0.96",
           ["tests/test_cli.py"], "killed",
           "another default cap: test_muscle_curve_csv's golden"),
    Mutant("muscle-curve-row-swapped", "src/wwmtc/muscle.py",
           "for p, h_unit, w_unit, psi0 in rows]", "for p, w_unit, h_unit, psi0 in rows]",
           ["tests/test_muscle.py"], "killed",
           "reads a table row's h/L as w/L: test_curve_endpoints_and_ordering"),
    Mutant("muscle-curve-length-regrouped", "src/wwmtc/muscle.py",
           "(length := n * (L * h_unit) + h0)", "(length := n * L * h_unit + h0)",
           ["tests/test_muscle.py"], "killed",
           "rounds n L before h/L, not state_at's L h/L first: "
           "test_dense_curve_is_state_at_sample_by_sample and the 1001-sample "
           "curves of test_curve_kernel_budget"),
    Mutant("svgplot-margin-left", "src/wwmtc/svgplot.py",
           "_MARGIN_LEFT = 72.0", "_MARGIN_LEFT = 73.0",
           ["tests/test_cli.py"], "killed", "test_muscle_curve_svg_overlay's golden"),
    Mutant("svgplot-margin-right", "src/wwmtc/svgplot.py",
           "_MARGIN_RIGHT = 24.0", "_MARGIN_RIGHT = 25.0",
           ["tests/test_cli.py"], "killed", "test_muscle_curve_svg_overlay's golden"),
    Mutant("svgplot-margin-top", "src/wwmtc/svgplot.py",
           "_MARGIN_TOP = 24.0", "_MARGIN_TOP = 25.0",
           ["tests/test_cli.py"], "killed", "test_muscle_curve_svg_overlay's golden"),
    Mutant("svgplot-margin-bottom", "src/wwmtc/svgplot.py",
           "_MARGIN_BOTTOM = 56.0", "_MARGIN_BOTTOM = 57.0",
           ["tests/test_cli.py"], "killed", "test_muscle_curve_svg_overlay's golden"),
]


def run(mutant: Mutant) -> str:
    """killed, survived, stale (the edit does not apply exactly once) or
    error (pytest found no tests, or was called wrongly)."""
    with tempfile.TemporaryDirectory(prefix="wwmtc-mutant-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part), ignore=ignore)
        target = Path(tmp, mutant.path)
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "stale"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(Path(tmp, "src")), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode in (4, 5):
        return "error"
    return "survived" if proc.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or MUTANTS
    if args.list:
        for m in chosen:
            print(f"{m.name:36} {m.expect:10} {m.note}")
        return 0
    unexpected = 0
    for m in chosen:
        start = time.perf_counter()
        status = run(m)
        mark = "" if status == m.expect else "  <- expected " + m.expect
        unexpected += bool(mark)
        print(f"{status:9} {m.name:36} {time.perf_counter() - start:6.1f} s{mark}", flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())

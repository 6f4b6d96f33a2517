"""Command-line interface.

Exit codes: 0 success, 2 bad input or domain error (one-line message on
stderr), 1 unexpected internal fault.  The contraction cap defaults to
0.97 and can be overridden by the WWMTC_P_CAP environment variable or a
``--p-cap`` flag (the flag wins).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

from . import design, elliptic, fileio, muscle, svgplot
from .beam import solve_beam
from .errors import WwmtcError

SVG_SIZE = (800, 600)


def _env_p_cap() -> float:
    raw = os.environ.get("WWMTC_P_CAP")
    if raw is None:
        return muscle.DEFAULT_P_CAP
    try:
        return float(raw)
    except ValueError as exc:
        raise WwmtcError(f"WWMTC_P_CAP={raw!r} is not a number") from exc


def _add_p_cap(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--p-cap",
        type=float,
        default=None,
        help="shape-parameter cap for full contraction (default 0.97, "
        "env WWMTC_P_CAP)",
    )


def _resolve_p_cap(args: argparse.Namespace) -> float:
    return args.p_cap if args.p_cap is not None else _env_p_cap()


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors are WwmtcError, so that dispatch
    reports bad argv in one line; add_subparsers makes its sub-parsers of
    the same class."""

    def error(self, message: str):
        raise WwmtcError(f"{self.prog}: {message}")


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _attach_negative_numbers(argv: list[str]) -> list[str]:
    """argv with ``--opt -1e+16`` written as ``--opt=-1e+16``.

    argparse takes a token that starts with '-' for an option unless it
    looks like -5 or -.5, so -1e+16 or -inf would never reach the option
    before it; attached with '=' they do.
    """
    out: list[str] = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and token.startswith("-") and _is_number(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wwmtc",
        description="Deformation model, actuator fits and design search for "
        "wire-wound expanding muscle actuators.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    p_ell = top.add_parser("elliptic", help="elliptic integral kernels")
    ell_sub = p_ell.add_subparsers(dest="command", required=True)
    p_eval = ell_sub.add_parser("eval", help="evaluate one elliptic integral")
    p_eval.add_argument("--kind", required=True, choices=("F", "E", "K", "Ec"))
    p_eval.add_argument("--phi", type=float, default=None, help="amplitude, rad")
    p_eval.add_argument("--p", type=float, required=True, help="modulus")

    p_beam = top.add_parser("beam", help="single-arch elastica solution")
    beam_sub = p_beam.add_subparsers(dest="command", required=True)
    p_solve = beam_sub.add_parser("solve", help="deflected arch for (L, p)")
    p_solve.add_argument("--L", type=float, required=True, help="arc length, mm")
    p_solve.add_argument("--p", type=float, required=True, help="shape parameter")
    p_solve.add_argument("--json", action="store_true", help="emit JSON")

    p_mus = top.add_parser("muscle", help="whole-muscle geometry")
    mus_sub = p_mus.add_subparsers(dest="command", required=True)
    p_curve = mus_sub.add_parser("curve", help="contraction-expansion curve")
    p_curve.add_argument("--spec", action="append", required=True,
                         help="muscle spec JSON file (repeatable for overlays)")
    p_curve.add_argument("--samples", type=int, default=100)
    p_curve.add_argument("--out", help="write curve CSV here")
    p_curve.add_argument("--svg", help="write width-vs-length SVG here")
    _add_p_cap(p_curve)
    p_inv = mus_sub.add_parser("invert", help="state for a commanded length")
    p_inv.add_argument("--spec", required=True)
    p_inv.add_argument("--length", type=float, required=True, help="target, mm")
    _add_p_cap(p_inv)

    p_des = top.add_parser("design", help="search arch count and size")
    des_sub = p_des.add_subparsers(dest="command", required=True)
    p_search = des_sub.add_parser("search", help="feasible specs for constraints")
    p_search.add_argument("--constraints", required=True, help="constraints JSON")
    p_search.add_argument("--out", help="write results JSON here (default stdout)")
    p_search.add_argument("--csv", help="also write a CSV summary here")
    _add_p_cap(p_search)

    p_ten = top.add_parser("tendon", help="tendon load-strain model")
    ten_sub = p_ten.add_subparsers(dest="command", required=True)
    p_tfit = ten_sub.add_parser("fit", help="fit the stiffening model")
    p_tfit.add_argument("--data", required=True, help="CSV: " + fileio.TENDON_HEADER)

    p_win = top.add_parser("winch", help="winch tension-current model")
    win_sub = p_win.add_subparsers(dest="command", required=True)
    p_wfit = win_sub.add_parser("fit", help="fit the play operator")
    p_wfit.add_argument("--data", required=True, help="CSV: " + fileio.WINCH_HEADER)
    p_wsim = win_sub.add_parser("simulate", help="run the play operator")
    p_wsim.add_argument("--params", required=True, help="fitted-parameter JSON")
    p_wsim.add_argument("--profile", required=True, help="CSV: " + fileio.WINCH_HEADER)
    p_wsim.add_argument("--out", help="write tension CSV here (default stdout)")
    p_wsim.add_argument("--svg", help="write current-tension loop SVG here")
    p_wsim.add_argument("--initial-tension", type=float, default=None,
                        help="override the initial tension state, N")

    return parser


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise WwmtcError(f"cannot write {path}: {exc}") from exc


def _write_outputs(out: str | None, csv_text: str | None,
                   svg: str | None, svg_text: str | None) -> None:
    """CSV text to --out or stdout, SVG text to --svg; a None text is skipped."""
    if csv_text is not None:
        if out:
            _write_text(out, csv_text)
        else:
            sys.stdout.write(csv_text)
    if svg_text is not None:
        _write_text(svg, svg_text)


def _cmd_elliptic_eval(args) -> int:
    needs_phi = args.kind in ("F", "E")
    if needs_phi and args.phi is None:
        raise WwmtcError(f"--phi is required for kind {args.kind}")
    if not needs_phi and args.phi is not None:
        raise WwmtcError(f"--phi is meaningless for kind {args.kind}")
    fn = {
        "F": lambda: elliptic.ellip_f(args.phi, args.p),
        "E": lambda: elliptic.ellip_e(args.phi, args.p),
        "K": lambda: elliptic.ellip_k(args.p),
        "Ec": lambda: elliptic.ellip_e_complete(args.p),
    }[args.kind]
    print(fileio.fmt(fn()))
    return 0


def _cmd_beam_solve(args) -> int:
    sol = solve_beam(args.L, args.p)
    if args.json:
        sys.stdout.write(fileio.beam_solution_to_json(sol))
    else:
        psi0_deg = sol.psi0 * 180.0 / math.pi
        print(
            f"w_mm={fileio.fmt(sol.w)} h_mm={fileio.fmt(sol.h)} "
            f"psi0_deg={fileio.fmt(psi0_deg)} psi0_rad={fileio.fmt(sol.psi0)} "
            f"k_per_mm={fileio.fmt(sol.k)}"
        )
    return 0


def _cmd_muscle_curve(args) -> int:
    p_cap = _resolve_p_cap(args)
    specs = [fileio.read_muscle_spec(path) for path in args.spec]
    curves = [muscle.curve(spec, args.samples, p_cap) for spec in specs]

    # every output is rendered before any is written: bad input writes nothing
    csv_text = svg_text = None
    if args.out or not args.svg:
        if len(curves) != 1:
            raise WwmtcError("CSV output needs exactly one --spec (SVG supports overlays)")
        csv_text = fileio.curve_to_csv(curves[0])
    if args.svg:
        series = []
        for path, spec, cur in zip(args.spec, specs, curves):
            label = f"{Path(path).stem} ({spec.kind} n={spec.n} L={fileio.fmt(spec.L)})"
            xs = [s.length for s in cur.samples]
            ys = [s.width for s in cur.samples]
            series.append((label, xs, ys))
        svg_text = svgplot.render_line_plot(series, "length [mm]", "width [mm]", *SVG_SIZE)
    _write_outputs(args.out, csv_text, args.svg, svg_text)
    return 0


def _cmd_muscle_invert(args) -> int:
    spec = fileio.read_muscle_spec(args.spec)
    state = muscle.state_for_length(spec, args.length, _resolve_p_cap(args))
    sys.stdout.write(fileio.state_to_csv(state))
    return 0


def _cmd_design_search(args) -> int:
    constraints = fileio.read_design_constraints(args.constraints)
    p_cap = _resolve_p_cap(args)
    results = design.search(constraints, p_cap)
    report = design.infeasibility_report(constraints, p_cap)
    text = fileio.design_results_to_json(results)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    if args.csv:
        _write_text(args.csv, fileio.design_results_to_csv(results))
    for n in sorted(report):
        print(f"n={n}: infeasible, binding constraint {report[n]}", file=sys.stderr)
    return 0


# The actuator handlers import their module on call: it pulls in numpy, which
# the other commands should not pay for at start-up.
def _cmd_tendon_fit(args) -> int:
    from . import actuators

    _, load, strain, cycle = fileio.read_tendon_csv(args.data)
    fit = actuators.fit_tendon(strain, load, cycle)
    sys.stdout.write(fileio.tendon_fit_to_json(fit))
    return 0


def _cmd_winch_fit(args) -> int:
    from . import actuators

    _, current, tension = fileio.read_winch_csv(args.data)
    params = actuators.fit_winch(current, tension)
    sys.stdout.write(fileio.winch_params_to_json(params))
    return 0


def _cmd_winch_simulate(args) -> int:
    from . import actuators

    params, t0 = fileio.read_winch_params(args.params)
    if args.initial_tension is not None:
        t0 = args.initial_tension
    # profiles use the winch CSV schema; the tension column is ignored
    time_s, current, _ = fileio.read_winch_csv(args.profile)
    tension = actuators.simulate_winch(params, current, initial_tension=t0)
    csv_text = fileio.winch_series_to_csv(time_s, current, tension)
    svg_text = None
    if args.svg:
        series = [("simulated loop", current.tolist(), tension.tolist())]
        svg_text = svgplot.render_line_plot(series, "current [A]", "tension [N]", *SVG_SIZE)
    _write_outputs(args.out, csv_text, args.svg, svg_text)
    return 0


_HANDLERS = {
    ("elliptic", "eval"): _cmd_elliptic_eval,
    ("beam", "solve"): _cmd_beam_solve,
    ("muscle", "curve"): _cmd_muscle_curve,
    ("muscle", "invert"): _cmd_muscle_invert,
    ("design", "search"): _cmd_design_search,
    ("tendon", "fit"): _cmd_tendon_fit,
    ("winch", "fit"): _cmd_winch_fit,
    ("winch", "simulate"): _cmd_winch_simulate,
}


def dispatch(argv: list[str] | None = None) -> int:
    """Parse and run one invocation; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(_attach_negative_numbers(argv))
        return _HANDLERS[(args.group, args.command)](args)
    except SystemExit as exc:  # --help, printed on stdout
        return int(exc.code or 0)
    except WwmtcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal faults
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()

"""Command-line interface.

Exit codes: 0 success, 2 bad input or domain error (one-line message on
stderr), 1 unexpected internal fault.  The contraction cap defaults to
0.97 and can be overridden by the WWMTC_P_CAP environment variable or a
``--p-cap`` flag (the flag wins).

Each command is declared once, in ``_COMMANDS``: its group, name, help,
handler and arguments.  Each handler only renders its outputs; dispatch
writes them, the files first, then stdout, then stderr.  Regular files are
written to temporary files and renamed into place once every write has
succeeded.  A file that cannot be written, or that two outputs name, exits
2 with no stdout and leaves no file the run created; a file that existed
before keeps its content unless a rename fails after another has succeeded.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys

from . import actuators, design, elliptic, fileio, muscle, svgplot
from .beam import solve_beam
from .errors import WwmtcError


def _resolve_p_cap(args: argparse.Namespace) -> float:
    if args.p_cap is not None:
        return args.p_cap
    raw = os.environ.get("WWMTC_P_CAP", repr(muscle.DEFAULT_P_CAP))
    try:
        return float(raw)
    except ValueError as exc:
        raise WwmtcError(f"WWMTC_P_CAP={raw!r} is not a number") from exc


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
    before it; attached with '=' they do.  ``--opt=--`` is rejected here:
    argparse drops that '--' and stores an empty list, unconverted.
    """
    out: list[str] = []
    for token in argv:
        if token.endswith("=--") and token.startswith("--"):
            raise WwmtcError(f"wwmtc: argument {token[:-3]}: expected one argument")
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and token.startswith("-") and _is_number(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


_STDERR = object()  # destination of the diagnostic lines of a run

# A handler's rendered outputs, each written whole by _write: (path, text) for
# a file, (None, text) for stdout and (_STDERR, text) for stderr.
Outputs = list[tuple[object, str]]


def _write(outputs: Outputs) -> None:
    """Write every file, then stdout, then stderr, each in the given order.

    A regular file, new or not, is written to a temporary file next to the
    file a symlink resolves to; a destination that is not a regular file,
    such as /dev/null, is written in place after those.  Only once every
    write has succeeded are the temporary files renamed over their
    destinations; a replaced file keeps its mode.  A file that cannot be
    written, or that two outputs name, is bad input: then nothing goes to
    stdout, the temporary files and the files this call created are
    removed, and a file that existed before keeps its content unless a
    rename fails after another has replaced its file.
    """
    files = [(dest, text) for dest, text in outputs if isinstance(dest, str)]
    real = [os.path.realpath(dest) for dest, _ in files]
    for i, (dest, _) in enumerate(files):
        if real[i] in real[:i]:
            raise WwmtcError(f"cannot write {dest}: two outputs name the same file")
    regular, special = [], []  # regular: (dest, text, path, mode or None if new)
    for (dest, text), path in zip(files, real):
        try:
            mode = os.stat(path).st_mode
        except OSError:  # no file there, or a path that the write reports
            regular.append((dest, text, path, None))
            continue
        if not stat.S_ISREG(mode):
            special.append((dest, text))
        elif not os.access(path, os.W_OK):  # a rename would replace it anyway
            raise WwmtcError(f"cannot write {dest}: permission denied")
        else:
            regular.append((dest, text, path, stat.S_IMODE(mode)))
    temps, created = [], []
    try:
        for dest, text, path, mode in regular:
            tmp = f"{path}.{os.getpid()}.tmp"
            # 0o666 as open() uses, so a new file's mode follows the umask
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            temps.append(tmp)
            with open(fd, "w", encoding="utf-8", newline="") as stream:
                if mode is not None:
                    os.fchmod(fd, mode)
                stream.write(text)
        for dest, text in special:
            with open(dest, "w", encoding="utf-8", newline="") as stream:
                stream.write(text)
        for dest, _, path, mode in regular:
            os.replace(temps.pop(0), path)
            if mode is None:
                created.append(path)
    except OSError as exc:
        for path in temps + created:
            try:
                os.remove(path)
            except OSError:
                pass
        raise WwmtcError(f"cannot write {dest}: {exc.strerror or exc}") from exc
    for stream, dest in ((sys.stdout, None), (sys.stderr, _STDERR)):
        stream.write("".join(text for to, text in outputs if to is dest))


def _cmd_elliptic_eval(args) -> Outputs:
    needs_phi = args.kind in ("F", "E")
    if needs_phi and args.phi is None:
        raise WwmtcError(f"--phi is required for kind {args.kind}")
    if not needs_phi and args.phi is not None:
        raise WwmtcError(f"--phi is meaningless for kind {args.kind}")
    fn = {"F": elliptic.ellip_f, "E": elliptic.ellip_e,
          "K": elliptic.ellip_k, "Ec": elliptic.ellip_e_complete}[args.kind]
    value = fn(args.phi, args.p) if needs_phi else fn(args.p)
    return [(None, fileio.fmt(value) + "\n")]


def _cmd_beam_solve(args) -> Outputs:
    sol = solve_beam(args.L, args.p)
    if args.json:
        return [(None, fileio.beam_solution_to_json(sol))]
    psi0_deg = sol.psi0 * 180.0 / math.pi
    return [(None,
             f"w_mm={fileio.fmt(sol.w)} h_mm={fileio.fmt(sol.h)} "
             f"psi0_deg={fileio.fmt(psi0_deg)} psi0_rad={fileio.fmt(sol.psi0)} "
             f"k_per_mm={fileio.fmt(sol.k)}\n")]


# The most curve samples one run holds, over all its specs: each takes about
# 0.65 kB, its grid's table row included, until the outputs are written
# (muscle curve --samples 1000000 on tests/data/radial.json: 653 MB peak RSS
# with a CSV, 560 MB with an SVG).
_MAX_CURVE_SAMPLES = 10**6


def _cmd_muscle_curve(args) -> Outputs:
    total = args.samples * len(args.spec)
    if total > _MAX_CURVE_SAMPLES:
        raise WwmtcError(f"--samples {args.samples} times {len(args.spec)} --spec is "
                         f"{total} curve samples, more than {_MAX_CURVE_SAMPLES}")
    p_cap = _resolve_p_cap(args)
    specs = [fileio.read_muscle_spec(path) for path in args.spec]
    curves = [muscle.curve(spec, args.samples, p_cap) for spec in specs]
    outputs = []
    if args.out or not args.svg:
        if len(curves) != 1:
            raise WwmtcError("CSV output needs exactly one --spec (SVG supports overlays)")
        outputs.append((args.out or None, fileio.curve_to_csv(curves[0])))
    if args.svg:
        stems = [os.path.splitext(os.path.basename(path))[0] for path in args.spec]
        series = [(f"{stem} ({spec.kind} n={spec.n} L={fileio.fmt(spec.L)})",
                   [s.length for s in cur.samples], [s.width for s in cur.samples])
                  for stem, spec, cur in zip(stems, specs, curves)]
        outputs.append((args.svg, svgplot.render_line_plot(
            series, "length [mm]", "width [mm]")))
    return outputs


def _cmd_muscle_invert(args) -> Outputs:
    spec = fileio.read_muscle_spec(args.spec)
    state = muscle.state_for_length(spec, args.length, _resolve_p_cap(args))
    return [(None, fileio.state_to_csv(state))]


def _cmd_design_search(args) -> Outputs:
    constraints = fileio.read_design_constraints(args.constraints)
    p_cap = _resolve_p_cap(args)
    results = design.search(constraints, p_cap)
    report = design.infeasibility_report(constraints, p_cap)
    outputs = [(args.out or None, fileio.design_results_to_json(results))]
    if args.csv:
        outputs.append((args.csv, fileio.design_results_to_csv(results)))
    # the report's keys are the infeasible counts in increasing order
    outputs.append((_STDERR, "".join([f"n={n}: infeasible, binding constraint {name}\n"
                                      for n, name in report.items()])))
    return outputs


def _cmd_tendon_fit(args) -> Outputs:
    _, load, strain, cycle = fileio.read_tendon_csv(args.data)
    fit = actuators.fit_tendon(strain, load, cycle)
    return [(None, fileio.tendon_fit_to_json(fit))]


def _cmd_winch_fit(args) -> Outputs:
    _, current, tension = fileio.read_winch_columns(args.data)
    params = actuators.fit_winch(current, tension)
    return [(None, fileio.winch_params_to_json(params))]


def _cmd_winch_simulate(args) -> Outputs:
    params, t0 = fileio.read_winch_params(args.params)
    if args.initial_tension is not None:
        t0 = args.initial_tension
    # profiles use the winch CSV schema; the tension column is ignored
    time_s, current, _ = fileio.read_winch_columns(args.profile)
    tension = actuators.simulate_winch(params, current, initial_tension=t0)
    outputs = [(args.out or None, fileio.winch_series_to_csv(time_s, current, tension))]
    if args.svg:
        series = [("simulated loop", current, tension)]
        outputs.append((args.svg, svgplot.render_line_plot(
            series, "current [A]", "tension [N]")))
    return outputs


# --p-cap, taken by each command that reads a muscle spec or constraints
_P_CAP = ("--p-cap", dict(type=float, help="shape-parameter cap for full contraction "
                          f"(default {muscle.DEFAULT_P_CAP!r}, env WWMTC_P_CAP)"))

# Every command, declared once: (group, its help, its commands), each command
# (name, help, handler, arguments) and each argument (flag, add_argument's
# keywords).  _build_parser builds the parsers in this order.
_COMMANDS = (
    ("elliptic", "elliptic integral kernels", (
        ("eval", "evaluate one elliptic integral", _cmd_elliptic_eval, (
            ("--kind", dict(required=True, choices=("F", "E", "K", "Ec"))),
            ("--phi", dict(type=float, help="amplitude, rad")),
            ("--p", dict(type=float, required=True, help="modulus")))),)),
    ("beam", "single-arch elastica solution", (
        ("solve", "deflected arch for (L, p)", _cmd_beam_solve, (
            ("--L", dict(type=float, required=True, help="arc length, mm")),
            ("--p", dict(type=float, required=True, help="shape parameter")),
            ("--json", dict(action="store_true", help="emit JSON")))),)),
    ("muscle", "whole-muscle geometry", (
        ("curve", "contraction-expansion curve", _cmd_muscle_curve, (
            ("--spec", dict(action="append", required=True,
                            help="muscle spec JSON file (repeatable for overlays)")),
            ("--samples", dict(type=int, default=100)),
            ("--out", dict(help="write curve CSV here")),
            ("--svg", dict(help="write width-vs-length SVG here")),
            _P_CAP)),
        ("invert", "state for a commanded length", _cmd_muscle_invert, (
            ("--spec", dict(required=True)),
            ("--length", dict(type=float, required=True, help="target, mm")),
            _P_CAP)))),
    ("design", "search arch count and size", (
        ("search", "feasible specs for constraints", _cmd_design_search, (
            ("--constraints", dict(required=True, help="constraints JSON")),
            ("--out", dict(help="write results JSON here (default stdout)")),
            ("--csv", dict(help="also write a CSV summary here")),
            _P_CAP)),)),
    ("tendon", "tendon load-strain model", (
        ("fit", "fit the stiffening model", _cmd_tendon_fit, (
            ("--data", dict(required=True, help="CSV: " + fileio.TENDON_HEADER)),)),)),
    ("winch", "winch tension-current model", (
        ("fit", "fit the play operator", _cmd_winch_fit, (
            ("--data", dict(required=True, help="CSV: " + fileio.WINCH_HEADER)),)),
        ("simulate", "run the play operator", _cmd_winch_simulate, (
            ("--params", dict(required=True, help="fitted-parameter JSON")),
            ("--profile", dict(required=True, help="CSV: " + fileio.WINCH_HEADER)),
            ("--out", dict(help="write tension CSV here (default stdout)")),
            ("--svg", dict(help="write current-tension loop SVG here")),
            ("--initial-tension", dict(type=float,
                                       help="override the initial tension state, N")))))),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command in _COMMANDS; each command's parser sets
    args.run to its handler."""
    parser = _Parser(prog="wwmtc", description="Deformation model, actuator fits and design "
                     "search for wire-wound expanding muscle actuators.")
    groups = parser.add_subparsers(dest="group", required=True)
    for group, group_help, commands in _COMMANDS:
        subparsers = groups.add_parser(group, help=group_help).add_subparsers(
            dest="command", required=True)
        for name, command_help, handler, arguments in commands:
            command = subparsers.add_parser(name, help=command_help)
            for flag, options in arguments:
                command.add_argument(flag, **options)
            command.set_defaults(run=handler)
    return parser


def dispatch(argv: list[str] | None = None) -> int:
    """Parse and run one invocation; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(_attach_negative_numbers(argv))
        _write(args.run(args))
    except SystemExit as exc:  # --help, printed on stdout
        return int(exc.code or 0)
    except WwmtcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal faults
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()

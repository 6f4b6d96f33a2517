"""The four workloads: their inputs, their operations and the output checks.

Every workload is a list of rounds; a round is a list of operations, run
one after another by a single closed-loop client.  Each operation is of one
of three kinds, which map onto the shared end-to-end metric names:

=========  ==============================  ===========================  ==============================
workload   op (op_p50_ref, op_p75_ref)     aux (aux_p50_ref)            bulk (bulk_p50_ref)
=========  ==============================  ===========================  ==============================
cli        one ``python -m wwmtc`` process in-process ``cli.dispatch``   one round: all nine processes
geometry   one ``state_for_length``        one 100-sample ``curve``     one 10 000-sample ``curve``
design     one ``search``                  one ``infeasibility_report`` search + report, n = 1..96
actuators  ``tendon fit``, 8 logs           ``winch fit``                ``winch simulate``, 48 000 rows
=========  ==============================  ===========================  ==============================

The actuators operations are in-process ``cli.dispatch`` calls, so they time
the CLI's own handlers.

A check returns None when the output is right, else a one-line reason.
Checks use deterministic properties only.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen


@dataclass
class Op:
    kind: str                              # "op", "aux" or "bulk"
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    rounds: list[list[Op]]
    trace_pass: list[Op]                   # fixed work for the traced run
    min_rounds: int
    warm_up: bool = True                   # run one unrecorded round first
    round_is_bulk: bool = False            # bulk sample = sum of a round's ops
    peak_rss_kb: Callable[[], float] | None = None  # None: this process
    notes: Callable[[], dict] = dict       # workload facts for the info line


def dispatch(argv: list[str]) -> tuple[int, str, str]:
    """One in-process ``wwmtc`` invocation: (exit code, stdout, stderr)."""
    from wwmtc import cli

    buf_out, buf_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf_out), contextlib.redirect_stderr(buf_err):
        code = cli.dispatch(argv)
    return code, buf_out.getvalue(), buf_err.getvalue()


def run_child(cmd: list[str], timeout: float, **popen_kw) -> subprocess.CompletedProcess:
    """``subprocess.run(..., check=True)`` with an exact end time.

    ``subprocess.run`` with a timeout polls the child with sleeps of up to
    50 ms, which rounds every wall time up to that grid.  Here a watchdog
    kills the child after ``timeout`` and the wait itself blocks.
    """
    with subprocess.Popen(cmd, **popen_kw) as proc:
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            out, err = proc.communicate()
        finally:
            watchdog.cancel()
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, cmd, out, err)
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_TIMEOUT_S = 60.0


def _subcommand(argv: list[str]) -> str:
    return f"{argv[0]}_{argv[1]}"


def setup_cli(rng, root: Path, work: Path, python: str, env: dict) -> Workload:
    import wwmtc.cli  # noqa: F401  (the in-process ops need it; set-up pays for it)

    inputs = gen.cli_inputs(rng, root, work)
    goldens = inputs["goldens"]
    stdout_path = work / "stdout.bin"
    stderr_path = work / "stderr.bin"
    peak = [0.0]

    def process(argv, out_file):
        def call():
            with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
                proc = subprocess.Popen([python, "-m", "wwmtc", *argv], stdout=out,
                                        stderr=err, env=env, cwd=work)
                # wait4 rather than wait: it also returns the child's peak RSS
                watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
                watchdog.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    watchdog.cancel()
                proc.returncode = os.waitstatus_to_exitcode(status)
            peak[0] = max(peak[0], usage.ru_maxrss)
            produced = out_file.read_bytes() if out_file else stdout_path.read_bytes()
            return proc.returncode, produced, stderr_path.read_bytes()
        return call

    def in_process(argv, out_file):
        def call():
            code, out, err = dispatch(argv)
            produced = out_file.read_bytes() if out_file else out.encode()
            return code, produced, err.encode()
        return call

    def golden_check(name):
        def check(result):
            code, produced, err = result
            if code != 0:
                return f"exit {code}: {err.decode(errors='replace').strip()[:200]}"
            if produced != goldens[name]:
                return f"output differs from golden {name}"
            return None
        return check

    round_ops, trace_pass = [], []
    for name, argv, out_file in inputs["invocations"]:
        label = _subcommand(argv)
        round_ops.append(Op("op", label, process(argv, out_file), golden_check(name)))
        in_proc = Op("aux", label, in_process(argv, out_file), golden_check(name))
        round_ops.extend([in_proc] * 5)
        trace_pass.append(in_proc)
    return Workload(rounds=[round_ops], trace_pass=trace_pass, min_rounds=2,
                    warm_up=False, round_is_bulk=True,
                    peak_rss_kb=lambda: peak[0])


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def _check_curve(spec, num: int, p_cap: float, golden: bytes | None = None):
    from wwmtc import fileio

    def check(cur) -> str | None:
        s = cur.samples
        if len(s) != num:
            return f"curve has {len(s)} samples, expected {num}"
        if s[0].length != spec.n * spec.L + spec.h0 or s[0].width != 0.0:
            return "first sample is not the natural state"
        if s[-1].p != p_cap:
            return "last sample is not at p_cap"
        if any(b.length >= a.length for a, b in zip(s, s[1:])):
            return "curve length not strictly decreasing"
        if any(x.width < 0.0 for x in s):
            return "negative width"
        if golden is not None and fileio.curve_to_csv(cur).encode() != golden:
            return "100-sample radial curve CSV differs from its golden"
        return None
    return check


def setup_geometry(rng, root: Path, work: Path) -> Workload:
    from wwmtc import muscle

    p_cap = muscle.DEFAULT_P_CAP
    radial = muscle.MuscleSpec(8, 27.0, 22.0, "radial")
    golden = (root / "tests" / "golden" / "muscle_curve_radial.csv").read_bytes()

    def curve_op(kind, spec, num, golden_bytes=None):
        return Op(kind, f"curve{num}", lambda: muscle.curve(spec, num, p_cap),
                  _check_curve(spec, num, p_cap, golden_bytes))

    def inversion(spec, p_true):
        length = muscle.state_at(spec, p_true).length

        def check(state):
            err = abs(state.p - p_true)
            return None if err <= 1e-7 else f"inversion round trip off by {err!r}"
        return Op("op", "invert", lambda: muscle.state_for_length(spec, length, p_cap),
                  check)

    rounds = []
    for rnd in gen.geometry_inputs(rng):
        spec = muscle.MuscleSpec(*rnd["spec"])
        smalls = [curve_op("aux", radial, gen.SMALL_SAMPLES, golden)]
        smalls += [curve_op("aux", muscle.MuscleSpec(*s), gen.SMALL_SAMPLES)
                   for s in rnd["small_specs"]]
        ops = [curve_op("bulk", spec, gen.LARGE_SAMPLES)]
        every = len(rnd["p_true"]) // len(smalls)
        for j, p in enumerate(rnd["p_true"]):
            ops.append(inversion(spec, p))
            if j % every == every - 1 and smalls:
                ops.append(smalls.pop(0))
        ops.extend(smalls)
        rounds.append(ops)
    return Workload(rounds=rounds, trace_pass=[op for r in rounds for op in r],
                    min_rounds=len(rounds))


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------

def _check_design(cons, p_cap, state):
    """Every result re-validates with the forward model, results are sorted,
    and every arch count is either in the results or in the report."""
    from wwmtc import muscle

    def check(_) -> str | None:
        results, report = state["results"], state["report"]
        for res in results:
            spec = res.spec
            st = muscle.state_at(spec, p_cap)
            nat = spec.n * spec.L + spec.h0
            margins = (
                nat - cons.natural_length_range[0],
                cons.natural_length_range[1] - nat,
                st.contraction - cons.min_stroke,
                cons.max_width_at_full - st.width,
                st.width - cons.min_width_at_full,
            )
            if min(margins) < -1e-6:
                return f"result n={spec.n} L={spec.L!r} violates a constraint"
        widths = [r.achieved.width_at_full for r in results]
        if widths != sorted(widths):
            return "results not sorted by width at full contraction"
        feasible = {r.spec.n for r in results}
        if feasible & set(report) or \
                feasible | set(report) != set(range(cons.n_range[0], cons.n_range[1] + 1)):
            return "results and infeasibility report do not partition n_range"
        return None
    return check


def setup_design(rng, root: Path, work: Path) -> Workload:
    from wwmtc import design, muscle

    p_cap = muscle.DEFAULT_P_CAP
    inputs = gen.design_inputs(rng)

    ops = []
    states = []
    for raw in inputs["sets"]:
        cons = design.DesignConstraints(**raw)
        state: dict = {}
        states.append(state)

        def search(cons=cons, state=state):
            state.clear()  # a failed search must not leave stale results
            state["results"] = design.search(cons, p_cap)
            return state["results"]

        def report(cons=cons, state=state):
            state["report"] = design.infeasibility_report(cons, p_cap)
            return state["report"]

        ops.append(Op("op", "search", search, lambda _: None))
        ops.append(Op("aux", "report", report, _check_design(cons, p_cap, state)))

    wide = design.DesignConstraints(**inputs["wide"])
    wide_state: dict = {}

    def sweep():
        wide_state.clear()
        wide_state["results"] = design.search(wide, p_cap)
        wide_state["report"] = design.infeasibility_report(wide, p_cap)
        return wide_state

    ops.append(Op("bulk", "sweep", sweep, _check_design(wide, p_cap, wide_state)))

    def notes():
        # the sets are meant to mix feasible and infeasible arch counts
        return {"feasible_n": sum(len(s.get("results", ())) for s in states),
                "infeasible_n": sum(len(s.get("report", ())) for s in states)}

    return Workload(rounds=[ops], trace_pass=ops, min_rounds=3, notes=notes)


# ---------------------------------------------------------------------------
# actuators
# ---------------------------------------------------------------------------

def setup_actuators(rng, root: Path, work: Path) -> Workload:
    import numpy as np

    from wwmtc import fileio

    inputs = gen.actuator_inputs(rng, work)
    expected_current = np.array(inputs["profile_currents"])
    c, r = inputs["c"], inputs["r"]
    out_csv, out_svg = inputs["out_csv"], inputs["out_svg"]
    simulate = ["winch", "simulate", "--params", str(inputs["params"]),
                "--profile", str(inputs["profile"]), "--out", str(out_csv),
                "--svg", str(out_svg)]

    def check_pipeline(result) -> str | None:
        code, _, err = result
        if code != 0:
            return f"exit {code}: {err.strip()[:200]}"
        _, current, tension = fileio.read_winch_csv(out_csv)
        svg = out_svg.read_text(encoding="utf-8")
        out_csv.unlink()  # so that the next round cannot pass on these files
        out_svg.unlink()
        if len(current) != len(expected_current):
            return f"simulated CSV has {len(current)} rows, expected {len(expected_current)}"
        if not np.array_equal(current, expected_current):
            return "simulated CSV does not carry the profile currents"
        slack = np.abs(tension - c * current) - r
        if np.any(slack > 1e-9 * np.maximum(1.0, np.abs(c * current))):
            return f"|T - cI| exceeds r by {float(slack.max())!r}"
        if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
            return "SVG document is not closed"
        return None

    def fit_json(result, key: str) -> tuple[dict | None, str | None]:
        code, out, err = result
        if code != 0:
            return None, f"exit {code}: {err.strip()[:200]}"
        fit = json.loads(out)
        value = fit[key]
        if not (isinstance(value, float) and math.isfinite(value)):
            return None, f"{key} is {value!r}"
        return fit, None

    def tendon_rms_true(truth, rows) -> float:
        """RMS of the generating parameters against the logged loads, over
        the cycles the fit uses: all but the first (bedding-in) cycle."""
        load, strain, cycle = (np.array(col) for col in zip(*rows))
        rest = cycle > cycle.min()
        eps0 = float(strain[cycle == cycle.min()][-1])
        model = truth["a"] * np.expm1(truth["b"] * (strain[rest] - eps0))
        return math.sqrt(float(np.mean((load[rest] - model) ** 2)))

    def tendon_batch(logs):
        # a fit takes either ~20 or ~60 damped solves, about half and half
        # whatever the parameters, so one fit's latency has no steady median;
        # a batch of TENDON_BATCH fits does
        argvs = [["tendon", "fit", "--data", str(path)] for path, _, _ in logs]
        bounds = [tendon_rms_true(truth, rows) for _, truth, rows in logs]

        def check(results) -> str | None:
            for result, rms_true in zip(results, bounds):
                fit, problem = fit_json(result, "rms_residual_N")
                if problem:
                    return problem
                if not fit["rms_residual_N"] <= rms_true:
                    return f"tendon fit rms {fit['rms_residual_N']!r} above truth {rms_true!r}"
            return None
        return Op("op", "tendon", lambda: [dispatch(argv) for argv in argvs], check)

    def winch(path, current, tension):
        def check(result) -> str | None:
            fit, problem = fit_json(result, "rms_residual_N")
            if problem:
                return problem
            fc, fr, rms_fit = fit["c_N_per_A"], fit["r_N"], fit["rms_residual_N"]
            if not (fc > 0.0 and fr >= 0.0):
                return f"winch fit out of domain: c={fc!r} r={fr!r}"
            replay = gen.play_operator(fc, fr, current, tension[0])
            rms = math.sqrt(sum((a - b) ** 2 for a, b in zip(replay, tension))
                            / len(replay))
            if abs(rms_fit - rms) > 1e-9 * max(1.0, rms):
                return f"winch fit rms {rms_fit!r} != replay rms {rms!r}"
            return None
        argv = ["winch", "fit", "--data", str(path)]
        return Op("aux", "winch", lambda: dispatch(argv), check)

    ops = [Op("bulk", "pipeline", lambda: dispatch(simulate), check_pipeline)]
    tendon_logs, size = inputs["tendon"], gen.TENDON_BATCH
    batches = [tendon_batch(tendon_logs[k:k + size])
               for k in range(0, len(tendon_logs), size)]
    for batch, log in zip(batches, inputs["winch"]):
        ops.append(batch)
        ops.append(winch(*log))
    return Workload(rounds=[ops], trace_pass=ops, min_rounds=3)


def setup(name: str, rng, root: Path, work: Path, python: str, env: dict) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    if name == "cli":
        return setup_cli(rng, root, work, python, env)
    return {"geometry": setup_geometry, "design": setup_design,
            "actuators": setup_actuators}[name](rng, root, work)


WORKLOADS = ("cli", "geometry", "design", "actuators")


def ensure_importable(root: Path) -> None:
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)

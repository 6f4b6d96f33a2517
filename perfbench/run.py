"""wwmtc benchmark: one workload per run, closed loop, outputs checked.

    python3 perfbench/run.py --workload cli|geometry|design|actuators \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory.  With ``--trace 0`` the last stdout line
is a JSON object with the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it carries the per-layer metrics instead, measured by timing
wrappers around the package's public functions (see tracing.py).  The line
before it holds the machine, the seed, sample counts, ``fail_ratio`` and,
for ``--trace 0``, the latency quantiles in seconds; the end-to-end
latencies themselves are in reference units (see ``Recorder``).

Workloads and the meaning of ``op``, ``aux`` and ``bulk`` for each are
described in workloads.py.  Scratch files live in ``.perfbench_work/`` at
the checkout root and are removed before exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 5


def _machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy")}


def _reference_step(x: float) -> tuple[float, float, float]:
    s = math.sqrt(x)
    return x * 0.99 + 0.25, s, x / (1.0 + s)


def reference_loop() -> float:
    """Fixed pure-Python work that shares no code with the package: calls,
    tuples, float arithmetic and list appends, the package's own mix.  Its
    time tracks the speed the host grants this process at the moment."""
    out = []
    x = 0.5
    for _ in range(300):
        a, b, c = _reference_step(x)
        x = a * 0.999
        out.append(min(a, b, c))
    return sum(out)


def _time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class Recorder:
    """Latency samples per operation kind, and the attempted/failed tally.

    Shared hosts can run a process up to ~1.9x slower for seconds to minutes
    at a time.  So the reference loop runs right before and right after
    every recorded operation, and each latency is also kept divided by the
    mean of those two reference times: a latency in reference units, which
    cancels the host's speed while keeping the program's own changes.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)  # seconds
        self.scaled: dict[str, list[float]] = defaultdict(list)   # reference units
        self.attempted = 0
        self.failed = 0
        self.first_error: str | None = None
        self.checking = contextlib.nullcontext  # context the checks run in

    def run(self, op: workloads.Op, record: bool = True) -> float | None:
        """Run one operation; its wall seconds, or None when it failed."""
        self.attempted += 1
        before = _time_reference() if record else 0.0
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            self._fail(op, f"{type(exc).__name__}: {exc}")
            return None
        dt = time.perf_counter() - t0
        after = _time_reference() if record else 0.0
        try:
            with self.checking():
                problem = op.check(out)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            self._fail(op, problem)
            return None
        if record:
            self.samples[op.kind].append(dt)
            self.scaled[op.kind].append(dt / (0.5 * (before + after)))
        return dt

    def _fail(self, op: workloads.Op, why: str) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = f"{op.label}: {why}"
            print(f"perfbench: {self.first_error}", file=sys.stderr)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("WWMTC_P_CAP", None)  # outputs are compared with default-cap goldens
    # bytecode caching on, as for an installed package, whatever the caller set
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _measure_setup(args, work: Path, env: dict) -> float:
    """Median wall time of fresh interpreters that import the package and
    generate this workload's inputs; one unrecorded run fills caches."""
    times = []
    for k in range(SETUP_REPEATS + 1):
        target = work / f"setup{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-into", str(target)]
        t0 = time.perf_counter()
        workloads.run_child(cmd, 120.0, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
        if k:
            times.append(time.perf_counter() - t0)
        shutil.rmtree(target, ignore_errors=True)
    return statistics.median(times)


def _measure(wl: workloads.Workload, rec: Recorder, seconds: float) -> int:
    """Whole rounds until the next one would overrun ``seconds``."""
    if wl.warm_up:
        for op in wl.rounds[0]:
            rec.run(op, record=False)
    start = time.perf_counter()
    done = 0
    while True:
        t0 = time.perf_counter()
        times = [(op.kind, rec.run(op)) for op in wl.rounds[done % len(wl.rounds)]]
        if wl.round_is_bulk and all(dt is not None for _, dt in times):
            k = sum(kind == "op" for kind, _ in times)
            rec.samples["bulk"].append(sum(rec.samples["op"][-k:]))
            rec.scaled["bulk"].append(sum(rec.scaled["op"][-k:]))
        done += 1
        round_s = time.perf_counter() - t0
        if done >= wl.min_rounds and time.perf_counter() - start + round_s > seconds:
            return done


def _quantile(values: list[float], q: int) -> float:
    if not values:
        return 0.0  # only when every operation of the kind failed
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[q - 1]


def end_to_end(args, work: Path, env: dict, rec: Recorder) -> tuple[dict, dict]:
    setup_s = _measure_setup(args, work, env)
    wl = workloads.setup(args.workload, random.Random(args.seed), ROOT, work / "main",
                         sys.executable, env)
    rounds = _measure(wl, rec, args.seconds)
    if wl.peak_rss_kb is None:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = wl.peak_rss_kb()
    s, r = rec.samples, rec.scaled
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ref": (_quantile(r["op"], 2), "ref"),
        "op_p75_ref": (_quantile(r["op"], 3), "ref"),
        "aux_p50_ref": (_quantile(r["aux"], 2), "ref"),
        "bulk_p50_ref": (_quantile(r["bulk"], 2), "ref"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    seconds = {"op_p50_s": _quantile(s["op"], 2), "op_p75_s": _quantile(s["op"], 3),
               "aux_p50_s": _quantile(s["aux"], 2), "bulk_p50_s": _quantile(s["bulk"], 2)}
    info = {"rounds": rounds, "samples": {k: len(v) for k, v in sorted(s.items())},
            "seconds": seconds, **wl.notes()}
    return metrics, info


def per_layer(args, work: Path, env: dict, rec: Recorder) -> tuple[dict, dict]:
    """Untraced and traced passes over the same fixed operations, alternated
    until ``seconds`` have passed; counts come from one traced pass, times
    are medians over passes."""
    wl = workloads.setup(args.workload, random.Random(args.seed), ROOT, work / "main",
                         sys.executable, env)
    metrics = {k: (v, "s") for k, v in
               tracing.startup_probes(sys.executable, env, ROOT, 3).items()}
    for op in wl.trace_pass:  # warm-up
        rec.run(op, record=False)

    tracer = tracing.Tracer()
    rec.checking = tracer.paused
    targets = tracing.targets()
    dispatch = defaultdict(list)
    ratios, layers = [], []
    start = time.perf_counter()
    while not ratios or time.perf_counter() - start < args.seconds:
        per_label = defaultdict(float)
        plain = 0.0
        for op in wl.trace_pass:
            dt = rec.run(op, record=False) or 0.0
            plain += dt
            per_label[op.label] += dt
        tracer.install(targets)
        tracer.reset()
        try:
            traced = sum(rec.run(op, record=False) or 0.0 for op in wl.trace_pass)
        finally:
            tracer.uninstall()
        layers.append(tracing.layer_metrics(tracer.snapshot()))
        ratios.append(traced / plain if plain else 0.0)
        if args.workload == "cli":
            for label, dt in per_label.items():
                dispatch[label].append(dt)

    for name, (_, unit) in layers[0].items():
        metrics[name] = (statistics.median(m[name][0] for m in layers), unit)
    for sub in _SUBCOMMANDS:
        values = dispatch.get(sub)
        metrics[f"cli.dispatch.{sub}_s"] = (statistics.median(values) if values else 0.0, "s")
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    return metrics, {"passes": len(ratios)}


_SUBCOMMANDS = ("elliptic_eval", "beam_solve", "muscle_curve", "muscle_invert",
                "design_search", "tendon_fit", "winch_fit", "winch_simulate")


def _check_names(metrics: dict, declared: list[dict]) -> str | None:
    """None when the printed metrics are exactly those BENCHMARK.json lists."""
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return f"metric names differ from BENCHMARK.json: missing {missing}, " \
               f"extra {extra}, unit mismatch {units}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wwmtc" / "__init__.py").is_file():
        print(f"perfbench: no wwmtc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads.ensure_importable(ROOT)
    env = _child_env()
    os.environ.pop("WWMTC_P_CAP", None)

    if args.setup_into:  # a fresh interpreter timed by _measure_setup
        workloads.setup(args.workload, random.Random(args.seed), ROOT,
                        Path(args.setup_into), sys.executable, env)
        return 0

    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])

    # one CPU for this process and the CLI processes it starts, so that the
    # reference loop runs where the measured work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    rec = Recorder()
    started = time.perf_counter()
    try:
        if args.trace:
            metrics, info = per_layer(args, work, env, rec)
        else:
            metrics, info = end_to_end(args, work, env, rec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    problem = _check_names(metrics, declared["per_layer" if args.trace else "end_to_end"])
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 1
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": _machine(), "elapsed_s": time.perf_counter() - started,
        "fail_ratio": rec.failed / max(1, rec.attempted), "first_error": rec.first_error,
        **info,
    }))
    print(json.dumps({
        "correct": rec.failed == 0 and rec.attempted > 0,
        "attempted": max(1, rec.attempted),
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

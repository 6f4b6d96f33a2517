"""Per-layer accounting from outside the program.

The traced run replaces public functions with timing wrappers in the module
namespaces where their callers look them up (``beam.ellip_k``,
``muscle.solve_beam``, ``cli.solve_beam`` ...).  Each wrapped call is a
span; a span's self time is its duration minus the time covered by its
child spans.  The untraced run installs nothing.
"""

from __future__ import annotations

import contextlib
import statistics
import subprocess
import time
from collections import defaultdict

from workloads import run_child

INVERSION = "muscle.state_for_length"


class Tracer:
    """Aggregated spans: per name, calls, total time, self time and items."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self._stack: list[list[float]] = []
        self._active: dict[str, int] = defaultdict(int)
        self._installed: list[tuple[object, str, object]] = []
        self._paused = [False]

    def _wrap(self, fn, name: str, items):
        # [calls, total_s, self_s, items, calls made inside an inversion]
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])
        stack = self._stack
        active = self._active
        paused = self._paused
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            if active[INVERSION]:
                st[4] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                active[name] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
            if items is not None:
                st[3] += items(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets) -> None:
        """targets: (module, attribute, span name, items function or None).

        An attribute the module no longer has is skipped, so its layer
        reads zero calls rather than breaking the run.
        """
        for module, attr, name, items in targets:
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, items))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own output checks) are not
        recorded."""
        self._paused[0] = True
        try:
            yield
        finally:
            self._paused[0] = False

    def reset(self) -> None:
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0, 0, 0]

    def snapshot(self) -> dict[str, tuple]:
        return {name: tuple(st) for name, st in self.stats.items()}


def targets():
    """Where each layer's public functions are looked up by their callers."""
    from wwmtc import actuators, beam, cli, design, elliptic, fileio, muscle, svgplot

    def n_rows(args, result):
        return len(result[0])

    def n_args0(args, result):
        return len(args[0])

    def n_samples(args, result):
        return len(args[0].samples)

    def n_points(args, result):
        return sum(len(xs) for _, xs, _ in args[0])

    out = []
    for fn in ("ellip_k", "ellip_f", "ellip_e", "ellip_e_complete"):
        for mod in (beam, elliptic):
            out.append((mod, fn, f"elliptic.{fn}", None))
    for mod in (beam, muscle, design, cli):
        out.append((mod, "solve_beam", "beam.solve_beam", None))
    out += [
        (muscle, "solve_p_for_height", "beam.solve_p_for_height", None),
        (muscle, "state_at", "muscle.state_at", None),
        (design, "state_at", "muscle.state_at", None),
        (muscle, "curve", "muscle.curve", None),
        (muscle, "state_for_length", INVERSION, None),
        (design, "search", "design.search", lambda a, r: len(r)),
        (design, "infeasibility_report", "design.infeasibility_report", None),
        (fileio, "read_winch_csv", "fileio.read_winch_csv", n_rows),
        (fileio, "read_tendon_csv", "fileio.read_tendon_csv", n_rows),
        (fileio, "winch_series_to_csv", "fileio.winch_series_to_csv", n_args0),
        (fileio, "curve_to_csv", "fileio.curve_to_csv", n_samples),
        (svgplot, "render_line_plot", "svgplot.render_line_plot", n_points),
        (actuators, "simulate_winch", "actuators.simulate_winch",
         lambda a, r: len(a[1])),
        (actuators, "fit_tendon", "actuators.fit_tendon", None),
        (actuators, "fit_winch", "actuators.fit_winch", None),
    ]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: dict[str, tuple]) -> dict[str, tuple[float, str]]:
    """(value, unit) per per-layer metric of one traced pass; 0 for a layer
    the pass never ran."""

    def get(name: str) -> tuple:
        return snap.get(name, (0, 0.0, 0.0, 0, 0))

    def total(prefix: str, field: int) -> float:
        return sum(st[field] for name, st in snap.items() if name.startswith(prefix))

    ell_calls = total("elliptic.", 0)
    ell_self = total("elliptic.", 2)
    solve = get("beam.solve_beam")
    inversions = get(INVERSION)
    search = get("design.search")
    read_rows = total("fileio.read_", 3)
    read_self = total("fileio.read_", 2)
    write = [get("fileio.winch_series_to_csv"), get("fileio.curve_to_csv")]
    svg = get("svgplot.render_line_plot")
    sim = get("actuators.simulate_winch")
    return {
        "elliptic.calls": (ell_calls, "count"),
        "elliptic.self_s": (ell_self, "s"),
        "elliptic.us_per_call": (_ratio(ell_self * 1e6, ell_calls), "us"),
        "beam.solve_beam.calls": (solve[0], "count"),
        "beam.solve_beam.self_s": (solve[2], "s"),
        "beam.solve_beam_calls_per_inversion": (_ratio(solve[4], inversions[0]), "count"),
        "muscle.curve.self_s": (get("muscle.curve")[2], "s"),
        "muscle.state_for_length.self_s": (inversions[2], "s"),
        "muscle.state_at.calls": (get("muscle.state_at")[0], "count"),
        "design.search.self_s": (search[2], "s"),
        "design.infeasibility_report.self_s": (get("design.infeasibility_report")[2], "s"),
        "design.results_per_search": (_ratio(search[3], search[0]), "count"),
        "fileio.read.rows_per_s": (_ratio(read_rows, read_self), "1/s"),
        "fileio.write.rows_per_s": (_ratio(sum(w[3] for w in write),
                                           sum(w[2] for w in write)), "1/s"),
        "svgplot.render.points_per_s": (_ratio(svg[3], svg[2]), "1/s"),
        "actuators.simulate_winch.samples_per_s": (_ratio(sim[3], sim[2]), "1/s"),
        "actuators.fit_tendon.self_s": (get("actuators.fit_tendon")[2], "s"),
        "actuators.fit_winch.self_s": (get("actuators.fit_winch")[2], "s"),
    }


# ---------------------------------------------------------------------------
# start-up probes
# ---------------------------------------------------------------------------

def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds of the outermost wwmtc, numpy and scipy imports.

    ``-X importtime`` prints one line per module after its children, with
    two spaces of indent per nesting level; an import counts toward its
    package only when no ancestor belongs to the same package.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the column header
        raw = parts[2]
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        entries.append((depth, raw.strip(), int(parts[1]) * 1e-6))
    totals = {"wwmtc": 0.0, "numpy": 0.0, "scipy": 0.0}
    ancestors: list[str] = []
    for depth, name, cumulative in reversed(entries):
        del ancestors[depth:]
        top = name.split(".")[0]
        if top in totals and top not in ancestors:
            totals[top] += cumulative
        ancestors.append(top)
    return totals


def startup_probes(python: str, env: dict, cwd, repeats: int) -> dict[str, float]:
    """Median bare-interpreter wall time and import breakdown of wwmtc.cli."""
    bare, wwmtc, numpy, scipy = [], [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_child([python, "-c", "pass"], 60.0, env=env, cwd=cwd)
        bare.append(time.perf_counter() - t0)
        proc = run_child([python, "-X", "importtime", "-c", "import wwmtc.cli"], 120.0,
                         env=env, cwd=cwd, stderr=subprocess.PIPE, text=True)
        totals = parse_importtime(proc.stderr)
        wwmtc.append(totals["wwmtc"])
        numpy.append(totals["numpy"])
        scipy.append(totals["scipy"])
    return {
        "cli.interpreter_s": statistics.median(bare),
        "cli.import_s": statistics.median(wwmtc),
        "cli.import.numpy_s": statistics.median(numpy),
        "cli.import.scipy_s": statistics.median(scipy),
    }

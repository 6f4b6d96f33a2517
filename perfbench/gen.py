"""Seeded input generator for the benchmark workloads.

Everything here is plain data made from ``random.Random(seed)``; nothing
imports the package under test, so the program only ever sees the
generated inputs.  The same seed gives the same inputs on every machine.
"""

from __future__ import annotations

import math
import random
import shutil
from pathlib import Path

P_STRAIGHT = 1.0 / math.sqrt(2.0)
P_CAP = 0.97  # the CLI's default contraction cap

# Unit-arch height and width at P_CAP, to four digits.  Only used to place
# the design constraint sets; the smallest relative slack they rely on is
# 1.5 % (the wide sweep), far above this rounding.
H_UNIT_APPROX = 0.6951
W_UNIT_APPROX = 0.6500

GEOMETRY_ROUNDS = 4
INVERSIONS_PER_ROUND = 60
SMALL_CURVES_PER_ROUND = 9
SMALL_SAMPLES = 100
LARGE_SAMPLES = 10_000

DESIGN_SETS = 32
WIDE_N_MAX = 96

PROFILE_ROWS = 48_000
TENDON_BATCH = 8
WINCH_LOGS = 96
TENDON_POINTS = 40  # loads per sweep direction
TENDON_LOGS = WINCH_LOGS * TENDON_BATCH

# The committed CLI fixtures and the invocations of acceptance criterion 8.
# Their outputs are compared byte for byte with tests/golden/.
CLI_FIXTURES = (
    "radial.json",
    "planar.json",
    "constraints.json",
    "tendon_bench.csv",
    "winch_bench.csv",
    "winch_params.json",
    "triangle_profile.csv",
)


def cli_invocations(data: Path, out: Path) -> list[tuple[str, list[str], Path | None]]:
    """(golden name, argv, output file or None for stdout) per invocation."""
    d = str(data)
    return [
        ("elliptic_eval_K0.txt", ["elliptic", "eval", "--kind", "K", "--p", "0"], None),
        ("beam_solve.txt", ["beam", "solve", "--L", "27", "--p", "0.85"], None),
        ("muscle_curve_radial.csv",
         ["muscle", "curve", "--spec", f"{d}/radial.json", "--samples", "100",
          "--out", str(out / "curve.csv")], out / "curve.csv"),
        ("muscle_curves.svg",
         ["muscle", "curve", "--spec", f"{d}/radial.json", "--spec",
          f"{d}/planar.json", "--samples", "60", "--svg", str(out / "fig.svg")],
         out / "fig.svg"),
        ("muscle_invert_natural.txt",
         ["muscle", "invert", "--spec", f"{d}/radial.json", "--length", "238"], None),
        ("design_search.json",
         ["design", "search", "--constraints", f"{d}/constraints.json",
          "--out", str(out / "res.json")], out / "res.json"),
        ("tendon_fit.json", ["tendon", "fit", "--data", f"{d}/tendon_bench.csv"], None),
        ("winch_fit.json", ["winch", "fit", "--data", f"{d}/winch_bench.csv"], None),
        ("winch_simulate.csv",
         ["winch", "simulate", "--params", f"{d}/winch_params.json",
          "--profile", f"{d}/triangle_profile.csv",
          "--out", str(out / "sim.csv")], out / "sim.csv"),
    ]


def fmt(value: float) -> str:
    return format(float(value), ".15g")


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="")


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def cli_inputs(rng: random.Random, root: Path, work: Path) -> dict:
    """Copy the committed fixtures into ``work`` and fix the run order.

    The fixtures cannot vary with the seed, because their outputs must equal
    the goldens; the seed sets the order of the nine invocations instead.
    """
    data = work / "data"
    data.mkdir(parents=True, exist_ok=True)
    for name in CLI_FIXTURES:
        shutil.copyfile(root / "tests" / "data" / name, data / name)
    out = work / "out"
    out.mkdir(exist_ok=True)
    invocations = cli_invocations(data, out)
    rng.shuffle(invocations)
    goldens = {name: (root / "tests" / "golden" / name).read_bytes()
               for name, _, _ in invocations}
    return {"invocations": invocations, "goldens": goldens}


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def _muscle_spec(rng: random.Random) -> tuple[int, float, float, str]:
    return (rng.randint(4, 10), rng.uniform(15.0, 40.0), rng.uniform(5.0, 25.0),
            rng.choice(("radial", "planar")))


def geometry_inputs(rng: random.Random) -> list[dict]:
    """Rounds of (commanded muscle, its target shape parameters, small specs).

    A round models one controller: many length commands to one muscle, a
    few CLI-sized curves and one large curve of that muscle.
    """
    rounds = []
    for _ in range(GEOMETRY_ROUNDS):
        rounds.append({
            "spec": _muscle_spec(rng),
            # away from the straight strip, where h(p) is flat and p is
            # ill-conditioned in the length
            "p_true": [rng.uniform(P_STRAIGHT + 1e-3, P_CAP)
                       for _ in range(INVERSIONS_PER_ROUND)],
            "small_specs": [_muscle_spec(rng) for _ in range(SMALL_CURVES_PER_ROUND)],
        })
    return rounds


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------

def _design_set(rng: random.Random, n_max: int) -> dict:
    """A constraint set over n = 1..n_max with a fixed split: the arch counts
    below n_t = n_max // 3 + 1 are too wide at full contraction, every
    count from n_t up has one feasible interval of L.

    The values are seeded (h0 and the natural-length floor drawn as in
    acceptance criterion 5's generator, plus seeded slack factors), but the
    split and the relative position of the L range are not, so search cost
    does not follow the seed.  Criterion 5's own draws give anywhere from 0
    to 11 feasible counts of 12, and the timings would follow that.
    """
    n_t = n_max // 3 + 1
    h0 = rng.uniform(0.0, 30.0)
    span = rng.uniform(120.0, 300.0)         # n * L at the natural-length floor
    slack = rng.uniform(0.05, 0.3)
    return {
        "natural_length_range": (span + h0, span * (1.0 + slack) + h0),
        "min_stroke": rng.uniform(0.3, 0.9) * span * (1.0 - H_UNIT_APPROX),
        # halfway, in 1/n, between the widest feasible and the narrowest
        # infeasible design at the natural-length floor
        "max_width_at_full": W_UNIT_APPROX * span / (n_t - 0.5),
        "min_width_at_full": rng.uniform(0.0, 0.5) * W_UNIT_APPROX * span / n_max,
        "h0": h0,
        "n_range": (1, n_max),
        # narrow factors: where the feasible intervals sit inside the L grid
        # sets how far the infeasibility scan runs
        "L_range": (rng.uniform(0.55, 0.65) * span / n_max,
                    rng.uniform(1.2, 1.3) * span / n_t),
    }


def design_inputs(rng: random.Random) -> dict:
    """DESIGN_SETS sets over n = 1..12, plus one wide sweep over
    n = 1..WIDE_N_MAX."""
    return {"sets": [_design_set(rng, 12) for _ in range(DESIGN_SETS)],
            "wide": _design_set(rng, WIDE_N_MAX)}


# ---------------------------------------------------------------------------
# actuators
# ---------------------------------------------------------------------------

def play_operator(c: float, r: float, currents: list[float], t0: float) -> list[float]:
    """Reference play operator: T_k = clamp(T_{k-1}, c I_k - r, c I_k + r)."""
    out = []
    t = t0
    for i in currents:
        lo = c * i - r
        hi = c * i + r
        t = lo if t < lo else hi if t > hi else t
        out.append(t)
    return out


def _profile(rng: random.Random) -> list[float]:
    """Piecewise-linear current ramps between random levels in [0, 3] A."""
    currents: list[float] = []
    level = 0.0
    while len(currents) < PROFILE_ROWS:
        target = rng.uniform(0.0, 3.0)
        steps = rng.randint(50, 400)
        currents.extend(level + (target - level) * (j + 1) / steps for j in range(steps))
        level = target
    return currents[:PROFILE_ROWS]


def _tendon_log(rng: random.Random) -> tuple[dict, list[tuple[float, float, int]]]:
    """(true params, rows of (load, strain, cycle)): a bedding-in cycle ending
    at eps0, then two on-model cycles with 2 % multiplicative load noise."""
    a = rng.uniform(30.0, 80.0)
    b = rng.uniform(5.0, 12.0)
    eps0 = rng.uniform(0.01, 0.03)
    rows = []
    for j in range(25):
        rows.append((a * j / 24, eps0 * math.sqrt(j / 24), 0))
    for j in range(5):
        rows.append((a * (1.0 - j / 4), eps0, 0))
    n = TENDON_POINTS
    loads = [0.02 * a + (1.5 * a - 0.02 * a) * j / (n - 1) for j in range(n)]
    sweep = loads + loads[::-1]
    for cycle in (1, 2):
        for P in sweep:
            strain = eps0 + math.log(P / a + 1.0) / b
            rows.append((abs(P * (1.0 + 0.02 * rng.gauss(0.0, 1.0))), strain, cycle))
    return {"a": a, "b": b, "eps0": eps0}, rows


def _winch_log(rng: random.Random) -> tuple[dict, list[float], list[float]]:
    """(true params, currents, tensions): three triangle sweeps through the
    play operator, 1 % multiplicative tension noise."""
    c = rng.uniform(10.0, 30.0)
    r = rng.uniform(2.0, 8.0)
    i_max = rng.uniform(1.5, 3.0)
    n_half = 81
    half = [i_max * j / (n_half - 1) for j in range(n_half)]
    period = half + half[-2::-1]
    currents = period[:-1] * 2 + period
    tensions = [t * (1.0 + 0.01 * rng.gauss(0.0, 1.0))
                for t in play_operator(c, r, currents, 0.0)]
    return {"c": c, "r": r}, currents, tensions


def actuator_inputs(rng: random.Random, work: Path) -> dict:
    """Write the profile, parameter and log files; return their paths plus
    what the checks need to know about them."""
    work.mkdir(parents=True, exist_ok=True)
    c = rng.uniform(10.0, 30.0)
    r = rng.uniform(1.0, 8.0)
    t0 = rng.uniform(-r, r)
    currents = _profile(rng)
    current_text = [fmt(i) for i in currents]
    lines = ["time_s,current_A,tension_N"]
    lines.extend(f"{fmt(0.001 * k)},{s},0" for k, s in enumerate(current_text))
    _write(work / "profile.csv", "\n".join(lines) + "\n")
    _write(work / "params.json",
           f'{{"c_N_per_A": {c!r}, "r_N": {r!r}, "initial_tension_N": {t0!r}}}\n')

    tendon = []
    for k in range(TENDON_LOGS):
        truth, rows = _tendon_log(rng)
        text = [(fmt(0.1 * j), fmt(P), fmt(s), cyc) for j, (P, s, cyc) in enumerate(rows)]
        path = work / f"tendon_{k}.csv"
        _write(path, "\n".join(["time_s,load_N,strain,cycle"]
                               + [f"{t},{P},{s},{cyc}" for t, P, s, cyc in text]) + "\n")
        tendon.append((path, truth, [(float(P), float(s), cyc) for _, P, s, cyc in text]))

    winch = []
    for k in range(WINCH_LOGS):
        _, cur, ten = _winch_log(rng)
        text = [(fmt(0.05 * j), fmt(i), fmt(t)) for j, (i, t) in enumerate(zip(cur, ten))]
        path = work / f"winch_{k}.csv"
        _write(path, "\n".join(["time_s,current_A,tension_N"]
                               + [f"{t},{i},{f}" for t, i, f in text]) + "\n")
        winch.append((path, [float(i) for _, i, _ in text], [float(f) for _, _, f in text]))

    return {
        "profile": work / "profile.csv",
        "params": work / "params.json",
        "profile_currents": [float(s) for s in current_text],
        "c": c, "r": r,
        "out_csv": work / "sim.csv",
        "out_svg": work / "loop.svg",
        "tendon": tendon,
        "winch": winch,
    }

"""Start-up cost: which modules load, not how long anything takes.

The geometry and design commands are pure ``math``; numpy is for the
actuator models only and scipy for the test oracles only.  Each check runs
in a fresh interpreter, since this test process has both loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wwmtc
from wwmtc import actuators

from conftest import DATA_DIR

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("numpy", "scipy")

# Runs in the child: import the CLI, dispatch each argv, and after each step
# print which of HEAVY are in sys.modules.
_PROBE = """
import contextlib, io, json, sys

heavy = {heavy!r}

def loaded():
    return [m for m in heavy if m in sys.modules]

import wwmtc, wwmtc.cli
report = [["import", 0, loaded()]]
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = wwmtc.cli.dispatch(argv)
    report.append([" ".join(argv[:2]), code, loaded()])
print(json.dumps(report))
"""

LIGHT_COMMANDS = [
    ["elliptic", "eval", "--kind", "K", "--p", "0.85"],
    ["beam", "solve", "--L", "27", "--p", "0.85"],
    ["muscle", "curve", "--spec", str(DATA_DIR / "radial.json"), "--samples", "5"],
    ["muscle", "invert", "--spec", str(DATA_DIR / "radial.json"), "--length", "220"],
    ["design", "search", "--constraints", str(DATA_DIR / "constraints.json")],
]


def run_probe(argvs: list[list[str]]) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(heavy=HEAVY, argvs=argvs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_light_commands_load_neither_numpy_nor_scipy():
    report = run_probe(LIGHT_COMMANDS)
    assert [step for step, _, _ in report] == ["import"] + [
        " ".join(argv[:2]) for argv in LIGHT_COMMANDS
    ]
    for step, code, loaded in report:
        assert code == 0, step
        assert loaded == [], f"{step} loaded {loaded}"


def test_actuator_command_loads_numpy_but_not_scipy():
    report = run_probe([["winch", "fit", "--data", str(DATA_DIR / "winch_bench.csv")]])
    assert report[-1] == ["winch fit", 0, ["numpy"]]


def test_lazy_actuator_exports_resolve():
    from wwmtc import fit_tendon

    assert fit_tendon is actuators.fit_tendon
    assert wwmtc.HysteresisParams is actuators.HysteresisParams
    for name in wwmtc.__all__:
        getattr(wwmtc, name)
    with pytest.raises(AttributeError):
        wwmtc.nonexistent  # noqa: B018

"""Start-up cost: which modules load, not how long anything takes.

The geometry and design commands and both winch commands run on the
standard library; numpy is for the tendon fit only, not for reading its
log, and scipy for the test oracles only.  The value types are plain named
tuples, so no command needs ``dataclasses`` or ``typing``, and the light
commands not ``inspect`` either; files are opened with ``open``, so they
need no ``pathlib``.  Each check runs in a fresh interpreter, since this
test process has all of these loaded already.  The interpreter starts with
``-S``, so that no ``.pth`` hook of an installed package preloads a module;
the probe then appends the entries of this process's ``sys.path`` that it
lacks, the site directories among them, after its own, as ``site`` would.
numpy is the one module imported inside a function; every wwmtc module is
imported at the top of the modules that use it.  The outer layers, cli,
fileio and svgplot, use only the public names of the other modules.
"""

import ast
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
# standard-library machinery that frozen dataclasses (dataclasses, which
# imports inspect) or typing.NamedTuple (typing) would load
MACHINERY = ("dataclasses", "inspect", "typing")

# Runs in the child: import the CLI, dispatch each argv, and after each step
# print which of the watched modules are in sys.modules.
_PROBE = """
import sys
sys.path.extend(p for p in {path!r} if p not in sys.path)

import contextlib, io, json

watched = {watched!r}

def loaded():
    return [m for m in watched if m in sys.modules]

import wwmtc, wwmtc.cli
report = [["import", 0, loaded()]]
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = wwmtc.cli.dispatch(argv)
    report.append([" ".join(argv[:2]), code, loaded()])
print(json.dumps(report))
"""

# "{tmp}" stands for the test's temporary directory
LIGHT_COMMANDS = [
    ["elliptic", "eval", "--kind", "K", "--p", "0.85"],
    ["beam", "solve", "--L", "27", "--p", "0.85"],
    ["muscle", "curve", "--spec", str(DATA_DIR / "radial.json"), "--samples", "5"],
    ["muscle", "invert", "--spec", str(DATA_DIR / "radial.json"), "--length", "220"],
    ["design", "search", "--constraints", str(DATA_DIR / "constraints.json")],
    ["winch", "simulate", "--params", str(DATA_DIR / "winch_params.json"),
     "--profile", str(DATA_DIR / "triangle_profile.csv"),
     "--out", "{tmp}/sim.csv", "--svg", "{tmp}/loop.svg"],
    ["winch", "fit", "--data", str(DATA_DIR / "winch_bench.csv")],
]


def run_child(code: str):
    """The JSON that ``code`` prints in a fresh interpreter under ``-S``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def run_probe(argvs: list[list[str]], watched: tuple[str, ...]) -> list:
    return run_child(_PROBE.format(path=sys.path, watched=watched, argvs=argvs))


def assert_light_commands_load_none_of(watched: tuple[str, ...], tmp: Path):
    argvs = [[arg.replace("{tmp}", str(tmp)) for arg in argv] for argv in LIGHT_COMMANDS]
    report = run_probe(argvs, watched)
    assert [step for step, _, _ in report] == ["import"] + [
        " ".join(argv[:2]) for argv in LIGHT_COMMANDS
    ]
    for step, code, loaded in report:
        assert code == 0, step
        assert loaded == [], f"{step} loaded {loaded}"
    assert sorted(p.name for p in tmp.iterdir()) == ["loop.svg", "sim.csv"]


def test_light_commands_load_neither_numpy_nor_scipy(tmp_path):
    assert_light_commands_load_none_of(HEAVY, tmp_path)


def test_light_commands_load_no_dataclasses_inspect_or_typing(tmp_path):
    assert_light_commands_load_none_of(MACHINERY, tmp_path)


def test_light_commands_load_no_pathlib(tmp_path):
    assert_light_commands_load_none_of(("pathlib",), tmp_path)


def test_tendon_log_read_loads_no_numpy():
    code = (f"import sys; sys.path.extend(p for p in {sys.path!r} if p not in sys.path)\n"
            "import json\n"
            "from wwmtc import fileio\n"
            f"rows = len(fileio.read_tendon_csv({str(DATA_DIR / 'tendon_bench.csv')!r})[0])\n"
            "print(json.dumps([rows, [m for m in ('numpy', 'scipy') if m in sys.modules]]))\n")
    assert run_child(code) == [510, []]


def test_actuator_command_loads_numpy_but_not_scipy():
    report = run_probe([["tendon", "fit", "--data", str(DATA_DIR / "tendon_bench.csv")]], HEAVY)
    assert report[-1] == ["tendon fit", 0, ["numpy"]]


def test_only_numpy_is_imported_inside_a_function():
    deferred = set()
    for path in sorted((SRC_DIR / "wwmtc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                deferred.update((path.name, node.lineno, ast.unparse(node))
                                for node in ast.walk(func)
                                if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert deferred, "no deferred import of numpy found"
    assert [d for d in sorted(deferred) if d[2] != "import numpy as np"] == []


def test_outer_layers_use_only_the_public_api():
    # cli, fileio and svgplot neither import an _-prefixed name of another
    # wwmtc module nor read one as a module attribute
    private = set()
    for name in ("cli.py", "fileio.py", "svgplot.py"):
        tree = ast.parse((SRC_DIR / "wwmtc" / name).read_text(encoding="utf-8"))
        modules = set()  # the names the file binds to wwmtc modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "wwmtc"
                                                     or node.module.startswith("wwmtc.")):
                if node.module in (None, "wwmtc"):
                    modules.update(alias.asname or alias.name for alias in node.names)
                private.update((name, node.lineno, alias.name) for alias in node.names
                               if alias.name.startswith("_"))
            elif isinstance(node, ast.Import):
                modules.update(alias.asname or alias.name.partition(".")[0]
                               for alias in node.names if alias.name.startswith("wwmtc"))
        private.update((name, node.lineno, ast.unparse(node)) for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                       and isinstance(node.value, ast.Name) and node.value.id in modules)
    assert sorted(private) == []


def test_lazy_actuator_exports_resolve():
    from wwmtc import fit_tendon

    assert fit_tendon is actuators.fit_tendon
    assert wwmtc.HysteresisParams is actuators.HysteresisParams
    for name in wwmtc.__all__:
        getattr(wwmtc, name)
    with pytest.raises(AttributeError):
        wwmtc.nonexistent  # noqa: B018

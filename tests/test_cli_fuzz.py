"""CLI exit-code contract under fuzzed argv and input files.

Every input a user can hand the CLI must end in exit 0, or in exit 2 with
exactly one line on stderr, nothing on stdout and no new file; exit 1 is
kept for internal faults.  The cases are generated by hypothesis
(derandomized, so the suite is reproducible) and run in-process through
``cli.dispatch``.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from wwmtc.cli import dispatch
from wwmtc.fileio import TENDON_HEADER, WINCH_HEADER

from conftest import DATA_DIR

FUZZ = settings(max_examples=50, deadline=None, derandomize=True, database=None)

numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e3, 1e3),
    st.integers(-10, 100),
    st.sampled_from([0, 1, 8, 8.0, 8.5, 27.0, 22.0, 1e308, -0.0, 5e-324]),
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=6)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)
# raw file bodies that are not JSON objects, or not text at all
raw_bodies = st.one_of(
    st.binary(max_size=40),
    st.sampled_from([b"", b"[", b"{", b"\xff\xfe{}", b"[" * 100_000,
                     b'{"n": ' + b"1" * 5000 + b"}"]),
)


DROP = object()


def json_object(template: dict):
    """The template with some fields replaced, dropped or added."""
    edits = st.dictionaries(st.sampled_from(sorted(template) + ["extra"]),
                            json_values | st.just(DROP), max_size=3)

    def apply(changes):
        obj = dict(template)
        for key, value in changes.items():
            if value is DROP:
                obj.pop(key, None)
            else:
                obj[key] = value
        return json.dumps(obj).encode()

    return edits.map(apply) | raw_bodies


def csv_file(header: str):
    """A log with the right or a wrong header and a few numeric-ish rows."""
    columns = header.count(",") + 1
    cells = st.one_of(numbers.map(repr), st.sampled_from(["", "nan", "1_0", "x", "1e999", " 2 "]))
    rows = st.lists(st.lists(cells, min_size=columns - 1, max_size=columns + 1)
                    .map(",".join), max_size=12)
    heads = st.sampled_from([header, header + ",x", "a,b", ""])
    return st.tuples(heads, rows).map(
        lambda hr: ("\n".join([hr[0], *hr[1]]) + "\n").encode()) | raw_bodies


p_caps = st.one_of(st.none(), st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([0.6, 0.7071067811865476, 0.75, 0.999999999, 1.0]))


def assert_contract(code: int, out: str, err: str, left: set[str], case) -> None:
    """Exit 0, or exit 2 with one error line, no stdout and no new file
    (``left``: the files a run added to its directory)."""
    assert code == 0 or (code == 2 and err.startswith("error:") and err.count("\n") == 1
                         and out == "" and not left), (case, code, out[:200], err, left)


def run_with_files(argv_of, files: dict[str, bytes], p_cap=None) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, body in files.items():
            paths[name] = Path(tmp) / name
            paths[name].write_bytes(body)
        argv = argv_of(paths)
        if p_cap is not None:
            argv.append(f"--p-cap={p_cap!r}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch(argv)
        left = set(os.listdir(tmp)) - set(files)
    assert_contract(code, out.getvalue(), err.getvalue(), left, (argv, files))


RADIAL = json.loads((DATA_DIR / "radial.json").read_text())
CONSTRAINTS = json.loads((DATA_DIR / "constraints.json").read_text())
PARAMS = json.loads((DATA_DIR / "winch_params.json").read_text())


@FUZZ
@given(spec=json_object(RADIAL), length=numbers, p_cap=p_caps)
def test_muscle_invert_fuzzed_spec(spec, length, p_cap):
    run_with_files(lambda f: ["muscle", "invert", "--spec", str(f["spec.json"]),
                              f"--length={float(length)!r}"],
                   {"spec.json": spec}, p_cap)


@FUZZ
@given(spec=json_object(RADIAL), samples=st.integers(-2, 40), p_cap=p_caps)
def test_muscle_curve_fuzzed_spec(spec, samples, p_cap):
    run_with_files(lambda f: ["muscle", "curve", "--spec", str(f["spec.json"]),
                              f"--samples={samples}"],
                   {"spec.json": spec}, p_cap)


@FUZZ
@given(constraints=json_object(CONSTRAINTS), p_cap=p_caps)
def test_design_search_fuzzed_constraints(constraints, p_cap):
    run_with_files(lambda f: ["design", "search", "--constraints", str(f["c.json"])],
                   {"c.json": constraints}, p_cap)


@FUZZ
@given(data=csv_file(TENDON_HEADER))
def test_tendon_fit_fuzzed_log(data):
    run_with_files(lambda f: ["tendon", "fit", "--data", str(f["t.csv"])], {"t.csv": data})


@FUZZ
@given(data=csv_file(WINCH_HEADER))
def test_winch_fit_fuzzed_log(data):
    run_with_files(lambda f: ["winch", "fit", "--data", str(f["w.csv"])], {"w.csv": data})


@FUZZ
@given(params=json_object(PARAMS), profile=csv_file(WINCH_HEADER))
def test_winch_simulate_fuzzed_inputs(params, profile):
    run_with_files(lambda f: ["winch", "simulate", "--params", str(f["p.json"]),
                              "--profile", str(f["w.csv"])],
                   {"p.json": params, "w.csv": profile})


# --- argv ----------------------------------------------------------------------

number_tokens = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "-0", "0", "-1e+16", "1e-300", "-5",
                     "-.5", "1e999", "0x10", "1_0", "abc", "", " 2", "--", "-"]),
)


def number_near(lo: float, hi: float):
    """Mostly a value in [lo, hi], so that some cases run to the end."""
    near = st.floats(lo, hi).map(repr)
    return st.one_of(near, near, near, number_tokens)


# stands for the run's temporary directory in a drawn argv
TMP = "@TMP@"


def argv_case(tmp: Path):
    """(argv, WWMTC_P_CAP): a command, or part of one or an unknown one,
    with its flags mostly present, some values bad or missing, and a few
    unknown flags; --samples stays small, since a curve is that long."""
    def files(*names):
        return st.sampled_from([str(DATA_DIR / name) for name in names])

    outs = st.sampled_from([str(tmp / "out.txt"), str(tmp), str(tmp / "no" / "dir.txt")])
    p_cap = number_near(0.72, 0.99)
    flags = {
        ("elliptic", "eval"): {"--kind": st.sampled_from(["F", "E", "K", "Ec", "G"]),
                               "--phi": number_near(0.1, 1.5), "--p": number_near(0.1, 0.9)},
        ("beam", "solve"): {"--L": number_near(0.5, 50.0), "--p": number_near(0.72, 0.99),
                            "--json": None},
        ("muscle", "curve"): {
            "--spec": files("radial.json", "planar.json", "missing.json", "."),
            "--samples": st.integers(-3, 60).map(str) | st.sampled_from(["1e3", "nan", "-1e+2"]),
            "--out": outs, "--svg": outs, "--p-cap": p_cap},
        ("muscle", "invert"): {"--spec": files("radial.json", "planar.json", "missing.json"),
                               "--length": number_near(175.0, 237.0), "--p-cap": p_cap},
        ("design", "search"): {"--constraints": files("constraints.json", "radial.json"),
                               "--out": outs, "--csv": outs, "--p-cap": p_cap},
        ("tendon", "fit"): {"--data": files("tendon_bench.csv", "winch_bench.csv")},
        ("winch", "fit"): {"--data": files("winch_bench.csv", "tendon_bench.csv")},
        ("winch", "simulate"): {
            "--params": files("winch_params.json", "radial.json"),
            "--profile": files("triangle_profile.csv", "tendon_bench.csv"),
            "--out": outs, "--svg": outs, "--initial-tension": number_near(-9.0, 9.0)},
        ("winch", "bogus"): {}, ("bogus", "fit"): {},
    }

    @st.composite
    def case(draw):
        def option(flag, values):
            if values is None:
                return [flag]
            form = draw(st.integers(0, 5))  # two tokens, --flag=value or no value
            return [flag, draw(values)] if form < 4 else [f"{flag}={draw(values)}"] if form == 4 \
                else [flag]

        command = draw(st.sampled_from(sorted(flags)))
        table = flags[command]
        groups = [option(flag, values) for flag, values in table.items()
                  if draw(st.integers(0, 5)) < 5]
        extra = draw(st.lists(st.sampled_from(["--bogus", "-x", "--help", *table]), max_size=2))
        groups += [option(flag, table.get(flag, number_tokens)) for flag in extra]
        argv = list(command[:draw(st.sampled_from([2, 2, 2, 2, 2, 2, 1, 0]))])
        for group in draw(st.permutations(groups)):
            argv += group
        return argv, draw(st.none() | p_cap)

    return case()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=argv_case(Path(TMP)))
# argparse stores [] for an option written --opt=--, and float([]) fails
@example(case=(["beam", "solve", "--L", "1", "--p=--"], None))
def test_fuzzed_argv(case):
    argv, env = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = [token.replace(TMP, tmp) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            os.environ.pop("WWMTC_P_CAP", None)
            if env is not None:
                os.environ["WWMTC_P_CAP"] = env
            code = dispatch(argv)
        left = set(os.listdir(tmp))
    assert_contract(code, out.getvalue(), err.getvalue(), left, (argv, env))

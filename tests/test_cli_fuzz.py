"""CLI exit-code contract under fuzzed input files.

Every input a user can hand the CLI must end in exit 0, or in exit 2 with
exactly one line on stderr; exit 1 is kept for internal faults.  The cases
are generated by hypothesis (derandomized, so the suite is reproducible)
and run in-process through ``cli.dispatch``.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

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
    err = err.getvalue()
    assert code == 0 or (code == 2 and err.startswith("error:") and err.count("\n") == 1), (
        argv, files, code, err)


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

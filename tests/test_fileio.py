"""CSV files: the log parser reads as ``float`` does and agrees with an
``np.loadtxt`` oracle on every file, and every table writer prints as
``fmt`` does, cell for cell."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wwmtc.design import AchievedMetrics, DesignResult
from wwmtc.errors import DomainError
from wwmtc.fileio import (
    CURVE_HEADER,
    DESIGN_CSV_HEADER,
    TENDON_HEADER,
    WINCH_HEADER,
    _CHUNK_ROWS as CHUNK,
    _columns,
    curve_to_csv,
    design_results_to_csv,
    fmt,
    read_winch_columns,
    read_winch_csv,
    state_to_csv,
    winch_series_to_csv,
)
from wwmtc.muscle import DeformationCurve, MuscleSpec, MuscleState

from oracles import read_log_loadtxt
from test_cli_fuzz import csv_file

# bounded so that a 15-digit spelling cannot round past the largest double
finite = st.floats(-1e308, 1e308, allow_subnormal=True)
EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308)
cells = st.one_of(st.sampled_from(EDGES), finite)
# shortest round trip, more than 17 digits, the writer's 15 digits
SPELLINGS = (repr, "{:.25e}".format, "{:.15g}".format)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def check_parses_like_float(tmp_path_factory, rows, read) -> None:
    path = tmp_path_factory.mktemp("log") / "winch.csv"
    text = [",".join(spell(v) for v, spell in zip(row, SPELLINGS)) for row in rows]
    path.write_text("\n".join([WINCH_HEADER, *text]) + "\n")
    columns = read(path)
    want = [[float(cell) for cell in line.split(",")] for line in text]
    got = np.column_stack(columns)
    assert got.tobytes() == np.array(want).tobytes()


@PROPERTY
@given(st.lists(st.tuples(cells, cells, cells), min_size=1, max_size=40))
def test_reader_parses_cells_bit_for_bit_like_float(tmp_path_factory, rows):
    check_parses_like_float(tmp_path_factory, rows, read_winch_csv)


@PROPERTY
@given(st.lists(st.tuples(cells, cells, cells), min_size=1, max_size=40))
def test_list_reader_parses_cells_bit_for_bit_like_float(tmp_path_factory, rows):
    check_parses_like_float(tmp_path_factory, rows, read_winch_columns)


def log(*rows: str, head: str = WINCH_HEADER, newline: str = "\n") -> bytes:
    return (newline.join([head, *rows]) + newline).encode()


def outcome(read, path, header):
    """The rows of doubles a reader returns, as bytes, or None for a DomainError."""
    try:
        return read(path, header).tobytes()
    except DomainError:
        return None


def parsed_rows(path, header):
    return np.column_stack(_columns(path, header))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=csv_file(WINCH_HEADER) | csv_file(TENDON_HEADER))
@example(data=log("0,1_0,0"))
@example(data=log("0,١,0"))
@example(data=log("0,\xa01,0"))
@example(data=log("0,Infinity,0"))
@example(data=log("0,-nan,0"))
@example(data=log("0,1e400,0"))
@example(data=log("+.5e-3,.5,1."))
@example(data=log("0,,0"))
@example(data=log("# a comment", "0,1,0"))
@example(data=log("0,1,0", "1,2,3", newline="\r\n"))
@example(data=b"\n \n\t\n" + log("0,1,0", "", "1,2,3"))
@example(data=log("0,1,0", "1,2"))
@example(data=log("0,1,0", "1,2,3,4"))
@example(data=log("0,1", "1,2,3,4"))
@example(data=log("0, 1 ,\t2"))
@example(data=log("0,1\x1f,0"))
@example(data=log("0,1,0\u20281,2,3"))
@example(data=log("0,1,0\x0c1,2,3"))
@example(data=log("0,1,0\x1e1,2,3"))
@example(data=log("0,1,0\x851,2,3"))
@example(data=log("0,1,0\x0c", "\x0c1,2,3"))
@example(data=log("0,1,2,3", "1,2,3,4.0", head=TENDON_HEADER))
@example(data=log("0,1,2,3", "1,2,3", head=TENDON_HEADER))
@example(data=log("0,1,2,3,4", "1,2,3", head=TENDON_HEADER))
def test_list_reader_agrees_with_array_reader(tmp_path_factory, data):
    # for either header, both raise DomainError or both return the same doubles
    path = tmp_path_factory.mktemp("log") / "log.csv"
    path.write_bytes(data)
    for header in (WINCH_HEADER, TENDON_HEADER):
        assert outcome(parsed_rows, path, header) == outcome(read_log_loadtxt, path, header), \
            (header, data)


@pytest.mark.parametrize("at, new, readable", [
    (0, [], True),
    # a short and a long row, one on each side of the first chunk's end
    (CHUNK - 1, ["1,2", "3,4,5,6"], False),
    (2 * CHUNK, ["0,inf,0"], False),
], ids=["whole", "ragged-across-chunks", "inf-in-last-chunk"])
def test_parser_agrees_with_oracle_past_one_chunk(tmp_path, at, new, readable):
    rows = [f"{k},{k * 0.1!r},{-k / 7!r}" for k in range(2 * CHUNK + 1)]
    rows[at:at + len(new)] = new
    path = tmp_path / "winch.csv"
    path.write_bytes(log(*rows))
    want = outcome(read_log_loadtxt, path, WINCH_HEADER)
    assert (want is not None) == readable
    assert outcome(parsed_rows, path, WINCH_HEADER) == want


def fmt_table(header: str, rows) -> str:
    """The table as the writers once built it: fmt per cell, joined per row."""
    return header + "\n" + "".join(",".join(row) + "\n" for row in rows)


def assert_written_as(write, arg, want) -> None:
    """write(arg) is the text want() builds, or both raise DomainError."""
    try:
        text = want()
    except DomainError:
        with pytest.raises(DomainError):
            write(arg)
    else:
        assert write(arg) == text


def state_cells(state: MuscleState) -> list[str]:
    p, width, length, contraction, psi0 = state
    return [fmt(p), fmt(width), fmt(length), fmt(contraction), fmt(psi0 * 180.0 / math.pi)]


SPEC = MuscleSpec(n=8, L=27.0, h0=22.0)
positive = st.one_of(st.sampled_from((5e-324, 2.2250738585072014e-308)),
                     st.floats(5e-324, 1e308))
# str(n) and "%.15g" differ from 10**15 up
arch_counts = st.one_of(st.sampled_from((1, 10**15, 10**15 + 1)), st.integers(1, 10**17))


@PROPERTY
@given(st.lists(st.tuples(cells, cells, cells), max_size=40))
def test_writer_prints_each_cell_as_fmt(rows):
    columns = [np.array([row[k] for row in rows], dtype=float) for k in range(3)]
    want = "".join(f"{fmt(t)},{fmt(i)},{fmt(f)}\n" for t, i, f in rows)
    assert winch_series_to_csv(*columns) == WINCH_HEADER + "\n" + want


@PROPERTY
@given(st.lists(st.builds(MuscleState, cells, cells, cells, cells, cells), max_size=40))
def test_state_writers_print_each_cell_as_fmt(states):
    # psi0 is printed in degrees, and overflows there past ~1e306 rad
    curve = DeformationCurve(SPEC, tuple(states))
    assert_written_as(curve_to_csv, curve,
                      lambda: fmt_table(CURVE_HEADER, map(state_cells, states)))
    for state in states:
        assert_written_as(state_to_csv, state,
                          lambda: fmt_table(CURVE_HEADER, [state_cells(state)]))


@PROPERTY
@given(st.lists(st.builds(
    DesignResult,
    st.builds(MuscleSpec, arch_counts, positive, st.one_of(st.just(0.0), positive)),
    st.builds(AchievedMetrics, cells, cells, cells),
    st.just(True),
    st.tuples(cells, cells),
), max_size=40))
def test_design_writer_prints_each_cell_as_fmt(results):
    rows = [[str(res.spec.n)] + [fmt(v) for v in (res.spec.L, res.spec.h0, *res.achieved,
                                                   *res.L_interval)]
            for res in results]
    assert design_results_to_csv(results) == fmt_table(DESIGN_CSV_HEADER, rows)


STATE = MuscleState(0.85, 7.5, 200.25, 37.75, 0.5)
RESULT = DesignResult(SPEC, AchievedMetrics(238.0, 66.5, 17.0), True, (26.5, 27.5))


@pytest.mark.parametrize("write, arg", [
    (curve_to_csv, DeformationCurve(SPEC, (STATE, STATE._replace(width=math.inf)))),
    (state_to_csv, STATE._replace(psi0=math.nan)),
    (design_results_to_csv, [RESULT, RESULT._replace(
        achieved=AchievedMetrics(238.0, -math.inf, 17.0))]),
    (lambda columns: winch_series_to_csv(*columns), ([0.0, 1.0], [0.0, 1.0], [0.0, math.nan])),
], ids=["curve", "state", "design", "winch"])
def test_writers_reject_a_non_finite_cell(write, arg):
    with pytest.raises(DomainError, match="not a finite number"):
        write(arg)

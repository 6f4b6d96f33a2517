"""Experiment-log CSVs: both winch readers parse as ``float`` does and agree
on every file, and the writer prints as ``fmt`` does, cell for cell."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from wwmtc.errors import DomainError
from wwmtc.fileio import (
    WINCH_HEADER,
    fmt,
    read_winch_columns,
    read_winch_csv,
    winch_series_to_csv,
)

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


def outcome(read, path):
    """The doubles a reader returns, as bytes, or None for a DomainError."""
    try:
        columns = read(path)
    except DomainError:
        return None
    return np.column_stack(columns).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=csv_file(WINCH_HEADER))
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
@example(data=log("0, 1 ,\t2"))
@example(data=log("0,1\x1f,0"))
@example(data=log("0,1,0\u20281,2,3"))
def test_list_reader_agrees_with_array_reader(tmp_path_factory, data):
    # both raise DomainError, or both return the same doubles
    path = tmp_path_factory.mktemp("log") / "winch.csv"
    path.write_bytes(data)
    assert outcome(read_winch_columns, path) == outcome(read_winch_csv, path), data


@PROPERTY
@given(st.lists(st.tuples(cells, cells, cells), max_size=40))
def test_writer_prints_each_cell_as_fmt(rows):
    columns = [np.array([row[k] for row in rows], dtype=float) for k in range(3)]
    want = "".join(f"{fmt(t)},{fmt(i)},{fmt(f)}\n" for t, i, f in rows)
    assert winch_series_to_csv(*columns) == WINCH_HEADER + "\n" + want

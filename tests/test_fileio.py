"""Experiment-log CSVs: the array reader parses as ``float`` does, and the
array writer prints as ``fmt`` does, cell for cell."""

import numpy as np
from hypothesis import given, settings, strategies as st

from wwmtc.fileio import WINCH_HEADER, fmt, read_winch_csv, winch_series_to_csv

# bounded so that a 15-digit spelling cannot round past the largest double
finite = st.floats(-1e308, 1e308, allow_subnormal=True)
EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308)
cells = st.one_of(st.sampled_from(EDGES), finite)
# shortest round trip, more than 17 digits, the writer's 15 digits
SPELLINGS = (repr, "{:.25e}".format, "{:.15g}".format)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(st.lists(st.tuples(cells, cells, cells), min_size=1, max_size=40))
def test_reader_parses_cells_bit_for_bit_like_float(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("log") / "winch.csv"
    text = [",".join(spell(v) for v, spell in zip(row, SPELLINGS)) for row in rows]
    path.write_text("\n".join([WINCH_HEADER, *text]) + "\n")
    columns = read_winch_csv(path)
    want = [[float(cell) for cell in line.split(",")] for line in text]
    got = np.column_stack(columns)
    assert got.tobytes() == np.array(want).tobytes()


@PROPERTY
@given(st.lists(st.tuples(cells, cells, cells), max_size=40))
def test_writer_prints_each_cell_as_fmt(rows):
    columns = [np.array([row[k] for row in rows], dtype=float) for k in range(3)]
    want = "".join(f"{fmt(t)},{fmt(i)},{fmt(f)}\n" for t, i, f in rows)
    assert winch_series_to_csv(*columns) == WINCH_HEADER + "\n" + want

"""Random CSV files through ``ingest_csv``, against cell-by-cell conversion.

Tables are written with ``csv.writer`` in one of three delimiters and three
line ends, with quoted cells, embedded line breaks, the line separators that
only ``str.splitlines`` breaks at (``\\x0b``, ``\\x0c``, ``\\x1c``-``\\x1e``,
``\\x85``, ``\\u2028``, ``\\u2029``), blank lines and an optional BOM.  The
table bytes and the report must equal ``_per_cell_reference`` over the rows
written, less those whose written line is blank, which ingest skips; a ragged
one-line row must raise a DataError naming its line in the file.  A memory
test bounds the traced peak of one ingest against the file size.
"""

import csv
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qad import DataError, IngestReport, ingest_csv
from qad.tables import BLOCK_CELLS, DEFAULT_MISSING

from test_tie_free import _per_cell_reference

#: the cells of test_column_wise_conversion_matches_per_cell
POOL = ["1.5", " 2 ", "x", "inf", "-inf", "nan", "-nan", "NA", "", "1e999", "-0.0", "1_0",
        "0x1", "  "]
UNICODE = ["\u0661\u0662", "\uff15", "\xb2", "\u0967.5", "\u2003", "\xa0"]
SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
QUOTING = [",", ";", "\t", '"', "\n", "\r\n"]
CELLS = st.lists(st.sampled_from(POOL + UNICODE + SEPARATORS + QUOTING + ["7", "-3e2"]),
                 max_size=3).map("".join)
BLANK_LINES = st.lists(st.sampled_from(["\n", "\r\n", "\r", "  \n", "\t\r\n", "\x0c\n"]),
                       max_size=2).map("".join)


@st.composite
def csv_files(draw):
    """(file chunks, rows written, index of the ragged row or None, delimiter, k)."""
    k = draw(st.integers(1, 4))
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    lineterminator = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    rows = draw(st.lists(st.lists(CELLS, min_size=k, max_size=k), max_size=10))
    ragged = None
    if rows and draw(st.booleans()):
        ragged = draw(st.integers(0, len(rows) - 1))
        width = draw(st.sampled_from([m for m in range(1, k + 3) if m != k]))
        rows[ragged] = ["7"] * width
    # written with CRLF, which quotes every cell holding a CR or an LF, and
    # then ended with the drawn line end
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter, lineterminator="\r\n")
    chunks = [draw(st.sampled_from(["", "\ufeff"])), draw(BLANK_LINES)]
    for row in [[f"c{j}" for j in range(k)], *rows]:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow(row)
        chunks += [buffer.getvalue()[:-2] + lineterminator, draw(BLANK_LINES)]
    return chunks, rows, ragged, delimiter, k


def _line_of(text):
    """The line number that starts after ``text``: lines end at LF, CR or CRLF."""
    return len(re.findall(r"\r\n|\r|\n", text)) + 1


@settings(
    max_examples=200, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(drawn=csv_files(), sniff=st.booleans())
def test_ingest_matches_per_cell_reference(tmp_path, drawn, sniff):
    chunks, rows, ragged, delimiter, k = drawn
    path = tmp_path / "fuzz.csv"
    path.write_bytes("".join(chunks).encode("utf-8"))
    # one header name holds no delimiter to sniff, unless it is the default ","
    given_delimiter = None if sniff and (k > 1 or delimiter == ",") else delimiter
    if ragged is not None:
        # chunks: BOM, blank lines, then (row, blank lines) pairs, the header first
        line = _line_of("".join(chunks[:4 + 2 * ragged]))
        with pytest.raises(DataError, match=f"row {line} has {len(rows[ragged])} fields, "
                                            f"expected {k}$"):
            ingest_csv(path, delimiter=given_delimiter)
        return
    kept = [row for row, chunk in zip(rows, chunks[4::2]) if chunk.strip()]
    if not kept:
        with pytest.raises(DataError, match="zero data rows"):
            ingest_csv(path, delimiter=given_delimiter)
        return
    table, report = ingest_csv(path, delimiter=given_delimiter)
    values, bad = _per_cell_reference(kept, set(DEFAULT_MISSING))
    names = [f"c{j}" for j in range(k)]
    assert table.names == tuple(names)
    assert table.values.tobytes() == values.tobytes()
    assert report == IngestReport(n_rows=len(kept), non_numeric=dict(zip(names, bad)))


def test_traced_peak_is_bounded_by_file_size(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "numeric.csv"
    lines = [",".join(f"v{j}" for j in range(8))]
    lines += [",".join(f"{v:.6f}" for v in row) for row in rng.normal(size=(20_000, 8))]
    path.write_text("\n".join(lines) + "\n")
    size = path.stat().st_size
    tracemalloc.start()
    try:
        table, _ = ingest_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.values.shape == (20_000, 8)
    assert peak <= 10 * size, f"traced peak {peak / size:.1f}x the file size"


def test_one_missing_marker_as_a_string(tmp_path):
    """A bare string is one marker, not a set of characters: with ``missing="NA"``
    the cell "NA" is missing and the cell "N" is non-numeric."""
    path = tmp_path / "na.csv"
    path.write_text("a,b\n1,NA\n2,N\nNA,3\n")
    table, report = ingest_csv(path, missing="NA")
    expected, expected_report = ingest_csv(path, missing=["NA"])
    assert table.values.tobytes() == expected.values.tobytes()
    assert report == expected_report == IngestReport(n_rows=3, non_numeric={"a": 0, "b": 1})


def _write_rows(path, rows):
    path.write_text("\n".join(["a,b,c"] + [",".join(row) for row in rows]) + "\n")


def _multi_block_rows():
    """20 000 rows of 3 numeric cells spanning four blocks of BLOCK_CELLS cells, with
    a non-numeric cell, an "inf" and a missing marker in the second and the last."""
    k, n = 3, 20_000
    rng = np.random.default_rng(5)
    rows = [[f"{v:.6f}" for v in row] for row in rng.normal(size=(n, k))]
    per_block = BLOCK_CELLS // k
    assert n > 3 * per_block
    for first in (per_block, (n - 1) // per_block * per_block):
        rows[first + 1][0] = "x"
        rows[first + 2][1] = " inf "
        rows[first + 3][k - 1] = "NA"
    return rows


def test_rows_across_blocks_match_per_cell_reference(tmp_path):
    rows = _multi_block_rows()
    path = tmp_path / "blocks.csv"
    _write_rows(path, rows)
    table, report = ingest_csv(path)
    values, bad = _per_cell_reference(rows, set(DEFAULT_MISSING))
    assert table.values.tobytes() == values.tobytes()
    assert report == IngestReport(n_rows=len(rows), non_numeric=dict(zip("abc", bad)))
    assert bad == [2, 2, 0] and int(np.isnan(values[:, 2]).sum()) == 2


def test_a_ragged_row_in_a_later_block_names_its_line(tmp_path):
    rows = _multi_block_rows()
    path = tmp_path / "ragged.csv"
    _write_rows(path, rows[:-5] + [rows[-5][:2]] + rows[-4:])
    # the header is line 1, so row i of ``rows`` is on line i + 2
    with pytest.raises(DataError, match=f"row {len(rows) - 3} has 2 fields, expected 3$"):
        ingest_csv(path)


def test_traced_peak_is_at_most_three_times_the_file_size(tmp_path):
    """The 20 000 x 8 file of test_traced_peak_is_bounded_by_file_size, under the
    tighter bound that block-wise conversion keeps."""
    rng = np.random.default_rng(3)
    path = tmp_path / "numeric.csv"
    lines = [",".join(f"v{j}" for j in range(8))]
    lines += [",".join(f"{v:.6f}" for v in row) for row in rng.normal(size=(20_000, 8))]
    path.write_text("\n".join(lines) + "\n")
    size = path.stat().st_size
    tracemalloc.start()
    try:
        table, _ = ingest_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.values.shape == (20_000, 8)
    assert peak <= 3 * size, f"traced peak {peak / size:.1f}x the file size"


def test_missing_is_read_before_the_file(tmp_path):
    """An unusable ``missing`` fails before the file is opened."""
    with pytest.raises(TypeError):
        ingest_csv(tmp_path / "absent.csv", missing=5)

"""Numeric data tables and their ingestion from CSV.

Parsing is locale-independent (decimal point only).  Cells matching a missing
marker become NaN; cells that fail numeric parsing or parse to a non-finite
value ("inf", "nan", ...) also become NaN but are tallied per column so callers
can surface a warning.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .errors import DataError, _real_array

__all__ = ["DataTable", "ingest_csv", "IngestReport"]

DEFAULT_MISSING = ("", "NA")

#: cells converted at a time: a block holds max(1, BLOCK_CELLS // k) rows of k cells,
#: so the cell strings alive at once stay bounded whatever the file size
BLOCK_CELLS = 1 << 14


@dataclass(frozen=True)
class DataTable:
    """Named numeric columns with NaN as the missing-value marker."""

    names: tuple[str, ...]
    values: np.ndarray  # (n_rows, n_columns) float

    def __post_init__(self):
        names = tuple(self.names)
        if not all(isinstance(name, str) for name in names):
            raise TypeError("column names must be strings")
        values = _real_array(self.values, "values")
        if values.ndim != 2:
            raise ValueError("values must be a 2-d array")
        if len(names) != values.shape[1]:
            raise ValueError("one name per column required")
        if len(set(names)) != len(names):
            raise ValueError("column names must be unique")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", values)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.names.index(name)
        except ValueError:
            raise DataError(f"unknown column {name!r}") from None
        return self.values[:, idx]


@dataclass(frozen=True)
class IngestReport:
    """Parsing diagnostics: rows read and non-numeric (or non-finite) cell
    tallies per column."""

    n_rows: int
    non_numeric: dict

    def messages(self):
        return [
            f"column {name!r}: {count} non-numeric cell(s) treated as missing"
            for name, count in self.non_numeric.items()
            if count
        ]


def _detect_delimiter(first_line: str) -> str:
    candidates = [",", "\t", ";"]
    counts = {c: first_line.count(c) for c in candidates}
    best = max(counts, key=counts.get)
    return best if counts[best] > 0 else ","


def _content_lines(fh, starts):
    """Yield the non-blank lines of ``fh`` and append each one's line number to
    ``starts``; cleared after each row, ``starts[0]`` is where a row begins."""
    for number, line in enumerate(fh, start=1):
        if line.strip():
            starts.append(number)
            yield line


def _check_delimiter(delimiter, name="delimiter"):
    """A delimiter is None (sniffed) or one character that can split a line."""
    if delimiter is not None and (len(delimiter) != 1 or delimiter in "\r\n"):
        raise ValueError(f"{name} must be one character, not a line break: {delimiter!r}")


def _rows(reader, k, starts, path):
    """The rows of ``reader``; DataError naming the first line of one without k fields."""
    starts.clear()
    for row in reader:
        if len(row) != k:
            raise DataError(f"{path}: row {starts[0]} has {len(row)} fields, expected {k}")
        starts.clear()
        yield row


def ingest_csv(path, missing=DEFAULT_MISSING, delimiter: str | None = None):
    """Read a delimited text file with a header row of unique column names.

    ``missing`` is one marker or an iterable of them.  Returns (DataTable, IngestReport).
    Raises DataError for unreadable or non-UTF-8 files, duplicate or empty headers,
    ragged rows, rows the csv module rejects (a cell above its field limit), and zero
    data rows, and ValueError for a bad ``delimiter``.  Rows end at LF, CR or CRLF;
    blank lines are skipped; a ragged or rejected row is named by its first line.
    Rows are converted as they are read, BLOCK_CELLS cells at a time.
    """
    _check_delimiter(delimiter)
    missing = {missing} if isinstance(missing, str) else set(missing)
    starts = []  # file line numbers of the row being read
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            lines = _content_lines(fh, starts)
            first = next(lines, None)
            if first is None:
                raise DataError(f"{path}: empty file")
            reader = csv.reader(chain([first], lines), delimiter=delimiter or _detect_delimiter(first))
            header = [h.strip() for h in next(reader)]
            if any(not h for h in header):
                raise DataError(f"{path}: empty column name in header")
            if len(set(header)) != len(header):
                raise DataError(f"{path}: duplicate column names in header")
            k = len(header)
            rows, per_block = _rows(reader, k, starts, path), max(1, BLOCK_CELLS // k)
            blocks, non_numeric = [], np.zeros(k, dtype=int)
            while cells := list(map(str.strip, chain.from_iterable(islice(rows, per_block)))):
                absent = np.fromiter(map(missing.__contains__, cells), bool, len(cells))
                parsed = np.fromiter(map(_parse_cell, cells), float, len(cells))
                finite = np.isfinite(parsed)
                # non-finite cells ("inf", "nan", ...) count as non-numeric and stay missing
                non_numeric += (~(finite | absent)).reshape(-1, k).sum(axis=0)
                parsed[absent | ~finite] = np.nan
                blocks.append(parsed)
    except UnicodeDecodeError as exc:  # its position counts from the read block
        with open(path, "rb") as fh:
            try:
                fh.read().decode("utf-8")
            except UnicodeDecodeError as whole:  # the offset in the file
                exc = whole
        raise DataError(f"cannot read {path}: {exc}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:  # e.g. a cell above csv.field_size_limit()
        raise DataError(f"{path}: row {starts[0]}: {exc}") from exc
    if not blocks:
        raise DataError(f"{path}: zero data rows")
    table = DataTable(tuple(header), np.concatenate(blocks).reshape(-1, k))
    return table, IngestReport(table.n_rows, dict(zip(header, non_numeric.tolist())))


def _parse_cell(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan

"""Conversion of plain CSV blocks from their bytes.

A block that ``csv.reader`` would split at every comma is read from one
``uint8`` view of its bytes, with no Python string per cell: its commas and
line ends bound the cells, and its stamps and value cells are gathered
into uint8 grids, a byte place per row. The stamps are read by numpy's
ISO 8601 cast of bytes to ``datetime64``, the value cells by arithmetic. A
value column that the arithmetic declines comes back as its cell texts, which
:mod:`drspot.market_data` converts with ``float``, as it does the cells of
any other block, split by the reader: both give the same values.
"""

from __future__ import annotations

import csv
from typing import Sequence

import numpy as np

from .series import TIME_DTYPE

# Canonical stamps, ``YYYY-MM-DDTHH:00``, one per column: each byte lies
# between these bounds, a digit, the separator of its place or a minute's 0.
_STAMP_LOW = np.frombuffer(b"0000-00-00T00:00", dtype=np.uint8)[:, None]
_STAMP_HIGH = np.frombuffer(b"9999-99-99T99:00", dtype=np.uint8)[:, None]
_STAMP_CHARS = len(_STAMP_LOW)
_YEAR_1 = np.datetime64("0001-01-01", "us")
# The most digits of a decimal cell read arithmetically: an exact double.
_DECIMAL_DIGITS = 15
DECIMAL_WIDTH = _DECIMAL_DIGITS + 2  # with a sign and a point
_POW10 = np.array([float(10**e) for e in range(DECIMAL_WIDTH)])  # exact
_PLACES = np.arange(DECIMAL_WIDTH, dtype=np.uint8)
_POINT = ord(".") - ord("0") + 256  # in uint8


def stamp_times(chars: np.ndarray) -> np.ndarray | None:
    """The times of canonical stamps, one per column of a ``(16, n)`` uint8
    array, or None unless every stamp is ``YYYY-MM-DDTHH:00`` with a year
    from 1, a month 1-12, a day within its month and an hour below 24: the
    stamps that ``datetime.fromisoformat`` reads as a whole hour. numpy's
    ISO 8601 reader checks the month, the day and the hour; it also reads
    the year 0000."""
    if ((chars < _STAMP_LOW) | (chars > _STAMP_HIGH)).any():
        return None
    try:
        times = np.ascontiguousarray(chars.T).view(f"S{_STAMP_CHARS}")[:, 0].astype(TIME_DTYPE)
    except ValueError:
        return None
    return None if (times < _YEAR_1).any() else times


def _take_places(data: np.ndarray, first: np.ndarray, width: int) -> np.ndarray:
    """``data[first + k]`` at ``[k]``, by one ``take`` per byte place."""
    grid = np.empty((width, *first.shape), dtype=np.uint8)
    for k in range(width):
        data[k:].take(first, out=grid[k])
    return grid


def decimal_columns(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> list[np.ndarray | None]:
    """The values of the cells ``data[starts[j, i]:ends[j, i]]``, one array
    per column j, or None unless each cell of the column is
    ``[-]digits[.digits]`` with 1 to ``_DECIMAL_DIGITS`` digits. Needs
    ``DECIMAL_WIDTH`` bytes of ``data`` before the first cell. A cell is
    ``m / 10**f`` for its digits ``m`` as an integer and its ``f`` digits
    after the point: both exact doubles, so IEEE division gives Python's
    ``float`` of the cell (Clinger, PLDI 1990)."""
    converted: list[np.ndarray | None] = [None] * len(starts)
    lengths = ends - starts
    fits = (lengths.max(axis=1) <= DECIMAL_WIDTH) & (lengths.min(axis=1) >= 1)
    if not fits.any():
        return converted
    if not fits.all():
        starts, ends, lengths = starts[fits], ends[fits], lengths[fits]
    width = int(lengths.max())
    grid = _take_places(data, ends - width, width)
    grid -= ord("0")  # a digit is below 10, other bytes wrap
    minus = data[starts] == ord("-")
    body = lengths.astype(np.uint8) - minus  # the bytes after a sign
    place = _PLACES[:width, None, None]
    grid *= place >= width - body  # earlier cells' bytes: leading zeros
    point = (grid == _POINT).view(np.uint8)
    points = np.add.reduce(point, axis=0, dtype=np.uint8)
    digits = body - points
    # A cell reads if its body is 1 to 15 digits and at most one point.
    fails = np.add.reduce(grid < 10, axis=0, dtype=np.uint8) + points != width
    fails |= (points > 1) | (digits < 1) | (digits > _DECIMAL_DIGITS)
    point *= place + 1
    after = np.add.reduce(point, axis=0, dtype=np.uint8)  # the point's place + 1, or 0
    del point
    # The digits before a point move down over it: a cell that reads has
    # its digits, an exact integer, in the last 15 places.
    np.copyto(grid[1:], grid[:-1], where=place[1:] < after)
    grid[0] *= after == 0
    integers = np.zeros(grid.shape[1:])
    for row in grid[-_DECIMAL_DIGITS:]:
        integers *= 10.0
        integers += row
    # A cell of two points reads nothing; it indexes no power.
    powers = _POW10.take(np.multiply(width - after, points == 1, out=after))
    columns = zip(np.flatnonzero(fits).tolist(), fails.any(axis=1).tolist(), integers, powers, minus)
    for j, fail, integer, power, negative in columns:
        if not fail:
            values = converted[j] = integer / power
            np.negative(values, out=values, where=negative)
    return converted


def plain_block(
    text: str, width: int, indices: Sequence[int]
) -> tuple[np.ndarray, list[np.ndarray | list[str]]] | None:
    """The times and the value columns of a block of whole data lines
    without a quote, or None unless ``csv.reader`` would split every line at
    each of its commas into ``width`` cells (no lone carriage return, NUL,
    blank row or cell over ``csv.field_size_limit()``) and every stamp is
    canonical (see :func:`stamp_times`, unpadded). ``indices`` holds the
    file column of the stamps, then of each value column. A value column
    comes back as its floats (see :func:`decimal_columns`) or, declined, as
    the cell texts ``csv.reader`` gives, split from the block's text."""
    if "\0" in text:
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    if not text.endswith("\n"):
        text += "\n"
    pad = DECIMAL_WIDTH
    data = np.frombuffer((" " * pad + text).encode("utf-8", "surrogatepass"), dtype=np.uint8)
    separator = data == ord(",")
    separator |= data == ord("\n")
    ends = np.flatnonzero(separator)
    del separator
    newline = data[ends] == ord("\n")
    n = int(np.count_nonzero(newline))
    if len(ends) != n * width or not newline[width - 1 :: width].all():
        return None
    # The cell i ends at ends[i] and starts after ends[i - 1].
    if max(ends[0] - pad, int(np.diff(ends).max(initial=0)) - 1) > csv.field_size_limit():
        return None
    ends = ends.reshape(n, width)
    line_starts = np.insert(ends[:-1, -1] + 1, 0, pad)
    starts = np.array([ends[:, i - 1] + 1 if i else line_starts for i in indices])
    ends = ends.T[indices]
    if ((ends[0] - starts[0]) != _STAMP_CHARS).any():
        return None
    times = stamp_times(_take_places(data, starts[0], _STAMP_CHARS))
    if times is None:
        return None
    columns = decimal_columns(data, starts[1:], ends[1:])
    if any(column is None for column in columns):
        cells = text.replace("\n", ",").split(",")
        columns = [cells[i : n * width : width] if c is None else c for i, c in zip(indices[1:], columns)]
    return times, columns

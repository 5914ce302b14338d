"""Hourly market data ingestion, validation, and serialization.

CSV contract: a header row with columns ``timestamp`` (ISO-8601 local time
at hour resolution, without a UTC offset), ``demand_mwh``, ``spot_price``,
``dry_bulb_f`` and ``dew_point_f``; other columns are ignored.  Files with
different column names can be mapped onto this contract with the ``schema``
argument of :func:`parse_hourly_csv`.  Units are passed through unconverted
(MWh, $/MWh, degrees F).

Timestamps are hour-beginning: the record stamped 00:00 covers the
00:00-01:00 interval and is hour 1 of the day.  The series types live in
:mod:`drspot.series` and are importable from here.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from datetime import date, datetime
from itertools import chain, islice, repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .csv_text import float_grids, stamp_grid, write_csv
from .plain_blocks import canonical_times as _canonical_times
from .plain_blocks import cell_texts, decimal_column
from .plain_blocks import plain_block as _plain_block

# The series types are re-exported: they are part of this module's interface.
from .series import (  # noqa: F401
    HOUR,
    HOUR64,
    TIME_DTYPE,
    RecordSeries,
    datetime64_column,
    iso_minutes,
    validate_series,
)

REQUIRED_COLUMNS = ("timestamp", "demand_mwh", "spot_price", "dry_bulb_f", "dew_point_f")


class MarketDataError(Exception):
    """Base class for ingestion errors."""


class MissingColumnError(MarketDataError):
    def __init__(self, column: str, canonical: str | None = None):
        label = f"{column!r}" if canonical in (None, column) else f"{column!r} (mapped from {canonical!r})"
        super().__init__(f"required column {label} not found in header")
        self.column = column


class ParseError(MarketDataError):
    """A bad cell, or with ``column`` None a row the CSV reader rejects."""

    def __init__(self, row: int, column: str | None, value: str, reason: str = "invalid value"):
        if column is None:
            super().__init__(f"row {row}: {reason}")
        else:
            super().__init__(f"row {row}, column {column!r}: {reason}: {value!r}")
        self.row = row
        self.column = column
        self.value = value


class GapError(MarketDataError):
    """A hole or a step back in the hourly sequence.

    ``missing`` is the hour expected next. ``found`` and its file ``row`` are
    set when the file repeats an hour or goes back in time instead.
    """

    def __init__(self, missing: datetime, found: datetime | None = None, row: int | None = None):
        previous = missing - HOUR
        if found is None:
            msg = f"missing hour {iso_minutes(missing)}"
        elif found == previous:
            msg = f"row {row}: duplicate hour {iso_minutes(found)}"
        else:
            msg = f"row {row}: hour {iso_minutes(found)} not after {iso_minutes(previous)}"
        super().__init__(msg)
        self.missing = missing
        self.found = found
        self.row = row


def _convert(raws: Sequence[str], convert: Callable[[str], object]) -> tuple[list, int]:
    """``convert`` applied to the raw cells up to the first one it rejects
    with ValueError, and that cell's index (``len(raws)`` when none is)."""
    try:
        return list(map(convert, raws)), len(raws)
    except ValueError:
        values = []
        for raw in raws:
            try:
                values.append(convert(raw))
            except ValueError:
                break
        return values, len(values)


def _ascii_float(cell: str) -> float:
    """``float`` of a cell of ASCII characters without an underscore; Python's
    ``float`` also reads ``1_000`` and non-ASCII digits such as ``٢٥``."""
    if not cell.isascii() or "_" in cell:
        raise ValueError(cell)
    return float(cell)


def _float_column(raws: Sequence[str]) -> tuple[np.ndarray, int]:
    """:func:`_ascii_float` of the raw cells up to the first one it rejects,
    and that cell's index (``len(raws)`` when none is). numpy converts a
    column of ASCII text without an underscore at once, by Python's ``float``
    rules; cell by cell runs only when a cell fails, to find the first."""
    text = "".join(raws)
    if text.isascii() and "_" not in text:
        try:
            return np.array(raws, dtype=float), len(raws)
        except ValueError:
            pass
    parsed, bad = _convert(raws, _ascii_float)
    return np.array(parsed, dtype=float), bad


def _first(mask: np.ndarray) -> int:
    """Index of the first true entry, or ``len(mask)``."""
    return int(mask.argmax()) if mask.any() else len(mask)


def _fill_gaps(
    times: np.ndarray, values: dict[str, np.ndarray]
) -> tuple[np.ndarray, dict[str, np.ndarray], np.ndarray]:
    """Fill the holes of an increasing, hour-aligned series: demand and
    weather linearly interpolated, prices forward-filled. Returns the full
    times, the full columns and the mask of the synthesized rows."""
    offset = (times - times[0]) // HOUR64
    full = np.arange(offset[-1] + 1)
    before = np.searchsorted(offset, full, side="right") - 1
    synthesized = offset[before] != full
    prev = before[synthesized]
    nxt = prev + 1
    frac = (full[synthesized] - offset[prev]) / (offset[nxt] - offset[prev])
    filled = {}
    for name, column in values.items():
        filled[name] = column[before]
        if name in ("demand", "dry_bulb_temp", "dew_point"):
            filled[name][synthesized] = column[prev] + frac * (column[nxt] - column[prev])
    return times[0] + full * HOUR64, filled, synthesized


def _records(reader, offset: int, malformed: list[ParseError]) -> Iterator[tuple[int, list[str]]]:
    """The records of a CSV ``reader`` whose first line is file line
    ``offset + 1``, each with the number of lines read before it: the
    record starts on file line ``offset + 1`` plus that number. They stop
    at the first record the reader rejects, whose error (by file line) is
    appended to ``malformed``."""
    try:
        yield from zip(map(attrgetter("line_num"), repeat(reader)), reader)
    except csv.Error as exc:
        malformed.append(ParseError(offset + reader.line_num, None, "", f"malformed CSV: {exc}"))


# Rows converted at a time on the csv.reader path.
_CHUNK_ROWS = 256
# Characters read at a time after the header. Each read is cut after its last
# line end, so a block holds whole lines and is converted as one array of
# bytes; large blocks spread numpy's fixed cost per call over many rows.
_BLOCK_CHARS = 1 << 17


def _check_values(
    columns: Sequence[tuple[np.ndarray, int, Sequence[str] | None]], row_nums: Sequence[int]
) -> tuple[dict[str, np.ndarray], list[tuple[int, int, MarketDataError]]]:
    """The value columns of a chunk of data rows on file rows ``row_nums``,
    and the (row within the chunk, check rank within the row, error) of each
    column's first bad cell. Each column is given as its values up to the
    first cell rejected as non-numeric, that cell's index, and the raw cells
    (needed only when one is bad)."""
    failures: list[tuple[int, int, MarketDataError]] = []
    values: dict[str, np.ndarray] = {}
    for rank, (column, (parsed, bad, raw)) in enumerate(zip(REQUIRED_COLUMNS[1:], columns), start=1):
        values[column] = parsed
        # A finite sum rules out nan and inf in one pass; an overflowing one
        # sends the column to the cell-by-cell search.
        non_finite = len(parsed) if math.isfinite(parsed.sum()) else _first(~np.isfinite(parsed))
        reason = "non-numeric value"
        if non_finite < bad:
            bad, reason = non_finite, "non-finite value"
        if bad < len(row_nums):
            failures.append((bad, rank, ParseError(row_nums[bad], column, raw[bad].strip(), reason)))
    return values, failures


def _plain_columns(
    times: np.ndarray, data: np.ndarray, starts: np.ndarray, ends: np.ndarray, row_nums: Sequence[int]
) -> tuple[np.ndarray, dict[str, np.ndarray], list[tuple[int, int, MarketDataError]]]:
    """The checked columns of a plain block (see :func:`_plain_block`) on
    file rows ``row_nums``. A value column of decimal cells is converted
    arithmetically; any other goes through :func:`_float_column`, from its
    cells cut out of the block."""
    parsed = [decimal_column(data, *bounds) for bounds in zip(starts, ends)]
    raws = cell_texts(data, starts, ends) if any(p is None for p in parsed) else [None] * len(parsed)
    columns = [(p, len(p), None) if p is not None else (*_float_column(raw), raw) for p, raw in zip(parsed, raws)]
    return (times, *_check_values(columns, row_nums))


def _convert_rows(
    rows: Sequence[list[str]], row_nums: Sequence[int], indices: Sequence[int]
) -> tuple[np.ndarray, dict[str, np.ndarray], list[tuple[int, int, MarketDataError]]]:
    """The checked columns of a chunk of non-blank records that
    ``csv.reader`` split, on file rows ``row_nums``: the times up to the
    first bad stamp, the value columns, and the (row within the chunk, check
    rank within the row, error) of each check's first failure. Stripped
    stamps are converted by :func:`_canonical_times` when all are canonical
    and by ``datetime.fromisoformat`` otherwise. ``indices`` holds the file
    column of each of ``REQUIRED_COLUMNS``, the order in which a row's cells
    are checked. A short row is the chunk's last row."""
    failures: list[tuple[int, int, MarketDataError]] = []
    width = max(indices) + 1
    if min(map(len, rows)) < width:
        short = next(i for i, row in enumerate(rows) if len(row) < width)
        row = rows[short]
        rank = min(k for k, i in enumerate(indices) if i >= len(row))
        failures.append((short, rank, ParseError(row_nums[short], REQUIRED_COLUMNS[rank], "", "row too short")))
        rows = [*rows[:short], row + [""] * (width - len(row))]
    columns = list(islice(zip(*rows), width))  # every row has at least width cells
    raw_stamps, *cells = (columns[i] for i in indices)

    # Stamps are stripped only when they are not all canonical as they stand.
    times = _canonical_times(raw_stamps)
    if times is None:
        stamps = list(map(str.strip, raw_stamps))
        times = _canonical_times(stamps)
    if times is None:
        parsed, bad = _convert(stamps, datetime.fromisoformat)
        reason = "bad timestamp"
        if any(map(attrgetter("tzinfo"), parsed)):
            bad = next(i for i, ts in enumerate(parsed) if ts.tzinfo is not None)
            reason = "timestamp has a UTC offset; local time expected"
        times = datetime64_column(parsed[:bad])
        off_hour = _first(times != times.astype("datetime64[h]"))
        if off_hour < bad:
            bad, reason = off_hour, "timestamp not on an hour boundary"
        if bad < len(stamps):
            failures.append((bad, 0, ParseError(row_nums[bad], "timestamp", stamps[bad], reason)))
            times = times[:bad]
    values, checked = _check_values([(*_float_column(raw), raw) for raw in cells], row_nums[: len(raw_stamps)])
    return times, values, failures + checked


_Chunk = tuple[Sequence[int], np.ndarray, dict[str, np.ndarray], list[tuple[int, int, MarketDataError]]]


def _record_chunks(
    lines: Iterable[str], offset: int, indices: Sequence[int], malformed: list[ParseError]
) -> Iterator[_Chunk]:
    """The file rows and :func:`_convert_rows` of each chunk of the
    non-blank CSV records of ``lines``, which follow line ``offset`` of the
    file (see :func:`_records`)."""
    records = _records(csv.reader(lines), offset, malformed)
    while batch := list(islice(records, _CHUNK_ROWS)):
        # A row is blank when the text of all its cells is whitespace; one
        # whose first cell has other text is kept without joining its cells.
        kept = [
            record
            for record in batch
            if (row := record[1]) and ((row[0] and not row[0].isspace()) or "".join(row).strip())
        ]
        if kept:
            nums, rows = zip(*kept)
            nums = tuple(map((offset + 1).__add__, nums))
            yield (nums, *_convert_rows(rows, nums, indices))


def _text_blocks(read: Callable[[int], str]) -> Iterator[str]:
    """The rest of a text source in blocks of whole lines: each read of
    ``_BLOCK_CHARS`` characters is cut after its last ``\\n``, and the rest
    starts the next block. The last block holds what follows the last
    ``\\n``, if anything."""
    tail: list[str] = []
    while chunk := read(_BLOCK_CHARS):
        cut = chunk.rfind("\n") + 1
        if cut:
            yield "".join([*tail, chunk[:cut]])
            tail = [chunk[cut:]]
        else:
            tail.append(chunk)
    if last := "".join(tail):
        yield last


def _chunks(
    source: IO[str], offset: int, width: int, indices: Sequence[int], malformed: list[ParseError]
) -> Iterator[_Chunk]:
    """The file rows and checked columns of each chunk of the non-blank data
    rows of the rest of ``source``, which follows line ``offset``, read a
    block at a time (see :func:`_text_blocks`). A plain block (see
    :func:`_plain_block`) is converted from its bytes and gives the same
    chunks as ``csv.reader``; any other block goes through the reader, and
    from a block with a quote on, so does the rest of the file, since a
    quoted cell can span lines."""

    def lines(text: str) -> io.StringIO:
        # The lines as the source yields them: a lone \r ends one too when
        # the source reads universal newlines, as a path is opened here,
        # which its ``newlines`` shows once it has read one.
        return io.StringIO(text, newline="" if getattr(source, "newlines", None) else "\n")

    blocks = _text_blocks(source.read)
    for text in blocks:
        if '"' in text:
            yield from _record_chunks(chain.from_iterable(map(lines, chain([text], blocks))), offset, indices, malformed)
            return
        plain = _plain_block(text, width, indices)
        if plain is not None:
            rows = len(plain[0])
            nums = range(offset + 1, offset + rows + 1)
            yield (nums, *_plain_columns(*plain, nums))
        else:
            block = list(lines(text))
            rows = len(block)
            yield from _record_chunks(block, offset, indices, malformed)
            if malformed:
                return
        offset += rows


def parse_hourly_csv(
    source: str | Path | IO[str],
    schema: Mapping[str, str] | None = None,
    *,
    holidays: Iterable[date] = frozenset(),
    strict: bool = True,
) -> RecordSeries:
    """Parse hourly market data from CSV into a RecordSeries.

    ``schema`` maps canonical column names to the file's actual header
    names (identity by default).  Row numbers in errors are 1-based file
    lines, counting the header as row 1; a record whose quoted cell spans
    lines is numbered by the line it starts on.  The first bad cell in file
    order is reported; timestamps with a UTC offset are rejected, and so is
    a row the CSV reader cannot split (a cell over
    ``csv.field_size_limit()`` characters, say). A path is read as UTF-8,
    skipping a leading byte order mark.

    In strict mode (default) any hole in the hourly sequence raises
    GapError.  In permissive mode interior gaps are filled (demand and
    weather linearly interpolated, prices forward-filled) and the filled
    timestamps are flagged on the returned series.  A repeated or earlier
    hour raises GapError in both modes.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8-sig") as handle:
            return parse_hourly_csv(handle, schema, holidays=holidays, strict=strict)

    schema = dict(schema or {})
    malformed: list[ParseError] = []
    lines = iter(source)
    # The header reader takes the lines of one record only (more than one
    # when a quoted cell spans lines), so the data lines follow it.
    reader = csv.reader(lines)
    first = next(_records(reader, 0, malformed), None)
    if first is None:
        raise malformed[0] if malformed else ParseError(1, "timestamp", "", "empty input, header row required")
    header = [h.strip() for h in first[1]]

    indices = []
    for canonical in REQUIRED_COLUMNS:
        actual = schema.get(canonical, canonical)
        if actual not in header:
            raise MissingColumnError(actual, canonical)
        indices.append(header.index(actual))

    # The file rows of each chunk, and the data rows before it.
    chunk_rows: list[Sequence[int]] = []
    rows_before = [0]
    chunks: list[tuple[np.ndarray, dict[str, np.ndarray]]] = []
    failures: list[tuple[int, int, MarketDataError]] = []
    for nums, times, values, chunk_failures in _chunks(source, reader.line_num, len(header), indices, malformed):
        # Failures are ordered by data row across chunks, then by check rank.
        failures = [(rows_before[-1] + i, rank, error) for i, rank, error in chunk_failures]
        chunk_rows.append(nums)
        rows_before.append(rows_before[-1] + len(nums))
        chunks.append((times, values))
        if failures:
            break
    if not chunks:
        if malformed:
            raise malformed[0]
        return RecordSeries([], [], [], [], [], holidays=holidays)

    times = np.concatenate([chunk_times for chunk_times, _ in chunks])
    step = np.diff(times)
    bad = _first((step <= np.timedelta64(0)) | ((step > HOUR64) if strict else False)) + 1
    gaps = bool((step > HOUR64).any())
    del step
    if bad < len(times):
        expected, found = times[bad - 1].item() + HOUR, times[bad].item()
        k = bisect_right(rows_before, bad) - 1
        row = chunk_rows[k][bad - rows_before[k]]
        error = GapError(expected) if found > expected else GapError(expected, found, row)
        failures.append((bad, len(REQUIRED_COLUMNS), error))
    if malformed:  # it follows every row read
        failures.append((rows_before[-1], 0, malformed[0]))
    if failures:
        raise min(failures, key=itemgetter(0, 1))[2]

    def column(name: str) -> np.ndarray:
        return np.concatenate([chunk_values[name] for _, chunk_values in chunks])

    columns = {
        "demand": column("demand_mwh"),
        "spot_price": column("spot_price"),
        "dry_bulb_temp": column("dry_bulb_f"),
        "dew_point": column("dew_point_f"),
    }
    # The chunks go first, so that the calendar columns can take their memory.
    chunks.clear()
    filled = times[:0]
    if gaps:
        times, columns, synthesized = _fill_gaps(times, columns)
        filled = times[synthesized]
    # The columns are this function's own: the series takes them without a copy.
    return RecordSeries._adopt([times, *columns.values()], holidays=holidays, filled=filled)


def write_hourly_csv(series: RecordSeries, dest: str | Path | IO[str]) -> None:
    """Write a RecordSeries in the canonical CSV layout. Parsing the output
    reproduces the series exactly."""
    values = float_grids(series.demand, series.spot_price, series.dry_bulb_temp, series.dew_point)
    write_csv(dest, REQUIRED_COLUMNS, [stamp_grid(series.times), *values])


def read_holidays(path: str | Path) -> frozenset[date]:
    """Read a holiday calendar: one ISO date per line, blank lines and
    ``#`` comments ignored. Read as UTF-8, skipping a leading byte order
    mark."""
    days = set()
    for line_num, line in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            days.add(date.fromisoformat(text))
        except ValueError:
            raise ParseError(line_num, "holiday", text, "bad date") from None
    return frozenset(days)

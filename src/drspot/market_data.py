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
from datetime import date, datetime
from itertools import chain, islice, repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .csv_text import write_csv
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


def _fill_gaps(times: np.ndarray, values: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
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
    filled = [column[before] for column in values]
    for name, column, full_column in zip(REQUIRED_COLUMNS[1:], values, filled):
        if name != "spot_price":
            full_column[synthesized] = column[prev] + frac * (column[nxt] - column[prev])
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
# bytes. At 8, 32, 128 and 1,024 Ki characters, one parse of a 9,408-row file
# took 17.0, 6.7, 4.9 and 4.7 ms of CPU, at traced peaks, set by a block's
# temporaries, of 0.83, 0.80, 1.68 and 3.45 MB (in-process medians, 2-vCPU
# x86 machine).
_BLOCK_CHARS = 1 << 17


_Failures = list[tuple[int, int, MarketDataError]]


def _check_values(
    columns: Sequence[np.ndarray | Sequence[str]], row_nums: Sequence[int]
) -> tuple[list[np.ndarray], _Failures]:
    """The value columns of a chunk of data rows on file rows ``row_nums``,
    and the (row within the chunk, check rank within the row, error) of each
    column's first bad cell. Each column is given as its cell texts, which
    :func:`_float_column` converts, or as the floats of decimal cells, which
    are finite and taken as they are."""
    values, failures = [], []
    for rank, (name, column) in enumerate(zip(REQUIRED_COLUMNS[1:], columns), start=1):
        if isinstance(column, np.ndarray):
            values.append(column)
            continue
        parsed, bad = _float_column(column)
        values.append(parsed)
        # A finite sum rules out nan and inf in one pass; an overflowing one,
        # or inf plus -inf, sends the column to the cell-by-cell search.
        with np.errstate(over="ignore", invalid="ignore"):
            total = parsed.sum()
        non_finite = len(parsed) if math.isfinite(total) else _first(~np.isfinite(parsed))
        reason = "non-numeric value"
        if non_finite < bad:
            bad, reason = non_finite, "non-finite value"
        if bad < len(row_nums):
            failures.append((bad, rank, ParseError(row_nums[bad], name, column[bad].strip(), reason)))
    return values, failures


def _convert_rows(
    rows: Sequence[list[str]], row_nums: Sequence[int], indices: Sequence[int]
) -> tuple[np.ndarray, list[np.ndarray], _Failures]:
    """The checked columns of a chunk of non-blank records that
    ``csv.reader`` split, on file rows ``row_nums``: the times up to the
    first bad stamp, the value columns, and the (row within the chunk, check
    rank within the row, error) of each check's first failure. Stripped
    stamps are converted by ``datetime.fromisoformat``, the value cells by
    :func:`_check_values`. ``indices`` holds the file column of each of
    ``REQUIRED_COLUMNS``, the order in which a row's cells are checked. A
    short row is the chunk's last row."""
    failures: _Failures = []
    width = max(indices) + 1
    if min(map(len, rows)) < width:
        short = next(i for i, row in enumerate(rows) if len(row) < width)
        row = rows[short]
        rank = min(k for k, i in enumerate(indices) if i >= len(row))
        failures.append((short, rank, ParseError(row_nums[short], REQUIRED_COLUMNS[rank], "", "row too short")))
        rows = [*rows[:short], row + [""] * (width - len(row))]
    columns = list(islice(zip(*rows), width))  # every row has at least width cells
    raw_stamps, *cells = (columns[i] for i in indices)

    stamps = list(map(str.strip, raw_stamps))
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
    values, checked = _check_values(cells, row_nums[: len(stamps)])
    return times, values, failures + checked


_Chunk = tuple[Sequence[int], np.ndarray, list[np.ndarray], _Failures]


def _record_chunks(lines: Iterable[str], offset: int, indices: Sequence[int]) -> Iterator[_Chunk]:
    """The file rows and :func:`_convert_rows` of each chunk of the
    non-blank CSV records of ``lines``, which follow line ``offset`` of the
    file (see :func:`_records`). A record the reader rejects raises after
    the chunk before it, so only when every row before it is valid."""
    malformed: list[ParseError] = []
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
    if malformed:
        raise malformed[0]


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


def _chunks(source: IO[str], offset: int, width: int, indices: Sequence[int]) -> Iterator[_Chunk]:
    """The file rows and checked columns of each chunk of the non-blank data
    rows of the rest of ``source``, which follows line ``offset``, read a
    block at a time (see :func:`_text_blocks`). A plain block (see
    :func:`_plain_block`) gives its times and value columns, and the same
    chunks as ``csv.reader``; any other block goes through the reader, and
    from a block with a quote on, so does the rest of the file, since a
    quoted cell can span lines. Both paths check their value columns by
    :func:`_check_values`. A chunk's failures rank the stamp, then the
    value columns of a row; the caller adds the hour sequence's and raises
    the first before the next chunk, so a malformed record raises only when
    every row before it is valid."""

    def lines(text: str) -> io.StringIO:
        # The lines as the source yields them: a lone \r ends one too when
        # the source reads universal newlines, as a path is opened here,
        # which its ``newlines`` shows once it has read one.
        return io.StringIO(text, newline="" if getattr(source, "newlines", None) else "\n")

    blocks = _text_blocks(source.read)
    for text in blocks:
        if '"' in text:
            yield from _record_chunks(chain.from_iterable(map(lines, chain([text], blocks))), offset, indices)
            return
        plain = _plain_block(text, width, indices)
        if plain is not None:
            times, columns = plain
            rows = len(times)
            nums = range(offset + 1, offset + rows + 1)
            yield (nums, times, *_check_values(columns, nums))
        else:
            block = list(lines(text))
            rows = len(block)
            yield from _record_chunks(block, offset, indices)
        offset += rows


def _decode_error(data: bytes) -> MarketDataError | None:
    """The error naming the first byte of a file's ``data`` that is not
    UTF-8 by its file line and offset, or None if there is none."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start]  # a lone \r ends a line too
        line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        return MarketDataError(f"line {line}: invalid UTF-8 byte 0x{data[exc.start]:02x} at file offset {exc.start}")
    return None


def parse_hourly_csv(
    source: str | Path | IO[str],
    schema: Mapping[str, str] | None = None,
    *,
    holidays: Iterable[date] = frozenset(),
    strict: bool = True,
) -> RecordSeries:
    """Parse hourly market data from CSV into a RecordSeries.

    ``schema`` maps canonical column names to the file's actual header
    names (identity by default); each required column reads a header name
    of its own, which the header holds once.  Errors are reported by file
    row, counting the header as row 1 (a record whose quoted cell spans
    lines is on the line it starts on), the first in file order: within a
    row the stamp, then the value columns, then the hour sequence (a hole,
    a duplicate or an earlier hour). Timestamps with a UTC offset are
    rejected. A row the CSV reader cannot split (a cell over
    ``csv.field_size_limit()`` characters, say) is reported only when every
    row before it is valid. A path is read as UTF-8, skipping a leading
    byte order mark; a byte that is not UTF-8 is reported by its file line
    and byte offset.

    In strict mode (default) any hole in the hourly sequence raises
    GapError.  In permissive mode interior gaps are filled (demand and
    weather linearly interpolated, prices forward-filled) and the filled
    timestamps are flagged on the returned series.  A repeated or earlier
    hour raises GapError in both modes.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8-sig") as handle:
            try:
                return parse_hourly_csv(handle, schema, holidays=holidays, strict=strict)
            except UnicodeDecodeError as exc:
                raise _decode_error(Path(source).read_bytes()) or exc from None

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
        if (count := header.count(actual)) > 1:
            raise MarketDataError(f"column {actual!r}, read as {canonical!r}, is in the header {count} times")
        index = header.index(actual)
        if index in indices:
            other = REQUIRED_COLUMNS[indices.index(index)]
            raise MarketDataError(f"required columns {other!r} and {canonical!r} both read column {actual!r}")
        indices.append(index)

    # A chunk's first failure is the file's: every row before it passed.
    chunks: list[tuple[np.ndarray, ...]] = []
    for nums, times, values, failures in _chunks(source, reader.line_num, len(header), indices):
        # Each row's step from the last hour kept; strict mode takes one hour only.
        step = np.diff(times, prepend=chunks[-1][0][-1:] if chunks else times[:1] - HOUR64)
        bad = _first(step != HOUR64 if strict else step <= np.timedelta64(0))
        if bad < len(times):
            expected, found = (times[bad] - step[bad]).item() + HOUR, times[bad].item()
            error = GapError(expected) if found > expected else GapError(expected, found, nums[bad])
            failures.append((bad, len(REQUIRED_COLUMNS), error))
        if failures:
            raise min(failures, key=itemgetter(0, 1))[2]
        chunks.append((times, *values))
        del step  # freed before the next block is read
    if not chunks:
        return RecordSeries([], [], [], [], [], holidays=holidays)

    times, *columns = map(np.concatenate, zip(*chunks))
    # The chunks go first, so that the calendar columns can take their memory.
    chunks.clear()
    filled = times[:0]
    # Increasing hours have a hole when they span more than one hour a row.
    if times[-1] - times[0] > (len(times) - 1) * HOUR64:
        times, columns, synthesized = _fill_gaps(times, columns)
        filled = times[synthesized]
    # The columns are this function's own: the series takes them without a copy.
    return RecordSeries._adopt([times, *columns], holidays=holidays, filled=filled)


def write_hourly_csv(series: RecordSeries, dest: str | Path | IO[str]) -> None:
    """Write a RecordSeries in the canonical CSV layout. Parsing the output
    reproduces the series exactly."""
    columns = [series.times, series.demand, series.spot_price, series.dry_bulb_temp, series.dew_point]
    write_csv(dest, REQUIRED_COLUMNS, columns)


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

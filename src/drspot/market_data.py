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
from datetime import date, datetime
from itertools import chain, islice, repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

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


# Rows parsed or written at a time: bounds the cell strings held at once.
_CHUNK_ROWS = 256
# Canonical stamps, ``YYYY-MM-DDTHH:MM``: the only ones numpy's ISO parser
# converts here, since on them it agrees with datetime.fromisoformat from year
# 1 on. Each byte lies between these bounds: a digit, or the separator itself.
_STAMP_LOW = np.frombuffer(b"0000-00-00T00:00", dtype=np.uint8)
_STAMP_HIGH = np.frombuffer(b"9999-99-99T99:99", dtype=np.uint8)
_YEAR_ONE = np.datetime64("0001-01-01", "us")


def _canonical_times(stamps: Sequence[str]) -> np.ndarray | None:
    """The times of stripped stamps by numpy's ISO parser, or None unless
    every stamp is canonical (``YYYY-MM-DDTHH:MM``, from year 1). The layout
    is checked first, on the bytes of all the stamps at once, so numpy never
    sees (and never warns about) a ``Z`` or an offset."""
    text = "".join(stamps)
    if not text.isascii() or set(map(len, stamps)) != {len(_STAMP_LOW)}:
        return None
    chars = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, len(_STAMP_LOW))
    if ((chars < _STAMP_LOW) | (chars > _STAMP_HIGH)).any():
        return None
    try:
        times = np.array(stamps, dtype=TIME_DTYPE)
    except ValueError:  # a month, day, hour or minute out of range
        return None
    return None if (times < _YEAR_ONE).any() else times


def _plain_block(
    text: str, block: list[str], width: int, indices: Sequence[int]
) -> tuple[list[str], np.ndarray, list[list[str]]] | None:
    """The stripped stamps, their times and the raw cells of each value
    column of a block of data lines without a quote, joined as ``text``, or
    None unless ``csv.reader`` would split every line at each of its commas
    into ``width`` cells and every stamp is canonical (``YYYY-MM-DDTHH:MM``,
    from year 1).

    A plain block has no carriage return but in a ``\r\n`` line end, no NUL
    (which the reader treats specially) and no line longer than
    ``csv.field_size_limit()`` (so no cell the reader rejects). It has no
    blank row either: each row has a stamp."""
    if (
        "\0" in text
        or ("\r" in text and text.count("\r") != text.count("\r\n"))
        or max(map(len, block)) > csv.field_size_limit()
        or set(map(str.count, block, repeat(","))) != {width - 1}
    ):
        return None
    n = len(block)
    cells = text.replace("\r\n", ",").replace("\n", ",").split(",")
    raw_stamps, *values = (cells[i : n * width : width] for i in indices)
    stamps = list(map(str.strip, raw_stamps))
    times = _canonical_times(stamps)
    return None if times is None else (stamps, times, values)


def _convert_columns(
    stamps: Sequence[str],
    times: np.ndarray,
    cells: Sequence[Sequence[str]],
    row_nums: Sequence[int],
    reason: str = "",
) -> tuple[np.ndarray, dict[str, np.ndarray], list[tuple[int, int, MarketDataError]]]:
    """Checked columns of a chunk of non-blank data rows on file rows
    ``row_nums``. ``stamps`` holds the stripped stamps, ``times`` converts
    them up to the first one rejected (for ``reason``), and ``cells`` holds
    the raw cells of each value column of ``REQUIRED_COLUMNS``. Returns the
    times up to the first bad stamp, the value columns, and the (row within
    the chunk, check rank within the row, error) of each check's first
    failure."""
    failures: list[tuple[int, int, MarketDataError]] = []
    n = len(stamps)
    bad = len(times)
    off_hour = _first(times != times.astype("datetime64[h]"))
    if off_hour < bad:
        bad, reason = off_hour, "timestamp not on an hour boundary"
    if bad < n:
        failures.append((bad, 0, ParseError(row_nums[bad], "timestamp", stamps[bad], reason)))
        times = times[:bad]

    values: dict[str, np.ndarray] = {}
    for rank, (column, raw) in enumerate(zip(REQUIRED_COLUMNS[1:], cells), start=1):
        values[column], bad = _float_column(raw)
        non_finite = _first(~np.isfinite(values[column]))
        reason = "non-numeric value"
        if non_finite < bad:
            bad, reason = non_finite, "non-finite value"
        if bad < n:
            failures.append((bad, rank, ParseError(row_nums[bad], column, raw[bad].strip(), reason)))
    return times, values, failures


def _convert_rows(
    rows: Sequence[list[str]], row_nums: Sequence[int], indices: Sequence[int]
) -> tuple[np.ndarray, dict[str, np.ndarray], list[tuple[int, int, MarketDataError]]]:
    """:func:`_convert_columns` of a chunk of non-blank records that
    ``csv.reader`` split, converting the stamps with numpy when all are
    canonical and with ``datetime.fromisoformat`` otherwise. ``indices``
    holds the file column of each of ``REQUIRED_COLUMNS``, the order in
    which a row's cells are checked. A short row is the chunk's last row."""
    failures: list[tuple[int, int, MarketDataError]] = []
    width = max(indices) + 1
    if min(map(len, rows)) < width:
        short = next(i for i, row in enumerate(rows) if len(row) < width)
        row = rows[short]
        rank = min(k for k, i in enumerate(indices) if i >= len(row))
        failures.append((short, rank, ParseError(row_nums[short], REQUIRED_COLUMNS[rank], "", "row too short")))
        rows = [*rows[:short], row + [""] * (width - len(row))]
    raw_stamps, *cells = zip(*map(itemgetter(*indices), rows))

    stamps = list(map(str.strip, raw_stamps))
    times, reason = _canonical_times(stamps), ""
    if times is None:
        parsed, bad = _convert(stamps, datetime.fromisoformat)
        reason = "bad timestamp"
        if any(map(attrgetter("tzinfo"), parsed)):
            bad = next(i for i, ts in enumerate(parsed) if ts.tzinfo is not None)
            reason = "timestamp has a UTC offset; local time expected"
        times = datetime64_column(parsed[:bad])
    times, values, checked = _convert_columns(stamps, times, cells, row_nums, reason)
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
        # A row is blank when the text of all its cells is whitespace.
        kept = [(num, row) for num, row in batch if "".join(row).strip()]
        if kept:
            nums, rows = zip(*kept)
            nums = tuple(map((offset + 1).__add__, nums))
            yield (nums, *_convert_rows(rows, nums, indices))


def _chunks(
    lines: Iterator[str], offset: int, width: int, indices: Sequence[int], malformed: list[ParseError]
) -> Iterator[_Chunk]:
    """The file rows and checked columns of each chunk of the non-blank data
    rows on the lines after line ``offset``, read a block of lines at a
    time. A plain block (see :func:`_plain_block`) is split without
    ``csv.reader`` and gives the same chunk; any other block goes through
    the reader, and from a block with a quote on, so does the rest of the
    file, since a quoted cell can span lines."""
    while block := list(islice(lines, _CHUNK_ROWS)):
        text = "".join(block)
        if '"' in text:
            yield from _record_chunks(chain(block, lines), offset, indices, malformed)
            return
        plain = _plain_block(text, block, width, indices)
        if plain is not None:
            nums = range(offset + 1, offset + len(block) + 1)
            yield (nums, *_convert_columns(*plain, nums))
        else:
            yield from _record_chunks(block, offset, indices, malformed)
            if malformed:
                return
        offset += len(block)


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

    row_nums: list[int] = []
    chunks: list[tuple[np.ndarray, dict[str, np.ndarray]]] = []
    failures: list[tuple[int, int, MarketDataError]] = []
    for nums, times, values, chunk_failures in _chunks(lines, reader.line_num, len(header), indices, malformed):
        # Failures are ordered by data row across chunks, then by check rank.
        failures = [(len(row_nums) + i, rank, error) for i, rank, error in chunk_failures]
        row_nums.extend(nums)
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
    if bad < len(times):
        expected, found = times[bad - 1].item() + HOUR, times[bad].item()
        error = GapError(expected) if found > expected else GapError(expected, found, row_nums[bad])
        failures.append((bad, len(REQUIRED_COLUMNS), error))
    if malformed:  # it follows every row read
        failures.append((len(row_nums), 0, malformed[0]))
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
    filled = times[:0]
    if (step > HOUR64).any():
        times, columns, synthesized = _fill_gaps(times, columns)
        filled = times[synthesized]
    return RecordSeries(times, **columns, holidays=holidays, filled=filled)


def stamp_strings(times: np.ndarray) -> list[str]:
    """``YYYY-MM-DDTHH:MM`` text of each stamp of a datetime64 column."""
    return times.astype("datetime64[m]").astype("U16").tolist()


def float_strings(values: Sequence[float] | np.ndarray) -> list[str]:
    # repr round-trips floats exactly, keeping CSV serialization lossless.
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def write_csv_columns(dest: IO[str], header: Sequence[str], columns: Sequence[Sequence[str]]) -> None:
    """Write formatted cells that need no quoting as CSV, one line per row:
    the bytes ``csv.writer`` makes with ``lineterminator="\\n"``. Lines are
    joined and written a chunk at a time."""
    dest.write(",".join(header) + "\n")
    lines = map(",".join, zip(*columns))
    while chunk := list(islice(lines, _CHUNK_ROWS)):
        dest.write("\n".join(chunk) + "\n")


def write_hourly_csv(series: RecordSeries, dest: str | Path | IO[str]) -> None:
    """Write a RecordSeries in the canonical CSV layout. Parsing the output
    reproduces the series exactly."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", newline="") as handle:
            write_hourly_csv(series, handle)
        return

    columns = [
        stamp_strings(series.times),
        *map(float_strings, (series.demand, series.spot_price, series.dry_bulb_temp, series.dew_point)),
    ]
    write_csv_columns(dest, REQUIRED_COLUMNS, columns)


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

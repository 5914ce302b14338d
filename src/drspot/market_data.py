"""Hourly market data ingestion, validation, and serialization.

CSV contract: a header row with columns ``timestamp`` (ISO-8601 local time
at hour resolution, without a UTC offset), ``demand_mwh``, ``spot_price``,
``dry_bulb_f``, ``dew_point_f``, and optionally ``da_price``.  Files with
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
from itertools import islice
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

# The series types are re-exported: they are part of this module's interface.
from .series import (  # noqa: F401
    HOUR,
    HOUR64,
    RecordSeries,
    datetime64_column,
    iso_minutes,
    validate_series,
)

REQUIRED_COLUMNS = ("timestamp", "demand_mwh", "spot_price", "dry_bulb_f", "dew_point_f")
OPTIONAL_COLUMNS = ("da_price",)


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


def _first(mask: np.ndarray) -> int:
    """Index of the first true entry, or ``len(mask)``."""
    return int(mask.argmax()) if mask.any() else len(mask)


def _optional_float(raw: str) -> float:
    return float(raw) if raw else math.nan


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


def _records(reader, malformed: list[ParseError]) -> Iterator[list[str]]:
    """The reader's records up to the first one it rejects, whose error
    (by file line) is appended to ``malformed``."""
    try:
        yield from reader
    except csv.Error as exc:
        malformed.append(ParseError(reader.line_num, None, "", f"malformed CSV: {exc}"))


# Rows parsed or written at a time: bounds the cell strings held at once.
_CHUNK_ROWS = 256


def _convert_rows(
    rows: Sequence[list[str]], row_nums: Sequence[int], first: int, order: list[str], col_index: dict[str, int]
) -> tuple[np.ndarray, dict[str, np.ndarray], list[tuple[int, int, MarketDataError]]]:
    """Columns of a chunk of non-blank data rows, the first of which is data
    row ``first``. Returns the timestamps up to the first bad one, the value
    columns, and the (data row, check rank within the row, error) of each
    check's first failure. A short row is the chunk's last row."""
    failures: list[tuple[int, int, MarketDataError]] = []
    width = max(col_index.values()) + 1
    if min(map(len, rows)) < width:
        short = next(i for i, row in enumerate(rows) if len(row) < width)
        row = rows[short]
        rank = min(k for k, c in enumerate(order) if col_index[c] >= len(row))
        failures.append((first + short, rank, ParseError(row_nums[short], order[rank], "", "row too short")))
        rows = [*rows[:short], row + [""] * (width - len(row))]
    n = len(rows)
    cells = dict(zip(order, zip(*map(itemgetter(*(col_index[c] for c in order)), rows))))

    raw_stamps = list(map(str.strip, cells["timestamp"]))
    stamps, bad = _convert(raw_stamps, datetime.fromisoformat)
    reason = "bad timestamp"
    if any(map(attrgetter("tzinfo"), stamps)):
        bad = next(i for i, ts in enumerate(stamps) if ts.tzinfo is not None)
        reason = "timestamp has a UTC offset; local time expected"
    times = datetime64_column(stamps[:bad])
    off_hour = _first(times != times.astype("datetime64[h]"))
    if off_hour < bad:
        bad, reason = off_hour, "timestamp not on an hour boundary"
    if bad < n:
        failures.append((first + bad, 0, ParseError(row_nums[bad], "timestamp", raw_stamps[bad], reason)))
        times = times[:bad]

    values: dict[str, np.ndarray] = {}
    for rank, column in enumerate(order[1:], start=1):
        raw = cells[column]
        optional = column in OPTIONAL_COLUMNS
        if optional:  # an empty cell is an absent value
            raw = list(map(str.strip, raw))
        parsed, bad = _convert(raw, _optional_float if optional else float)
        values[column] = np.array(parsed, dtype=float)
        present = np.array(list(map(bool, raw[:bad])), dtype=bool) if optional else True
        non_finite = _first(~np.isfinite(values[column]) & present)
        reason = "non-numeric value"
        if non_finite < bad:
            bad, reason = non_finite, "non-finite value"
        if bad < n:
            failures.append((first + bad, rank, ParseError(row_nums[bad], column, raw[bad].strip(), reason)))
    return times, values, failures


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
    lines, counting the header as row 1.  The first bad cell in file order
    is reported; timestamps with a UTC offset are rejected, and so is a row
    the CSV reader cannot split (a cell over ``csv.field_size_limit()``
    characters, say). A path is read as UTF-8, skipping a leading byte
    order mark.

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
    records = _records(csv.reader(source), malformed)
    header = next(records, None)
    if header is None:
        raise malformed[0] if malformed else ParseError(1, "timestamp", "", "empty input, header row required")
    header = [h.strip() for h in header]

    col_index: dict[str, int] = {}
    for canonical in REQUIRED_COLUMNS:
        actual = schema.get(canonical, canonical)
        if actual not in header:
            raise MissingColumnError(actual, canonical)
        col_index[canonical] = header.index(actual)
    for canonical in OPTIONAL_COLUMNS:
        actual = schema.get(canonical, canonical)
        if actual in header:
            col_index[canonical] = header.index(actual)

    # Cells in the order a row is checked; the first bad cell in file order is reported.
    order = ["timestamp", *(c for c in OPTIONAL_COLUMNS if c in col_index), *REQUIRED_COLUMNS[1:]]
    numbered = enumerate(records, start=2)
    row_nums: list[int] = []
    chunks: list[tuple[np.ndarray, dict[str, np.ndarray]]] = []
    failures: list[tuple[int, int, MarketDataError]] = []
    while not failures:
        batch = list(islice(numbered, _CHUNK_ROWS))
        if not batch:
            break
        kept = [(num, row) for num, row in batch if any(map(str.strip, row))]
        if kept:
            nums, rows = zip(*kept)
            times, values, failures = _convert_rows(rows, nums, len(row_nums), order, col_index)
            row_nums.extend(nums)
            chunks.append((times, values))
    if not chunks:
        if malformed:
            raise malformed[0]
        return RecordSeries([], [], [], [], [], [], holidays=holidays)

    times = np.concatenate([chunk_times for chunk_times, _ in chunks])
    step = np.diff(times)
    bad = _first((step <= np.timedelta64(0)) | ((step > HOUR64) if strict else False)) + 1
    if bad < len(times):
        expected, found = times[bad - 1].item() + HOUR, times[bad].item()
        error = GapError(expected) if found > expected else GapError(expected, found, row_nums[bad])
        failures.append((bad, len(order), error))
    if malformed:  # it follows every row read
        failures.append((len(row_nums), 0, malformed[0]))
    if failures:
        raise min(failures, key=itemgetter(0, 1))[2]

    def column(name: str) -> np.ndarray:
        if name not in col_index:
            return np.full(len(times), math.nan)
        return np.concatenate([chunk_values[name] for _, chunk_values in chunks])

    columns = {
        "demand": column("demand_mwh"),
        "spot_price": column("spot_price"),
        "dry_bulb_temp": column("dry_bulb_f"),
        "dew_point": column("dew_point_f"),
        "day_ahead_price": column("da_price"),
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
    """Write a RecordSeries in the canonical CSV layout.

    The da_price column is emitted only when at least one record carries a
    day-ahead price.  Parsing the output reproduces the series exactly.
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "w", newline="") as handle:
            write_hourly_csv(series, handle)
        return

    header = list(REQUIRED_COLUMNS)
    columns = [
        stamp_strings(series.times),
        *map(float_strings, (series.demand, series.spot_price, series.dry_bulb_temp, series.dew_point)),
    ]
    absent = np.isnan(series.day_ahead_price)
    if not absent.all():
        header.append("da_price")
        columns.append(np.where(absent, "", float_strings(series.day_ahead_price)).tolist())
    write_csv_columns(dest, header, columns)


def series_to_csv(series: RecordSeries) -> str:
    buf = io.StringIO()
    write_hourly_csv(series, buf)
    return buf.getvalue()


def read_holidays(path: str | Path) -> frozenset[date]:
    """Read a holiday calendar: one ISO date per line, blank lines and
    ``#`` comments ignored."""
    days = set()
    for line_num, line in enumerate(Path(path).read_text().splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            days.add(date.fromisoformat(text))
        except ValueError:
            raise ParseError(line_num, "holiday", text, "bad date") from None
    return frozenset(days)

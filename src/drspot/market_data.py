"""Hourly market data ingestion, validation, and serialization.

CSV contract: a header row with columns ``timestamp`` (ISO-8601 local time
at hour resolution), ``demand_mwh``, ``spot_price``, ``dry_bulb_f``,
``dew_point_f``, and optionally ``da_price``.  Files with different column
names can be mapped onto this contract with the ``schema`` argument of
:func:`parse_hourly_csv`.  Units are passed through unconverted (MWh,
$/MWh, degrees F).

Timestamps are hour-beginning: the record stamped 00:00 covers the
00:00-01:00 interval and is hour 1 of the day.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping

import numpy as np

REQUIRED_COLUMNS = ("timestamp", "demand_mwh", "spot_price", "dry_bulb_f", "dew_point_f")
OPTIONAL_COLUMNS = ("da_price",)

HOUR = timedelta(hours=1)


class MarketDataError(Exception):
    """Base class for ingestion errors."""


class MissingColumnError(MarketDataError):
    def __init__(self, column: str, canonical: str | None = None):
        label = f"{column!r}" if canonical in (None, column) else f"{column!r} (mapped from {canonical!r})"
        super().__init__(f"required column {label} not found in header")
        self.column = column


class ParseError(MarketDataError):
    def __init__(self, row: int, column: str, value: str, reason: str = "invalid value"):
        super().__init__(f"row {row}, column {column!r}: {reason}: {value!r}")
        self.row = row
        self.column = column
        self.value = value


class GapError(MarketDataError):
    def __init__(self, missing: datetime, found: datetime | None = None):
        if found is None:
            msg = f"missing hour {missing.isoformat(timespec='minutes')}"
        else:
            msg = (
                f"expected hour {missing.isoformat(timespec='minutes')}, "
                f"found {found.isoformat(timespec='minutes')}"
            )
        super().__init__(msg)
        self.missing = missing
        self.found = found


@dataclass(frozen=True)
class HourlyRecord:
    """One hour of market data.

    Demand in MWh, prices in $/MWh (real-time spot price plus an optional
    day-ahead price), temperatures in degrees F.
    """

    timestamp: datetime
    demand: float
    spot_price: float
    dry_bulb_temp: float
    dew_point: float
    day_ahead_price: float | None = None


@dataclass(frozen=True)
class CalendarFeatures:
    """Calendar attributes of one hour.

    ``hour_of_day`` runs 1..24 with hour 1 covering the 00:00 interval.
    At most one of the weekend flags is set; both are false on weekdays.
    """

    hour_of_day: int
    month: int
    is_holiday: bool
    is_saturday: bool
    is_sunday: bool


def derive_calendar(timestamp: datetime, holidays: Iterable[date] = frozenset()) -> CalendarFeatures:
    """Derive calendar features for an hour-beginning timestamp.

    Pure function of (timestamp, holidays); the holiday calendar is
    caller-supplied configuration and defaults to empty.
    """
    day = timestamp.date()
    weekday = day.weekday()
    return CalendarFeatures(
        hour_of_day=timestamp.hour + 1,
        month=timestamp.month,
        is_holiday=day in holidays,
        is_saturday=weekday == 5,
        is_sunday=weekday == 6,
    )


class RecordSeries:
    """An ordered series of hourly records with derived calendar features.

    Iterating yields ``(HourlyRecord, CalendarFeatures)`` pairs.  A series
    intended for model fitting or simulation must be contiguous (strictly
    increasing timestamps, exact one-hour spacing); use
    :func:`validate_series` to check.  ``filled`` records the timestamps
    that were synthesized by permissive gap-filling.
    """

    def __init__(
        self,
        records: Iterable[HourlyRecord],
        holidays: Iterable[date] = frozenset(),
        filled: Iterable[datetime] = frozenset(),
    ):
        self.records: tuple[HourlyRecord, ...] = tuple(records)
        self.holidays: frozenset[date] = frozenset(holidays)
        self.filled: frozenset[datetime] = frozenset(filled)
        self.calendar: tuple[CalendarFeatures, ...] = tuple(
            derive_calendar(r.timestamp, self.holidays) for r in self.records
        )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[tuple[HourlyRecord, CalendarFeatures]]:
        return iter(zip(self.records, self.calendar))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RecordSeries(self.records[index], self.holidays, self.filled)
        return self.records[index], self.calendar[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecordSeries):
            return NotImplemented
        return self.records == other.records and self.calendar == other.calendar

    def __repr__(self) -> str:
        if not self.records:
            return "RecordSeries(empty)"
        first = self.records[0].timestamp.isoformat(timespec="minutes")
        last = self.records[-1].timestamp.isoformat(timespec="minutes")
        return f"RecordSeries({len(self.records)} hours, {first} .. {last})"

    @property
    def timestamps(self) -> tuple[datetime, ...]:
        return tuple(r.timestamp for r in self.records)

    @property
    def demand(self) -> np.ndarray:
        return np.array([r.demand for r in self.records], dtype=float)

    @property
    def spot_price(self) -> np.ndarray:
        return np.array([r.spot_price for r in self.records], dtype=float)

    @property
    def dry_bulb_temp(self) -> np.ndarray:
        return np.array([r.dry_bulb_temp for r in self.records], dtype=float)

    @property
    def dew_point(self) -> np.ndarray:
        return np.array([r.dew_point for r in self.records], dtype=float)

    def between(self, start: datetime, end: datetime) -> "RecordSeries":
        """Sub-series with start <= timestamp < end."""
        kept = [r for r in self.records if start <= r.timestamp < end]
        return RecordSeries(kept, self.holidays, self.filled)


def validate_series(series: RecordSeries) -> list[str]:
    """Check series invariants; returns one message per violation.

    Violations are data, not errors: an empty list means the series is
    contiguous, hour-aligned, duplicate-free, and has non-negative demand.
    """
    violations: list[str] = []
    prev: datetime | None = None
    for idx, (rec, _cal) in enumerate(series):
        ts = rec.timestamp
        stamp = ts.isoformat(timespec="minutes")
        if ts.minute or ts.second or ts.microsecond:
            violations.append(f"row {idx} ({ts.isoformat()}): timestamp not on an hour boundary")
        if rec.demand < 0:
            violations.append(f"row {idx} ({stamp}): negative demand {rec.demand}")
        if prev is not None:
            if ts == prev:
                violations.append(f"row {idx} ({stamp}): duplicate timestamp")
            elif ts < prev:
                violations.append(f"row {idx} ({stamp}): timestamps not increasing")
            elif ts - prev != HOUR:
                missing = (prev + HOUR).isoformat(timespec="minutes")
                violations.append(f"row {idx} ({stamp}): gap, missing hour {missing}")
        prev = ts
    return violations


def _parse_timestamp(raw: str, row: int, column: str) -> datetime:
    try:
        ts = datetime.fromisoformat(raw.strip())
    except ValueError:
        raise ParseError(row, column, raw, "bad timestamp") from None
    if ts.minute or ts.second or ts.microsecond:
        raise ParseError(row, column, raw, "timestamp not on an hour boundary")
    return ts


def _parse_float(raw: str, row: int, column: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(row, column, raw, "non-numeric value") from None
    if not math.isfinite(value):
        raise ParseError(row, column, raw, "non-finite value")
    return value


def _fill_gap(prev: HourlyRecord, nxt: HourlyRecord) -> list[HourlyRecord]:
    # Linear interpolation for demand and weather, forward-fill for prices.
    steps = int((nxt.timestamp - prev.timestamp) / HOUR)
    out = []
    for j in range(1, steps):
        frac = j / steps
        out.append(
            HourlyRecord(
                timestamp=prev.timestamp + j * HOUR,
                demand=prev.demand + frac * (nxt.demand - prev.demand),
                spot_price=prev.spot_price,
                dry_bulb_temp=prev.dry_bulb_temp + frac * (nxt.dry_bulb_temp - prev.dry_bulb_temp),
                dew_point=prev.dew_point + frac * (nxt.dew_point - prev.dew_point),
                day_ahead_price=prev.day_ahead_price,
            )
        )
    return out


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
    lines, counting the header as row 1.

    In strict mode (default) any hole in the hourly sequence raises
    GapError.  In permissive mode interior gaps are filled (demand and
    weather linearly interpolated, prices forward-filled) and the filled
    timestamps are flagged on the returned series.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="") as handle:
            return parse_hourly_csv(handle, schema, holidays=holidays, strict=strict)

    schema = dict(schema or {})
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(1, "timestamp", "", "empty input, header row required") from None
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

    records: list[HourlyRecord] = []
    filled: list[datetime] = []
    for row_num, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue

        def cell(canonical: str) -> str:
            idx = col_index[canonical]
            if idx >= len(row):
                raise ParseError(row_num, canonical, "", "row too short")
            return row[idx].strip()

        ts = _parse_timestamp(cell("timestamp"), row_num, "timestamp")
        da: float | None = None
        if "da_price" in col_index:
            raw_da = cell("da_price")
            da = _parse_float(raw_da, row_num, "da_price") if raw_da else None
        record = HourlyRecord(
            timestamp=ts,
            demand=_parse_float(cell("demand_mwh"), row_num, "demand_mwh"),
            spot_price=_parse_float(cell("spot_price"), row_num, "spot_price"),
            dry_bulb_temp=_parse_float(cell("dry_bulb_f"), row_num, "dry_bulb_f"),
            dew_point=_parse_float(cell("dew_point_f"), row_num, "dew_point_f"),
            day_ahead_price=da,
        )

        if records:
            expected = records[-1].timestamp + HOUR
            if ts <= records[-1].timestamp:
                raise GapError(expected, ts)
            if ts > expected:
                if strict:
                    raise GapError(expected)
                gap_records = _fill_gap(records[-1], record)
                records.extend(gap_records)
                filled.extend(r.timestamp for r in gap_records)
        records.append(record)

    return RecordSeries(records, holidays=holidays, filled=filled)


def _format_value(value: float) -> str:
    # repr round-trips floats exactly, keeping CSV serialization lossless.
    return repr(float(value))


def write_hourly_csv(series: RecordSeries, dest: str | Path | IO[str]) -> None:
    """Write a RecordSeries in the canonical CSV layout.

    The da_price column is emitted only when at least one record carries a
    day-ahead price.  Parsing the output reproduces the series exactly.
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "w", newline="") as handle:
            write_hourly_csv(series, handle)
        return

    has_da = any(r.day_ahead_price is not None for r in series.records)
    columns = list(REQUIRED_COLUMNS) + (["da_price"] if has_da else [])
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(columns)
    for rec in series.records:
        row = [
            rec.timestamp.isoformat(timespec="minutes"),
            _format_value(rec.demand),
            _format_value(rec.spot_price),
            _format_value(rec.dry_bulb_temp),
            _format_value(rec.dew_point),
        ]
        if has_da:
            row.append("" if rec.day_ahead_price is None else _format_value(rec.day_ahead_price))
        writer.writerow(row)


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

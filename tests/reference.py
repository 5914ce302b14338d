"""Per-record reference implementations: the record and calendar types, the
calendar rules and a cell-by-cell design row, written one hour at a time.
The columnar code in drspot is checked against them."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime
from typing import Iterable, Sequence

import numpy as np

from drspot.market_data import RecordSeries


@dataclass(frozen=True)
class HourlyRecord:
    """One hour of market data.

    Demand in MWh, the real-time spot price in $/MWh, temperatures in
    degrees F.
    """

    timestamp: datetime
    demand: float
    spot_price: float
    dry_bulb_temp: float
    dew_point: float


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
    """Calendar features of an hour-beginning timestamp."""
    day = timestamp.date()
    weekday = day.weekday()
    return CalendarFeatures(
        hour_of_day=timestamp.hour + 1,
        month=timestamp.month,
        is_holiday=day in holidays,
        is_saturday=weekday == 5,
        is_sunday=weekday == 6,
    )


def series_from_records(records: Sequence[HourlyRecord], holidays: Iterable[date] = frozenset()) -> RecordSeries:
    """The series of ``records``, built with the column constructor."""
    return RecordSeries(
        [r.timestamp for r in records],
        [r.demand for r in records],
        [r.spot_price for r in records],
        [r.dry_bulb_temp for r in records],
        [r.dew_point for r in records],
        holidays=holidays,
    )


def records(series: RecordSeries) -> list[HourlyRecord]:
    """The series' hours as records, read back from its columns."""
    return list(
        map(
            HourlyRecord,
            series.times.tolist(),
            series.demand.tolist(),
            series.spot_price.tolist(),
            series.dry_bulb_temp.tolist(),
            series.dew_point.tolist(),
        )
    )


def calendar(series: RecordSeries) -> list[CalendarFeatures]:
    """The series' calendar columns as one CalendarFeatures per hour."""
    return [
        CalendarFeatures(hour, month, holiday, weekday == 5, weekday == 6)
        for hour, month, holiday, weekday in zip(
            series.hour_of_day.tolist(),
            series.month.tolist(),
            series.is_holiday.tolist(),
            series.weekday.tolist(),
        )
    ]


def design_row(record: HourlyRecord, cal: CalendarFeatures, spec: Sequence[str], demand: float | None = None) -> list:
    """Cell-by-cell design row of one hour, written independently of
    drspot.regression; ``demand`` overrides the record's demand."""
    values = {
        "intercept": 1.0,
        **{f"hour{k}": 1.0 if cal.hour_of_day == k else 0.0 for k in range(1, 24)},
        "demand": record.demand if demand is None else demand,
        "temperature": record.dry_bulb_temp,
        "dew_point": record.dew_point,
        "month": float(cal.month),
        "holiday": 1.0 if cal.is_holiday else 0.0,
        "saturday": 1.0 if cal.is_saturday else 0.0,
        "sunday": 1.0 if cal.is_sunday else 0.0,
    }
    return [values[name] for name in spec]


def hours(series: RecordSeries) -> list[tuple[HourlyRecord, CalendarFeatures]]:
    """(record, calendar) of every hour, the calendar by :func:`derive_calendar`."""
    return [(r, derive_calendar(r.timestamp, series.holidays)) for r in records(series)]


def columns(series: RecordSeries) -> list[np.ndarray]:
    """The constructor's five columns of ``series``, in argument order."""
    return [series.times, series.demand, series.spot_price, series.dry_bulb_temp, series.dew_point]

"""Reference implementations: the record and calendar types, the calendar
rules and a cell-by-cell design row, written one hour at a time, and an
ordinary least-squares fit by full Householder QR on the n rows, with the
explicit residual. The columnar code in drspot, and its one least-squares
routine (the selection's compressed factorization, updated by modified
Gram-Schmidt), are checked against them."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime
from typing import Iterable, Sequence

import numpy as np

from drspot.market_data import RecordSeries
from drspot.regression import (
    RANK_TOLERANCE,
    DimensionMismatchError,
    InsufficientDataError,
    RankDeficientError,
    RegressionModel,
)


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


def fit_ols(X: np.ndarray, y: np.ndarray, spec: Sequence[str] | None = None) -> RegressionModel:
    """Ordinary least squares via Householder QR of the n rows, with
    classical standard errors and the residual taken on the n rows.

    Rank deficiency is detected from the QR diagonal at a relative
    threshold of ``RANK_TOLERANCE`` and reported with the offending column
    name. Requires strictly more observations than features.
    """
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise DimensionMismatchError(f"X is {X.shape}, y is {y.shape}")
    n, m = X.shape
    names = tuple(spec) if spec is not None else tuple(f"x{j}" for j in range(m))
    if len(names) != m:
        raise DimensionMismatchError(f"{len(names)} feature names for {m} columns")
    if n <= m:
        raise InsufficientDataError(n, m)

    q, r = np.linalg.qr(X)
    diag = np.abs(np.diag(r))
    if diag.min() <= RANK_TOLERANCE * diag.max():
        bad = int(np.argmax(diag <= RANK_TOLERANCE * diag.max()))
        raise RankDeficientError(names[bad])
    coefficients = np.linalg.solve(r, q.T @ y)
    residual = y - X @ coefficients
    residual_variance = float(residual @ residual) / (n - m)
    r_inv = np.linalg.solve(r, np.eye(m))
    xtx_inv_diag = np.einsum("ij,ij->i", r_inv, r_inv)
    std_errors = np.sqrt(np.maximum(residual_variance * xtx_inv_diag, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_values = coefficients / std_errors
    t_values = np.where(np.isnan(t_values), 0.0, t_values)
    return RegressionModel(names, coefficients, std_errors, t_values, n, residual_variance)

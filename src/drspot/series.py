"""Columnar hourly series: the calendar rules and :class:`RecordSeries`,
which stores a series as read-only numpy columns.

Timestamps are naive local time and hour-beginning: the record stamped
00:00 covers the 00:00-01:00 interval and is hour 1 of the day.
"""

from __future__ import annotations

from datetime import date, datetime, timedelta
from typing import Iterable, Sequence

import numpy as np

HOUR = timedelta(hours=1)
HOUR64 = np.timedelta64(1, "h")
# Microseconds hold every naive datetime exactly, and .tolist() gives datetimes back.
TIME_DTYPE = "datetime64[us]"
_EPOCH = datetime(1970, 1, 1)
_MICROSECOND = timedelta(microseconds=1)


def iso_minutes(ts: datetime) -> str:
    return ts.isoformat(timespec="minutes")


def datetime64_column(stamps: Iterable[datetime]) -> np.ndarray:
    """Naive datetimes as a datetime64[us] column, exactly, by integer
    microseconds since the epoch: several times faster than numpy's own
    conversion of datetime objects."""
    micros = map(_MICROSECOND.__rfloordiv__, map(_EPOCH.__rsub__, stamps))
    return np.fromiter(micros, dtype=np.int64).view(TIME_DTYPE)


def _calendar_columns(times: np.ndarray, holidays: frozenset[date]) -> dict[str, np.ndarray]:
    """Calendar columns of hour-beginning stamps: ``hour_of_day`` 1..24 (the
    00:00 hour is hour 1), ``month`` 1..12, ``weekday`` (Monday is 0) and
    ``is_holiday`` (the stamp's date is in ``holidays``)."""
    days = times.astype("datetime64[D]")
    holiday_days = np.array(sorted(holidays), dtype="datetime64[D]")
    is_holiday = np.zeros(len(days), dtype=bool)
    if len(holiday_days):
        # Binary search rather than np.isin, whose first call imports numpy.ma (about 1 MiB).
        nearest = np.searchsorted(holiday_days, days).clip(max=len(holiday_days) - 1)
        is_holiday = holiday_days[nearest] == days
    return {
        "hour_of_day": (times.astype("datetime64[h]") - days).astype(np.int64) + 1,
        "month": times.astype("datetime64[M]").astype(np.int64) % 12 + 1,
        # Day 0 of datetime64, 1970-01-01, was a Thursday (weekday 3).
        "weekday": (days.astype(np.int64) + 3) % 7,
        "is_holiday": is_holiday,
    }


_VALUE_COLUMNS = ("demand", "spot_price", "dry_bulb_temp", "dew_point")
_COLUMNS = ("times", *_VALUE_COLUMNS, "hour_of_day", "month", "weekday", "is_holiday")


class RecordSeries:
    """An ordered series of hourly records, stored as read-only numpy columns.

    Built from equal-length columns, which are copied: ``times`` holds the
    naive local timestamps (stored as ``datetime64[us]``); ``demand``,
    ``spot_price``, ``dry_bulb_temp`` and ``dew_point`` the values. The
    calendar columns ``hour_of_day`` (1..24), ``month``, ``weekday`` (Monday
    is 0) and ``is_holiday`` are derived once, when the series is built;
    slices and :meth:`between` share the columns of the series they come
    from.

    A series intended for model fitting or simulation must be contiguous
    (strictly increasing timestamps, exact one-hour spacing); use
    :func:`validate_series` to check. ``filled`` is the sorted
    ``datetime64[us]`` column of the timestamps that permissive
    gap-filling synthesized.
    """

    def __init__(
        self,
        times: Sequence,
        demand: Sequence[float],
        spot_price: Sequence[float],
        dry_bulb_temp: Sequence[float],
        dew_point: Sequence[float],
        *,
        holidays: Iterable[date] = frozenset(),
        filled: Sequence = (),
    ):
        if not isinstance(times, np.ndarray) and any(getattr(t, "tzinfo", None) is not None for t in times):
            raise ValueError("timestamps must be naive local time")
        values = (demand, spot_price, dry_bulb_temp, dew_point)
        columns = [np.array(times, dtype=TIME_DTYPE).reshape(-1)]
        columns += [np.array(column, dtype=float).reshape(-1) for column in values]
        self._own(columns, holidays, filled)

    @classmethod
    def _adopt(cls, columns: Sequence[np.ndarray], *, holidays: Iterable[date], filled: np.ndarray) -> "RecordSeries":
        """A series that takes ``columns``, the times (``datetime64[us]``) and
        the value columns (float) in constructor order, as they are, without
        the constructor's copies: for a caller that made them and keeps no
        reference to them."""
        series = object.__new__(cls)
        series._own(columns, holidays, filled)
        return series

    def _own(self, columns: Sequence[np.ndarray], holidays: Iterable[date], filled) -> None:
        """Take ``columns`` as the series' own, derive the calendar columns
        and make all of them read-only."""
        self.holidays: frozenset[date] = frozenset(holidays)
        self.filled = np.sort(np.array(filled, dtype=TIME_DTYPE).reshape(-1))
        self.filled.flags.writeable = False
        named = dict(zip(("times", *_VALUE_COLUMNS), columns))
        for name in _VALUE_COLUMNS:
            if len(named[name]) != len(named["times"]):
                raise ValueError(f"{len(named[name])} {name} values for {len(named['times'])} times")
        named.update(_calendar_columns(named["times"], self.holidays))
        for name, column in named.items():
            column.flags.writeable = False
            setattr(self, name, column)

    def _view(self, index) -> "RecordSeries":
        """Sub-series sharing this series' columns (a copy for index arrays)."""
        view = object.__new__(type(self))
        view.holidays, view.filled = self.holidays, self.filled
        for name in _COLUMNS:
            setattr(view, name, getattr(self, name)[index])
        return view

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index: slice) -> "RecordSeries":
        if not isinstance(index, slice):
            raise TypeError(f"RecordSeries indices must be slices, not {type(index).__name__}")
        return self._view(index)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecordSeries):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name), equal_nan=name in _VALUE_COLUMNS)
            for name in _COLUMNS
        )

    def __repr__(self) -> str:
        if not len(self):
            return "RecordSeries(empty)"
        first, last = self.times[[0, -1]].tolist()
        return f"RecordSeries({len(self)} hours, {iso_minutes(first)} .. {iso_minutes(last)})"

    def between(self, start: datetime, end: datetime) -> "RecordSeries":
        """Sub-series with start <= timestamp < end."""
        start, end = np.datetime64(start, "us"), np.datetime64(end, "us")
        keep = np.flatnonzero((self.times >= start) & (self.times < end))
        if len(keep) and keep[-1] - keep[0] + 1 == len(keep):
            return self._view(slice(keep[0], keep[-1] + 1))
        return self._view(keep)


def validate_series(series: RecordSeries) -> list[str]:
    """Check series invariants; returns one message per violation.

    Violations are data, not errors: an empty list means the series is
    contiguous, hour-aligned, duplicate-free, and has non-negative demand.
    Only the offending rows are formatted, in row order.
    """
    times = series.times
    found: list[tuple[int, int, str]] = []
    for idx in np.flatnonzero(times != times.astype("datetime64[h]")).tolist():
        ts = times[idx].item()
        found.append((idx, 0, f"row {idx} ({ts.isoformat()}): timestamp not on an hour boundary"))
    for idx in np.flatnonzero(series.demand < 0).tolist():
        stamp = iso_minutes(times[idx].item())
        found.append((idx, 1, f"row {idx} ({stamp}): negative demand {float(series.demand[idx])}"))
    step = np.diff(times)
    for idx in (np.flatnonzero(step != HOUR64) + 1).tolist():
        prev, ts = times[idx - 1].item(), times[idx].item()
        if ts == prev:
            problem = "duplicate timestamp"
        elif ts < prev:
            problem = "timestamps not increasing"
        else:
            problem = f"gap, missing hour {iso_minutes(prev + HOUR)}"
        found.append((idx, 2, f"row {idx} ({iso_minutes(ts)}): {problem}"))
    return [message for _idx, _order, message in sorted(found)]

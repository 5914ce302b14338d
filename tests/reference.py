"""Reference implementations: the record and calendar types, the calendar
rules and a cell-by-cell design row, written one hour at a time; an
ordinary least-squares fit by full Householder QR on the n rows, with the
explicit residual; and forward selection with a fresh temporary for every
vector operation of a step, on calendar rows built from the n-row training
design, with the copies found byte by byte on it. The columnar code in
drspot, and its one least-squares routine (the selection's compressed
factorization, updated by modified Gram-Schmidt), are checked against
them."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime
from typing import Iterable, Sequence

import numpy as np

from drspot.market_data import RecordSeries
from drspot import compression, regression
from drspot.regression import (
    RANK_TOLERANCE,
    DimensionMismatchError,
    InsufficientDataError,
    RankDeficientError,
    RegressionModel,
    SelectionStep,
    design_matrix,
    ferms,
    fit_ols as pool_fit_ols,
    predict,
    validate_feature_spec,
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

    The first column whose QR diagonal entry is at most ``RANK_TOLERANCE``
    times the column's norm is reported as rank deficient, by name.
    Requires strictly more observations than features.
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
    deficient = np.abs(np.diag(r)) <= RANK_TOLERANCE * np.linalg.norm(X, axis=0)
    if deficient.any():
        raise RankDeficientError(names[int(np.argmax(deficient))])
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


def r_factor(a: np.ndarray) -> np.ndarray:
    """The R factor of ``a``, always from a second QR of the stacked R
    factors of its blocks of ``drspot.compression.QR_BLOCK_ROWS`` rows."""
    starts = range(0, max(len(a), 1), compression.QR_BLOCK_ROWS)  # one empty block when a has no rows
    blocks = [np.linalg.qr(a[i : i + compression.QR_BLOCK_ROWS], mode="r") for i in starts]
    return np.linalg.qr(np.vstack(blocks), mode="r")


def calendar_rows(series: RecordSeries, xy: np.ndarray, varying: list[int]) -> np.ndarray:
    """The calendar rows of drspot 0.15.0, built from the n rows of ``xy``,
    the training ``[X y]`` of ``series``: one row per calendar group (hour
    of day; Saturday, Sunday or other day; holiday or not), its mean row
    times the root of its size, the constant columns taken from some row of
    the group; then the R factor of the deviations of the ``varying``
    columns (y's included) from their group means; then zero rows up to
    ``min(n, m + 1)`` rows."""
    n, width = xy.shape
    key = series.hour_of_day + 24 * (np.maximum(series.weekday - 4, 0) + 3 * series.is_holiday)
    counts = np.bincount(key)
    groups = counts.nonzero()[0]
    g, c = len(groups), min(n, len(varying))
    index = np.empty(len(counts), np.intp)
    index[groups] = np.arange(g)
    inverse, counts = index.take(key), counts[groups]
    roots = np.sqrt(counts)
    some = np.empty(g, np.intp)
    some[inverse] = np.arange(n)
    rows = np.zeros((max(g + c, min(n, width)), width))
    np.multiply(xy[some], roots[:, None], out=rows[:g])
    deviations = np.empty((n, len(varying)), order="F")
    for d, j in enumerate(varying):
        means = np.bincount(inverse, weights=xy[:, j]) / counts
        rows[:g, j] = means * roots
        np.subtract(xy[:, j], means.take(inverse), out=deviations[:, d])
    rows[g : g + c, varying] = r_factor(deviations)
    return rows


class PoolResiduals:
    """The factorization of ``drspot.regression._PoolResiduals``, with every
    vector operation of a step on fresh temporaries, and the compressed
    ``[X y]`` always taken from a second QR of the stacked block factors."""

    def __init__(self, xy: np.ndarray, holdout: np.ndarray, y_holdout: np.ndarray, n: int | None = None):
        m = xy.shape[1] - 1
        compressed = r_factor(xy)
        self.t = t = compressed.shape[0]
        self.n, self.k = len(xy) if n is None else n, 0
        self.r, self.c = np.zeros((m, m)), np.empty((m, m + 1))
        self.v = np.empty((m + 1, t + len(y_holdout)))
        self.v[:, :t], self.v[:m, t:], self.v[m, t:] = compressed.T, holdout.T, y_holdout
        self.floor = RANK_TOLERANCE * np.sqrt(np.einsum("ij,ij->i", self.v[:, :t], self.v[:, :t]))

    def trials(self) -> tuple[np.ndarray, np.ndarray]:
        t, v, y = self.t, self.v[:-1], self.v[-1]
        norms = np.sqrt(np.einsum("ij,ij->i", v[:, :t], v[:, :t]))
        ok = norms > self.floor[:-1]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            b = np.where(ok, (v[:, :t] @ y[:t]) / norms / norms, 0.0)
        return ok, b[:, None] * v[:, t:] - y[t:]

    def append(self, i: int) -> None:
        k, t, v_i = self.k, self.t, self.v[i]
        r_xx = float(np.sqrt(v_i[:t] @ v_i[:t]))
        q_x = v_i / (r_xx or 1.0)  # a zero column removes nothing
        self.r[:k, k] = self.c[:k, i]
        self.r[k, k] = r_xx
        self.c[k] = self.v[:, :t] @ q_x[:t]
        self.v -= self.c[k, :, None] * q_x
        self.k = k + 1

    def model(self, spec: tuple[str, ...]) -> RegressionModel:
        k, y = self.k, self.v[-1, : self.t]
        r = self.r[:k, :k]
        coefficients = np.linalg.solve(r, self.c[:k, -1])
        residual_variance = float(y @ y) / (self.n - k)
        r_inv = np.linalg.solve(r, np.eye(k))
        xtx_inv_diag = np.einsum("ij,ij->i", r_inv, r_inv)
        std_errors = np.sqrt(np.maximum(residual_variance * xtx_inv_diag, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t_values = coefficients / std_errors
        t_values = np.where(np.isnan(t_values), 0.0, t_values)
        return RegressionModel(spec, coefficients, std_errors, t_values, self.n, residual_variance)


def copies(train: np.ndarray, holdout: np.ndarray, base: Sequence[int]) -> list[int]:
    """The columns outside ``base`` whose training and holdout values have
    the bytes of a base column's or of an earlier column's."""

    def same(i: int, j: int) -> bool:
        return all(rows[:, i].tobytes() == rows[:, j].tobytes() for rows in (train, holdout))

    return [j for j in range(train.shape[1]) if j not in base and any(same(i, j) for i in (*base, *range(j)))]


def forward_select(
    candidates: Sequence[str],
    train: RecordSeries,
    holdout: RecordSeries,
    base: Sequence[str] = regression.DEFAULT_BASE_FEATURES,
    trace: list[SelectionStep] | None = None,
) -> tuple[tuple[str, ...], RegressionModel, float]:
    """``drspot.regression.forward_select`` on :class:`PoolResiduals`, each
    step's scores from ``np.mean`` of new arrays, and the :func:`copies`
    masked out of every step's trials, both on the n-row training ``[X y]``.
    The pool's rows are its :func:`calendar_rows`; the refits of
    ``tests/test_regression`` check those rows against Householder QR of the
    training rows."""
    candidates, base = validate_feature_spec(candidates), validate_feature_spec(base)
    if not set(base) <= set(candidates):
        raise ValueError("base features must be a subset of the candidate pool")

    n, m = len(train), len(candidates)
    if n <= len(base):
        raise InsufficientDataError(n, len(base))
    xy = np.empty((n, m + 1), order="F")
    design_matrix(train, candidates, out=xy[:, :m])
    xy[:, m] = train.spot_price
    holdout_full, y_holdout = design_matrix(holdout, candidates), holdout.spot_price
    varying = [j for j, name in enumerate(candidates) if name not in regression.CALENDAR_FEATURES] + [m]
    residuals = PoolResiduals(calendar_rows(train, xy, varying), holdout_full, y_holdout, n)
    idx = [candidates.index(name) for name in base]
    copy = np.isin(np.arange(m), copies(xy[:, :m], holdout_full, idx))
    del xy

    compressed = residuals.v[:, : residuals.t]  # read before the first append
    model = pool_fit_ols(compressed[idx].T, compressed[m], spec=base)
    best_score = ferms(predict(model, holdout_full[:, idx]), y_holdout)

    for j in idx:
        residuals.append(j)
    mean_actual = float(y_holdout.mean())
    active = np.array([name not in base for name in candidates])

    while active.any():
        if n <= residuals.k + 1:
            raise InsufficientDataError(n, residuals.k + 1)
        ok, error = residuals.trials()
        ok &= active & ~copy
        scores = 100.0 * np.sqrt(np.mean(error**2, axis=1)) / mean_actual
        ranked = np.where(ok & np.isfinite(scores), scores, np.inf)
        best = int(np.argmin(ranked))  # the first minimum: ties go to the earlier candidate
        added = ranked[best] < best_score
        if added:
            best_score = float(ranked[best])
            ranked[best] = np.inf
        runner_up = int(np.argmin(ranked))
        if trace is not None:
            scored = ranked[runner_up] < np.inf
            trace.append(SelectionStep(
                added=candidates[best] if added else None,
                ferms=best_score,
                runner_up=candidates[runner_up] if scored else None,
                runner_up_ferms=float(ranked[runner_up]) if scored else None,
                disqualified=tuple(candidates[j] for j in np.flatnonzero(active & ~ok)),
            ))
        active = ok
        if not added:
            break
        residuals.append(best)
        idx.append(best)
        active[best] = False

    spec = tuple(candidates[j] for j in idx)
    return spec, residuals.model(spec), best_score

"""Hourly price regression: design matrix, OLS fit, forecast error, and
greedy forward feature selection.

The price model is linear in hour-of-day dummies (hours 1..23, hour 24 is
the reference level), demand, dry bulb temperature, dew point, a numeric
month, and holiday/Saturday/Sunday indicators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .compression import calendar_rows, r_factor
from .market_data import RecordSeries

HOUR_DUMMIES = tuple(f"hour{k}" for k in range(1, 24))
FULL_FEATURES = (
    "intercept",
    *HOUR_DUMMIES,
    "demand",
    "temperature",
    "dew_point",
    "month",
    "holiday",
    "saturday",
    "sunday",
)
# Constant within a calendar group (compression.calendar_rows).
CALENDAR_FEATURES = ("intercept", *HOUR_DUMMIES, "holiday", "saturday", "sunday")
DEFAULT_BASE_FEATURES = ("intercept", "demand")
DEFAULT_THRESHOLDS = (1.3, 1.69, 2.45)

# A column depends on the columns before it when its residual against them
# is at most this fraction of its own norm: the sine of its angle to their
# span (Stewart, Statistical Science 2(1), 1987), blind to column scale.
RANK_TOLERANCE = 1e-10


class RegressionError(Exception):
    """Base class for regression errors."""


class RankDeficientError(RegressionError):
    def __init__(self, column: str):
        super().__init__(f"design matrix is rank deficient: column {column!r} is linearly dependent")
        self.column = column


class ValuesTooLargeError(RegressionError):
    def __init__(self, column: str):
        super().__init__(f"values of {column!r} are too large for least squares")


class InsufficientDataError(RegressionError):
    def __init__(self, n_obs: int, n_features: int):
        super().__init__(f"need more observations than features, got n={n_obs} with m={n_features}")
        self.n_obs = n_obs
        self.n_features = n_features


class DimensionMismatchError(RegressionError):
    pass


class LengthMismatchError(RegressionError):
    pass


class ZeroMeanActualError(RegressionError):
    """The actual series of :func:`ferms` has a mean of zero or below."""


class SignificanceLevel(Enum):
    """Coefficient significance band; the enum value is the star marker."""

    ONE_PERCENT = "**"
    FIVE_PERCENT = "*"
    TEN_PERCENT = "+"
    NOT_SIGNIFICANT = ""


def check_thresholds(thresholds: tuple[float, float, float]) -> None:
    """Raise ValueError unless the (10%, 5%, 1%) thresholds rise from zero."""
    t10, t5, t1 = thresholds
    if not 0 < t10 < t5 < t1:
        raise ValueError(f"significance thresholds must satisfy 0 < t10 < t5 < t1, got {thresholds}")


def significance_level(
    t: float, thresholds: tuple[float, float, float] = DEFAULT_THRESHOLDS
) -> SignificanceLevel:
    """Band |t| against the (10%, 5%, 1%) thresholds."""
    check_thresholds(thresholds)
    t10, t5, t1 = thresholds
    abs_t = abs(t)
    if abs_t >= t1:
        return SignificanceLevel.ONE_PERCENT
    if abs_t >= t5:
        return SignificanceLevel.FIVE_PERCENT
    if abs_t >= t10:
        return SignificanceLevel.TEN_PERCENT
    return SignificanceLevel.NOT_SIGNIFICANT


def validate_feature_spec(spec: Sequence[str]) -> tuple[str, ...]:
    """Check a feature list: known names, no duplicates, intercept first."""
    spec = tuple(spec)
    if not spec or spec[0] != "intercept":
        raise ValueError("feature spec must start with 'intercept'")
    seen = set()
    for name in spec:
        if name not in FULL_FEATURES:
            raise ValueError(f"unknown feature {name!r}")
        if name in seen:
            raise ValueError(f"duplicate feature {name!r}")
        seen.add(name)
    return spec


def design_matrix(
    series: RecordSeries,
    spec: Sequence[str],
    demand: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Design rows for a whole series, built a column at a time from its
    columns (in Fortran order, so each column is contiguous): the one
    definition of every feature. ``demand`` optionally overrides the demand
    column (all other regressors stay at their observed values). Hour
    dummies compare hour_of_day against k, so hour 24 gets all-zero dummies
    (the reference level). ``out``, a ``(len(series), len(spec))`` array,
    takes the columns in place of a new array and is returned."""
    spec = validate_feature_spec(spec)
    demand = series.demand if demand is None else np.asarray(demand, dtype=float)
    if len(demand) != len(series):
        raise LengthMismatchError(f"demand override has {len(demand)} values for {len(series)} records")
    regressors = {
        "demand": demand,
        "temperature": series.dry_bulb_temp,
        "dew_point": series.dew_point,
        "month": series.month,
        "holiday": series.is_holiday,
        "saturday": series.weekday == 5,
        "sunday": series.weekday == 6,
    }
    shape = (len(series), len(spec))
    if out is None:
        out = np.empty(shape, order="F")
    elif out.shape != shape:
        raise DimensionMismatchError(f"out is {out.shape}, the design is {shape}")
    for j, name in enumerate(spec):
        if name == "intercept":
            out[:, j] = 1.0
        elif name.startswith("hour"):
            out[:, j] = series.hour_of_day == int(name[4:])
        else:
            out[:, j] = regressors[name]
    return out


@dataclass
class RegressionModel:
    """Fitted linear price model with classical OLS statistics.

    ``t_values[f] == coefficients[f] / std_errors[f]``; a noiseless fit has
    zero standard errors and infinite t-values.
    """

    spec: tuple[str, ...]
    coefficients: np.ndarray
    std_errors: np.ndarray
    t_values: np.ndarray
    n_obs: int
    residual_variance: float

    def significance(
        self, thresholds: tuple[float, float, float] = DEFAULT_THRESHOLDS
    ) -> tuple[SignificanceLevel, ...]:
        return tuple(significance_level(t, thresholds) for t in self.t_values)

    def to_json_dict(self, thresholds: tuple[float, float, float] = DEFAULT_THRESHOLDS) -> dict:
        levels = self.significance(thresholds)
        return {
            "n_obs": self.n_obs,
            "residual_variance": self.residual_variance,
            "features": [
                {
                    "name": name,
                    "coefficient": float(coef),
                    "std_error": float(se),
                    "t_value": float(t),
                    "significance": level.value,
                }
                for name, coef, se, t, level in zip(
                    self.spec, self.coefficients, self.std_errors, self.t_values, levels
                )
            ],
        }

    def table_text(self, thresholds: tuple[float, float, float] = DEFAULT_THRESHOLDS) -> str:
        """Fixed-width coefficient table with significance stars."""
        lines = [f"{'variable':<14} {'coefficient':>14} {'std error':>12} {'t-value':>10}"]
        for name, coef, se, t, level in zip(
            self.spec, self.coefficients, self.std_errors, self.t_values, self.significance(thresholds)
        ):
            lines.append(f"{name:<14} {coef:>14.5f} {se:>12.5f} {t:>10.2f} {level.value}")
        return "\n".join(lines)


def fit_ols(X: np.ndarray, y: np.ndarray, spec: Sequence[str] | None = None) -> RegressionModel:
    """Ordinary least squares with classical standard errors: the
    factorization of :class:`_PoolResiduals` with no holdout rows, every
    column appended in order.

    The first column whose R diagonal entry is at most ``RANK_TOLERANCE``
    times its own norm is reported as rank deficient, by name, and a column
    whose squares overflow as too large. Requires strictly more observations
    than features.
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

    pool = _PoolResiduals(np.column_stack([X, y]), X[:0], y[:0])
    floor = pool.floor[:m]
    if not np.isfinite(floor).all():
        raise ValuesTooLargeError(names[int(np.argmin(np.isfinite(floor)))])
    for j in range(m):
        pool.append(j)
    deficient = np.diag(pool.r) <= floor
    if deficient.any():
        raise RankDeficientError(names[int(np.argmax(deficient))])
    return pool.model(names)


def predict(model: RegressionModel, rows: np.ndarray) -> np.ndarray:
    """Evaluate the fitted model on design rows a column at a time: unlike
    a BLAS product, each row is rounded independently of the others."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    if rows.shape[1] != len(model.coefficients):
        raise DimensionMismatchError(
            f"rows have {rows.shape[1]} columns, model has {len(model.coefficients)} features"
        )
    prices = np.zeros(len(rows))
    with np.errstate(over="ignore", invalid="ignore"):
        for column, coefficient in zip(rows.T, model.coefficients):
            prices += column * coefficient
    return prices


def ferms(forecast: np.ndarray, actual: np.ndarray) -> float:
    """Forecast error as root mean square of (forecast - actual),
    normalized by the mean of the actual series, in percent. The mean must
    be positive: at a negative mean a larger error would score lower."""
    forecast = np.asarray(forecast, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if forecast.shape != actual.shape or forecast.ndim != 1 or len(forecast) == 0:
        raise LengthMismatchError(
            f"forecast and actual must be equal-length non-empty vectors, got {forecast.shape} and {actual.shape}"
        )
    mean_actual = float(actual.mean())
    if not mean_actual > 0.0:
        raise ZeroMeanActualError(f"mean of actual series must be positive, got {mean_actual}")
    return float(100.0 * np.sqrt(np.mean((forecast - actual) ** 2)) / mean_actual)


@dataclass(frozen=True)
class SelectionStep:
    """One step of :func:`forward_select`, as scored during the search.

    ``added`` is the candidate the step added, or ``None`` on the last step
    when no candidate lowered the holdout ferms; ``ferms`` is the holdout
    ferms after the step. ``runner_up`` is the best-scoring candidate not
    added (``None`` when no other candidate was scored), and
    ``disqualified`` lists the candidates the rank rule removed at this step
    (at the first step, also the copies of :func:`forward_select`).
    """

    added: str | None
    ferms: float
    runner_up: str | None
    runner_up_ferms: float | None
    disqualified: tuple[str, ...]

    @property
    def margin(self) -> float | None:
        """How much worse the runner-up scored than the step's choice: a
        small margin is a near-tie that a change in rounding could flip."""
        return None if self.runner_up_ferms is None else self.runner_up_ferms - self.ferms

    def to_json_dict(self) -> dict:
        return {
            "added": self.added,
            "ferms": self.ferms,
            "runner_up": self.runner_up,
            "runner_up_ferms": self.runner_up_ferms,
            "margin": self.margin,
            "disqualified": list(self.disqualified),
        }


class _PoolResiduals:
    """Least-squares fits of ``y`` on the selected columns plus any one
    candidate column, for every candidate at once, and each fit's error on
    the holdout rows: the one least-squares routine of drspot.
    :func:`fit_ols` is this factorization with no holdout rows.

    ``xy`` is compressed once to its Householder R factor
    (:func:`drspot.compression.r_factor`), which keeps each column's own
    norm, however small next to the others. ``n`` counts the observations:
    ``len(xy)``, unless ``xy`` stands for more rows, as the calendar rows of
    :func:`forward_select` do. Each row of ``v`` is one column of that R,
    ``t == min(len(xy), m + 1)`` values, followed by the same column's
    holdout values; the last row is ``y``'s, with the holdout ``y``. Before
    the first :meth:`append`, ``v[:, :t].T`` is the compressed ``xy``, which
    the base fit of :func:`forward_select` reads, and ``floor`` is
    ``RANK_TOLERANCE`` times the norm of each of its rows: the rank rule's
    floor for that column.

    The selected columns are a thin QR factorization of the compressed
    columns kept as ``r``; Q itself is not stored. The training part of row
    i is the residual of candidate column i against Q, which is
    ``Q @ c[:k, i] + v[i, :t]`` (rows, so that the per-step update runs along
    contiguous memory), and ``c[:k, -1] == Q.T @ y``. The factorization
    starts empty (``k == 0``, each row its column). Appending the column of
    row i takes ``q_x = v[i] / |v[i, :t]|`` and removes it from every row,
    ``y``'s too, with one rank-1 update (a column whose training part is
    zero, exactly dependent on the selected ones, removes nothing and
    leaves a zero on R's diagonal): on the training part, modified
    Gram-Schmidt on ``[X y]`` (Björck, Numerical Methods for Least Squares
    Problems, 1996, §2.4), whose least-squares solution is backward stable
    (Björck and Paige, SIAM J. Matrix Anal. Appl. 13, 1992). The holdout part
    takes the same combination of rows, so it holds each column's holdout
    values minus their prediction from the selected columns' fit, and
    ``y``'s training part is the residual of the selected columns' fit on
    the compressed rows, whose sum of squares is that on the n training
    rows. A step costs O((t + h) m) for h holdout rows, against O(n m) on
    the full rows.
    """

    def __init__(self, xy: np.ndarray, holdout: np.ndarray, y_holdout: np.ndarray, n: int | None = None):
        m, h = xy.shape[1] - 1, len(y_holdout)
        compressed = r_factor(xy)
        self.t = t = compressed.shape[0]
        self.n, self.k = len(xy) if n is None else n, 0
        self.r, self.c = np.zeros((m, m)), np.empty((m, m + 1))
        self.v = v = np.empty((m + 1, t + h))
        v[:, :t], v[:m, t:], v[m, t:] = compressed.T, holdout.T, y_holdout
        # Views of v and work buffers, so that a step allocates almost nothing.
        self.train = v[:, :t]
        self.x_train, self.y_train = v[:-1, :t], v[-1, :t]
        self.x_holdout, self.y_holdout = v[:-1, t:], v[-1, t:]
        self.floor = RANK_TOLERANCE * np.sqrt(np.einsum("ij,ij->i", self.train, self.train))
        self.sums, self.b = np.empty((2, m))
        self.dots, self.q_x = np.empty(m + 1), np.empty(t + h)
        # One buffer for the trials' holdout errors and the update's outer
        # product, which append writes after the errors have been scored.
        work = np.empty(max(m * h, v.size))
        self.error, self.outer = work[: m * h].reshape(m, h), work[: v.size].reshape(v.shape)

    def trials(self) -> tuple[np.ndarray, np.ndarray]:
        """The trial fit of every candidate row once k >= 1: ``ok[i]`` is False
        when row i's residual is at or below its ``floor``, the rank rule of
        :func:`fit_ols` (then the trial is the fit without it), and
        ``error[i]`` is the trial's holdout forecast minus the holdout ``y``.
        ``error`` is a buffer that the next call, or :meth:`append`,
        overwrites.

        Row i's coefficient is ``b = v[i, :t] @ v[-1, :t] / |v[i, :t]|**2``;
        the forecast adds ``b`` times row i's holdout part to the selected
        columns' forecast, which is the holdout ``y`` minus ``y``'s."""
        x, b, error = self.x_train, self.b, self.error
        norms = np.sqrt(np.einsum("ij,ij->i", x, x, out=self.sums), out=self.sums)
        ok = norms > self.floor[:-1]
        b.fill(0.0)
        np.divide(np.matmul(x, self.y_train, out=self.dots[:-1]), norms, out=b, where=ok)
        np.divide(b, norms, out=b, where=ok)
        np.multiply(b[:, None], self.x_holdout, out=error)
        return ok, np.subtract(error, self.y_holdout, out=error)

    def append(self, i: int) -> None:
        """Add the column of row i to the factorization."""
        k, t, v_i, q_x = self.k, self.t, self.v[i], self.q_x
        r_xx = math.sqrt(v_i[:t] @ v_i[:t])
        np.divide(v_i, r_xx or 1.0, out=q_x)  # a zero column removes nothing
        self.r[:k, k] = self.c[:k, i]
        self.r[k, k] = r_xx
        self.c[k] = np.matmul(self.train, q_x[:t], out=self.dots)
        np.subtract(self.v, np.multiply(self.c[k, :, None], q_x, out=self.outer), out=self.v)
        self.k = k + 1

    def model(self, spec: tuple[str, ...]) -> RegressionModel:
        """The OLS model of ``y`` on the appended columns, named ``spec``:
        the coefficients solved from R and ``Q.T @ y``, the residual sum of
        squares from ``y``'s training row and the standard errors from
        R^-1."""
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


# Overflowing products fail the fit or lose the search, quietly.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def forward_select(
    candidates: Sequence[str],
    train: RecordSeries,
    holdout: RecordSeries,
    base: Sequence[str] = DEFAULT_BASE_FEATURES,
    trace: list[SelectionStep] | None = None,
) -> tuple[tuple[str, ...], RegressionModel, float]:
    """Greedy forward selection on out-of-sample forecast error.

    Starting from ``base``, repeatedly adds the candidate that most reduces
    holdout ferms; stops when no candidate strictly reduces it. A candidate
    whose trial fit is rank deficient is disqualified for the rest of the
    search. Ties go to the earlier candidate in list order. A copy, whose
    training and holdout columns have the bytes of a base or an earlier
    candidate's, is disqualified at the first step without a trial.

    The n-row training ``[X y]`` is never built. Its calendar rows
    (:func:`drspot.compression.calendar_rows`, one per calendar group and
    at most five more, with the same Gram matrix) come from the design of
    one hour per group and the n hours of the columns that vary within a
    group, which also give the copies, compared per group where a column is
    constant within each group. The rows are compressed to their
    Householder R factor, at most m + 1 rows for m candidates
    (:class:`_PoolResiduals`), and no fit reads the n training hours. A
    base of n or more features is too wide for the training rows and
    raises ``InsufficientDataError`` first. The base spec goes through
    :func:`fit_ols` on the compressed rows, which rejects a rank deficient
    base as it would on the training rows. One factorization, started with
    the base columns, does the rest, with each column's holdout values
    carried in the same rows, so that a step's cost does not grow with n:
    each step scores all remaining candidates from their residuals against
    the selected columns, and the model comes from the factorization's own
    rows (:meth:`_PoolResiduals.model`). A candidate whose squares
    overflow, in training or in the holdout, is named as too large before
    any fit. When ``trace`` is a list, one :class:`SelectionStep` per step
    is added.

    Returns the selected spec, the model fitted on ``train`` with it and
    its holdout ferms, the score that selected it.
    """
    candidates, base = validate_feature_spec(candidates), validate_feature_spec(base)
    if not set(base) <= set(candidates):
        raise ValueError("base features must be a subset of the candidate pool")

    n, m = len(train), len(candidates)
    if n <= len(base):
        raise InsufficientDataError(n, len(base))
    holdout_full, y_holdout = design_matrix(holdout, candidates), holdout.spot_price
    varying = [j for j, name in enumerate(candidates) if name not in CALENDAR_FEATURES]
    rows, earliest = calendar_rows(train, design_matrix, candidates, varying, holdout_full)
    residuals = _PoolResiduals(rows, holdout_full, y_holdout, n)
    # Every column's squares, in training (its floor) and holdout, must fit.
    for sums in residuals.floor, np.einsum("ij,ij->j", holdout_full, holdout_full):
        if not np.isfinite(sums).all():
            raise ValuesTooLargeError((*candidates, "spot_price")[int(np.isfinite(sums).argmin())])

    idx = [candidates.index(name) for name in base]
    # A copy gets an infinite floor, which no trial passes: the first step
    # disqualifies it. A base column is kept, and any copy of it dropped.
    copy = earliest != np.arange(m)
    copy[earliest[idx]] = True
    copy[idx] = False
    residuals.floor[:m][copy] = np.inf
    compressed = residuals.v[:, : residuals.t]  # read before the first append
    model = fit_ols(compressed[idx].T, compressed[m], spec=base)
    best_score = ferms(predict(model, holdout_full[:, idx]), y_holdout)
    if not math.isfinite(model.residual_variance + best_score):  # the holdout prices' squares
        raise ValuesTooLargeError("spot_price")

    for j in idx:
        residuals.append(j)
    mean_actual, hours = float(y_holdout.mean()), len(y_holdout)
    active = np.array([name not in base for name in candidates])
    scores = np.empty(m)

    while active.any():
        if n <= residuals.k + 1:
            raise InsufficientDataError(n, residuals.k + 1)
        ok, error = residuals.trials()
        ok &= active
        # The holdout ferms of every trial: np.mean's sum and division, in place.
        np.add.reduce(np.square(error, out=error), axis=1, out=scores)
        np.sqrt(np.divide(scores, hours, out=scores), out=scores)
        np.divide(np.multiply(100.0, scores, out=scores), mean_actual, out=scores)
        ranked = np.where(ok & np.isfinite(scores), scores, np.inf)
        best = int(ranked.argmin())  # the first minimum: ties go to the earlier candidate
        added = ranked[best] < best_score
        if added:
            best_score = float(ranked[best])
            ranked[best] = np.inf
        runner_up = int(ranked.argmin())
        if trace is not None:
            scored = ranked[runner_up] < np.inf
            trace.append(SelectionStep(
                added=candidates[best] if added else None,
                ferms=best_score,
                runner_up=candidates[runner_up] if scored else None,
                runner_up_ferms=float(ranked[runner_up]) if scored else None,
                disqualified=tuple(candidates[j] for j in (active & ~ok).nonzero()[0]),
            ))
        active = ok
        if not added:
            break
        residuals.append(best)
        idx.append(best)
        active[best] = False

    spec = tuple(candidates[j] for j in idx)
    return spec, residuals.model(spec), best_score

"""Hourly price regression: design matrix, OLS fit, forecast error, and
greedy forward feature selection.

The price model is linear in hour-of-day dummies (hours 1..23, hour 24 is
the reference level), demand, dry bulb temperature, dew point, a numeric
month, and holiday/Saturday/Sunday indicators.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

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
DEFAULT_BASE_FEATURES = ("intercept", "demand")
DEFAULT_THRESHOLDS = (1.3, 1.69, 2.45)

# Relative condition threshold on the QR diagonal below which a column is
# declared linearly dependent.
RANK_TOLERANCE = 1e-10


class RegressionError(Exception):
    """Base class for regression errors."""


class RankDeficientError(RegressionError):
    def __init__(self, column: str):
        super().__init__(f"design matrix is rank deficient: column {column!r} is linearly dependent")
        self.column = column


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
    pass


class SignificanceLevel(Enum):
    """Coefficient significance band; the enum value is the star marker."""

    ONE_PERCENT = "**"
    FIVE_PERCENT = "*"
    TEN_PERCENT = "+"
    NOT_SIGNIFICANT = ""


def significance_level(
    t: float, thresholds: tuple[float, float, float] = DEFAULT_THRESHOLDS
) -> SignificanceLevel:
    """Band |t| against the (10%, 5%, 1%) thresholds."""
    t10, t5, t1 = thresholds
    if not 0 < t10 < t5 < t1:
        raise ValueError(f"thresholds must satisfy 0 < t10 < t5 < t1, got {thresholds}")
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
    series: RecordSeries, spec: Sequence[str], demand: np.ndarray | None = None
) -> np.ndarray:
    """Design rows for a whole series, built a column at a time from its
    columns: the one definition of every feature. ``demand`` optionally
    overrides the demand column (all other regressors stay at their
    observed values). Hour dummies compare hour_of_day against k, so hour 24
    gets all-zero dummies (the reference level)."""
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
    rows = np.empty((len(series), len(spec)), dtype=float)
    for j, name in enumerate(spec):
        if name == "intercept":
            rows[:, j] = 1.0
        elif name.startswith("hour"):
            rows[:, j] = series.hour_of_day == int(name[4:])
        else:
            rows[:, j] = regressors[name]
    return rows


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

    @classmethod
    def from_json_dict(cls, data: dict) -> "RegressionModel":
        features = data["features"]
        return cls(
            spec=tuple(f["name"] for f in features),
            coefficients=np.array([f["coefficient"] for f in features], dtype=float),
            std_errors=np.array([f["std_error"] for f in features], dtype=float),
            t_values=np.array([f["t_value"] for f in features], dtype=float),
            n_obs=int(data["n_obs"]),
            residual_variance=float(data["residual_variance"]),
        )

    def table_text(self, thresholds: tuple[float, float, float] = DEFAULT_THRESHOLDS) -> str:
        """Fixed-width coefficient table with significance stars."""
        lines = [f"{'variable':<14} {'coefficient':>14} {'std error':>12} {'t-value':>10}"]
        for name, coef, se, t, level in zip(
            self.spec, self.coefficients, self.std_errors, self.t_values, self.significance(thresholds)
        ):
            lines.append(f"{name:<14} {coef:>14.5f} {se:>12.5f} {t:>10.2f} {level.value}")
        return "\n".join(lines)


def fit_ols(X: np.ndarray, y: np.ndarray, spec: Sequence[str] | None = None) -> RegressionModel:
    """Ordinary least squares via QR, with classical standard errors.

    Rank deficiency is detected from the QR diagonal at a relative
    threshold of ``RANK_TOLERANCE`` and reported with the offending column
    name. Requires strictly more observations than features.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
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
    residuals = y - X @ coefficients
    rss = float(residuals @ residuals)
    residual_variance = rss / (n - m)

    r_inv = np.linalg.solve(r, np.eye(m))
    xtx_inv_diag = np.einsum("ij,ij->i", r_inv, r_inv)
    std_errors = np.sqrt(np.maximum(residual_variance * xtx_inv_diag, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_values = coefficients / std_errors
    t_values = np.where(np.isnan(t_values), 0.0, t_values)

    return RegressionModel(
        spec=names,
        coefficients=coefficients,
        std_errors=std_errors,
        t_values=t_values,
        n_obs=n,
        residual_variance=residual_variance,
    )


def predict(model: RegressionModel, rows: np.ndarray) -> np.ndarray:
    """Evaluate the fitted model on design rows."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    if rows.shape[1] != len(model.coefficients):
        raise DimensionMismatchError(
            f"rows have {rows.shape[1]} columns, model has {len(model.coefficients)} features"
        )
    return rows @ model.coefficients


def ferms(forecast: np.ndarray, actual: np.ndarray) -> float:
    """Forecast error as root mean square of (forecast - actual),
    normalized by the mean of the actual series, in percent."""
    forecast = np.asarray(forecast, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if forecast.shape != actual.shape or forecast.ndim != 1 or len(forecast) == 0:
        raise LengthMismatchError(
            f"forecast and actual must be equal-length non-empty vectors, got {forecast.shape} and {actual.shape}"
        )
    mean_actual = float(actual.mean())
    if mean_actual == 0.0:
        raise ZeroMeanActualError("mean of actual series is zero")
    return float(100.0 * np.sqrt(np.mean((forecast - actual) ** 2)) / mean_actual)


def _append_trial(
    q: np.ndarray, r: np.ndarray, qty: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float] | None:
    """Least-squares fit of ``y`` on the columns of ``q @ r`` plus ``x``,
    without refactoring them.

    ``q`` (n, k) has orthonormal columns, ``r`` (k, k) is upper triangular
    and ``qty == q.T @ y``. ``x`` is orthogonalized against ``q`` by
    classical Gram-Schmidt with one reorthogonalization (CGS2), which adds
    the column ``r_xx * q_x + q @ c`` to the factorization at O(n k) cost.
    Returns ``None`` when the extended R diagonal fails the
    ``RANK_TOLERANCE`` rule of :func:`fit_ols`; otherwise the k + 1
    coefficients and the new factor column ``(q_x, c, r_xx)``.
    """
    c = q.T @ x
    v = x - q @ c
    c2 = q.T @ v
    v -= q @ c2
    c += c2
    r_xx = float(np.linalg.norm(v))
    diag = np.append(np.abs(np.diag(r)), r_xx)
    if diag.min() <= RANK_TOLERANCE * diag.max():
        return None
    q_x = v / r_xx
    beta_x = float(q_x @ y) / r_xx
    beta = np.append(np.linalg.solve(r, qty - c * beta_x), beta_x)
    return beta, q_x, c, r_xx


def forward_select(
    candidates: Sequence[str],
    train: RecordSeries,
    holdout: RecordSeries,
    base: Sequence[str] = DEFAULT_BASE_FEATURES,
    tol: float = 0.0,
) -> tuple[tuple[str, ...], RegressionModel]:
    """Greedy forward selection on out-of-sample forecast error.

    Starting from ``base``, repeatedly adds the candidate that most reduces
    holdout ferms; stops when no candidate reduces it by more than ``tol``.
    A candidate whose trial fit is rank deficient is disqualified for the
    rest of the search. Ties go to the earlier candidate in list order.

    The train block of the selected features is factored once (thin QR)
    and each trial appends one column to that factorization; only the base
    spec and the returned model go through :func:`fit_ols`.

    Returns the selected spec and the model fitted on ``train`` with it.
    """
    candidates = validate_feature_spec(candidates)
    base = validate_feature_spec(base)
    if not set(base) <= set(candidates):
        raise ValueError("base features must be a subset of the candidate pool")

    train_full = design_matrix(train, candidates)
    holdout_full = design_matrix(holdout, candidates)
    y_train = train.spot_price
    y_holdout = holdout.spot_price
    column = {name: idx for idx, name in enumerate(candidates)}

    selected = list(base)
    idx = [column[name] for name in selected]
    model = fit_ols(train_full[:, idx], y_train, spec=base)
    best_score = ferms(predict(model, holdout_full[:, idx]), y_holdout)

    # Thin QR of the selected train columns, grown in place one column per step.
    n, k = len(y_train), len(base)
    q = np.empty((n, len(candidates)), order="F")
    r = np.zeros((len(candidates), len(candidates)))
    q[:, :k], r[:k, :k] = np.linalg.qr(train_full[:, idx])
    pool = [name for name in candidates if name not in set(base)]

    while pool:
        if n <= k + 1:
            raise InsufficientDataError(n, k + 1)
        q_sel, r_sel = q[:, :k], r[:k, :k]
        qty = q_sel.T @ y_train
        holdout_sel = holdout_full[:, idx]
        best = None
        disqualified = []
        for name in pool:
            trial = _append_trial(q_sel, r_sel, qty, train_full[:, column[name]], y_train)
            if trial is None:
                disqualified.append(name)
                continue
            beta = trial[0]
            score = ferms(
                holdout_sel @ beta[:k] + holdout_full[:, column[name]] * beta[k], y_holdout
            )
            if best_score - score > tol and (best is None or score < best[0]):
                best = (score, name, *trial[1:])
        for name in disqualified:
            pool.remove(name)
        if best is None:
            break
        best_score, name, q[:, k], r[:k, k], r[k, k] = best
        selected.append(name)
        idx.append(column[name])
        pool.remove(name)
        k += 1

    if len(selected) > len(base):
        model = fit_ols(train_full[:, idx], y_train, spec=selected)
    return tuple(selected), model

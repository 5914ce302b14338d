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
    return _fitted_model(names, X, y, r, q.T @ y)


def _fitted_model(
    spec: tuple[str, ...], X: np.ndarray, y: np.ndarray, r: np.ndarray, qty: np.ndarray
) -> RegressionModel:
    """OLS coefficients and statistics of ``y`` on ``X`` from the R factor
    ``r`` of ``X`` and ``qty == Q.T @ y`` (standard errors from R^-1)."""
    n, m = X.shape
    coefficients = np.linalg.solve(r, qty)
    residuals = y - X @ coefficients
    residual_variance = float(residuals @ residuals) / (n - m)
    r_inv = np.linalg.solve(r, np.eye(m))
    xtx_inv_diag = np.einsum("ij,ij->i", r_inv, r_inv)
    std_errors = np.sqrt(np.maximum(residual_variance * xtx_inv_diag, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_values = coefficients / std_errors
    t_values = np.where(np.isnan(t_values), 0.0, t_values)
    return RegressionModel(spec, coefficients, std_errors, t_values, n, residual_variance)


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


@dataclass(frozen=True)
class SelectionStep:
    """One step of :func:`forward_select`, as scored during the search.

    ``added`` is the candidate the step added, or ``None`` on the last step
    when no candidate lowered the holdout ferms; ``ferms`` is the holdout
    ferms after the step. ``runner_up`` is the best-scoring candidate not
    added (``None`` when no other candidate was scored), and
    ``disqualified`` lists the candidates the rank rule removed at this step.
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
    candidate column, for every candidate at once.

    The selected columns are a thin QR factorization kept as ``r``; Q itself
    is not stored. Row i of ``v`` is the residual against Q of candidate
    column ``cols[i]``, which is ``Q @ c[:k, i] + v[i]`` (rows, so that the
    per-step update runs along contiguous memory). The last row is the
    residual of ``y``, and ``c[:k, -1] == Q.T @ y``. The factorization starts
    empty (``k == 0``, each row its column). Appending the column of row i
    takes ``q_x = v[i] / |v[i]|`` as the next Q column and removes it from
    every row, ``y``'s too, with one rank-1 update: modified Gram-Schmidt on
    ``[X y]`` (Björck, Numerical Methods for Least Squares Problems, 1996,
    §2.4), whose least-squares solution is backward stable (Björck and
    Paige, SIAM J. Matrix Anal. Appl. 13, 1992). A step costs O(n p) for p
    rows; :meth:`retain` drops rows, and ``cols`` stays sorted.
    """

    def __init__(self, columns: np.ndarray, y: np.ndarray):
        m = columns.shape[1]
        self.k, self.cols = 0, np.arange(m)
        self.r, self.c = np.zeros((m, m)), np.empty((m, m + 1))
        self.v = np.empty((m + 1, len(y)))
        self.v[:m], self.v[m] = columns.T, y

    def trials(self) -> tuple[np.ndarray, np.ndarray]:
        """The trial fit of every candidate row once k >= 1: ``ok[i]`` is False
        when appending row i gives an R diagonal that fails the rank rule of
        :func:`fit_ols` (then its coefficient is 0, the fit without it), and
        ``beta[:, i]`` holds the selected columns' coefficients, then row i's."""
        k, v, y = self.k, self.v[:-1], self.v[-1]
        norms = np.sqrt(np.einsum("ij,ij->i", v, v))
        diag = np.abs(np.diag(self.r)[:k])
        ok = np.minimum(norms, diag.min()) > RANK_TOLERANCE * np.maximum(norms, diag.max())
        beta = np.empty((k + 1, len(norms)))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            beta[k] = np.where(ok, (v @ y) / norms / norms, 0.0)
        beta[:k] = np.linalg.solve(self.r[:k, :k], self.c[:k, -1:] - self.c[:k, :-1] * beta[k])
        return ok, beta

    def append(self, i: int) -> None:
        """Add the column of row i to the factorization."""
        k, v_i = self.k, self.v[i]
        r_xx = float(np.sqrt(v_i @ v_i))
        q_x = v_i / r_xx
        self.r[:k, k] = self.c[:k, i]
        self.r[k, k] = r_xx
        self.c[k] = self.v @ q_x
        self.v -= self.c[k, :, None] * q_x
        self.k = k + 1

    def retain(self, keep: np.ndarray) -> np.ndarray:
        """Drop the candidate rows that ``keep`` leaves out once they are a
        quarter of the rows or more; returns ``keep`` for the rows left."""
        if 4 * keep.sum() <= 3 * len(keep):
            self.cols, rows = self.cols[keep], np.append(keep, True)  # and y's row
            self.v, self.c, keep = self.v[rows], self.c[:, rows], keep[keep]
        return keep


def forward_select(
    candidates: Sequence[str],
    train: RecordSeries,
    holdout: RecordSeries,
    base: Sequence[str] = DEFAULT_BASE_FEATURES,
    trace: list[SelectionStep] | None = None,
) -> tuple[tuple[str, ...], RegressionModel]:
    """Greedy forward selection on out-of-sample forecast error.

    Starting from ``base``, repeatedly adds the candidate that most reduces
    holdout ferms; stops when no candidate strictly reduces it. A candidate
    whose trial fit is rank deficient is disqualified for the rest of the
    search. Ties go to the earlier candidate in list order.

    Only the base spec goes through :func:`fit_ols`, which rejects a rank
    deficient or too wide base. One factorization (:class:`_PoolResiduals`,
    started with the base columns) does the rest: each step scores all
    remaining candidates from their residuals against the selected columns,
    and the model is solved from its R and ``Q.T @ y``. Selected and
    disqualified candidates leave it once they are a quarter of its rows.
    When ``trace`` is a list, one :class:`SelectionStep` per step is added.

    Returns the selected spec and the model fitted on ``train`` with it.
    """
    candidates, base = validate_feature_spec(candidates), validate_feature_spec(base)
    if not set(base) <= set(candidates):
        raise ValueError("base features must be a subset of the candidate pool")

    train_full = design_matrix(train, candidates)
    holdout_full = design_matrix(holdout, candidates)
    y_train, y_holdout = train.spot_price, holdout.spot_price

    idx = [candidates.index(name) for name in base]
    model = fit_ols(train_full[:, idx], y_train, spec=base)
    best_score = ferms(predict(model, holdout_full[:, idx]), y_holdout)

    residuals = _PoolResiduals(train_full, y_train)
    for j in idx:
        residuals.append(j)
    mean_actual = float(y_holdout.mean())
    active = residuals.retain(np.array([name not in base for name in candidates]))

    while active.any():
        if len(y_train) <= residuals.k + 1:
            raise InsufficientDataError(len(y_train), residuals.k + 1)
        ok, beta = residuals.trials()
        ok &= active
        cols = residuals.cols
        error = holdout_full[:, idx] @ beta[:-1] + holdout_full[:, cols] * beta[-1] - y_holdout[:, None]
        scores = 100.0 * np.sqrt(np.mean(error**2, axis=0)) / mean_actual
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
                added=candidates[cols[best]] if added else None,
                ferms=best_score,
                runner_up=candidates[cols[runner_up]] if scored else None,
                runner_up_ferms=float(ranked[runner_up]) if scored else None,
                disqualified=tuple(candidates[j] for j in cols[active & ~ok]),
            ))
        active = ok
        if not added:
            break
        residuals.append(best)
        idx.append(int(cols[best]))
        active[best] = False
        active = residuals.retain(active)

    spec, k = tuple(candidates[j] for j in idx), residuals.k
    return spec, _fitted_model(spec, train_full[:, idx], y_train, residuals.r[:k, :k], residuals.c[:k, -1])

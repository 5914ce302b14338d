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

# Rows per block when forward selection compresses [X y]. LAPACK factors a
# few dozen columns one at a time, so blocks that stay in cache halve the
# time of one pass over all the rows (2.6 against 5.0 ms for 6,384 x 32 on
# one OpenBLAS thread of a 2-vCPU x86 machine), and the copies that
# np.linalg.qr makes stay small.
_QR_BLOCK_ROWS = 1024


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
    """The actual series of :func:`ferms` has a mean of zero or below."""


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

    Rank deficiency is detected from the R diagonal at a relative
    threshold of ``RANK_TOLERANCE`` and reported with the name of the first
    offending column. Requires strictly more observations than features.
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
    for j in range(m):
        pool.append(j)
    diag = np.diag(pool.r)
    deficient = diag <= RANK_TOLERANCE * diag.max()
    if deficient.any():
        raise RankDeficientError(names[int(np.argmax(deficient))])
    return pool.model(names)


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
    candidate column, for every candidate at once, and each fit's error on
    the holdout rows: the one least-squares routine of drspot.
    :func:`fit_ols` is this factorization with no holdout rows.

    The training ``[X y]`` is compressed once: a least-squares fit on any
    subset of its columns is unchanged when ``[X y]`` is replaced by its R
    factor (Miller, Subset Selection in Regression, 2002, ch. 2). R is the
    Householder QR factor of the stacked R factors of blocks of
    ``_QR_BLOCK_ROWS`` rows (TSQR; Demmel, Grigori, Hoemmen and Langou, SIAM
    J. Sci. Comput. 34, 2012). Householder QR is columnwise backward stable
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, Thm
    19.4), in one level or two, so the rank rule still sees a small column
    next to a large one. Each row of ``v`` is one column of that R,
    ``t == min(n, m + 1)`` values, followed by the same column's holdout
    values; the last row is ``y``'s, with the holdout ``y``. Before the
    first :meth:`append`, ``v[:, :t].T`` is the compressed ``[X y]``, which
    the base fit of :func:`forward_select` reads.
    Householder rounds two bit-identical columns differently, so a
    training column with the same bytes as an earlier one gets the earlier
    one's row of R (``first[i]`` is that earlier row, or i), and every
    per-row sum of the later row (its norm, its products with ``q_x`` and
    ``y``) is taken from the earlier row, since BLAS may round the same sum
    differently at another row position. Their training parts then stay
    equal through every update, and so do their trials when their holdout
    columns are equal too: the tie is exact.

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

    def __init__(self, xy: np.ndarray, holdout: np.ndarray, y_holdout: np.ndarray):
        m = xy.shape[1] - 1
        starts = range(0, max(len(xy), 1), _QR_BLOCK_ROWS)  # one empty block when n == 0
        blocks = [np.linalg.qr(xy[i : i + _QR_BLOCK_ROWS], mode="r") for i in starts]
        compressed = np.linalg.qr(np.vstack(blocks), mode="r")
        self.t = t = compressed.shape[0]
        self.n, self.k = len(xy), 0
        self.r, self.c = np.zeros((m, m)), np.empty((m, m + 1))
        self.v = np.empty((m + 1, t + len(y_holdout)))
        self.first = np.append(_first_copies(xy[:, :m]), m)  # y's row is its own
        self.v[:, :t] = compressed[:, self.first].T
        self.v[:m, t:], self.v[m, t:] = holdout.T, y_holdout

    def trials(self) -> tuple[np.ndarray, np.ndarray]:
        """The trial fit of every candidate row once k >= 1: ``ok[i]`` is False
        when appending row i gives an R diagonal that fails the rank rule of
        :func:`fit_ols` (then the trial is the fit without it), and
        ``error[i]`` is the trial's holdout forecast minus the holdout ``y``.

        Row i's coefficient is ``b = v[i, :t] @ v[-1, :t] / |v[i, :t]|**2``;
        the forecast adds ``b`` times row i's holdout part to the selected
        columns' forecast, which is the holdout ``y`` minus ``y``'s."""
        t, v, y, first = self.t, self.v[:-1], self.v[-1], self.first[:-1]
        norms = np.sqrt(np.einsum("ij,ij->i", v[:, :t], v[:, :t]))[first]
        diag = np.abs(np.diag(self.r)[: self.k])
        ok = np.minimum(norms, diag.min()) > RANK_TOLERANCE * np.maximum(norms, diag.max())
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            b = np.where(ok, (v[:, :t] @ y[:t])[first] / norms / norms, 0.0)
        return ok, b[:, None] * v[:, t:] - y[t:]

    def append(self, i: int) -> None:
        """Add the column of row i to the factorization."""
        k, t, v_i = self.k, self.t, self.v[i]
        r_xx = float(np.sqrt(v_i[:t] @ v_i[:t]))
        q_x = v_i / (r_xx or 1.0)  # a zero column removes nothing
        self.r[:k, k] = self.c[:k, i]
        self.r[k, k] = r_xx
        self.c[k] = (self.v[:, :t] @ q_x[:t])[self.first]
        self.v -= self.c[k, :, None] * q_x
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


def _first_copies(columns: np.ndarray) -> np.ndarray:
    """For each column, the index of the first column with the same bytes."""
    bits = columns.view(np.uint64)
    # A position-weighted sum, wrapping, tells columns apart in one pass;
    # columns with equal sums are compared byte for byte.
    weights = np.arange(1, len(bits) + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    first, seen = np.arange(bits.shape[1]), {}
    for j, key in enumerate((weights @ bits).tolist()):
        same = seen.setdefault(key, [])
        first[j] = next((i for i in same if np.array_equal(bits[:, i], bits[:, j])), j)
        if first[j] == j:
            same.append(j)
    return first


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
    search. Ties go to the earlier candidate in list order.

    The training ``[X y]`` is compressed once by blocked Householder QR to
    its R factor, ``min(n, m + 1)`` rows for m candidates
    (:class:`_PoolResiduals`), and no fit reads the n training rows after
    that. The base spec goes through :func:`fit_ols` on the compressed
    rows, which rejects a rank deficient or too wide base as it would on
    the training rows (too wide: n <= k). One factorization, started with
    the base columns, does the rest, with each column's holdout values
    carried in the same rows, so that a step's cost does not grow with n:
    each step scores all remaining candidates from their residuals against
    the selected columns, and the model comes from the factorization's own
    rows (:meth:`_PoolResiduals.model`).
    Candidates whose columns have the same bytes, in training and in the
    holdout, tie exactly: when one of them is added it is the earlier, and
    the later one is disqualified at the next step. When ``trace`` is a
    list, one :class:`SelectionStep` per step is added.

    Returns the selected spec, the model fitted on ``train`` with it and
    its holdout ferms, the score that selected it.
    """
    candidates, base = validate_feature_spec(candidates), validate_feature_spec(base)
    if not set(base) <= set(candidates):
        raise ValueError("base features must be a subset of the candidate pool")

    # One Fortran-order [X y]: its columns are contiguous for the QR that
    # compresses it, and the training design is written into it in place.
    # The pool's rows are the compressed [X y] that every fit below reads;
    # the training rows are not read again.
    n, m = len(train), len(candidates)
    xy = np.empty((n, m + 1), order="F")
    design_matrix(train, candidates, out=xy[:, :m])
    xy[:, m] = train.spot_price
    holdout_full, y_holdout = design_matrix(holdout, candidates), holdout.spot_price
    residuals = _PoolResiduals(xy, holdout_full, y_holdout)
    del xy

    idx = [candidates.index(name) for name in base]
    compressed = residuals.v[:, : residuals.t]  # read before the first append
    model = fit_ols(compressed[idx].T, compressed[m], spec=base)
    best_score = ferms(predict(model, holdout_full[:, idx]), y_holdout)

    for j in idx:
        residuals.append(j)
    mean_actual = float(y_holdout.mean())
    active = np.array([name not in base for name in candidates])

    while active.any():
        if n <= residuals.k + 1:
            raise InsufficientDataError(n, residuals.k + 1)
        ok, error = residuals.trials()
        ok &= active
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

"""Closed-loop scenario: fit and select the price model, forecast the study
window, apply the demand response to the forecast under real-time pricing,
and re-price the market with the altered demand (a single pass, no
fixed-point iteration).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .csv_text import flag_grid, float_grids, stamp_grid, stamp_strings, write_csv
from .elasticity import (
    HOURS_PER_DAY,
    DayVectors,
    ElasticityTable,
    PeriodConfig,
    build_elasticity_matrix,
    multi_hour_response,
)
from .market_data import RecordSeries, validate_series
from .regression import (
    DEFAULT_BASE_FEATURES,
    DEFAULT_THRESHOLDS,
    FULL_FEATURES,
    LengthMismatchError,
    RegressionModel,
    SelectionStep,
    design_matrix,
    forward_select,
    predict,
    validate_feature_spec,
)

RESULT_COLUMNS = (
    "timestamp",
    "baseline_demand",
    "forecast_price",
    "dr_demand",
    "baseline_spot_price",
    "updated_spot_price",
    "clamped",
)


class ModelRejectedError(Exception):
    """The fitted model failed the out-of-sample forecast error gate."""

    def __init__(self, achieved_ferms: float, gate: float):
        super().__init__(
            f"model rejected: holdout ferms {achieved_ferms:.2f}% exceeds gate {gate:.2f}%"
        )
        self.achieved_ferms = achieved_ferms
        self.gate = gate


class EmptyWindowError(Exception):
    pass


class ZeroBaselineError(ValueError):
    """The study window's baseline energy or cost is zero, so the relative
    deltas of :func:`impact_summary` are undefined."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a simulation run depends on besides the data itself."""

    flat_rate: float = 30.0
    elasticity_table: ElasticityTable = field(default_factory=ElasticityTable.default)
    period_config: PeriodConfig = field(default_factory=PeriodConfig.default)
    feature_candidates: tuple[str, ...] = FULL_FEATURES
    base_features: tuple[str, ...] = DEFAULT_BASE_FEATURES
    ferms_gate: float = 15.0
    holdout_days: int = 7
    significance_thresholds: tuple[float, float, float] = DEFAULT_THRESHOLDS

    def __post_init__(self):
        # Written so that NaN fails: every comparison with NaN is false.
        if not 0 < self.flat_rate < math.inf:
            raise ValueError(f"flat_rate must be finite and > 0, got {self.flat_rate}")
        if not 0 < self.ferms_gate < math.inf:
            raise ValueError(f"ferms_gate must be finite and > 0, got {self.ferms_gate}")
        if self.holdout_days < 1:
            raise ValueError(f"holdout_days must be >= 1, got {self.holdout_days}")
        t10, t5, t1 = self.significance_thresholds
        if not 0 < t10 < t5 < t1:
            raise ValueError(
                f"significance thresholds must satisfy 0 < t10 < t5 < t1, got {self.significance_thresholds}"
            )
        object.__setattr__(self, "feature_candidates", validate_feature_spec(self.feature_candidates))
        object.__setattr__(self, "base_features", validate_feature_spec(self.base_features))


@dataclass
class ScenarioResult:
    """Per-hour series over the study window plus the fitted model.

    ``times`` is the window's ``datetime64`` column. Prices before and
    after the response are both produced by the market price model:
    baseline_spot_price is the model at baseline demand, which is the
    forecast itself, and updated_spot_price the model at the responded
    demand, so a null response leaves the market exactly unchanged.
    ``actual_price`` is the spot price recorded in the window, which the
    forecast is plotted against. ``selection`` is the trace of the forward
    selection that chose the model's features.
    """

    times: np.ndarray
    baseline_demand: np.ndarray
    forecast_price: np.ndarray
    actual_price: np.ndarray
    dr_demand: np.ndarray
    updated_spot_price: np.ndarray
    clamp_flags: np.ndarray
    model: RegressionModel
    holdout_ferms: float
    selection: tuple[SelectionStep, ...] = ()

    def __post_init__(self):
        n = len(self.times)
        series = (
            self.baseline_demand,
            self.forecast_price,
            self.actual_price,
            self.dr_demand,
            self.updated_spot_price,
            self.clamp_flags,
        )
        if any(len(s) != n for s in series):
            raise ValueError("all result series must have equal length")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def baseline_spot_price(self) -> np.ndarray:
        """The market price before the response: the price model at
        baseline demand, equal to ``forecast_price`` by construction."""
        return self.forecast_price

    @property
    def clamp_count(self) -> int:
        return int(np.count_nonzero(self.clamp_flags))

    @cached_property
    def csv_grids(self) -> dict[str, np.ndarray]:
        """The RESULT_COLUMNS and ``actual_price`` as CSV cells, rendered
        once for every writer, as the grids of :mod:`drspot.csv_text`:
        ``YYYY-MM-DDTHH:MM`` stamps, floats as ``repr`` writes them
        (lossless), clamp flags as 0/1. The baseline_spot_price cells are
        the forecast_price cells."""
        demand, forecast, actual, dr_demand, updated = float_grids(
            self.baseline_demand, self.forecast_price, self.actual_price, self.dr_demand, self.updated_spot_price
        )
        return {
            "timestamp": stamp_grid(self.times),
            "baseline_demand": demand,
            "forecast_price": forecast,
            "dr_demand": dr_demand,
            "baseline_spot_price": forecast,
            "updated_spot_price": updated,
            "clamped": flag_grid(self.clamp_flags),
            "actual_price": actual,
        }


@dataclass(frozen=True)
class ImpactSummary:
    """Aggregate energy and wholesale-cost deltas for a scenario."""

    delta_energy_mwh: float
    delta_energy_pct: float
    delta_cost: float
    delta_cost_pct: float
    baseline_cost: float
    dr_cost: float
    peak_price_before: float
    peak_price_after: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def customer_bill(demand: Sequence[float], prices: Sequence[float]) -> float:
    """Total cost of a demand series at hourly prices."""
    demand = np.asarray(demand, dtype=float)
    prices = np.asarray(prices, dtype=float)
    if prices.shape != demand.shape:
        raise LengthMismatchError(
            f"demand has {demand.shape} entries, prices {prices.shape}"
        )
    return float(demand @ prices)


def split_train_holdout(history: RecordSeries, holdout_days: int) -> tuple[RecordSeries, RecordSeries]:
    """Hold out the last ``holdout_days`` whole days of the history."""
    holdout_hours = holdout_days * HOURS_PER_DAY
    if len(history) <= holdout_hours:
        raise ValueError(
            f"history has {len(history)} hours, not enough to hold out {holdout_days} days"
        )
    return history[:-holdout_hours], history[-holdout_hours:]


def _require_valid(series: RecordSeries, label: str) -> None:
    violations = validate_series(series)
    if violations:
        raise ValueError(f"{label} series is invalid: " + "; ".join(violations[:5]))


def fit_price_model(
    history: RecordSeries,
    cfg: ScenarioConfig = ScenarioConfig(),
    trace: list[SelectionStep] | None = None,
) -> tuple[tuple[str, ...], RegressionModel, float]:
    """Select and fit the price model on the history with the last
    ``holdout_days`` held out; returns the spec, the model and its holdout
    ferms, as the selection scored it. The ferms gate is left to the
    caller. ``trace`` collects the selection steps (see
    :func:`forward_select`)."""
    train, holdout = split_train_holdout(history, cfg.holdout_days)
    return forward_select(cfg.feature_candidates, train, holdout, cfg.base_features, trace=trace)


def run_scenario(
    history: RecordSeries, study_window: RecordSeries, cfg: ScenarioConfig = ScenarioConfig()
) -> ScenarioResult:
    """Run the full loop over a study window of whole days, starting at
    00:00 so that each row of the ``(days, 24)`` response is one day.

    Fits the price model on the history (with the last ``holdout_days``
    held out for selection and the forecast error gate), forecasts the
    study window, responds every day at once with baseline price p0 fixed
    at the flat rate, then re-predicts prices with the responded demand
    substituted for the observed demand. Raises ValueError when the response
    or the re-price leaves the finite range (an extreme flat rate or
    elasticity table).
    """
    _require_valid(history, "history")
    _require_valid(study_window, "study window")
    n = len(study_window)
    if n == 0 or n % HOURS_PER_DAY:
        raise ValueError(f"study window must cover whole days, got {n} hours")
    if study_window.hour_of_day[0] != 1:
        start = stamp_strings(study_window.times[:1])[0]
        raise ValueError(f"study window must start at 00:00, got a start at {start}")
    # Both are runs of consecutive hours (validated above): they share an hour
    # exactly when their ranges overlap.
    first, last = study_window.times[[0, -1]]
    if len(history) and history.times[0] <= last and first <= history.times[-1]:
        raise ValueError("history and study window overlap")

    selection: list[SelectionStep] = []
    spec, model, holdout_ferms = fit_price_model(history, cfg, selection)
    if holdout_ferms > cfg.ferms_gate:
        raise ModelRejectedError(holdout_ferms, cfg.ferms_gate)

    forecast = predict(model, design_matrix(study_window, spec))

    matrix = build_elasticity_matrix(cfg.elasticity_table, cfg.period_config)
    days = (n // HOURS_PER_DAY, HOURS_PER_DAY)
    by_day = DayVectors(
        d0=study_window.demand.reshape(days), p0=np.full(days, cfg.flat_rate), p=forecast.reshape(days)
    )
    # An extreme flat rate or table overflows here; the check below reports
    # it as one error, so numpy's floating-point warnings are not printed.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        response = multi_hour_response(by_day, matrix)
        dr_demand, clamp_flags = response.demand.reshape(n), response.clamped.reshape(n)
        updated = predict(model, design_matrix(study_window, spec, demand=dr_demand))
    if not (np.isfinite(dr_demand).all() and np.isfinite(updated).all()):
        raise ValueError("demand response or re-price is not finite; check flat_rate and the elasticity table")

    return ScenarioResult(
        times=study_window.times,
        baseline_demand=study_window.demand,
        forecast_price=forecast,
        actual_price=study_window.spot_price,
        dr_demand=dr_demand,
        updated_spot_price=updated,
        clamp_flags=clamp_flags,
        model=model,
        holdout_ferms=holdout_ferms,
        selection=tuple(selection),
    )


def impact_summary(result: ScenarioResult) -> ImpactSummary:
    """Aggregate before/after deltas.

    Baseline cost is baseline demand at the pre-response spot price,
    after-response cost is the responded demand at the re-predicted price;
    a null response leaves all deltas at exactly zero. Raises
    ZeroBaselineError when the baseline energy or cost is zero, and
    ValueError when an aggregate overflows.
    """
    if len(result) == 0:
        raise EmptyWindowError("scenario result covers no hours")
    # An overflow is reported by the finite check at the end, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        baseline_energy = float(result.baseline_demand.sum())
        dr_energy = float(result.dr_demand.sum())
        baseline_cost = customer_bill(result.baseline_demand, result.baseline_spot_price)
        dr_cost = customer_bill(result.dr_demand, result.updated_spot_price)
    delta_energy = dr_energy - baseline_energy
    if baseline_energy == 0.0 or baseline_cost == 0.0:
        raise ZeroBaselineError(
            f"baseline energy ({baseline_energy!r} MWh) and cost ({baseline_cost!r} $) must be "
            "non-zero to express the deltas in percent"
        )
    delta_cost = dr_cost - baseline_cost
    summary = ImpactSummary(
        delta_energy_mwh=delta_energy,
        delta_energy_pct=100.0 * delta_energy / baseline_energy,
        delta_cost=delta_cost,
        delta_cost_pct=100.0 * delta_cost / baseline_cost,
        baseline_cost=baseline_cost,
        dr_cost=dr_cost,
        peak_price_before=float(result.baseline_spot_price.max()),
        peak_price_after=float(result.updated_spot_price.max()),
    )
    if not all(map(math.isfinite, summary.to_json_dict().values())):
        raise ValueError(f"impact summary is not finite: {summary.to_json_dict()}")
    return summary


def write_result_csv(result: ScenarioResult, dest: str | Path | IO[str]) -> None:
    """One row per hour in RESULT_COLUMNS order, from ``result.csv_grids``.
    Floats are written as ``repr`` writes them, so the output is
    byte-deterministic and lossless. Their decimals come from exact
    arithmetic in numpy for 0 and finite 1e-4 <= |x| < 1e15 (see
    :mod:`drspot.csv_text`); ``repr`` itself writes any other value and the
    rare ones that arithmetic leaves undecided, such as exact ties."""
    write_csv(dest, RESULT_COLUMNS, [result.csv_grids[name] for name in RESULT_COLUMNS])

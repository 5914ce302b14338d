from __future__ import annotations

import tracemalloc
from datetime import datetime
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from conftest import MONDAY, SYNTHETIC_CANDIDATES, build_series, shifted_market, synthetic_market
from drspot import csv_text, pipeline
from drspot.elasticity import ElasticityTable
from drspot.market_data import RecordSeries
from drspot.pipeline import (
    EmptyWindowError,
    ModelRejectedError,
    RESULT_COLUMNS,
    ScenarioConfig,
    ScenarioResult,
    ZeroBaselineError,
    customer_bill,
    fit_price_model,
    impact_summary,
    run_scenario,
    split_train_holdout,
    write_result_csv,
)
from drspot.regression import LengthMismatchError, ZeroMeanActualError, design_matrix, fit_ols, predict


def fast_config(**overrides) -> ScenarioConfig:
    defaults = dict(
        feature_candidates=SYNTHETIC_CANDIDATES,
        base_features=("intercept", "demand"),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def split_market(days_history: int, days_study: int, seed: int, **market_kwargs):
    series = synthetic_market(days_history + days_study, seed=seed, **market_kwargs)
    return series[: days_history * 24], series[days_history * 24 :]


def dummy_model():
    return fit_ols(np.ones((3, 1)), np.array([1.0, 1.0, 1.0]))


def make_result(baseline_demand, forecast, dr_demand, updated, clamps=None):
    """A result whose baseline spot price is, as in run_scenario, the
    forecast; the actual price is the forecast too."""
    n = len(baseline_demand)
    return ScenarioResult(
        times=np.datetime64(MONDAY, "us") + np.arange(n) * np.timedelta64(1, "h"),
        baseline_demand=np.asarray(baseline_demand, float),
        forecast_price=np.asarray(forecast, float),
        actual_price=np.asarray(forecast, float),
        dr_demand=np.asarray(dr_demand, float),
        updated_spot_price=np.asarray(updated, float),
        clamp_flags=np.zeros(n, bool) if clamps is None else np.asarray(clamps, bool),
        model=dummy_model(),
        holdout_ferms=0.0,
    )


class TestCustomerBill:
    def test_zero_prices(self):
        assert customer_bill([123.0, 456.0, 789.0], [0.0, 0.0, 0.0]) == 0.0

    def test_hourly_prices(self):
        assert customer_bill([1.0, 2.0], [30.0, 40.0]) == 110.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            customer_bill([1.0, 2.0], [30.0])


class TestImpactSummary:
    def test_no_change_means_zero_deltas(self):
        demand = [100.0, 200.0]
        price = [50.0, 20.0]
        summary = impact_summary(make_result(demand, price, demand, price))
        assert summary.delta_energy_mwh == 0.0
        assert summary.delta_energy_pct == 0.0
        assert summary.delta_cost == 0.0
        assert summary.delta_cost_pct == 0.0

    def test_two_hour_toy(self):
        summary = impact_summary(
            make_result(
                baseline_demand=[100.0, 100.0],
                forecast=[50.0, 10.0],
                dr_demand=[90.0, 110.0],
                updated=[40.0, 12.0],
            )
        )
        assert summary.delta_energy_mwh == 0.0
        assert summary.delta_energy_pct == 0.0
        assert summary.baseline_cost == 6000.0
        assert summary.dr_cost == 4920.0
        assert summary.delta_cost == -1080.0
        assert summary.delta_cost_pct == pytest.approx(-18.0)
        assert summary.peak_price_before == 50.0
        assert summary.peak_price_after == 40.0

    def test_empty_window(self):
        with pytest.raises(EmptyWindowError):
            impact_summary(make_result([], [], [], []))

    @pytest.mark.parametrize(
        "demand, price",
        [([0.0, 0.0], [50.0, 20.0]), ([100.0, 200.0], [0.0, 0.0]), ([100.0, 50.0], [10.0, -20.0])],
        ids=["zero_energy", "zero_prices", "costs_cancel"],
    )
    def test_zero_baseline_raises(self, demand, price):
        with pytest.raises(ZeroBaselineError, match="non-zero"):
            impact_summary(make_result(demand, price, [1.0, 1.0], price))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_aggregate_raises(self):
        # Finite hours whose cost overflows: the summary would read inf and NaN.
        with pytest.raises(ValueError, match="not finite"):
            impact_summary(make_result([1.0, 1.0], [1e200, 1e200], [1e200, 1e200], [1e200, 1e200]))

    def test_accounting_identity_and_pct_consistency(self):
        rng = np.random.default_rng(40)
        n = 48
        baseline_demand = rng.uniform(100, 3000, n)
        dr_demand = rng.uniform(100, 3000, n)
        summary = impact_summary(
            make_result(
                baseline_demand,
                rng.uniform(10, 80, n),
                dr_demand,
                rng.uniform(10, 80, n),
            )
        )
        assert summary.delta_cost == summary.dr_cost - summary.baseline_cost
        assert summary.delta_cost_pct == pytest.approx(
            100.0 * summary.delta_cost / summary.baseline_cost, rel=1e-9
        )
        assert summary.delta_energy_pct == pytest.approx(
            100.0 * summary.delta_energy_mwh / baseline_demand.sum(), rel=1e-9
        )


class TestRunScenario:
    def test_zero_elasticity_is_identity(self):
        history, study = split_market(21, 7, seed=50)
        cfg = fast_config(elasticity_table=ElasticityTable.zero())
        result = run_scenario(history, study, cfg)
        assert np.array_equal(result.dr_demand, result.baseline_demand)
        assert np.array_equal(result.updated_spot_price, result.forecast_price)
        assert not result.clamp_flags.any()
        summary = impact_summary(result)
        assert summary.delta_energy_mwh == 0.0 and summary.delta_cost == 0.0

    def test_forecast_at_flat_rate_means_no_response(self):
        rng = np.random.default_rng(51)
        n = 10 * 24
        demand = rng.uniform(1000, 3000, n)
        price = np.full(n, 30.0)
        series = build_series(demand, price)
        cfg = fast_config(
            feature_candidates=("intercept", "demand"),
            base_features=("intercept", "demand"),
            holdout_days=2,
        )
        result = run_scenario(series[: 8 * 24], series[8 * 24 :], cfg)
        np.testing.assert_allclose(result.forecast_price, 30.0, rtol=1e-9)
        np.testing.assert_allclose(result.dr_demand, result.baseline_demand, rtol=1e-12)

    def test_spike_hours_shed_demand_and_price(self):
        for seed in (60, 61):
            history, study = split_market(35, 7, seed=seed)
            cfg = fast_config(elasticity_table=ElasticityTable.diagonal(-0.10))
            result = run_scenario(history, study, cfg)
            spikes = result.forecast_price > cfg.flat_rate
            assert spikes.any()
            assert np.all(result.dr_demand[spikes] < result.baseline_demand[spikes])
            assert np.all(result.updated_spot_price[spikes] < result.forecast_price[spikes])
            assert result.updated_spot_price.max() <= result.forecast_price.max()

    def test_cheap_hours_gain_demand_with_diagonal_table(self):
        history, study = split_market(35, 7, seed=62)
        cfg = fast_config(elasticity_table=ElasticityTable.diagonal(-0.10))
        result = run_scenario(history, study, cfg)
        cheap = result.forecast_price < cfg.flat_rate
        assert cheap.any()
        assert np.all(result.dr_demand[cheap] >= result.baseline_demand[cheap])

    def test_model_rejected_on_tight_gate(self):
        history, study = split_market(21, 7, seed=52)
        cfg = fast_config(ferms_gate=0.5)
        with pytest.raises(ModelRejectedError) as excinfo:
            run_scenario(history, study, cfg)
        assert excinfo.value.achieved_ferms > 0.5

    def test_clamped_hours_flagged_and_zero(self):
        history, study = split_market(21, 7, seed=53)
        cfg = fast_config(elasticity_table=ElasticityTable.diagonal(-5.0))
        result = run_scenario(history, study, cfg)
        assert result.clamp_count > 0
        assert np.all(result.dr_demand[result.clamp_flags] == 0.0)
        assert np.all(result.dr_demand[~result.clamp_flags] > 0.0)

    def test_deterministic(self):
        history, study = split_market(21, 7, seed=54)
        cfg = fast_config()
        a = run_scenario(history, study, cfg)
        b = run_scenario(history, study, cfg)
        assert a.model.spec == b.model.spec
        for field in ("baseline_demand", "forecast_price", "dr_demand", "updated_spot_price"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert a.holdout_ferms == b.holdout_ferms

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_non_finite_response_rejected(self):
        history, study = split_market(21, 7, seed=57)
        # p0 so small that (p - p0) / p0 overflows to infinity
        with pytest.raises(ValueError, match="not finite"):
            run_scenario(history, study, fast_config(flat_rate=5e-324))

    def test_partial_day_window_rejected(self):
        history, study = split_market(21, 7, seed=55)
        with pytest.raises(ValueError):
            run_scenario(history, study[:30], fast_config())

    def test_window_not_starting_at_midnight_rejected(self):
        # Whole days from 05:00: the (days, 24) rows would not be days, and the
        # elasticity matrix would act five hours off.
        series = synthetic_market(40, seed=1)
        history, study = series[: 30 * 24], series[30 * 24 + 5 : 37 * 24 + 5]
        with pytest.raises(ValueError, match="must start at 00:00, got a start at 2021-07-07T05:00"):
            run_scenario(history, study, fast_config())

    def test_overlapping_windows_rejected(self):
        series = synthetic_market(14, seed=56)
        with pytest.raises(ValueError):
            run_scenario(series[: 10 * 24], series[8 * 24 :], fast_config())

    def test_invalid_history_rejected(self):
        history, study = split_market(21, 7, seed=57)
        hole = np.s_[5 * 24 : 6 * 24]  # one day
        broken = [np.delete(column, hole) for column in reference.columns(history)]
        with pytest.raises(ValueError):
            run_scenario(RecordSeries(*broken), study, fast_config())


def test_fit_price_model_rejects_negative_mean_price():
    # Prices 1,000 $/MWh lower keep the same model up to its intercept, but
    # their mean is negative, which ferms cannot score.
    with pytest.raises(ZeroMeanActualError, match="mean of actual series must be positive"):
        fit_price_model(shifted_market(35, seed=1, shift=-1000.0))


class TestSplitTrainHoldout:
    def test_splits_last_days(self):
        series = synthetic_market(10, seed=58)
        train, holdout = split_train_holdout(series, 3)
        assert len(train) == 7 * 24 and len(holdout) == 3 * 24
        assert holdout.times[0] == series.times[7 * 24]

    def test_history_too_short(self):
        series = synthetic_market(3, seed=59)
        with pytest.raises(ValueError):
            split_train_holdout(series, 3)


class TestResultCsv:
    def test_bytes_match_per_row_reference(self, tmp_path):
        rng = np.random.default_rng(71)
        n = 48
        demand, forecast, dr_demand, updated = (rng.normal(0.0, 1e3, n) for _ in range(4))
        demand[:4] = [0.0, -0.0, 5e-324, 1e300]
        result = make_result(demand, forecast, dr_demand, updated, clamps=rng.random(n) < 0.3)
        columns = [demand, forecast, dr_demand, forecast, updated]  # baseline_spot_price is the forecast
        lines = [",".join(RESULT_COLUMNS)]
        for i, ts in enumerate(result.times.tolist()):
            cells = [repr(float(col[i])) for col in columns]
            flag = "1" if result.clamp_flags[i] else "0"
            lines.append(",".join([ts.isoformat(timespec="minutes"), *cells, flag]))
        write_result_csv(result, tmp_path)
        assert (tmp_path / "result.csv").read_text() == "\n".join(lines) + "\n"

    def test_header_and_values_round_trip(self, tmp_path):
        history, study = split_market(21, 7, seed=70)
        result = run_scenario(history, study, fast_config())
        write_result_csv(result, tmp_path)
        lines = (tmp_path / "result.csv").read_text().splitlines()
        assert lines[0] == ",".join(RESULT_COLUMNS)
        assert len(lines) == len(result) + 1
        first = lines[1].split(",")
        assert first[0] == result.times[0].item().isoformat(timespec="minutes")
        assert float(first[1]) == result.baseline_demand[0]
        assert float(first[5]) == result.updated_spot_price[0]
        assert first[6] in ("0", "1")
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(pipeline.RESULT_FILES)

    def test_memory_does_not_grow_with_the_window(self, tmp_path):
        """The writer's peak above its entry level is one block's: three
        blocks of hours peak within 10% (plus 64 KiB) of one block."""

        def extra_peak(n: int) -> int:
            rng = np.random.default_rng(n)
            result = make_result(*(rng.normal(0.0, 1e3, n) for _ in range(4)), clamps=rng.random(n) < 0.3)
            tracemalloc.start()
            try:
                entry = tracemalloc.get_traced_memory()[0]
                write_result_csv(result, tmp_path)
                return tracemalloc.get_traced_memory()[1] - entry
            finally:
                tracemalloc.stop()

        block = csv_text._BLOCK_VALUES
        one, three = extra_peak(block), extra_peak(3 * block)
        assert three <= 1.1 * one + 65536, (one, three)


@settings(max_examples=10, deadline=None)
@given(history_days=st.integers(14, 21), study_days=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_blocked_prices_equal_the_one_shot_prices_bit_for_bit(history_days, study_days, seed):
    """With blocks of about 7 hours, which cut days, the forecast and the
    re-price of run_scenario are the one-shot predict on the whole window,
    and no design of more than a block's hours is built for the window."""
    history, study = split_market(history_days, study_days, seed=seed)
    with mock.patch.object(csv_text, "_BLOCK_VALUES", 7):
        with mock.patch.object(pipeline, "design_matrix", wraps=design_matrix) as design:
            result = run_scenario(history, study, fast_config())
    assert max(len(call.args[0]) for call in design.call_args_list) <= 10  # equal blocks of about 7 hours
    model = result.model
    assert np.array_equal(result.forecast_price, predict(model, design_matrix(study, model.spec)))
    once = predict(model, design_matrix(study, model.spec, demand=result.dr_demand))
    assert np.array_equal(result.updated_spot_price, once)
    assert not np.array_equal(result.dr_demand, result.baseline_demand)


@pytest.mark.parametrize("extra", [-1, 1])
def test_window_prices_refuse_demand_of_another_length(extra):
    history, study = split_market(14, 2, seed=72)
    model = fit_price_model(history, fast_config())[1]
    with pytest.raises(LengthMismatchError, match=f"{len(study) + extra} demand values for {len(study)} hours"):
        pipeline.predict_window(model, study, demand=np.ones(len(study) + extra))


class TestScenarioConfig:
    @pytest.mark.parametrize("key", ["flat_rate", "ferms_gate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rate_and_gate_must_be_finite_and_positive(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite and > 0"):
            ScenarioConfig(**{key: value})


@settings(max_examples=12, deadline=None)
@given(
    history_days=st.integers(14, 28),
    study_days=st.integers(1, 10),
    seed=st.integers(0, 2**16),
    start=st.sampled_from([datetime(2021, 6, 7), datetime(2021, 12, 20), datetime(2020, 2, 24)]),
)
def test_zero_elasticity_leaves_market_exactly_unchanged(history_days, study_days, seed, start):
    history, study = split_market(history_days, study_days, seed=seed, start=start)
    result = run_scenario(history, study, fast_config(elasticity_table=ElasticityTable.zero()))
    assert np.array_equal(result.dr_demand, result.baseline_demand)
    assert np.array_equal(result.updated_spot_price, result.baseline_spot_price)
    assert not result.clamp_flags.any()


def _scaled(series: RecordSeries, price: float = 1.0, demand: float = 1.0, weather=lambda x: x) -> RecordSeries:
    """The series with its price and its demand times a factor each, and
    ``weather`` applied to its temperature and dew point."""
    return RecordSeries(
        series.times,
        series.demand * demand,
        series.spot_price * price,
        weather(series.dry_bulb_temp),
        weather(series.dew_point),
        holidays=series.holidays,
    )


def _choices(result: ScenarioResult) -> list[tuple]:
    return [(step.added, step.runner_up, step.disqualified) for step in result.selection]


def _ratios(result: ScenarioResult) -> tuple[float, float]:
    summary = impact_summary(result)
    return summary.delta_cost_pct, summary.delta_energy_pct


# Metamorphic properties of the whole study (Chen et al., ACM Comput. Surv.
# 51(1), 2018): a power of two changes no bit of a float but its exponent, so
# a change of unit by 2^k must scale what carries the unit by exactly 2^k and
# leave every scale-free output and every choice as it was. A draw that fails
# points to a constant in some unit, such as a dollar threshold or an MWh floor.
_unit_scales = st.sampled_from([2.0**-3, 2.0, 2.0**5])


@settings(max_examples=25, deadline=None)
@given(history_days=st.integers(14, 28), study_days=st.integers(1, 7), seed=st.integers(0, 2**16), scale=_unit_scales)
def test_price_and_flat_rate_in_another_unit_scale_the_prices_exactly(history_days, study_days, seed, scale):
    history, study = split_market(history_days, study_days, seed=seed)
    cfg = fast_config()
    base = run_scenario(history, study, cfg)
    scaled = run_scenario(
        _scaled(history, price=scale), _scaled(study, price=scale), fast_config(flat_rate=cfg.flat_rate * scale)
    )
    assert np.array_equal(scaled.forecast_price, base.forecast_price * scale)
    assert np.array_equal(scaled.updated_spot_price, base.updated_spot_price * scale)
    assert np.array_equal(scaled.dr_demand, base.dr_demand)
    assert np.array_equal(scaled.clamp_flags, base.clamp_flags)
    assert scaled.holdout_ferms == base.holdout_ferms
    assert scaled.model.spec == base.model.spec
    assert _choices(scaled) == _choices(base)
    assert _ratios(scaled) == _ratios(base)


@settings(max_examples=25, deadline=None)
@given(history_days=st.integers(14, 28), study_days=st.integers(1, 7), seed=st.integers(0, 2**16), scale=_unit_scales)
def test_demand_in_another_unit_scales_the_response_exactly(history_days, study_days, seed, scale):
    history, study = split_market(history_days, study_days, seed=seed)
    base = run_scenario(history, study, fast_config())
    scaled = run_scenario(_scaled(history, demand=scale), _scaled(study, demand=scale), fast_config())
    assert np.array_equal(scaled.dr_demand, base.dr_demand * scale)
    assert np.array_equal(scaled.clamp_flags, base.clamp_flags)
    assert np.array_equal(scaled.forecast_price, base.forecast_price)
    assert np.array_equal(scaled.updated_spot_price, base.updated_spot_price)
    assert scaled.holdout_ferms == base.holdout_ferms
    assert scaled.model.spec == base.model.spec
    assert _choices(scaled) == _choices(base)
    assert _ratios(scaled) == _ratios(base)


@settings(max_examples=25, deadline=None)
@given(history_days=st.integers(14, 28), study_days=st.integers(1, 7), seed=st.integers(0, 2**16), scale=_unit_scales)
def test_weather_in_another_unit_changes_nothing(history_days, study_days, seed, scale):
    history, study = split_market(history_days, study_days, seed=seed)
    base = run_scenario(history, study, fast_config())
    scaled = run_scenario(*(_scaled(part, weather=lambda x: x * scale) for part in (history, study)), fast_config())
    assert np.array_equal(scaled.forecast_price, base.forecast_price)
    assert np.array_equal(scaled.updated_spot_price, base.updated_spot_price)
    assert np.array_equal(scaled.dr_demand, base.dr_demand)
    assert np.array_equal(scaled.clamp_flags, base.clamp_flags)
    assert scaled.holdout_ferms == base.holdout_ferms
    assert scaled.model.spec == base.model.spec
    assert _choices(scaled) == _choices(base)


# Fahrenheit to Celsius is affine, not a power of two: with the intercept in
# the base, the weather columns span the same space, so the fit is the same up
# to rounding. Over 400 draws, no ferms of a trace moved by more than 7.5e-15
# points between the units, and the smallest trace margin was 3.3e-5 points; a
# draw with a margin below this bound is a near-tie that rounding may flip.
_ROUNDING_MARGIN = 1e-9


def _celsius(fahrenheit: np.ndarray) -> np.ndarray:
    return (fahrenheit - 32) * 5 / 9


@settings(max_examples=25, deadline=None)
@given(history_days=st.integers(14, 28), study_days=st.integers(1, 7), seed=st.integers(0, 2**16))
def test_weather_in_celsius_selects_the_same_model(history_days, study_days, seed):
    history, study = split_market(history_days, study_days, seed=seed)
    cfg = fast_config()
    assert "intercept" in cfg.base_features
    base = run_scenario(history, study, cfg)
    assume(min((step.margin for step in base.selection if step.margin is not None), default=1.0) >= _ROUNDING_MARGIN)
    celsius = run_scenario(_scaled(history, weather=_celsius), _scaled(study, weather=_celsius), cfg)
    assert celsius.model.spec == base.model.spec
    assert _choices(celsius) == _choices(base)
    np.testing.assert_allclose(celsius.forecast_price, base.forecast_price, rtol=1e-12, atol=0)
    np.testing.assert_allclose(celsius.updated_spot_price, base.updated_spot_price, rtol=1e-12, atol=0)

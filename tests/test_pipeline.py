from __future__ import annotations

import io
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import MONDAY, SYNTHETIC_CANDIDATES, build_series, shifted_market, synthetic_market
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
from drspot.regression import LengthMismatchError, ZeroMeanActualError, fit_ols


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
    def test_bytes_match_per_row_reference(self):
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
        buf = io.StringIO()
        write_result_csv(result, buf)
        assert buf.getvalue() == "\n".join(lines) + "\n"

    def test_header_and_values_round_trip(self):
        history, study = split_market(21, 7, seed=70)
        result = run_scenario(history, study, fast_config())
        buf = io.StringIO()
        write_result_csv(result, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(RESULT_COLUMNS)
        assert len(lines) == len(result) + 1
        first = lines[1].split(",")
        assert first[0] == result.times[0].item().isoformat(timespec="minutes")
        assert float(first[1]) == result.baseline_demand[0]
        assert float(first[5]) == result.updated_spot_price[0]
        assert first[6] in ("0", "1")


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

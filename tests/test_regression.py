from __future__ import annotations

from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import DATA_DIR, SYNTHETIC_CANDIDATES, build_series, synthetic_market
from drspot.config import load_settings
from drspot.market_data import RecordSeries, parse_hourly_csv
from drspot.pipeline import split_train_holdout
from drspot.regression import (
    DEFAULT_BASE_FEATURES,
    FULL_FEATURES,
    DimensionMismatchError,
    InsufficientDataError,
    LengthMismatchError,
    RankDeficientError,
    RegressionModel,
    SignificanceLevel,
    ZeroMeanActualError,
    design_matrix,
    ferms,
    fit_ols,
    forward_select,
    predict,
    significance_level,
    validate_feature_spec,
)
from drspot.regression import _append_trial


class TestFeatureSpec:
    def test_full_feature_set_is_valid(self):
        assert validate_feature_spec(FULL_FEATURES) == FULL_FEATURES
        assert len(FULL_FEATURES) == 31

    def test_intercept_must_be_first(self):
        with pytest.raises(ValueError):
            validate_feature_spec(("demand", "intercept"))
        with pytest.raises(ValueError):
            validate_feature_spec(("demand",))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            validate_feature_spec(("intercept", "demand", "demand"))

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError):
            validate_feature_spec(("intercept", "hour24"))


def one_hour_row(series, i, spec):
    """The design row of hour ``i`` alone, from a one-hour slice."""
    return design_matrix(series[i : i + 1], spec)[0]


class TestDesignRow:
    def _series_for_hour(self, hour_of_day):
        # one day starting Monday midnight; hour_of_day k is record k-1
        series = synthetic_market(1, seed=0)
        return series[hour_of_day - 1 : hour_of_day]

    def test_hour24_is_reference_level(self):
        hour = self._series_for_hour(24)
        assert hour.hour_of_day[0] == 24
        row = design_matrix(hour, FULL_FEATURES)[0]
        hour_block = row[1:24]
        assert np.all(hour_block == 0.0)

    def test_hour5_one_hot(self):
        row = design_matrix(self._series_for_hour(5), FULL_FEATURES)[0]
        hour_block = row[1:24]
        assert hour_block[4] == 1.0 and hour_block.sum() == 1.0

    def test_numeric_features_pass_through(self):
        hour = self._series_for_hour(14)
        row = design_matrix(hour, ("intercept", "demand", "temperature", "dew_point", "month"))[0]
        assert row[0] == 1.0
        assert row[1] == hour.demand[0]
        assert row[2] == hour.dry_bulb_temp[0]
        assert row[3] == hour.dew_point[0]
        assert row[4] == float(hour.month[0])

    def test_month_is_numeric_not_dummy(self):
        row = design_matrix(self._series_for_hour(1), ("intercept", "month"))[0]
        assert row[1] == 6.0  # June start

    def test_weekend_flags(self):
        series = synthetic_market(7, seed=0)  # Monday..Sunday
        row = one_hour_row(series, 5 * 24 + 3, ("intercept", "saturday", "sunday"))
        assert row[1] == 1.0 and row[2] == 0.0

    def test_design_matrix_matches_row_builder(self):
        series = synthetic_market(2, seed=1)
        matrix = design_matrix(series, FULL_FEATURES)
        hours = reference.hours(series)
        for i in (0, 17, 47):
            np.testing.assert_array_equal(matrix[i], one_hour_row(series, i, FULL_FEATURES))
            np.testing.assert_array_equal(matrix[i], reference.design_row(*hours[i], FULL_FEATURES))

    def test_design_matrix_demand_override(self):
        series = synthetic_market(1, seed=1)
        override = np.arange(24, dtype=float)
        spec = ("intercept", "demand", "temperature")
        matrix = design_matrix(series, spec, demand=override)
        assert np.array_equal(matrix[:, 1], override)
        assert np.array_equal(matrix[:, 2], series.dry_bulb_temp)


class TestFitOls:
    def test_constant_fit(self):
        model = fit_ols(np.ones((3, 1)), np.array([3.0, 3.0, 3.0]))
        assert model.coefficients[0] == pytest.approx(3.0)
        assert model.residual_variance == pytest.approx(0.0)
        assert model.n_obs == 3

    def test_exact_line(self):
        x = np.array([0.0, 1.0, 2.0])
        X = np.column_stack([np.ones(3), x])
        y = 1.0 + 2.0 * x
        model = fit_ols(X, y)
        np.testing.assert_allclose(model.coefficients, [1.0, 2.0], atol=1e-12)
        assert model.residual_variance == pytest.approx(0.0, abs=1e-24)

    def test_duplicate_column_rank_deficient(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=20)
        X = np.column_stack([np.ones(20), x, x])
        with pytest.raises(RankDeficientError) as excinfo:
            fit_ols(X, rng.normal(size=20), spec=("intercept", "a", "b"))
        assert excinfo.value.column == "b"

    def test_zero_column_rank_deficient(self):
        rng = np.random.default_rng(6)
        X = np.column_stack([np.ones(20), np.zeros(20)])
        with pytest.raises(RankDeficientError):
            fit_ols(X, rng.normal(size=20))

    def test_insufficient_data(self):
        X = np.column_stack([np.ones(2), np.array([0.0, 1.0])])
        with pytest.raises(InsufficientDataError):
            fit_ols(X, np.array([1.0, 3.0]))  # n == m

    def test_t_values_match_invariant(self):
        rng = np.random.default_rng(7)
        X = np.column_stack([np.ones(100), rng.normal(size=(100, 3))])
        y = X @ np.array([1.0, 2.0, -3.0, 0.5]) + rng.normal(0, 0.5, 100)
        model = fit_ols(X, y)
        np.testing.assert_allclose(model.t_values, model.coefficients / model.std_errors)
        assert np.all(model.std_errors > 0)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(8)
        X = np.column_stack([np.ones(200), rng.normal(size=(200, 6))])
        y = rng.normal(size=200) * 50
        model = fit_ols(X, y)
        residual = y - X @ model.coefficients
        assert np.abs(X.T @ residual).max() <= 1e-6 * np.abs(y).max()

    def test_exact_recovery_noiseless(self):
        rng = np.random.default_rng(9)
        X = np.column_stack([np.ones(120), rng.normal(size=(120, 5))])
        beta = rng.uniform(0.5, 5.0, 6) * rng.choice([-1, 1], 6)
        model = fit_ols(X, X @ beta)
        np.testing.assert_allclose(model.coefficients, beta, rtol=1e-8)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(10)
        X = np.column_stack([np.ones(80), rng.normal(size=(80, 4))])
        y = rng.normal(size=80)
        perm = rng.permutation(80)
        a = fit_ols(X, y).coefficients
        b = fit_ols(X[perm], y[perm]).coefficients
        np.testing.assert_allclose(a, b, rtol=1e-10)


class TestPredict:
    def test_zero_coefficients(self):
        model = fit_ols(np.column_stack([np.ones(3), [1.0, 2.0, 3.0]]), np.zeros(3))
        np.testing.assert_array_equal(predict(model, np.eye(2)), np.zeros(2))

    def test_intercept_only_constant(self):
        model = fit_ols(np.ones((5, 1)), np.full(5, 7.5))
        np.testing.assert_allclose(predict(model, np.ones((3, 1))), np.full(3, 7.5))

    def test_noiseless_round_trip(self):
        rng = np.random.default_rng(11)
        X = np.column_stack([np.ones(100), rng.normal(size=(100, 4))])
        beta = rng.uniform(1, 4, 5)
        y = X @ beta
        model = fit_ols(X, y)
        np.testing.assert_allclose(predict(model, X), y, rtol=1e-8)

    def test_dimension_mismatch(self):
        model = fit_ols(np.ones((3, 1)), np.array([1.0, 1.0, 1.0]))
        with pytest.raises(DimensionMismatchError):
            predict(model, np.ones((2, 3)))


class TestFerms:
    def test_perfect_forecast(self):
        assert ferms([100.0, 100.0], [100.0, 100.0]) == 0.0

    def test_symmetric_errors(self):
        assert ferms([110.0, 90.0], [100.0, 100.0]) == pytest.approx(10.0)

    def test_single_point(self):
        assert ferms([60.0], [50.0]) == pytest.approx(20.0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            ferms([1.0, 2.0], [1.0])
        with pytest.raises(LengthMismatchError):
            ferms([], [])

    def test_zero_mean_actual(self):
        with pytest.raises(ZeroMeanActualError):
            ferms([1.0, -1.0], [1.0, -1.0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        actual = rng.uniform(10, 100, 50)
        forecast = actual + rng.normal(0, 5, 50)
        base = ferms(forecast, actual)
        for c in (0.1, 3.0, 250.0):
            assert ferms(c * forecast, c * actual) == pytest.approx(base, rel=1e-12)

    def test_non_negative_and_zero_iff_equal(self):
        rng = np.random.default_rng(13)
        actual = rng.uniform(10, 100, 20)
        assert ferms(actual, actual) == 0.0
        assert ferms(actual + 0.01, actual) > 0.0


class TestSignificance:
    def test_representative_magnitudes(self):
        assert significance_level(20.66) is SignificanceLevel.ONE_PERCENT
        assert significance_level(0.02) is SignificanceLevel.NOT_SIGNIFICANT
        assert significance_level(-1.5) is SignificanceLevel.TEN_PERCENT

    def test_thresholds_inclusive(self):
        assert significance_level(2.45) is SignificanceLevel.ONE_PERCENT
        assert significance_level(1.69) is SignificanceLevel.FIVE_PERCENT
        assert significance_level(1.3) is SignificanceLevel.TEN_PERCENT
        assert significance_level(1.2999) is SignificanceLevel.NOT_SIGNIFICANT

    def test_even_function(self):
        for t in (0.0, 0.5, 1.3, 1.5, 1.69, 2.0, 2.45, 10.0):
            assert significance_level(t) is significance_level(-t)

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            significance_level(1.0, thresholds=(2.0, 1.0, 3.0))
        with pytest.raises(ValueError):
            significance_level(1.0, thresholds=(0.0, 1.0, 2.0))

    def test_star_markers(self):
        assert SignificanceLevel.ONE_PERCENT.value == "**"
        assert SignificanceLevel.FIVE_PERCENT.value == "*"
        assert SignificanceLevel.TEN_PERCENT.value == "+"
        assert SignificanceLevel.NOT_SIGNIFICANT.value == ""


class TestForwardSelect:
    def _demand_driven_series(self, days, seed, noise=0.1):
        rng = np.random.default_rng(seed)
        n = days * 24
        demand = rng.uniform(1000, 3000, n)
        temp = rng.uniform(60, 90, n)      # pure noise w.r.t. price
        dew = rng.uniform(50, 70, n)       # pure noise w.r.t. price
        price = 5.0 + 0.01 * demand + rng.normal(0, noise, n)
        return build_series(demand, price, temp, dew)

    def test_recovers_demand_feature(self):
        train = self._demand_driven_series(14, seed=10)
        holdout = self._demand_driven_series(7, seed=11, noise=0.1)
        spec, model = forward_select(SYNTHETIC_CANDIDATES, train, holdout, base=("intercept",))
        assert "demand" in spec
        base_model = fit_ols(design_matrix(train, ("intercept",)), train.spot_price, spec=("intercept",))
        base_score = ferms(predict(base_model, design_matrix(holdout, ("intercept",))), holdout.spot_price)
        final_score = ferms(predict(model, design_matrix(holdout, spec)), holdout.spot_price)
        assert final_score <= base_score
        # noise-only regressors stay out on this data
        assert "temperature" not in spec and "dew_point" not in spec

    def test_empty_pool_returns_base(self):
        train = self._demand_driven_series(10, seed=22)
        holdout = self._demand_driven_series(3, seed=23)
        base = ("intercept", "demand")
        spec, model = forward_select(base, train, holdout, base=base)
        assert spec == base
        assert model.spec == base

    def test_numerically_duplicate_candidate_disqualified(self):
        rng = np.random.default_rng(24)
        n = 10 * 24
        demand = rng.uniform(1000, 3000, n)
        temp = rng.uniform(60, 90, n)
        price = 2.0 + 0.5 * temp + rng.normal(0, 0.1, n)
        train = build_series(demand, price, temp, dew=temp)  # dew_point duplicates temperature
        holdout_slice = train[8 * 24 :]
        train_slice = train[: 8 * 24]
        base = ("intercept", "temperature")
        spec, _ = forward_select(
            ("intercept", "temperature", "dew_point"), train_slice, holdout_slice, base=base
        )
        assert spec == base

    def test_base_must_be_subset_of_candidates(self):
        train = self._demand_driven_series(10, seed=25)
        holdout = self._demand_driven_series(3, seed=26)
        with pytest.raises(ValueError):
            forward_select(("intercept", "demand"), train, holdout, base=("intercept", "month"))

    def test_never_worse_than_base(self):
        for seed in range(4):
            series = synthetic_market(21, seed=seed)
            train, holdout = series[: 14 * 24], series[14 * 24 :]
            base = ("intercept",)
            spec, model = forward_select(SYNTHETIC_CANDIDATES, train, holdout, base=base)
            base_model = fit_ols(design_matrix(train, base), train.spot_price, spec=base)
            base_score = ferms(predict(base_model, design_matrix(holdout, base)), holdout.spot_price)
            final_score = ferms(predict(model, design_matrix(holdout, spec)), holdout.spot_price)
            assert final_score <= base_score


class TestModelSerialization:
    def _model(self):
        rng = np.random.default_rng(30)
        X = np.column_stack([np.ones(100), rng.normal(size=(100, 2))])
        y = X @ np.array([2.0, -1.0, 0.002]) + rng.normal(0, 0.5, 100)
        return fit_ols(X, y, spec=("intercept", "a", "b"))

    def test_json_round_trip(self):
        model = self._model()
        doc = model.to_json_dict()
        clone = RegressionModel.from_json_dict(doc)
        assert clone.spec == model.spec
        np.testing.assert_array_equal(clone.coefficients, model.coefficients)
        np.testing.assert_array_equal(clone.std_errors, model.std_errors)
        assert clone.n_obs == model.n_obs

    def test_json_has_significance_markers(self):
        doc = self._model().to_json_dict()
        assert {f["significance"] for f in doc["features"]} <= {"**", "*", "+", ""}
        assert [f["name"] for f in doc["features"]] == ["intercept", "a", "b"]

    def test_table_text_lists_features(self):
        text = self._model().table_text()
        assert "intercept" in text and "t-value" in text


class TestDesignMatrixColumns:
    def _series(self):
        # Friday 2021-05-28 .. Tuesday 2021-06-08: month change, weekends, a
        # holiday (Memorial Day, 2021-05-31) and twelve hour-24 rows.
        return synthetic_market(12, seed=2, start=datetime(2021, 5, 28), holidays={date(2021, 5, 31)})

    @pytest.mark.parametrize("override", [False, True])
    def test_every_feature_matches_row_reference(self, override):
        series = self._series()
        demand = np.random.default_rng(3).uniform(0, 5000, len(series)) if override else series.demand
        matrix = design_matrix(series, FULL_FEATURES, demand=demand if override else None)
        expected = np.array(
            [
                reference.design_row(record, cal, FULL_FEATURES, demand[i])
                for i, (record, cal) in enumerate(reference.hours(series))
            ]
        )
        assert matrix.dtype == np.float64
        assert np.array_equal(matrix, expected)
        assert np.all(matrix[23::24, 1:24] == 0.0)  # hour 24 rows
        for name in ("holiday", "saturday", "sunday"):
            assert matrix[:, FULL_FEATURES.index(name)].any(), name

    def test_row_builder_matches_row_reference(self):
        series = self._series()
        for i, (record, cal) in enumerate(reference.hours(series)):
            np.testing.assert_array_equal(
                one_hour_row(series, i, FULL_FEATURES),
                reference.design_row(record, cal, FULL_FEATURES, record.demand),
            )

    def test_feature_order_follows_spec(self):
        series = self._series()
        spec = ("intercept", "sunday", "hour3", "demand", "month")
        full = design_matrix(series, FULL_FEATURES)
        assert np.array_equal(
            design_matrix(series, spec), full[:, [FULL_FEATURES.index(n) for n in spec]]
        )

    def test_empty_series(self):
        empty = RecordSeries([], [], [], [], [], [])
        assert design_matrix(empty, FULL_FEATURES).shape == (0, len(FULL_FEATURES))


def refit_forward_select(candidates, train, holdout, base, tol=0.0):
    """Forward selection that refits every trial from scratch with fit_ols:
    the reference the incremental-QR search must reproduce. Also returns
    the disqualified candidates."""
    train_full = design_matrix(train, candidates)
    holdout_full = design_matrix(holdout, candidates)
    y_train, y_holdout = train.spot_price, holdout.spot_price

    def trial(spec):
        idx = [candidates.index(name) for name in spec]
        model = fit_ols(train_full[:, idx], y_train, spec=spec)
        return model, ferms(predict(model, holdout_full[:, idx]), y_holdout)

    selected = list(base)
    model, best_score = trial(selected)
    pool = [name for name in candidates if name not in base]
    disqualified = []
    while pool:
        best = None
        for name in list(pool):
            try:
                trial_model, score = trial(selected + [name])
            except RankDeficientError:
                disqualified.append(name)
                pool.remove(name)
                continue
            if best_score - score > tol and (best is None or score < best[2]):
                best = (name, trial_model, score)
        if best is None:
            break
        name, model, best_score = best
        selected.append(name)
        pool.remove(name)
    return tuple(selected), model, disqualified


def assert_same_model(a: RegressionModel, b: RegressionModel):
    assert a.spec == b.spec
    assert a.n_obs == b.n_obs
    assert a.residual_variance == b.residual_variance
    for field in ("coefficients", "std_errors", "t_values"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


class TestSelectionMatchesRefit:
    def _check(self, candidates, train, holdout, base):
        spec, model = forward_select(candidates, train, holdout, base=base)
        ref_spec, ref_model, disqualified = refit_forward_select(candidates, train, holdout, base)
        assert spec == ref_spec
        assert_same_model(model, ref_model)
        return spec, disqualified

    def test_bundled_data(self):
        cfg = load_settings(DATA_DIR / "scenario.json")
        series = parse_hourly_csv(DATA_DIR / "synthetic_market.csv", holidays=cfg.holidays)
        history = series.between(series.times[0], datetime(2021, 8, 9))
        train, holdout = split_train_holdout(history, cfg.scenario.holdout_days)
        spec, _ = self._check(FULL_FEATURES, train, holdout, DEFAULT_BASE_FEATURES)
        assert len(spec) > 20

    def test_collinear_candidates_disqualified(self):
        # Three weeks of June: month is constant (collinear with the
        # intercept) and there are no holidays (an all-zero column).
        series = synthetic_market(21, seed=3)
        train, holdout = series[: 14 * 24], series[14 * 24 :]
        spec, disqualified = self._check(FULL_FEATURES, train, holdout, DEFAULT_BASE_FEATURES)
        assert {"month", "holiday"} <= set(disqualified)
        assert "month" not in spec and "holiday" not in spec

    def test_market_across_month_and_holiday(self):
        holidays = {date(2021, 5, 31), date(2021, 6, 7)}
        series = synthetic_market(35, seed=5, start=datetime(2021, 5, 10), holidays=holidays)
        train, holdout = series[: 28 * 24], series[28 * 24 :]
        _, disqualified = self._check(FULL_FEATURES, train, holdout, ("intercept",))
        assert disqualified == []

    def test_insufficient_data_raised_like_refit(self):
        train = build_series([1000.0, 1200.0, 900.0], [30.0, 35.0, 28.0], temp=[70.0, 75.0, 71.0])
        holdout = build_series([1100.0, 950.0], [32.0, 29.0], temp=[72.0, 69.0])
        candidates = ("intercept", "demand", "temperature")
        with pytest.raises(InsufficientDataError):
            refit_forward_select(candidates, train, holdout, ("intercept", "demand"))
        with pytest.raises(InsufficientDataError):
            forward_select(candidates, train, holdout, base=("intercept", "demand"))


@pytest.mark.parametrize(
    "make_x, deficient",
    [
        (lambda X, rng: X @ np.array([2.0, -3.0]), True),  # inside the span of X
        (lambda X, rng: rng.normal(size=len(X)), False),
        # so large that an existing R diagonal entry falls below the tolerance
        (lambda X, rng: 1e12 * rng.normal(size=len(X)), True),
    ],
    ids=["in_span", "independent", "dwarfs_existing"],
)
def test_appended_trial_rank_rule_matches_fit_ols(make_x, deficient):
    rng = np.random.default_rng(14)
    X = np.column_stack([np.ones(50), rng.normal(size=50)])
    y = rng.normal(size=50)
    x = make_x(X, rng)
    q, r = np.linalg.qr(X)
    assert (_append_trial(q, r, q.T @ y, x, y) is None) == deficient
    if deficient:
        with pytest.raises(RankDeficientError):
            fit_ols(np.column_stack([X, x]), y)
    else:
        fit_ols(np.column_stack([X, x]), y)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 8),
    extra_rows=st.integers(2, 150),
)
def test_appended_trial_matches_fit_ols(seed, k, extra_rows):
    rng = np.random.default_rng(seed)
    n = k + extra_rows
    scales = rng.uniform(1.0, 100.0, k + 1)
    X = rng.normal(size=(n, k + 1)) * scales
    X[:, 0] = 1.0
    beta_true = rng.uniform(0.5, 5.0, k + 1) * rng.choice([-1.0, 1.0], k + 1) / scales
    y = X @ beta_true + rng.normal(0.0, 1e-3, n)
    q, r = np.linalg.qr(X[:, :k])
    trial = _append_trial(q, r, q.T @ y, X[:, k], y)
    assert trial is not None
    np.testing.assert_allclose(trial[0], fit_ols(X, y).coefficients, rtol=1e-9)

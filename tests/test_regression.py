from __future__ import annotations

from datetime import date, datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import DATA_DIR, MONDAY, SYNTHETIC_CANDIDATES, build_series, synthetic_market
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
    SelectionStep,
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
from drspot import compression, regression
from drspot.regression import _PoolResiduals


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

    def test_negative_mean_actual(self):
        # Dividing by a negative mean would score a larger error lower.
        with pytest.raises(ZeroMeanActualError, match=r"got -2\.0$"):
            ferms([-1.0, -2.0], [-1.5, -2.5])

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
        spec, model, _ = forward_select(SYNTHETIC_CANDIDATES, train, holdout, base=("intercept",))
        assert "demand" in spec
        base_model = reference.fit_ols(design_matrix(train, ("intercept",)), train.spot_price, spec=("intercept",))
        base_score = ferms(predict(base_model, design_matrix(holdout, ("intercept",))), holdout.spot_price)
        final_score = ferms(predict(model, design_matrix(holdout, spec)), holdout.spot_price)
        assert final_score <= base_score
        # noise-only regressors stay out on this data
        assert "temperature" not in spec and "dew_point" not in spec

    def test_empty_pool_returns_base(self):
        train = self._demand_driven_series(10, seed=22)
        holdout = self._demand_driven_series(3, seed=23)
        base = ("intercept", "demand")
        spec, model, _ = forward_select(base, train, holdout, base=base)
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
        spec, _, _ = forward_select(
            ("intercept", "temperature", "dew_point"), train_slice, holdout_slice, base=base
        )
        assert spec == base

    def test_base_must_be_subset_of_candidates(self):
        train = self._demand_driven_series(10, seed=25)
        holdout = self._demand_driven_series(3, seed=26)
        with pytest.raises(ValueError):
            forward_select(("intercept", "demand"), train, holdout, base=("intercept", "month"))

    def test_rank_deficient_base_names_the_column(self):
        # Three weeks of June: month is constant, a multiple of the intercept.
        series = synthetic_market(21, seed=3)
        train, holdout = series[: 14 * 24], series[14 * 24 :]
        with pytest.raises(RankDeficientError) as info:
            forward_select(FULL_FEATURES, train, holdout, base=("intercept", "month"))
        assert info.value.column == "month"

    def test_base_wider_than_train_rows(self):
        series = synthetic_market(3, seed=3)
        train, holdout = series[:20], series[24:]
        base = FULL_FEATURES[:25]  # intercept, hour1..hour23, demand
        with pytest.raises(InsufficientDataError) as info:
            forward_select(FULL_FEATURES, train, holdout, base=base)
        assert (info.value.n_obs, info.value.n_features) == (20, 25)

    def test_empty_train(self):
        series = synthetic_market(3, seed=3)
        with pytest.raises(InsufficientDataError) as info:
            forward_select(FULL_FEATURES, series[:0], series[24:])
        assert (info.value.n_obs, info.value.n_features) == (0, 2)

    def test_never_worse_than_base(self):
        for seed in range(4):
            series = synthetic_market(21, seed=seed)
            train, holdout = series[: 14 * 24], series[14 * 24 :]
            base = ("intercept",)
            spec, model, _ = forward_select(SYNTHETIC_CANDIDATES, train, holdout, base=base)
            base_model = reference.fit_ols(design_matrix(train, base), train.spot_price, spec=base)
            base_score = ferms(predict(base_model, design_matrix(holdout, base)), holdout.spot_price)
            final_score = ferms(predict(model, design_matrix(holdout, spec)), holdout.spot_price)
            assert final_score <= base_score


class TestModelSerialization:
    def _model(self):
        rng = np.random.default_rng(30)
        X = np.column_stack([np.ones(100), rng.normal(size=(100, 2))])
        y = X @ np.array([2.0, -1.0, 0.002]) + rng.normal(0, 0.5, 100)
        return fit_ols(X, y, spec=("intercept", "a", "b"))

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
        empty = RecordSeries([], [], [], [], [])
        assert design_matrix(empty, FULL_FEATURES).shape == (0, len(FULL_FEATURES))

    @pytest.mark.parametrize("override", [False, True])
    def test_out_is_filled_in_place_and_returned(self, override):
        series = self._series()
        demand = np.random.default_rng(3).uniform(0, 5000, len(series)) if override else None
        expected = design_matrix(series, FULL_FEATURES, demand=demand)
        # The leading columns of a wider Fortran-order block, as forward_select passes them.
        block = np.full((len(series), len(FULL_FEATURES) + 1), np.nan, order="F")
        out = block[:, :-1]
        assert design_matrix(series, FULL_FEATURES, demand=demand, out=out) is out
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
        assert np.isnan(block[:, -1]).all()

    @pytest.mark.parametrize("delta", [(-1, 0), (1, 0), (0, -1), (0, 1)])
    def test_wrong_shaped_out_rejected(self, delta):
        series = self._series()
        shape = (len(series) + delta[0], len(FULL_FEATURES) + delta[1])
        with pytest.raises(DimensionMismatchError):
            design_matrix(series, FULL_FEATURES, out=np.empty(shape, order="F"))


def refit_forward_select(candidates, train, holdout, base):
    """Forward selection that refits every trial from scratch with the
    Householder fit of ``reference``: the reference the residual-update
    search must reproduce. The copies (``reference.copies``) are
    disqualified at the first step, untried. Also returns the disqualified
    candidates and the selection trace."""
    train_full = design_matrix(train, candidates)
    holdout_full = design_matrix(holdout, candidates)
    y_train, y_holdout = train.spot_price, holdout.spot_price
    base_idx = [candidates.index(name) for name in base]
    copies = {candidates[j] for j in reference.copies(train_full, holdout_full, base_idx)}

    def trial(spec):
        idx = [candidates.index(name) for name in spec]
        model = reference.fit_ols(train_full[:, idx], y_train, spec=spec)
        return model, ferms(predict(model, holdout_full[:, idx]), y_holdout)

    selected = list(base)
    model, best_score = trial(selected)
    pool = [name for name in candidates if name not in base]
    disqualified = []
    steps = []
    while pool:
        best = None
        scores = {}
        step_disqualified = []
        for name in list(pool):
            try:
                if name in copies:
                    raise RankDeficientError(name)
                trial_model, score = trial(selected + [name])
            except RankDeficientError:
                disqualified.append(name)
                step_disqualified.append(name)
                pool.remove(name)
                continue
            scores[name] = score
            if score < best_score and (best is None or score < best[2]):
                best = (name, trial_model, score)
        if best is not None:
            name, model, best_score = best
            selected.append(name)
            pool.remove(name)
            del scores[name]
        # min() keeps the first of equal scores, in pool order
        runner_up = min(scores, key=scores.get) if scores else None
        steps.append(
            SelectionStep(
                added=None if best is None else best[0],
                ferms=best_score,
                runner_up=runner_up,
                runner_up_ferms=scores.get(runner_up),
                disqualified=tuple(step_disqualified),
            )
        )
        if best is None:
            break
    return tuple(selected), model, disqualified, steps


def assert_close_model(a: RegressionModel, b: RegressionModel):
    """``a`` is the refit ``b`` up to rounding. Over 151 random markets of
    the property below, the worst cases were 5.7e-13 standard errors on a
    coefficient, rel 1.2e-14 on a standard error and rel 2.0e-15 on the
    residual variance."""
    assert a.spec == b.spec
    assert a.n_obs == b.n_obs
    assert a.residual_variance == pytest.approx(b.residual_variance, rel=1e-12)
    # Within rel 1e-10 wherever |t| >= 0.1; a coefficient far inside its
    # standard error may move more. Past |t| of about 1e4 the standard error
    # bound falls below a few roundings of the coefficient itself, hence the
    # floor of 8 eps |coefficient|.
    bound = np.maximum(1e-11 * b.std_errors, 8 * np.finfo(float).eps * np.abs(b.coefficients))
    assert np.all(np.abs(a.coefficients - b.coefficients) <= bound)
    np.testing.assert_allclose(a.std_errors, b.std_errors, rtol=1e-12)
    np.testing.assert_allclose(a.t_values, b.t_values, rtol=1e-12, atol=1e-11)


def select_with_pool(candidates, train, holdout, base=DEFAULT_BASE_FEATURES, trace=None):
    """``forward_select``'s spec and model, and the factorization it
    selected with; the factorization's ``rxy`` is its compressed ``[X y]``
    before any append."""
    pools = []

    class Recorded(_PoolResiduals):
        def __init__(self, *args):
            super().__init__(*args)
            self.rxy = self.v[:, : self.t].T.copy()
            pools.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regression, "_PoolResiduals", Recorded)
        spec, model, _ = forward_select(candidates, train, holdout, base=base, trace=trace)
    return spec, model, pools[0]


def _bits(value) -> np.ndarray:
    return np.asarray(value, dtype=float).view(np.uint64)


def assert_model_from_pool(model: RegressionModel, pool: _PoolResiduals, candidates, train: RecordSeries):
    """The model is the solve and the statistics on the pool's own R,
    ``Q.T @ y`` and ``y``'s training row (the residual on the compressed
    ``[X y]``), bit for bit; that R and ``Q.T @ y`` belong to the selected
    columns, ``R.T @ R == X.T @ X`` and ``R.T @ Q.T @ y == X.T @ y``, and the
    compressed ``[X y]`` to the training rows, up to rounding."""
    k, m = pool.k, len(candidates)
    idx = [candidates.index(name) for name in model.spec]
    # The candidates' design and price, as forward_select takes them
    xy = np.column_stack([design_matrix(train, candidates), train.spot_price])
    X, y, rxy = xy[:, idx], xy[:, m], pool.rxy
    r, qty, residual = pool.r[:k, :k], pool.c[:k, -1], pool.v[-1, : pool.t]
    assert k == len(model.spec)
    coefficients = np.linalg.solve(r, qty)
    residual_variance = float(residual @ residual) / (len(train) - k)
    r_inv = np.linalg.solve(r, np.eye(k))
    std_errors = np.sqrt(np.maximum(residual_variance * np.einsum("ij,ij->i", r_inv, r_inv), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_values = coefficients / std_errors
    t_values = np.where(np.isnan(t_values), 0.0, t_values)
    assert model.n_obs == len(train)
    for field, expected in zip(
        ("coefficients", "std_errors", "t_values", "residual_variance"),
        (coefficients, std_errors, t_values, residual_variance),
    ):
        assert np.array_equal(_bits(getattr(model, field)), _bits(expected)), field
    norms = np.linalg.norm(X, axis=0)
    assert np.all(np.abs(r.T @ r - X.T @ X) <= 1e-13 * np.outer(norms, norms))
    assert np.all(np.abs(r.T @ qty - X.T @ y) <= 1e-13 * norms * np.linalg.norm(y))
    norms = np.linalg.norm(xy, axis=0)
    assert np.all(np.abs(rxy.T @ rxy - xy.T @ xy) <= 1e-13 * np.outer(norms, norms))


def _long_double_residual_variance(train: RecordSeries, spec) -> np.longdouble:
    """The residual variance of ``train``'s price on ``spec``, with the
    residual in long double at coefficients refined in long double."""
    X64 = design_matrix(train, spec)
    X, y = X64.astype(np.longdouble), train.spot_price.astype(np.longdouble)
    b = np.linalg.lstsq(X64, train.spot_price, rcond=None)[0].astype(np.longdouble)
    for _ in range(3):
        b += np.linalg.lstsq(X64, (y - X @ b).astype(float), rcond=None)[0]
    residual = y - X @ b
    return residual @ residual / (len(y) - len(spec))


@pytest.mark.parametrize("noise_sd", [1.0, 1e-2])
def test_residual_variance_matches_extended_precision(noise_sd):
    # y's row of the pool, the residual on the compressed [X y], cancels
    # terms of the size of |y| to leave one of the size of the noise, so its
    # relative error grows as the noise shrinks (worst over these markets:
    # 3.1e-15 at sd 1, 5.2e-13 at sd 1e-2, 6.5e-11 at 1e-4, 3.9e-9 at 1e-6).
    for days in (21, 63):
        for seed in range(5):
            series = synthetic_market(days, seed=seed, noise_sd=noise_sd)
            train, holdout = split_train_holdout(series, 7)
            spec, model, _ = forward_select(FULL_FEATURES, train, holdout)
            expected = _long_double_residual_variance(train, spec)
            assert abs(np.longdouble(model.residual_variance) - expected) <= 1e-12 * expected, (days, seed)


def assert_same_trace(steps, ref_steps):
    assert len(steps) == len(ref_steps)
    for step, ref in zip(steps, ref_steps):
        assert (step.added, step.runner_up, step.disqualified) == (ref.added, ref.runner_up, ref.disqualified)
        assert step.ferms == pytest.approx(ref.ferms, rel=1e-9)
        assert step.runner_up_ferms == pytest.approx(ref.runner_up_ferms, rel=1e-9)
        assert step.margin == pytest.approx(ref.margin, rel=1e-6, abs=1e-9)


def _bundled_split():
    cfg = load_settings(DATA_DIR / "scenario.json")
    series = parse_hourly_csv(DATA_DIR / "synthetic_market.csv", holidays=cfg.holidays)
    return split_train_holdout(series.between(series.times[0], datetime(2021, 8, 9)), cfg.scenario.holdout_days)


def _copied_pair_split(pair):
    """Two weeks of training and one of holdout in which ``pair``'s second
    column has the bytes of its first: dew point a copy of temperature, or
    every Saturday a holiday."""
    market = synthetic_market(21, seed=4)
    saturdays = {day.item() for day in np.unique(market.times.astype("datetime64[D]")) if day.item().weekday() == 5}
    dew, holidays = (market.dry_bulb_temp.copy(), ()) if "dew_point" in pair else (market.dew_point, saturdays)
    series = RecordSeries(market.times, market.demand, market.spot_price, market.dry_bulb_temp, dew, holidays=holidays)
    return series[: 14 * 24], series[14 * 24 :]


def _moved(last, first=None):
    """All features, with ``last`` moved to the end and ``first``, if given,
    just after the intercept."""
    middle = (name for name in FULL_FEATURES[1:] if name not in (first, last))
    return ("intercept", *([first] if first else []), *middle, last)


class TestSelectionMatchesRefit:
    def _check(self, candidates, train, holdout, base):
        trace = []
        spec, model, pool = select_with_pool(candidates, train, holdout, base=base, trace=trace)
        ref_spec, ref_model, disqualified, ref_trace = refit_forward_select(candidates, train, holdout, base)
        assert spec == ref_spec
        assert_close_model(model, ref_model)
        assert_model_from_pool(model, pool, candidates, train)
        assert_same_trace(trace, ref_trace)
        return spec, disqualified

    def test_bundled_data(self):
        train, holdout = _bundled_split()
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

    @pytest.mark.parametrize(
        "base", [("intercept", "demand"), ("intercept", "demand", "temperature")], ids=["update", "block"]
    )
    def test_nearly_collinear_candidate(self, base):
        # dew_point is temperature plus noise of about 1e-9: its residual
        # against temperature sits just above rounding and below the rank
        # rule. With temperature in the pool, its residual comes from the
        # update that selects temperature; with temperature in the base, from
        # the update that appends the base.
        market = synthetic_market(28, seed=9)
        dew = market.dry_bulb_temp + np.random.default_rng(9).normal(0.0, 1e-9, len(market))
        series = RecordSeries(market.times, market.demand, market.spot_price, market.dry_bulb_temp, dew)
        train, holdout = series[: 21 * 24], series[21 * 24 :]
        spec, disqualified = self._check(FULL_FEATURES, train, holdout, base)
        kept = {"temperature", "dew_point"} & set(spec)
        assert len(kept) == 1
        assert ({"temperature", "dew_point"} - kept) <= set(disqualified)

    def test_exact_tie_goes_to_earlier_candidate(self):
        # dew_point is an exact copy of temperature, in training and in the
        # holdout, so the two would tie: temperature comes first in the pool
        # and is kept, and dew_point is disqualified at the first step
        # without a trial.
        train, holdout = _copied_pair_split(("temperature", "dew_point"))
        self._check(SYNTHETIC_CANDIDATES, train, holdout, DEFAULT_BASE_FEATURES)
        trace = []
        spec, _, _ = forward_select(SYNTHETIC_CANDIDATES, train, holdout, trace=trace)
        assert (trace[0].added, trace[0].disqualified) == ("temperature", ("dew_point",))
        assert trace[0].runner_up != "dew_point" and "dew_point" not in spec

    @pytest.mark.parametrize(
        "pair, candidates",
        [
            (("temperature", "dew_point"), FULL_FEATURES),
            (("temperature", "dew_point"), _moved("dew_point")),
            (("dew_point", "temperature"), _moved("temperature", first="dew_point")),
            (("holiday", "saturday"), FULL_FEATURES),
            (("saturday", "holiday"), _moved("holiday", first="saturday")),
        ],
        ids=["adjacent", "later_last", "first_and_last", "calendar_adjacent", "calendar_first_and_last"],
    )
    def test_bit_identical_columns_tie_at_any_position(self, pair, candidates):
        # Two candidates with the same bytes, in and out of the holdout: the
        # copy of dew_point is temperature, and with every Saturday a holiday
        # the holiday column is the Saturday column. Wherever the two stand,
        # the later one is disqualified at the first step, before any trial
        # could score it, and the earlier one is selected as without it.
        train, holdout = _copied_pair_split(pair)
        earlier, later = (candidates.index(name) for name in pair)
        candidates_ok = []

        class Recorded(_PoolResiduals):
            def trials(self):
                ok, error = super().trials()
                candidates_ok.append(ok[[earlier, later]].tolist())
                return ok, error

        trace = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(regression, "_PoolResiduals", Recorded)
            spec, _, _ = forward_select(candidates, train, holdout, trace=trace)
        assert candidates_ok[0] == [True, False]
        assert pair[1] in trace[0].disqualified
        assert all(pair[1] not in (step.added, step.runner_up) for step in trace)
        assert pair[0] in spec and pair[1] not in spec
        self._check(candidates, train, holdout, DEFAULT_BASE_FEATURES)

    @pytest.mark.parametrize("pair", [("temperature", "dew_point"), ("saturday", "holiday")])
    def test_copy_of_a_base_column_is_the_one_dropped(self, pair):
        # The base column stands later in the pool than its copy: the copy is
        # disqualified at the first step, and the base is fitted.
        train, holdout = _copied_pair_split(pair)
        candidates = _moved(pair[0], first=pair[1])
        base = ("intercept", "demand", pair[0])
        trace = []
        spec, _, _ = forward_select(candidates, train, holdout, base=base, trace=trace)
        assert spec[:3] == base and pair[1] not in spec
        assert pair[1] in trace[0].disqualified
        self._check(candidates, train, holdout, base)

    @pytest.mark.parametrize("pair", [("temperature", "dew_point"), ("dew_point", "temperature")])
    def test_two_base_copies_name_the_later(self, pair):
        train, holdout = _copied_pair_split(("temperature", "dew_point"))
        with pytest.raises(RankDeficientError) as info:
            forward_select(FULL_FEATURES, train, holdout, base=("intercept", *pair))
        assert info.value.column == pair[1]

    @pytest.mark.parametrize("market", ["bundled", "month_and_holiday"])
    def test_in_place_design_selects_like_a_copied_one(self, market):
        # The reference fills a new design and copies it into forward_select's
        # [X y]: the selection, the model and the trace are the same bits.
        if market == "bundled":
            train, holdout = _bundled_split()
        else:
            holidays = {date(2021, 5, 31), date(2021, 6, 7)}
            series = synthetic_market(35, seed=5, start=datetime(2021, 5, 10), holidays=holidays)
            train, holdout = series[: 28 * 24], series[28 * 24 :]

        def by_copy(series, spec, demand=None, out=None):
            rows = design_matrix(series, spec, demand)
            if out is None:
                return rows
            out[...] = rows
            return out

        trace, ref_trace = [], []
        spec, model, holdout_ferms = forward_select(FULL_FEATURES, train, holdout, trace=trace)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(regression, "design_matrix", by_copy)
            ref_spec, ref_model, ref_holdout_ferms = forward_select(FULL_FEATURES, train, holdout, trace=ref_trace)
        assert (spec, holdout_ferms) == (ref_spec, ref_holdout_ferms)
        for field in ("coefficients", "std_errors", "t_values"):
            assert np.array_equal(getattr(model, field).view(np.uint64), getattr(ref_model, field).view(np.uint64))
        assert model.residual_variance == ref_model.residual_variance
        assert [step.to_json_dict() for step in trace] == [step.to_json_dict() for step in ref_trace]

    @pytest.mark.parametrize("candidates", [FULL_FEATURES, SYNTHETIC_CANDIDATES], ids=["full", "compact"])
    def test_training_window_shorter_than_its_calendar_rows(self, candidates):
        # 30 training hours from a Monday fall in 24 calendar groups, so the
        # pool starts from 24 group rows and the deviations' R: 29 rows with
        # all features, one fewer than the training rows' own R, which zero
        # rows make up.
        series = synthetic_market(3, seed=0)
        self._check(candidates, series[:30], series[48:], DEFAULT_BASE_FEATURES)

    def test_base_as_wide_as_the_calendar_rows(self):
        # The same 30 hours with a base of 29 columns: the padded calendar
        # rows leave it to the rank rule (month is constant in June), as a
        # fit on the training rows does, rather than too few rows.
        series = synthetic_market(3, seed=0)
        train, holdout, base = series[:30], series[48:], FULL_FEATURES[:29]
        for select in (refit_forward_select, lambda *args: forward_select(*args[:3], base=args[3])):
            with pytest.raises(RankDeficientError) as info:
                select(FULL_FEATURES, train, holdout, base)
            assert info.value.column == "month"

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
        # Each column is judged against its own norm, so a column 1e12 times
        # the others, which puts their R diagonal entries below 1e-10 of its
        # own, depends on them no more than at unit scale; nor does a column
        # 1e-12 times them, and one in their span does at any scale.
        (lambda X, rng: 1e12 * rng.normal(size=len(X)), False),
        (lambda X, rng: 1e-12 * rng.normal(size=len(X)), False),
        (lambda X, rng: 1e-12 * (X @ np.array([2.0, -3.0])), True),
    ],
    ids=["in_span", "independent", "dwarfs_existing", "dwarfed", "dwarfed_in_span"],
)
def test_appended_trial_rank_rule_matches_fit_ols(make_x, deficient):
    rng = np.random.default_rng(14)
    X = np.column_stack([np.ones(50), rng.normal(size=50)])
    y = rng.normal(size=50)
    x = make_x(X, rng)
    # x as a candidate column against both columns of X, appended one at a
    # time from the empty factorization. The rank rule reads only the
    # training rows; the holdout block is random.
    residuals = _PoolResiduals(np.column_stack([X, x, y]), rng.normal(size=(10, 3)), rng.normal(size=10))
    residuals.append(0)
    residuals.append(1)
    assert (not residuals.trials()[0][2]) == deficient
    for fit in (fit_ols, reference.fit_ols):
        if deficient:
            with pytest.raises(RankDeficientError):
                fit(np.column_stack([X, x]), y)
        else:
            fit(np.column_stack([X, x]), y)


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
    # A random holdout block whose y sits about 1 off the true model, so that
    # every expected error is far from 0 and a relative tolerance means
    # something.
    h = int(rng.integers(1, 48))
    H = rng.normal(size=(h, k + 1)) * scales
    H[:, 0] = 1.0
    y_holdout = H @ beta_true + rng.choice([-1.0, 1.0]) + rng.normal(0.0, 1e-3, h)
    expected = predict(reference.fit_ols(X, y), H) - y_holdout
    # The last column as a candidate column against the first k, appended one
    # at a time from the empty factorization; blocks of any size, down to one
    # row, compress [X y] to the same fits.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compression, "QR_BLOCK_ROWS", int(rng.integers(1, n + 1)))
        residuals = _PoolResiduals(np.column_stack([X, y]), H, y_holdout)
    for j in range(k):
        residuals.append(j)
    ok, error = residuals.trials()
    assert ok[k]
    np.testing.assert_allclose(error[k], expected, rtol=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    days=st.integers(14, 63),
    december=st.booleans(),
    compact=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# With Q.T @ y taken against the original y (classical Gram-Schmidt on the
# right-hand side) instead of y's residual, a coefficient of this market
# misses its refit by 1.9e-10 standard errors, 18 times the bound.
@example(days=49, december=False, compact=True, seed=4075413514)
def test_selection_matches_refit_on_random_markets(days, december, compact, seed):
    start = datetime(2021, 12, 6) if december else datetime(2021, 6, 7)
    train, holdout = split_train_holdout(synthetic_market(days, seed=seed, start=start), 7)
    candidates = SYNTHETIC_CANDIDATES if compact else FULL_FEATURES
    trace = []
    spec, model, pool = select_with_pool(candidates, train, holdout, trace=trace)
    ref_spec, ref_model, disqualified, _ = refit_forward_select(candidates, train, holdout, DEFAULT_BASE_FEATURES)
    assert spec == ref_spec
    assert_close_model(model, ref_model)
    assert_model_from_pool(model, pool, candidates, train)
    assert tuple(step.added for step in trace if step.added) == spec[len(DEFAULT_BASE_FEATURES) :]
    assert [name for step in trace for name in step.disqualified] == disqualified


def _training_xy(train, candidates):
    """The n-row training ``[X y]`` of ``candidates``."""
    n, m = len(train), len(candidates)
    xy = np.empty((n, m + 1), order="F")
    design_matrix(train, candidates, out=xy[:, :m])
    xy[:, m] = train.spot_price
    return xy


@settings(deadline=None)
@given(
    days=st.integers(14, 63),
    december=st.booleans(),
    compact=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_calendar_rows_keep_the_gram_matrix(days, december, compact, seed):
    # The markets of the property above, with about one day in six a
    # holiday. The calendar rows that forward_select hands the pool have the
    # training [X y]'s Gram matrix, taken in long double, up to rounding; at
    # least as many rows as its R factor and at most one per calendar group
    # plus five; and each feature that they take as constant within a group
    # is constant there in design_matrix's columns.
    start = datetime(2021, 12, 6) if december else datetime(2021, 6, 7)
    market = synthetic_market(days, seed=seed, start=start)
    rng = np.random.default_rng(seed)
    holidays = [day.item() for day in np.unique(market.times.astype("datetime64[D]")) if rng.random() < 1 / 6]
    series = RecordSeries(market.times, market.demand, market.spot_price, market.dry_bulb_temp, market.dew_point,
                          holidays=holidays)
    train, holdout = split_train_holdout(series, 7)
    candidates = SYNTHETIC_CANDIDATES if compact else FULL_FEATURES
    n, m = len(train), len(candidates)
    xy = _training_xy(train, candidates)
    varying = [j for j, name in enumerate(candidates) if name not in regression.CALENDAR_FEATURES]
    rows, _ = compression.calendar_rows(train, design_matrix, candidates, varying, design_matrix(holdout, candidates))
    exact = xy.astype(np.longdouble).T @ xy.astype(np.longdouble)
    norms = np.sqrt(np.diag(exact))
    assert np.all(np.abs(rows.T @ rows - exact) <= 1e-13 * np.outer(norms, norms))
    assert min(n, m + 1) <= len(rows) <= 24 * 3 * 2 + 5
    groups = {}
    for i, (_, cal) in enumerate(reference.hours(train)):
        groups.setdefault((cal.hour_of_day, cal.is_saturday, cal.is_sunday, cal.is_holiday), []).append(i)
    constant = design_matrix(train, regression.CALENDAR_FEATURES)
    for members in groups.values():
        assert (constant[members] == constant[members[0]]).all()


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    train_hours=st.integers(1, 143) | st.integers(144, 42 * 24),
    holdout_hours=st.integers(1, 200),
    one_group=st.booleans(),
    start_day=st.integers(0, 30),
    december=st.booleans(),
    holidays=st.sampled_from(["none", "weeks", "some"]),
    dew=st.sampled_from(["own", "copy", "train_copy"]),
    compact=st.booleans(),
    order=st.permutations(FULL_FEATURES[1:]),
    pool_size=st.just(30) | st.integers(1, 29),
)
def test_calendar_rows_match_the_reference_bit_for_bit(
    seed, train_hours, holdout_hours, one_group, start_day, december, holidays, dew, compact, order, pool_size
):
    # drspot builds the calendar rows from one hour per group and the
    # varying columns of the n hours; the reference builds them from the
    # n-row [X y] as 0.15.0 did: the same rows, to the bit, and the same
    # earliest equal column as a byte comparison of the n-row design and the
    # holdout. The markets have fewer training hours than calendar groups,
    # or a single group (one hour a week, the same hour and weekday), whole
    # holiday weeks, December into January (month varies within a group),
    # and pools with copies (dew point equal to the temperature, in training
    # and holdout or in training alone).
    if one_group:
        train_hours, holidays = min(train_hours, 20), "none"
    span = 168 * train_hours if one_group else train_hours
    start = datetime(2021, 12 if december else 6, 1) + timedelta(days=start_day)
    market = synthetic_market(-(-(span + holdout_hours) // 24), seed=seed, start=start)
    day_list = [day.item() for day in np.unique(market.times.astype("datetime64[D]"))]
    rng = np.random.default_rng(seed)
    holiday_days = {
        "none": (),
        "weeks": [day for day in day_list if (day - day_list[0]).days // 7 % 3 == 1],
        "some": [day for day in day_list if rng.random() < 0.2],
    }[holidays]
    dew_point = {
        "own": market.dew_point,
        "copy": market.dry_bulb_temp.copy(),
        "train_copy": np.where(np.arange(len(market)) < span, market.dry_bulb_temp, market.dew_point),
    }[dew]
    series = RecordSeries(market.times, market.demand, market.spot_price, market.dry_bulb_temp, dew_point,
                          holidays=holiday_days)
    train = series._view(np.arange(0, span, 168)) if one_group else series[:span]
    holdout = series[span : span + holdout_hours]
    candidates = SYNTHETIC_CANDIDATES if compact else ("intercept", *order[:pool_size])
    m = len(candidates)
    xy, holdout_full = _training_xy(train, candidates), design_matrix(holdout, candidates)
    varying = [j for j, name in enumerate(candidates) if name not in regression.CALENDAR_FEATURES]
    rows, earliest = compression.calendar_rows(train, design_matrix, candidates, varying, holdout_full)
    expected = reference.calendar_rows(train, xy, [*varying, m])
    assert rows.shape == expected.shape
    assert np.array_equal(_bits(rows), _bits(expected))

    def same(i, j):
        return all(part[:, i].tobytes() == part[:, j].tobytes() for part in (xy, holdout_full))

    assert earliest.tolist() == [next(i for i in range(j + 1) if same(i, j)) for j in range(m)]


def _planted(kind):
    """Training and holdout hours with one planted pair of columns, the
    later name of the pair and whether it is a copy of the earlier."""
    start = datetime(2021, 1, 4) if kind == "month_intercept" else MONDAY
    market = synthetic_market(5 if kind == "holiday_saturday" else 21, seed=6, start=start)
    temperature, dew, hour = market.dry_bulb_temp, market.dew_point, market.hour_of_day
    later, copy = {
        "holiday_saturday": ("saturday", True),
        "dew_temperature": ("dew_point", True),
        "month_intercept": ("month", True),
        "temperature_hour5": ("temperature", True),
        "training_only": ("dew_point", False),
        "signed_zero": ("dew_point", False),
        "one_hour_apart": ("dew_point", False),
    }[kind]
    if kind == "dew_temperature":
        dew = temperature.copy()
    elif kind == "temperature_hour5":
        temperature = (hour == 5).astype(float)
    elif kind == "training_only":
        dew = np.where(np.arange(len(market)) < len(market) - 7 * 24, temperature, dew)
    elif kind == "one_hour_apart":
        dew = np.where(np.arange(len(market)) == 0, dew, temperature)
    elif kind == "signed_zero":
        # Equal values, but -0.0 where the temperature has 0.0 in training.
        temperature = np.where(hour == 5, 0.0, temperature)
        dew = np.where((hour == 5) & (np.arange(len(market)) < len(market) - 7 * 24), -0.0, temperature)
    series = RecordSeries(market.times, market.demand, market.spot_price, temperature, dew)
    train, holdout = split_train_holdout(series, 1 if kind == "holiday_saturday" else 7)
    return train, holdout, later, copy


@pytest.mark.parametrize(
    "kind",
    [
        "holiday_saturday",
        "dew_temperature",
        "month_intercept",
        "temperature_hour5",
        "training_only",
        "signed_zero",
        "one_hour_apart",
    ],
)
def test_copies_of_each_kind_are_the_reference_copies(kind):
    # One planted pair per kind: two calendar columns (a history with no
    # holiday and no Saturday), two varying columns, a varying column equal
    # to a calendar one (month in a January-only history, the temperature
    # as the hour5 dummy), a pair equal in training alone, a pair whose
    # values are equal but whose zeros differ in sign, and a pair apart in
    # one training hour only, which one hour per group may miss. The
    # candidates that forward_select marks as copies, with an infinite floor
    # at its first trials, are reference.copies of the n-row design, and the
    # first step disqualifies them, as the refit does.
    train, holdout, later, is_copy = _planted(kind)
    base_idx = [FULL_FEATURES.index(name) for name in DEFAULT_BASE_FEATURES]
    copies = reference.copies(design_matrix(train, FULL_FEATURES), design_matrix(holdout, FULL_FEATURES), base_idx)
    expected = {FULL_FEATURES[j] for j in copies}
    assert (later in expected) == is_copy
    marked = []

    class Recorded(_PoolResiduals):
        def trials(self):
            if not marked:
                marked.append({FULL_FEATURES[j] for j in np.flatnonzero(np.isinf(self.floor[:-1]))})
            return super().trials()

    trace = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regression, "_PoolResiduals", Recorded)
        forward_select(FULL_FEATURES, train, holdout, trace=trace)
    *_, ref_trace = refit_forward_select(FULL_FEATURES, train, holdout, DEFAULT_BASE_FEATURES)
    assert marked[0] == expected
    assert expected <= set(trace[0].disqualified)
    assert trace[0].disqualified == ref_trace[0].disqualified


def test_selection_builds_no_calendar_column_on_the_training_hours():
    # Two tiles of the bundled data, the second 70 days after the first, as
    # the benchmark's long histories: forward_select builds the calendar
    # columns on one hour per group, and only the varying ones on the n
    # training hours.
    cfg = load_settings(DATA_DIR / "scenario.json")
    tile = parse_hourly_csv(DATA_DIR / "synthetic_market.csv", holidays=cfg.holidays)
    times = np.concatenate([tile.times, tile.times + np.timedelta64(70, "D")])
    values = (np.tile(column, 2) for column in reference.columns(tile)[1:])
    series = RecordSeries(times, *values, holidays=cfg.holidays)
    train, holdout = split_train_holdout(series, cfg.scenario.holdout_days)
    calls = []

    def spy(series, spec, *args, **kwargs):
        calls.append((len(series), tuple(spec)))
        return design_matrix(series, spec, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regression, "design_matrix", spy)
        forward_select(FULL_FEATURES, train, holdout)
    on_training_hours = {name for rows, spec in calls if rows == len(train) for name in spec}
    assert on_training_hours and len(train) == 2 * len(tile) - 7 * 24
    assert not on_training_hours & {*regression.HOUR_DUMMIES, "holiday", "saturday", "sunday"}


def _random_design(rng, m: int, n: int) -> np.ndarray:
    """Gaussian columns at scales from 1e-3 to 1e3."""
    return rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-3.0, 3.0, m)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12), extra_rows=st.integers(1, 200))
def test_fit_ols_matches_householder_reference(seed, m, extra_rows):
    # The residual is set to the size of unit noise: one of 1e-8 of |y|,
    # which noise with n - m == 1 degree of freedom can draw, loses its
    # leading digits to cancellation in any fit, and the relative
    # tolerances of assert_close_model would measure that, not the fit.
    # Over 30,000 such designs the worst case used 1.6% of a tolerance.
    rng = np.random.default_rng(seed)
    n = m + extra_rows
    X = _random_design(rng, m, n)
    z = rng.normal(size=n)
    residual = z - X @ np.linalg.lstsq(X, z, rcond=None)[0]
    # Each column adds about unit size to y, so that |t| stays small (52 at
    # most over those designs): at |t| near 1e4 the coefficient tolerance
    # falls to a few roundings of the coefficient.
    beta = rng.normal(size=m) * np.sqrt(n) / np.linalg.norm(X, axis=0)
    y = X @ beta + residual * np.sqrt(n - m) / np.linalg.norm(residual)
    assert_close_model(fit_ols(X, y), reference.fit_ols(X, y))


def test_fit_ols_matches_householder_reference_at_large_t():
    # O(1) coefficients on columns of size 1e3 with unit noise: |t| reaches
    # 3.5e4, and a coefficient of 1.56 moves by 1.1e-15 (5 ulps), which is
    # 1.4e-11 of its standard error of 7.9e-5.
    rng = np.random.default_rng(0)
    X = rng.normal(size=(176, 10)) * 1e3
    X[:, 0] = 1.0
    y = X @ rng.normal(size=10) + rng.normal(size=176)
    assert_close_model(fit_ols(X, y), reference.fit_ols(X, y))


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 11),
    extra_rows=st.integers(2, 200),
    kind=st.sampled_from(["duplicate", "zero", "scaled"]),
)
def test_fit_ols_names_the_dependent_column_like_the_reference(seed, m, extra_rows, kind):
    # One dependent column at a random position: a copy of another column,
    # all zeros, or another column times a factor. The later of a pair, or
    # the zero column, is the one named.
    rng = np.random.default_rng(seed)
    n = m + 1 + extra_rows
    X = _random_design(rng, m, n)
    source = int(rng.integers(m))
    column = {
        "duplicate": X[:, source],
        "zero": np.zeros(n),
        "scaled": X[:, source] * rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 1.0),
    }[kind]
    at = int(rng.integers(m + 1))
    X = np.insert(X, at, column, axis=1)
    y = rng.normal(size=n)
    names = tuple(f"x{j}" for j in range(m + 1))
    dependent = at if kind == "zero" else max(at, source + (source >= at))
    for fit in (fit_ols, reference.fit_ols):
        with pytest.raises(RankDeficientError) as info:
            fit(X, y, spec=names)
        assert info.value.column == names[dependent], fit


def _outcome(select, *args):
    """What ``select`` returns, with the trace it wrote, or the error it raised."""
    trace = []
    try:
        return select(*args, trace=trace), trace
    except (InsufficientDataError, RankDeficientError) as error:
        return type(error), error.args


def _float_bits(value):
    return None if value is None else _bits(value).tobytes()


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    start_day=st.integers(0, 60),
    pool_size=st.just(30) | st.integers(1, 29),
    order=st.permutations(FULL_FEATURES[1:]),
    base_size=st.integers(1, 3),
    extra_rows=st.integers(-8, 8) | st.integers(9, 600),
    holdout_rows=st.integers(1, 200),
    dew=st.sampled_from(["own", "copy", "train_copy", "scaled"]),
    holidays=st.sampled_from(["none", "saturdays", "train_saturdays", "some"]),
    block_rows=st.sampled_from([compression.QR_BLOCK_ROWS, 16, 100]),
)
def test_selection_matches_reference_loop_bit_for_bit(
    seed, start_day, pool_size, order, base_size, extra_rows, holdout_rows, dew, holidays, block_rows
):
    # forward_select against the loop of reference.forward_select, whose step
    # takes a fresh temporary for every vector operation, which finds the copies
    # byte by byte and builds its calendar rows from the n-row training [X y]:
    # the same outcome to the bit. The pools hold copies (dew point equal to the
    # temperature, every Saturday a holiday; in training and in the holdout,
    # which disqualifies the later one at the first step, or in training alone,
    # which leaves it to the rank rule), zero columns (no holiday, no weekend in
    # a short training span), a scaled copy (the rank rule mid-search) and
    # training spans of around m + 1 rows, where the search may run out of rows.
    rng = np.random.default_rng(seed)
    candidates = ("intercept", *order[:pool_size])
    base = candidates[:base_size]
    train_rows = max(len(candidates) + 1 + extra_rows, 0)
    days = -(-(train_rows + holdout_rows) // 24)
    start = datetime(2021, 5, 3) + timedelta(days=start_day)
    market = synthetic_market(days, seed=seed, start=start)
    day_list = [day.item() for day in np.unique(market.times.astype("datetime64[D]"))]
    holiday_days = {
        "none": (),
        "saturdays": [day for day in day_list if day.weekday() == 5],
        "train_saturdays": [day for day in day_list[: train_rows // 24] if day.weekday() == 5],
        "some": [day for day in day_list if rng.random() < 0.2],
    }[holidays]
    dew_point = {
        "own": market.dew_point,
        "copy": market.dry_bulb_temp.copy(),
        "train_copy": np.where(np.arange(len(market)) < train_rows, market.dry_bulb_temp, market.dew_point),
        "scaled": market.dry_bulb_temp * rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 1.0),
    }[dew]
    series = RecordSeries(market.times, market.demand, market.spot_price, market.dry_bulb_temp, dew_point,
                          holidays=holiday_days)
    train, holdout = series[:train_rows], series[train_rows : train_rows + holdout_rows]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compression, "QR_BLOCK_ROWS", block_rows)
        got = _outcome(forward_select, candidates, train, holdout, base)
        expected = _outcome(reference.forward_select, candidates, train, holdout, base)
    if isinstance(expected[0], type):
        assert got == expected
        return
    (spec, model, holdout_ferms), trace = got
    (ref_spec, ref_model, ref_holdout_ferms), ref_trace = expected
    assert spec == ref_spec
    assert _float_bits(holdout_ferms) == _float_bits(ref_holdout_ferms)
    for field in ("coefficients", "std_errors", "t_values", "residual_variance"):
        assert _float_bits(getattr(model, field)) == _float_bits(getattr(ref_model, field)), field
    assert (model.spec, model.n_obs) == (ref_model.spec, ref_model.n_obs)
    assert len(trace) == len(ref_trace)
    for step, ref in zip(trace, ref_trace):
        assert (step.added, step.runner_up, step.disqualified) == (ref.added, ref.runner_up, ref.disqualified)
        assert _float_bits(step.ferms) == _float_bits(ref.ferms)
        assert _float_bits(step.runner_up_ferms) == _float_bits(ref.runner_up_ferms)


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, compression.QR_BLOCK_ROWS),
    m=st.integers(1, 31),
    repeats=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=4),
    zeros=st.lists(st.integers(0, 30), max_size=3),
)
def test_one_block_is_its_own_compressed_factor(seed, n, m, repeats, zeros):
    # With one block of rows the pool takes the block's R as the compressed
    # [X y]; a second Householder QR of that R, which the pool skips, returns
    # it bit for bit, repeated and zero columns included, each column in its
    # own row, and the floors of the rank rule with it.
    rng = np.random.default_rng(seed)
    xy = rng.normal(size=(n, m + 1)) * 10.0 ** rng.uniform(-3.0, 3.0, m + 1)
    for source, target in repeats:
        xy[:, target % m] = xy[:, source % m]
    for column in zeros:
        xy[:, column % m] = 0.0
    holdout, y_holdout = rng.normal(size=(3, m)), rng.normal(size=3)
    pool = _PoolResiduals(xy, holdout, y_holdout)
    two_pass = reference.PoolResiduals(xy, holdout, y_holdout)
    assert pool.t == two_pass.t == min(n, m + 1)
    assert np.array_equal(_bits(pool.v), _bits(two_pass.v))
    assert np.array_equal(_bits(pool.floor), _bits(two_pass.floor))


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 11),
    extra_rows=st.integers(2, 200),
    kind=st.sampled_from(["independent", "duplicate", "scaled", "zero", "near"]),
    scaled=st.integers(0, 11),
    power=st.integers(-40, 40),
    k=st.integers(0, 11),
)
def test_rank_verdicts_are_blind_to_column_scale(seed, m, extra_rows, kind, scaled, power, k):
    # One column, dependent or not, times 2**power: the scaling is exact in
    # floating point, and so through every reflection and update, and each
    # column is judged against its own norm, so no verdict moves. fit_ols
    # succeeds or names the same column, and the trials after the first k
    # columns have the same ok mask. A "near" column is another one plus
    # noise at 1e-13 to 1e-7 of it, either side of the tolerance. The rule
    # that compared each column with the largest failed this property.
    rng = np.random.default_rng(seed)
    n = m + 1 + extra_rows
    X = _random_design(rng, m, n)
    source = X[:, int(rng.integers(m))]
    column = {
        "independent": lambda: _random_design(rng, 1, n)[:, 0],
        "duplicate": lambda: source,
        "scaled": lambda: source * 10.0 ** rng.uniform(-1.0, 1.0),
        "zero": lambda: np.zeros(n),
        "near": lambda: source + 10.0 ** rng.uniform(-13.0, -7.0) * np.abs(source).max() * rng.normal(size=n),
    }[kind]()
    X = np.insert(X, int(rng.integers(m + 1)), column, axis=1)
    y, holdout, y_holdout = rng.normal(size=n), rng.normal(size=(3, m + 1)), rng.normal(size=3)

    def verdicts(X):
        dependent = None
        try:
            fit_ols(X, y)
        except RankDeficientError as error:
            dependent = error.column
        pool = _PoolResiduals(np.column_stack([X, y]), holdout, y_holdout)
        for j in range(min(k, m)):
            pool.append(j)
        return dependent, pool.trials()[0].tolist()

    X_scaled = X.copy()
    X_scaled[:, scaled % (m + 1)] *= 2.0**power
    assert verdicts(X_scaled) == verdicts(X)


@settings(max_examples=20, deadline=None)
@given(
    days=st.integers(14, 42),
    seed=st.integers(0, 2**32 - 1),
    pair=st.sampled_from([("temperature", "dew_point"), ("saturday", "holiday")]),
    compact=st.booleans(),
)
def test_training_only_copies_select_like_refit(days, seed, pair, compact):
    # Dew point equal to the temperature, or every Saturday a holiday, in
    # the training rows alone; in the holdout each has values of its own.
    # Neither is a copy: both are scored at the first step, each with its own
    # row of R, and once one is selected the rank rule disqualifies the
    # other, as a refit of every trial does.
    market = synthetic_market(days, seed=seed)
    train_rows = (days - 7) * 24
    day_list = [day.item() for day in np.unique(market.times.astype("datetime64[D]"))]
    dew, holidays = market.dew_point, ()
    if "dew_point" in pair:
        dew = np.where(np.arange(len(market)) < train_rows, market.dry_bulb_temp, market.dew_point)
    else:
        holdout_days = [day for day in day_list[days - 7 :] if day.weekday() != 5]
        holidays = [day for day in day_list[: days - 7] if day.weekday() == 5] + holdout_days[:1]
    series = RecordSeries(market.times, market.demand, market.spot_price, market.dry_bulb_temp, dew,
                          holidays=holidays)
    train, holdout = series[:train_rows], series[train_rows:]
    candidates = SYNTHETIC_CANDIDATES + ("holiday",) if compact else FULL_FEATURES
    trace = []
    spec, model, _ = forward_select(candidates, train, holdout, trace=trace)
    ref_spec, ref_model, disqualified, ref_trace = refit_forward_select(
        candidates, train, holdout, DEFAULT_BASE_FEATURES
    )
    assert spec == ref_spec
    assert_close_model(model, ref_model)
    choices = [(step.added, step.runner_up, step.disqualified) for step in trace]
    assert choices == [(step.added, step.runner_up, step.disqualified) for step in ref_trace]
    assert [name for step in trace for name in step.disqualified] == disqualified
    assert not set(pair) & set(trace[0].disqualified)
    assert len(set(pair) & set(spec)) <= 1

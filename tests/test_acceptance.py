"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with -v or -s to see them)."""

from __future__ import annotations

import io
import os
import time
from datetime import datetime

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, SYNTHETIC_CANDIDATES, series_to_csv, synthetic_market
from drspot.cli import main
from drspot.elasticity import (
    DayVectors,
    ElasticityTable,
    PeriodConfig,
    build_elasticity_matrix,
    implied_price,
    multi_hour_response,
    single_hour_response,
)
from drspot.market_data import parse_hourly_csv
from drspot.pipeline import ScenarioConfig, impact_summary, run_scenario
from drspot.regression import SignificanceLevel, fit_ols, significance_level


def random_period_config(rng) -> PeriodConfig:
    hours = rng.permutation(np.arange(1, 25))
    a, b = sorted(rng.choice(np.arange(1, 24), size=2, replace=False))
    return PeriodConfig(
        peak_hours=frozenset(int(h) for h in hours[:a]),
        offpeak_hours=frozenset(int(h) for h in hours[a:b]),
        low_hours=frozenset(int(h) for h in hours[b:]),
    )


def brute_force_day_response(d0, p0, p, matrix):
    """Term-by-term reference: self term plus the sum of cross terms, each
    scaled by d0(i)/p0(j), clamped at zero. Pure Python on lists."""
    n = len(d0)
    out = []
    for i in range(n):
        total = d0[i] + matrix[i][i] * (d0[i] / p0[i]) * (p[i] - p0[i])
        for j in range(n):
            if j != i:
                total += matrix[i][j] * (d0[i] / p0[j]) * (p[j] - p0[j])
        out.append(total if total > 0.0 else 0.0)
    return out


def test_criterion_1_day_response_matches_brute_force():
    rng = np.random.default_rng(101)
    table = ElasticityTable.default()
    trials = []
    for _ in range(1000):
        d0 = rng.uniform(0, 5000, 24)
        p0 = rng.uniform(10, 100, 24)
        p = rng.uniform(0, 300, 24)
        trials.append((d0, p0, p, build_elasticity_matrix(table, random_period_config(rng))))

    elapsed = 0.0
    results = []
    for d0, p0, p, matrix in trials:
        start = time.perf_counter()
        response = multi_hour_response(DayVectors(d0, p0, p), matrix)
        elapsed += time.perf_counter() - start
        results.append(response.demand)

    clamped_days = 0
    for (d0, p0, p, matrix), demand in zip(trials, results):
        expected = brute_force_day_response(d0.tolist(), p0.tolist(), p.tolist(), matrix.tolist())
        np.testing.assert_allclose(demand, expected, rtol=1e-10, atol=1e-12)
        clamped_days += any(v == 0.0 for v in expected)

    assert elapsed < 1.0, f"1000 day responses took {elapsed:.3f}s"
    print(
        f"[criterion 1] PASS oracle equivalence on 1000 random days "
        f"(rtol 1e-10, {elapsed * 1000:.0f} ms, {clamped_days} days hit the clamp)"
    )


def test_criterion_2_inverse_consistency():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        d0 = rng.uniform(1.0, 5000.0)
        p0 = rng.uniform(10.0, 100.0)
        p = rng.uniform(0.0, 300.0)
        e = rng.uniform(0.01, 1.0) * (-1.0 if rng.random() < 0.5 else 1.0)
        recovered = implied_price(single_hour_response(d0, p0, p, e), d0, p0, e)
        assert recovered == pytest.approx(p, rel=1e-9, abs=1e-9)
        worst = max(worst, abs(recovered - p) / max(1.0, abs(p)))
    print(f"[criterion 2] PASS price recovered on 1000 random inputs (worst rel err {worst:.2e})")


def test_criterion_3_ols_noiseless_recovery():
    rng = np.random.default_rng(103)
    n, m = 500, 31
    hours = rng.integers(1, 25, n)
    assert len(np.unique(hours)) == 24
    dummies = np.zeros((n, 23))
    for k in range(1, 24):
        dummies[:, k - 1] = hours == k
    numeric = rng.normal(0.0, 1.0, (n, 7)) * np.array([1.0, 2.0, 0.5, 3.0, 1.5, 0.8, 1.2])
    X = np.column_stack([np.ones(n), dummies, numeric])
    beta = rng.uniform(0.5, 5.0, m) * rng.choice([-1.0, 1.0], m)
    y = X @ beta

    model = fit_ols(X, y)
    rel = np.abs(model.coefficients - beta) / np.abs(beta)
    assert rel.max() <= 1e-8, f"worst coefficient error {rel.max():.2e}"
    residual = y - X @ model.coefficients
    ortho = np.abs(X.T @ residual).max()
    assert ortho <= 1e-6 * np.abs(y).max()
    print(
        f"[criterion 3] PASS n=500 m=31 noiseless fit "
        f"(worst coef rel err {rel.max():.2e}, max |X'r| {ortho:.2e})"
    )


def test_criterion_4_significance_bands():
    # table rows with unambiguous bands
    assert significance_level(20.66) is SignificanceLevel.ONE_PERCENT
    assert significance_level(0.02) is SignificanceLevel.NOT_SIGNIFICANT
    # values whose published star markers disagree with the numeric
    # thresholds; the implementation follows the thresholds
    assert significance_level(1.93) is SignificanceLevel.FIVE_PERCENT
    assert significance_level(1.93) is not SignificanceLevel.TEN_PERCENT
    assert significance_level(-2.56) is SignificanceLevel.ONE_PERCENT
    assert significance_level(-2.56) is not SignificanceLevel.FIVE_PERCENT
    print("[criterion 4] PASS significance bands (incl. 1.93 -> 5%, |-2.56| -> 1% divergences)")


def test_criterion_5_closed_loop_sign_properties():
    cfg = ScenarioConfig(
        feature_candidates=SYNTHETIC_CANDIDATES,
        base_features=("intercept", "demand"),
        elasticity_table=ElasticityTable.diagonal(-0.10),
    )
    passes = 0
    spike_hours_total = 0
    for seed in range(100):
        series = synthetic_market(42, seed=seed)
        history, study = series[: 35 * 24], series[35 * 24 :]
        result = run_scenario(history, study, cfg)
        spikes = result.forecast_price > cfg.flat_rate
        assert spikes.any(), f"seed {seed}: no forecast above the flat rate"
        assert np.all(result.dr_demand[spikes] < result.baseline_demand[spikes]), f"seed {seed}"
        assert np.all(result.updated_spot_price[spikes] < result.forecast_price[spikes]), f"seed {seed}"
        assert result.updated_spot_price.max() <= result.forecast_price.max(), f"seed {seed}"
        passes += 1
        spike_hours_total += int(spikes.sum())
    assert passes == 100
    print(
        f"[criterion 5] PASS sign properties on {passes}/100 seeds "
        f"({spike_hours_total} spike hours checked)"
    )


def test_criterion_6_null_response_invariance():
    series = synthetic_market(42, seed=300)
    history, study = series[: 35 * 24], series[35 * 24 :]
    cfg = ScenarioConfig(
        feature_candidates=SYNTHETIC_CANDIDATES,
        base_features=("intercept", "demand"),
        elasticity_table=ElasticityTable.zero(),
    )
    result = run_scenario(history, study, cfg)
    assert np.array_equal(result.dr_demand, result.baseline_demand)
    assert np.array_equal(result.updated_spot_price, result.forecast_price)
    summary = impact_summary(result)
    assert summary.delta_energy_mwh == 0.0
    assert summary.delta_energy_pct == 0.0
    assert summary.delta_cost == 0.0
    assert summary.delta_cost_pct == 0.0
    print("[criterion 6] PASS zero elasticity leaves demand, prices, and deltas exactly unchanged")


def test_criterion_7_historical_dataset_reproduction():
    csv_path = os.environ.get("DRSPOT_NEISO_CSV")
    if not csv_path:
        pytest.skip("set DRSPOT_NEISO_CSV to the prepared 2014 Connecticut hourly CSV to run")
    series = parse_hourly_csv(csv_path)
    start = datetime(2014, 8, 18)
    end = datetime(2014, 8, 25)
    history = series.between(series.times[0], start)
    study = series.between(start, end)
    assert len(study) == 168, "study window must cover Aug 18-24 2014"
    result = run_scenario(history, study, ScenarioConfig())
    summary = impact_summary(result)
    assert -3.5 <= summary.delta_energy_pct <= -1.0
    assert -32.0 <= summary.delta_cost_pct <= -20.0
    print(
        f"[criterion 7] PASS historical week: energy {summary.delta_energy_pct:.2f}%, "
        f"cost {summary.delta_cost_pct:.2f}%, holdout ferms {result.holdout_ferms:.1f}%"
    )


def test_criterion_8_determinism_and_round_trip(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    for out in (out1, out2):
        rc = main(
            [
                "simulate",
                "--data", str(DATA_DIR / "synthetic_market.csv"),
                "--config", str(DATA_DIR / "scenario.json"),
                "--window-start", "2021-08-09",
                "--days", "7",
                "--out", str(out),
            ]
        )
        assert rc == 0
    names = (
        "result.csv",
        "summary.json",
        "plot_price_forecast.csv",
        "plot_demand.csv",
        "plot_spot_price.csv",
    )
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    bundled = parse_hourly_csv(DATA_DIR / "synthetic_market.csv")
    assert parse_hourly_csv(io.StringIO(series_to_csv(bundled))) == bundled
    print(f"[criterion 8] PASS byte-identical outputs ({len(names)} files) and lossless CSV round trip")


# The README invariants as properties over random draws; the criteria above
# check the same invariants on fixed seeds.


@settings(deadline=None)
@given(
    d0=st.floats(1.0, 5000.0),
    p0=st.floats(10.0, 100.0),
    p=st.floats(0.0, 300.0),
    e=st.floats(0.01, 1.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_property_inverse_consistency(d0, p0, p, e, sign):
    e *= sign
    assert implied_price(single_hour_response(d0, p0, p, e), d0, p0, e) == pytest.approx(p, rel=1e-9, abs=1e-9)


@settings(deadline=None)
@given(n=st.integers(60, 400), m=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
def test_property_ols_noiseless_recovery(n, m, seed):
    rng = np.random.default_rng(seed)
    numeric = rng.normal(0.0, 1.0, (n, m - 1)) * rng.uniform(0.5, 3.0, m - 1)
    X = np.column_stack([np.ones(n), numeric])
    beta = rng.uniform(0.5, 5.0, m) * rng.choice([-1.0, 1.0], m)
    model = fit_ols(X, X @ beta)
    np.testing.assert_allclose(model.coefficients, beta, rtol=1e-8, atol=0.0)


@settings(max_examples=20, deadline=None)
@given(history_days=st.integers(21, 35), study_days=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_property_closed_loop_signs(history_days, study_days, seed):
    cfg = ScenarioConfig(
        feature_candidates=SYNTHETIC_CANDIDATES,
        base_features=("intercept", "demand"),
        elasticity_table=ElasticityTable.diagonal(-0.10),
    )
    series = synthetic_market(history_days + study_days, seed=seed)
    history, study = series[: history_days * 24], series[history_days * 24 :]
    result = run_scenario(history, study, cfg)
    spikes = result.forecast_price > cfg.flat_rate
    assume(spikes.any())
    assert np.all(result.dr_demand[spikes] < result.baseline_demand[spikes])
    assert np.all(result.updated_spot_price[spikes] < result.forecast_price[spikes])
    assert result.updated_spot_price.max() <= result.forecast_price.max()

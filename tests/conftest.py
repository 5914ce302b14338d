"""Shared synthetic data builders for the test suite."""

from __future__ import annotations

import io
import os
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
from hypothesis import settings

from drspot.market_data import RecordSeries, write_hourly_csv

REPO_ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = REPO_ROOT / "data"

MONDAY = datetime(2021, 6, 7)

# HYPOTHESIS_PROFILE=ci gives the properties that fix no example count
# 1,000 examples instead of 100: the stamp and decimal converter properties,
# the differential parser property and the str -> float cast property
# (test_market_data), the float and stamp writer properties and the
# block-boundary property of the file writer (test_csv_text, whose bulk
# test draws 10,000 values per example), the inverse-consistency
# and OLS-recovery properties (test_acceptance), and the selection step
# against the reference loop, the calendar rows' Gram matrix, the one-block
# QR property and the rank rule's scale invariance (test_regression).
# Each checks numpy against an independent computation (the converters' and
# the writer's integer, float and calendar arithmetic, its float cast, its
# linear algebra, its in-place ufunc calls), and CI runs them on numpy
# versions that cannot be installed offline, numpy 1.23 among them. A failure
# prints the blob that ``@reproduce_failure`` replays, so an intermittent one
# can be reproduced from the log.
settings.register_profile("ci", max_examples=1000, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def series_to_csv(series: RecordSeries) -> str:
    """The canonical CSV text of a series, as ``write_hourly_csv`` writes it."""
    buf = io.StringIO()
    write_hourly_csv(series, buf)
    return buf.getvalue()


def build_series(
    demand,
    price,
    temp=None,
    dew=None,
    start: datetime = MONDAY,
    holidays=(),
) -> RecordSeries:
    """RecordSeries from raw per-hour arrays, one-hour spacing from start."""
    n = len(demand)
    temp = [72.0] * n if temp is None else temp
    dew = [60.0] * n if dew is None else dew
    times = np.datetime64(start, "us") + np.arange(n) * np.timedelta64(1, "h")
    return RecordSeries(times, demand, price, temp, dew, holidays=holidays)


def synthetic_market(
    days: int,
    seed: int,
    start: datetime = MONDAY,
    demand_coeff: float = 0.03,
    noise_sd: float = 1.0,
    holidays=(),
) -> RecordSeries:
    """Synthetic hourly market whose price is linear in the regressors.

    The true price model has a positive demand coefficient and afternoon
    demand peaks that push prices above the 30 $/MWh flat rate on every
    weekday, while nights sit well below it.
    """
    rng = np.random.default_rng(seed)
    n = days * 24
    timestamps = [start + timedelta(hours=h) for h in range(n)]
    hod = np.array([ts.hour for ts in timestamps])
    weekday = np.array([ts.weekday() for ts in timestamps])
    saturday = (weekday == 5).astype(float)
    sunday = (weekday == 6).astype(float)

    temp = 74.0 + 10.0 * np.sin(2 * np.pi * (hod - 9) / 24) + rng.normal(0.0, 1.0, n)
    dew = temp - 12.0 + rng.normal(0.0, 0.5, n)
    afternoon = np.exp(-0.5 * ((hod - 16.5) / 2.5) ** 2)
    demand = (
        1600.0
        + 500.0 * afternoon
        + 45.0 * np.maximum(temp - 75.0, 0.0)
        - 200.0 * (saturday + sunday)
        + rng.normal(0.0, 25.0, n)
    )
    price = (
        -40.0
        + demand_coeff * demand
        + 0.30 * temp
        - 0.10 * dew
        - 1.5 * saturday
        - 2.0 * sunday
        + rng.normal(0.0, noise_sd, n)
    )
    assert demand.min() > 0 and price.min() > 0
    return build_series(demand, price, temp, dew, start=start, holidays=holidays)


def shifted_market(days: int, seed: int, shift: float, first_day: int = 0) -> RecordSeries:
    """``synthetic_market`` with every price from day ``first_day`` on moved
    by ``shift`` $/MWh."""
    market = synthetic_market(days, seed=seed)
    price = market.spot_price.copy()
    price[first_day * 24 :] += shift
    return RecordSeries(market.times, market.demand, price, market.dry_bulb_temp, market.dew_point)


# Compact candidate pool matching the synthetic generator's true model.
SYNTHETIC_CANDIDATES = ("intercept", "demand", "temperature", "dew_point", "saturday", "sunday")

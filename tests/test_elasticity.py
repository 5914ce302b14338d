from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drspot.elasticity import (
    DayVectors,
    DegenerateInverseError,
    ElasticityTable,
    NonPositiveBaselinePriceError,
    PeriodClass,
    PeriodConfig,
    build_elasticity_matrix,
    classify_period,
    implied_price,
    multi_hour_response,
    single_hour_response,
)


def random_period_config(rng) -> PeriodConfig:
    hours = rng.permutation(np.arange(1, 25))
    a, b = sorted(rng.choice(np.arange(1, 24), size=2, replace=False))
    return PeriodConfig(
        peak_hours=frozenset(int(h) for h in hours[:a]),
        offpeak_hours=frozenset(int(h) for h in hours[a:b]),
        low_hours=frozenset(int(h) for h in hours[b:]),
    )


class TestPeriods:
    def test_default_partition(self):
        cfg = PeriodConfig.default()
        assert cfg.peak_hours | cfg.offpeak_hours | cfg.low_hours == set(range(1, 25))
        assert classify_period(15, cfg) is PeriodClass.PEAK
        assert classify_period(3, cfg) is PeriodClass.LOW
        assert classify_period(10, cfg) is PeriodClass.OFFPEAK

    def test_every_hour_classified(self):
        cfg = PeriodConfig.default()
        for hour in range(1, 25):
            assert classify_period(hour, cfg) in PeriodClass

    def test_custom_offpeak_assignment(self):
        cfg = PeriodConfig(
            peak_hours=frozenset(range(2, 25)) - {5},
            offpeak_hours=frozenset({5}),
            low_hours=frozenset({1}),
        )
        assert classify_period(5, cfg) is PeriodClass.OFFPEAK

    def test_incomplete_partition_rejected(self):
        with pytest.raises(ValueError):
            PeriodConfig(frozenset({1}), frozenset({2}), frozenset({3}))

    def test_overlapping_partition_rejected(self):
        with pytest.raises(ValueError):
            PeriodConfig(
                peak_hours=frozenset(range(1, 13)),
                offpeak_hours=frozenset(range(12, 25)),
                low_hours=frozenset(),
            )


class TestElasticityTable:
    def test_default_values(self):
        table = ElasticityTable.default()
        assert table.peak_peak == -0.10
        assert table.peak_low == 0.012
        assert table.offpeak_low == 0.01
        assert table.low_peak == table.peak_low  # symmetric defaults

    def test_positive_self_elasticity_rejected(self):
        with pytest.raises(ValueError):
            ElasticityTable(0.1, 0, 0, 0, -0.1, 0, 0, 0, -0.1)

    def test_negative_cross_elasticity_rejected(self):
        with pytest.raises(ValueError):
            ElasticityTable(-0.1, -0.01, 0, 0, -0.1, 0, 0, 0, -0.1)

    @pytest.mark.parametrize("index", [0, 1, 4, 7])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entry_rejected(self, index, value):
        entries = [-0.1, 0.01, 0.01, 0.01, -0.1, 0.01, 0.01, 0.01, -0.1]
        entries[index] = value
        with pytest.raises(ValueError, match="must be finite"):
            ElasticityTable(*entries)


class TestBuildMatrix:
    def test_diagonal_from_default_table(self):
        matrix = build_elasticity_matrix(ElasticityTable.default(), PeriodConfig.default())
        assert matrix.shape == (24, 24)
        assert np.all(np.diag(matrix) == -0.10)

    def test_peak_row_low_column(self):
        cfg = PeriodConfig.default()
        matrix = build_elasticity_matrix(ElasticityTable.default(), cfg)
        assert matrix[14, 2] == 0.012  # hour 15 is peak, hour 3 is low

    def test_zero_table_gives_zero_matrix(self):
        matrix = build_elasticity_matrix(ElasticityTable.zero(), PeriodConfig.default())
        assert np.all(matrix == 0.0)

    def test_same_class_pairs_do_not_cross_shift(self):
        cfg = PeriodConfig.default()
        matrix = build_elasticity_matrix(ElasticityTable.default(), cfg)
        assert matrix[14, 15] == 0.0  # hours 15 and 16 are both peak
        assert matrix[14, 14] == -0.10

    def test_structure_over_random_configs(self):
        rng = np.random.default_rng(11)
        table = ElasticityTable.default()
        for _ in range(20):
            cfg = random_period_config(rng)
            matrix = build_elasticity_matrix(table, cfg)
            assert np.all(np.diag(matrix) == -0.10)
            off_diag = matrix[~np.eye(24, dtype=bool)]
            assert np.all(off_diag >= 0.0)
            assert set(np.unique(off_diag)) <= {0.0, 0.016, 0.012, 0.01}
            assert np.array_equal(matrix, matrix.T)

    def test_diagonal_table_builds_diagonal_matrix(self):
        matrix = build_elasticity_matrix(ElasticityTable.diagonal(-0.10), PeriodConfig.default())
        assert np.array_equal(matrix, np.diag(np.full(24, -0.10)))


class TestSingleHour:
    def test_no_deviation(self):
        assert single_hour_response(100.0, 30.0, 30.0, -0.10) == 100.0

    def test_price_doubling(self):
        assert single_hour_response(100.0, 30.0, 60.0, -0.10) == pytest.approx(90.0)

    def test_zero_demand(self):
        assert single_hour_response(0.0, 30.0, 95.0, -0.10) == 0.0

    def test_non_positive_baseline_price(self):
        with pytest.raises(NonPositiveBaselinePriceError):
            single_hour_response(100.0, 0.0, 60.0, -0.10)
        with pytest.raises(NonPositiveBaselinePriceError):
            single_hour_response(100.0, -5.0, 60.0, -0.10)


class TestMultiHour:
    def test_fixed_point_at_baseline_price(self):
        rng = np.random.default_rng(0)
        d0 = rng.uniform(0, 5000, 24)
        p0 = rng.uniform(10, 100, 24)
        matrix = build_elasticity_matrix(ElasticityTable.default(), PeriodConfig.default())
        response = multi_hour_response(DayVectors(d0, p0, p0.copy()), matrix)
        assert np.array_equal(response.demand, d0)
        assert not response.clamped.any()

    def test_three_hour_reduced_case(self):
        matrix = np.full((3, 3), 0.016)
        np.fill_diagonal(matrix, -0.10)
        day = DayVectors(d0=[100.0, 80.0, 60.0], p0=[30.0] * 3, p=[60.0, 30.0, 30.0])
        response = multi_hour_response(day, matrix)
        np.testing.assert_allclose(response.demand, [90.0, 81.28, 60.96], rtol=1e-12)

    def test_zero_matrix_returns_baseline(self):
        rng = np.random.default_rng(1)
        day = DayVectors(rng.uniform(0, 5000, 24), rng.uniform(10, 100, 24), rng.uniform(0, 300, 24))
        response = multi_hour_response(day, np.zeros((24, 24)))
        assert np.array_equal(response.demand, day.d0)

    def test_clamps_negative_demand(self):
        day = DayVectors(d0=[100.0, 100.0], p0=[10.0, 10.0], p=[300.0, 10.0])
        matrix = np.diag([-0.10, -0.10])
        response = multi_hour_response(day, matrix)
        # raw hour 1: 100 * (1 - 0.10 * 29) = -190, clamped
        assert response.demand[0] == 0.0
        assert response.clamped[0] and not response.clamped[1]
        assert response.demand[1] == 100.0

    def test_reduces_to_single_hour_with_diagonal_matrix(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d0 = rng.uniform(0, 5000, 24)
            p0 = rng.uniform(20, 100, 24)
            p = p0 * rng.uniform(0.5, 1.5, 24)  # moderate deviations, no clamping
            e = rng.uniform(-0.5, 0.0, 24)
            response = multi_hour_response(DayVectors(d0, p0, p), np.diag(e))
            expected = [single_hour_response(d0[i], p0[i], p[i], e[i]) for i in range(24)]
            np.testing.assert_allclose(response.demand, expected, rtol=1e-12)

    def test_superposition_of_price_deviations(self):
        rng = np.random.default_rng(3)
        matrix = build_elasticity_matrix(ElasticityTable.default(), PeriodConfig.default())
        for _ in range(50):
            d0 = rng.uniform(100, 5000, 24)
            p0 = rng.uniform(20, 100, 24)
            delta1 = rng.uniform(-5, 5, 24)
            delta2 = rng.uniform(-5, 5, 24)
            dev = lambda p: multi_hour_response(DayVectors(d0, p0, p), matrix).demand - d0
            np.testing.assert_allclose(
                dev(p0 + delta1 + delta2), dev(p0 + delta1) + dev(p0 + delta2), rtol=1e-9, atol=1e-9
            )

    def test_monotone_in_own_price(self):
        matrix = build_elasticity_matrix(ElasticityTable.default(), PeriodConfig.default())
        d0 = np.full(24, 1000.0)
        p0 = np.full(24, 30.0)
        hour = 14
        previous = None
        for price in (30.0, 35.0, 40.0, 50.0):
            p = p0.copy()
            p[hour] = price
            demand = multi_hour_response(DayVectors(d0, p0, p), matrix).demand[hour]
            if previous is not None:
                assert demand < previous
            previous = demand

    def test_baseline_price_must_be_positive(self):
        with pytest.raises(NonPositiveBaselinePriceError):
            DayVectors([100.0] * 24, [0.0] * 24, [30.0] * 24)

    def test_negative_baseline_demand_rejected(self):
        with pytest.raises(ValueError):
            DayVectors([-1.0] * 24, [30.0] * 24, [30.0] * 24)

    def test_matrix_shape_checked(self):
        day = DayVectors([100.0] * 24, [30.0] * 24, [30.0] * 24)
        with pytest.raises(ValueError):
            multi_hour_response(day, np.zeros((3, 3)))
        days = DayVectors(np.full((2, 24), 100.0), np.full((2, 24), 30.0), np.full((2, 24), 30.0))
        with pytest.raises(ValueError):
            multi_hour_response(days, np.zeros((48, 48)))

    @pytest.mark.parametrize(
        "shapes", [((2, 24), (24,), (2, 24)), ((2, 24), (2, 24), (3, 24)), ((2, 3, 4),) * 3, ((),) * 3]
    )
    def test_day_vector_shapes_checked(self, shapes):
        with pytest.raises(ValueError, match="equal-shape"):
            DayVectors(*(np.full(shape, 30.0) for shape in shapes))


def per_day_response(d0, p0, p, matrix):
    """The per-day loop the batched response replaces: one matrix-vector
    product per day, clamped at zero."""
    demand, clamped = np.empty_like(d0), np.zeros(d0.shape, dtype=bool)
    for k in range(len(d0)):
        raw = d0[k] * (1.0 + matrix @ ((p[k] - p0[k]) / p0[k]))
        clamped[k] = raw < 0
        demand[k] = np.where(clamped[k], 0.0, raw)
    return demand, clamped


_self_elasticity = st.floats(-2.0, 0.0)
_cross_elasticity = st.floats(0.0, 0.5)


@settings(max_examples=80, deadline=None)
@given(
    days=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    table=st.builds(
        ElasticityTable,
        _self_elasticity, _cross_elasticity, _cross_elasticity,
        _cross_elasticity, _self_elasticity, _cross_elasticity,
        _cross_elasticity, _cross_elasticity, _self_elasticity,
    ),
)
def test_batched_response_equals_per_day_loop(days, seed, table):
    rng = np.random.default_rng(seed)
    matrix = build_elasticity_matrix(table, random_period_config(rng))
    d0 = rng.uniform(0, 5000, (days, 24)) * (rng.random((days, 24)) > 0.05)  # some hours at zero
    p0 = rng.uniform(1, 100, (days, 24))
    p = p0 * rng.uniform(0.0, 4.0, (days, 24))  # far enough from p0 to clamp hours
    demand, clamped = per_day_response(d0, p0, p, matrix)
    response = multi_hour_response(DayVectors(d0, p0, p), matrix)
    assert np.array_equal(response.demand, demand)
    assert np.array_equal(response.clamped, clamped)
    assert response.demand.shape == response.clamped.shape == (days, 24)


class TestImpliedPrice:
    def test_no_demand_change(self):
        assert implied_price(100.0, 100.0, 30.0, -0.10) == 30.0

    def test_inverse_of_price_doubling(self):
        assert implied_price(90.0, 100.0, 30.0, -0.10) == pytest.approx(60.0)

    def test_zero_elasticity_degenerate(self):
        with pytest.raises(DegenerateInverseError):
            implied_price(90.0, 100.0, 30.0, 0.0)

    def test_zero_baseline_demand_degenerate(self):
        with pytest.raises(DegenerateInverseError):
            implied_price(90.0, 0.0, 30.0, -0.10)

    def test_non_positive_baseline_price(self):
        with pytest.raises(NonPositiveBaselinePriceError):
            implied_price(90.0, 100.0, -30.0, -0.10)

    def test_inverse_consistency_random(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            d0 = rng.uniform(1, 5000)
            p0 = rng.uniform(10, 100)
            p = rng.uniform(0, 300)
            e = rng.uniform(0.01, 1.0) * rng.choice([-1.0, 1.0])
            recovered = implied_price(single_hour_response(d0, p0, p, e), d0, p0, e)
            assert recovered == pytest.approx(p, rel=1e-9, abs=1e-9)

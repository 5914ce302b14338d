"""Spot-market price impact simulator for price-elastic demand response.

Fits a linear hourly price model to historical market data, forecasts
day-ahead prices, applies a self/cross elasticity customer response under
real-time pricing, re-prices the market with the altered demand, and
reports energy, cost, and price-spike impacts.
"""

from .elasticity import (
    DayResponse,
    DayVectors,
    DegenerateInverseError,
    ElasticityTable,
    NonPositiveBaselinePriceError,
    PeriodClass,
    PeriodConfig,
    build_elasticity_matrix,
    implied_price,
    multi_hour_response,
    single_hour_response,
)
from .market_data import (
    GapError,
    MissingColumnError,
    ParseError,
    RecordSeries,
    parse_hourly_csv,
    read_holidays,
    validate_series,
    write_hourly_csv,
)
from .pipeline import (
    EmptyWindowError,
    ImpactSummary,
    ModelRejectedError,
    ScenarioConfig,
    ScenarioResult,
    ZeroBaselineError,
    customer_bill,
    fit_price_model,
    impact_summary,
    run_scenario,
    split_train_holdout,
)
from .regression import (
    RegressionModel,
    SignificanceLevel,
    ferms,
    fit_ols,
    forward_select,
    predict,
    significance_level,
)

__version__ = "0.10.0"

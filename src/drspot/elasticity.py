"""Price-elasticity demand response models.

The single-hour response scales demand by the relative price deviation:

    d = d0 * (1 + e * (p - p0) / p0)

The day-level response couples all hours through a matrix of self (diagonal,
non-positive) and cross (off-diagonal, non-negative) elasticities:

    d(i) = d0(i) + sum_j E[i][j] * (d0(i) / p0(j)) * (p(j) - p0(j))

The matrix is built from a 3x3 table indexed by period class (peak,
off-peak, low) and a configurable hour-to-class mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

HOURS_PER_DAY = 24


class ElasticityError(Exception):
    """Base class for demand response model errors."""


class NonPositiveBaselinePriceError(ElasticityError):
    """Baseline price appears in a denominator and must be positive."""


class DegenerateInverseError(ElasticityError):
    """The price implied by a demand change is undefined (d0 = 0 or e = 0)."""


class PeriodClass(Enum):
    PEAK = "peak"
    OFFPEAK = "offpeak"
    LOW = "low"


@dataclass(frozen=True)
class PeriodConfig:
    """Partition of the 24 hours of a day into the three period classes."""

    peak_hours: frozenset[int]
    offpeak_hours: frozenset[int]
    low_hours: frozenset[int]

    def __post_init__(self):
        peak = frozenset(self.peak_hours)
        offpeak = frozenset(self.offpeak_hours)
        low = frozenset(self.low_hours)
        object.__setattr__(self, "peak_hours", peak)
        object.__setattr__(self, "offpeak_hours", offpeak)
        object.__setattr__(self, "low_hours", low)
        all_hours = set(range(1, HOURS_PER_DAY + 1))
        if len(peak) + len(offpeak) + len(low) != HOURS_PER_DAY or (peak | offpeak | low) != all_hours:
            raise ValueError("period sets must partition hours 1..24 exactly")

    @classmethod
    def default(cls) -> "PeriodConfig":
        """Low overnight (1-8), off-peak shoulders (9-12, 21-24), afternoon
        and evening peak (13-20)."""
        return cls(
            peak_hours=frozenset(range(13, 21)),
            offpeak_hours=frozenset(range(9, 13)) | frozenset(range(21, 25)),
            low_hours=frozenset(range(1, 9)),
        )

    def classify(self, hour: int) -> PeriodClass:
        if hour in self.peak_hours:
            return PeriodClass.PEAK
        if hour in self.offpeak_hours:
            return PeriodClass.OFFPEAK
        if hour in self.low_hours:
            return PeriodClass.LOW
        raise ValueError(f"hour must be in 1..24, got {hour}")


@dataclass(frozen=True)
class ElasticityTable:
    """3x3 elasticity table indexed by (demand period, price period).

    Diagonal entries are self-elasticities (<= 0); off-diagonal entries are
    cross-elasticities (>= 0). Field names double as the config file keys.
    """

    peak_peak: float
    peak_offpeak: float
    peak_low: float
    offpeak_peak: float
    offpeak_offpeak: float
    offpeak_low: float
    low_peak: float
    low_offpeak: float
    low_low: float

    def __post_init__(self):
        # Written so that NaN fails: every comparison with NaN is false.
        for name in ("peak_peak", "offpeak_offpeak", "low_low"):
            value = getattr(self, name)
            if not -math.inf < value <= 0:
                raise ValueError(f"self-elasticity {name} must be finite and <= 0, got {value}")
        for name in ("peak_offpeak", "peak_low", "offpeak_peak", "offpeak_low", "low_peak", "low_offpeak"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"cross-elasticity {name} must be finite and >= 0, got {value}")

    @classmethod
    def default(cls) -> "ElasticityTable":
        return cls(
            peak_peak=-0.10, peak_offpeak=0.016, peak_low=0.012,
            offpeak_peak=0.016, offpeak_offpeak=-0.10, offpeak_low=0.01,
            low_peak=0.012, low_offpeak=0.01, low_low=-0.10,
        )

    @classmethod
    def zero(cls) -> "ElasticityTable":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    @classmethod
    def diagonal(cls, self_elasticity: float = -0.10) -> "ElasticityTable":
        """Self-elasticity only, no cross-hour shifting."""
        return cls(
            peak_peak=self_elasticity, peak_offpeak=0.0, peak_low=0.0,
            offpeak_peak=0.0, offpeak_offpeak=self_elasticity, offpeak_low=0.0,
            low_peak=0.0, low_offpeak=0.0, low_low=self_elasticity,
        )

    def value(self, demand_class: PeriodClass, price_class: PeriodClass) -> float:
        return getattr(self, f"{demand_class.value}_{price_class.value}")


def build_elasticity_matrix(table: ElasticityTable, cfg: PeriodConfig) -> np.ndarray:
    """Expand a period-class table into the 24x24 hour-by-hour matrix.

    The diagonal carries the self-elasticity of each hour's class. An
    off-diagonal entry [i, j] is the cross-elasticity between the classes
    of hours i and j; distinct hours within the same class get 0 (the
    table's diagonal describes an hour's own price only, and cross terms
    must stay non-negative).
    """
    order = (PeriodClass.PEAK, PeriodClass.OFFPEAK, PeriodClass.LOW)
    small = np.array([[table.value(a, b) for b in order] for a in order])
    idx = np.array([order.index(cfg.classify(h)) for h in range(1, HOURS_PER_DAY + 1)])
    matrix = small[np.ix_(idx, idx)]
    same_class = idx[:, None] == idx[None, :]
    matrix[same_class] = 0.0
    matrix[np.diag_indices(HOURS_PER_DAY)] = small[idx, idx]
    return matrix


@dataclass(frozen=True)
class DayVectors:
    """Inputs to the day-level response: baseline demand d0, baseline price
    p0, and offered (real-time) price p, all per hour. Each is one day's
    vector, or an array of shape (days, hours) with one day per row."""

    d0: np.ndarray
    p0: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        d0 = np.asarray(self.d0, dtype=float)
        p0 = np.asarray(self.p0, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if d0.ndim not in (1, 2) or not (d0.shape == p0.shape == p.shape):
            raise ValueError("d0, p0, p must be equal-shape vectors or (days, hours) arrays")
        if np.any(p0 <= 0):
            raise NonPositiveBaselinePriceError("all baseline prices p0 must be > 0")
        if np.any(d0 < 0):
            raise ValueError("baseline demand d0 must be non-negative")
        object.__setattr__(self, "d0", d0)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "p", p)


class DayResponse(NamedTuple):
    demand: np.ndarray
    clamped: np.ndarray


def single_hour_response(d0: float, p0: float, p: float, e: float) -> float:
    """Demand after a price change in one hour: d0 * (1 + e*(p - p0)/p0)."""
    if p0 <= 0:
        raise NonPositiveBaselinePriceError(f"baseline price must be > 0, got {p0}")
    return d0 * (1.0 + e * (p - p0) / p0)


def multi_hour_response(day: DayVectors, matrix: np.ndarray) -> DayResponse:
    """Demand for every hour of a day, or of every day (row) of a
    (days, hours) batch, under self- and cross-elasticity; the result has
    the shape of ``day.d0``.

    Hours where the linear model dips below zero are clamped to zero and
    flagged; physical demand cannot be negative.
    """
    e = np.asarray(matrix, dtype=float)
    n = day.d0.shape[-1]
    if e.shape != (n, n):
        raise ValueError(f"elasticity matrix must be {n}x{n}, got {e.shape}")
    relative_deviation = (day.p - day.p0) / day.p0
    # One matrix-vector product per day, as a stack: the rounding of a
    # day does not depend on the batch it is in (a single matrix-matrix
    # product, rel @ e.T, rounds differently).
    raw = day.d0 * (1.0 + (e @ relative_deviation[..., None])[..., 0])
    clamped = raw < 0
    return DayResponse(demand=np.where(clamped, 0.0, raw), clamped=clamped)


def implied_price(d: float, d0: float, p0: float, e: float) -> float:
    """Price consistent with a demand change, the exact inverse of
    :func:`single_hour_response`: p0 + p0*(d - d0)/(e*d0)."""
    if p0 <= 0:
        raise NonPositiveBaselinePriceError(f"baseline price must be > 0, got {p0}")
    if d0 == 0 or e == 0:
        raise DegenerateInverseError("implied price undefined for d0 = 0 or e = 0")
    return p0 + p0 * (d - d0) / (e * d0)

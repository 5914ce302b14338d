"""The CSV writer of drspot.csv_text against Python's own formatting: floats
against ``repr``, stamps against ``datetime.isoformat``, files against
``csv.writer``."""

from __future__ import annotations

import csv
import io
import math
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drspot.csv_text import cell_strings, flag_grid, float_grid, float_grids, stamp_grid, stamp_strings, write_csv


def _reprs(values) -> list[str]:
    return [repr(float(v)) for v in values]


def _texts(values) -> list[str]:
    return cell_strings(float_grid(np.array(values, dtype=float)))


def _neighbours(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


# Decimals of 1 to 17 significant digits at decades from 1e-20 to 1e18, and
# their neighbours up to two units in the last place away.
_decimals = st.builds(
    lambda digits, exponent, steps, negative: _neighbours(float(f"{'-' if negative else ''}{digits}e{exponent}"), steps),
    st.integers(1, 10**17 - 1),
    st.integers(-36, 18),
    st.integers(-2, 2),
    st.booleans(),
)
# Integers with a dyadic fraction of up to 16ths, exact below 2**48: their
# decimals of 17 digits are often exact ties (98738719860821.375, say).
_dyadic = st.builds(lambda whole, sixteenths: whole + sixteenths / 16, st.integers(0, 2**48 - 1), st.integers(0, 15))
_powers = st.one_of(
    st.builds(lambda k, steps: _neighbours(2.0**k, steps), st.integers(-1074, 1023), st.integers(-2, 2)),
    st.builds(lambda k, steps: _neighbours(float(f"1e{k}"), steps), st.integers(-30, 30), st.integers(-2, 2)),
)
_specials = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308])
_subnormals = st.floats(min_value=5e-324, max_value=2.2250738585072014e-308)
_any_float = st.one_of(st.floats(), _decimals, _dyadic, _powers, _specials, _subnormals)


@example([98738719860821.375, 0.1 + 0.2, 1e-4, 9.999999999999999e-5, 1e15, 999999999999999.9, 2.0**-14])
@example([-0.0, 0.0, 0.5, -1234.5, 1e16, 123456789012345.6])
@given(st.lists(_any_float, min_size=1, max_size=12))
def test_float_cells_match_repr(values):
    assert _texts(values) == _reprs(values)


def _bulk_sample(rng: np.random.Generator, size: int) -> np.ndarray:
    """Random bit patterns from 1e-6 to 1e16, decimals of 1 to 17 digits
    from 1e-6 up, their neighbours one and two units in the last place away,
    and sums and products of such decimals, a quarter each, a quarter of
    them negative."""
    low, high = np.float64(1e-6).view(np.int64), np.float64(1e16).view(np.int64)
    bits = rng.integers(low, high, size).view(np.float64)
    decimals = np.floor(rng.random(size) * 10.0 ** rng.integers(1, 18, size)) * 10.0 ** rng.integers(-6, 2, size)
    away = np.where(rng.random(size) < 0.5, -np.inf, np.inf)
    neighbours = np.nextafter(decimals, away)
    neighbours[::2] = np.nextafter(neighbours[::2], away[::2])
    mixed = decimals + decimals[::-1]
    mixed[::2] = decimals[::2] * decimals[1::2]
    values = np.choose(rng.integers(0, 4, size), [bits, decimals, neighbours, mixed])
    values[::4] *= -1.0
    return values


def test_float_cells_match_repr_in_bulk():
    """A seeded sample of 10,000 values for each example that a property
    runs: 1 M values by default, 10 M under the ci profile."""
    rng = np.random.default_rng(20161)
    for _ in range(settings().max_examples // 25):
        values = _bulk_sample(rng, 250_000)
        assert cell_strings(float_grid(values)) == list(map(repr, values.tolist()))


@pytest.mark.filterwarnings("error")
def test_cells_outside_the_vector_domain_raise_no_warning(tmp_path):
    values = np.array([math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, 1.7976931348623157e308, 1e-5, 0.0])
    assert _texts(values) == _reprs(values)
    times = np.datetime64("2021-06-07T00:00", "us") + np.arange(len(values)) * np.timedelta64(1, "h")
    write_csv(tmp_path / "out.csv", ("timestamp", "value"), [stamp_grid(times), *float_grids(values)])
    assert (tmp_path / "out.csv").read_text().splitlines()[1:] == [
        f"{stamp},{text}" for stamp, text in zip(stamp_strings(times), _reprs(values))
    ]


def test_grids_of_several_columns_are_trimmed_to_their_own_places():
    small, large, fallback = float_grids(np.array([1.5, 2.0]), np.array([-123456.0625]), np.array([math.nan]))
    assert small.shape == (3, 2)  # "1.5" and "2.0": no sign
    assert large.shape == (12, 1)
    assert cell_strings(small) == ["1.5", "2.0"]
    assert cell_strings(large) == ["-123456.0625"]
    assert cell_strings(fallback) == ["nan"]


_years_1_to_9999 = st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59, 999_999))


@example([datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59, 999_999), datetime(1969, 12, 31, 23, 59, 30)])
@example([datetime(1900, 2, 28, 23, 59, 1), datetime(2000, 2, 29, 12, 34, 56), datetime(1600, 3, 1)])
@given(st.lists(_years_1_to_9999, max_size=8))
def test_stamps_match_isoformat(stamps):
    times = np.array(stamps, dtype="datetime64[us]")
    assert stamp_strings(times) == [ts.isoformat(timespec="minutes") for ts in stamps]


@pytest.mark.parametrize("stamp", ["0000-12-31T23:59", "10000-01-01T00:00", "NaT"])
def test_stamps_outside_years_1_to_9999_are_refused(stamp):
    with pytest.raises(ValueError, match="years 1 to 9999"):
        stamp_grid(np.array([stamp], dtype="datetime64[m]"))


@pytest.mark.parametrize("rows", [0, 1, 600, 1500])  # within and across blocks of lines
def test_file_bytes_match_csv_writer(tmp_path, rows):
    rng = np.random.default_rng(rows)
    times = np.datetime64("1969-12-31T22:00", "us") + np.arange(rows) * np.timedelta64(7, "m")
    prices = rng.normal(30.0, 40.0, rows)
    prices[::97] = math.nan
    demand = np.round(rng.normal(1600.0, 200.0, rows), 3)
    demand[::89] = 1e300
    flags = rng.random(rows) < 0.3
    header = ("timestamp", "price", "demand", "clamped")
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    for ts, price, load, flag in zip(times.tolist(), prices.tolist(), demand.tolist(), flags.tolist()):
        writer.writerow([ts.isoformat(timespec="minutes"), repr(price), repr(load), int(flag)])
    grids = [stamp_grid(times), *float_grids(prices, demand), flag_grid(flags)]
    text = io.StringIO()
    write_csv(text, header, grids)
    write_csv(tmp_path / "out.csv", header, grids)
    assert text.getvalue() == expected.getvalue()
    assert (tmp_path / "out.csv").read_bytes() == expected.getvalue().encode()


def test_stamps_every_hour_of_a_leap_year_and_its_neighbours():
    start = datetime(2023, 12, 31)
    stamps = [start + timedelta(hours=h) for h in range(24 * 368)]
    assert stamp_strings(np.array(stamps, dtype="datetime64[us]")) == [s.isoformat(timespec="minutes") for s in stamps]

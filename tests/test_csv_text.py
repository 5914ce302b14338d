"""The CSV writer of drspot.csv_text against Python's own formatting: floats
against ``repr``, stamps against ``datetime.isoformat``, files against
``csv.writer``, across the writer's blocks of rows."""

from __future__ import annotations

import csv
import io
import math
from datetime import datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from drspot import csv_text
from drspot.csv_text import cell_strings, float_grid, stamp_grid, write_csv, write_csvs


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
    write_csv(tmp_path / "out.csv", ("timestamp", "value"), [times, values])
    assert (tmp_path / "out.csv").read_text().splitlines()[1:] == [
        f"{stamp},{text}" for stamp, text in zip(cell_strings(stamp_grid(times)), _reprs(values))
    ]


def test_grids_of_several_columns_are_trimmed_to_their_own_places():
    columns = np.array([1.5, 2.0]), np.array([-123456.0625, 7.0]), np.array([math.nan, 1.0])
    small, large, fallback = csv_text._grids(columns)
    assert small.shape == (3, 2)  # "1.5" and "2.0": no sign
    assert large.shape == (12, 2)
    assert cell_strings(small) == ["1.5", "2.0"]
    assert cell_strings(large) == ["-123456.0625", "7.0"]
    assert cell_strings(fallback) == ["nan", "1.0"]


def test_each_distinct_column_is_rendered_once(tmp_path):
    small, large, fallback = np.array([1.5, 2.0]), np.array([-123456.0625, 7.0]), np.array([math.nan, 1.0])
    text = io.StringIO()
    files = [(text, ("a", "b", "c", "a"), [small, large, fallback, small]), (tmp_path / "b.csv", ("b",), [large])]
    with mock.patch.object(csv_text, "float_grid", wraps=float_grid) as render:
        write_csvs(files)
    assert sum(len(call.args[0]) for call in render.call_args_list) == 6  # three columns of two rows
    assert text.getvalue() == "a,b,c,a\n1.5,-123456.0625,nan,1.5\n2.0,7.0,1.0,2.0\n"
    assert (tmp_path / "b.csv").read_text() == "b\n-123456.0625\n7.0\n"


def test_columns_of_unequal_length_are_refused(tmp_path):
    with pytest.raises(ValueError, match="columns differ in length"):
        write_csv(tmp_path / "out.csv", ("a", "b"), [np.zeros(2), np.zeros(3)])
    assert not (tmp_path / "out.csv").exists()


_years_1_to_9999 = st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59, 999_999))


@example([datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59, 999_999), datetime(1969, 12, 31, 23, 59, 30)])
@example([datetime(1900, 2, 28, 23, 59, 1), datetime(2000, 2, 29, 12, 34, 56), datetime(1600, 3, 1)])
@given(st.lists(_years_1_to_9999, max_size=8))
def test_stamps_match_isoformat(stamps):
    times = np.array(stamps, dtype="datetime64[us]")
    assert cell_strings(stamp_grid(times)) == [ts.isoformat(timespec="minutes") for ts in stamps]


@pytest.mark.parametrize(
    "stamps",
    [
        pytest.param(["0000-12-31T23:59"], id="0000-12-31T23:59"),
        pytest.param(["10000-01-01T00:00"], id="10000-01-01T00:00"),
        pytest.param(["NaT"], id="NaT"),
        pytest.param(["2021-06-07T05:00", "NaT"], id="NaT-after-a-valid-stamp"),
        pytest.param(["0001-01-01T00:00", "9999-12-31T23:59", "10000-01-01T00:00"], id="10000-after-valid-stamps"),
        pytest.param(["9999-12-31T23:59", "0000-12-31T23:59"], id="0000-after-a-valid-stamp"),
    ],
)
def test_stamps_outside_years_1_to_9999_are_refused(stamps):
    with pytest.raises(ValueError, match="years 1 to 9999"):
        stamp_grid(np.array(stamps, dtype="datetime64[m]"))


def _csv_text(header, *columns) -> str:
    """The reference CSV text: ``csv.writer`` of isoformat stamps, ``repr``
    floats and 0/1 flags."""
    def cells(column):
        if column.dtype.kind == "M":
            return [ts.isoformat(timespec="minutes") for ts in column.tolist()]
        return [int(flag) for flag in column.tolist()] if column.dtype == bool else _reprs(column)

    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*map(cells, columns)))
    return expected.getvalue()


# Within and across blocks of lines, and across a block of rows.
@pytest.mark.parametrize("rows", [0, 1, 600, 1500, csv_text._BLOCK_VALUES + 1])
def test_file_bytes_match_csv_writer(tmp_path, rows):
    rng = np.random.default_rng(rows)
    times = np.datetime64("1969-12-31T22:00", "us") + np.arange(rows) * np.timedelta64(7, "m")
    prices = rng.normal(30.0, 40.0, rows)
    prices[::97] = math.nan
    demand = np.round(rng.normal(1600.0, 200.0, rows), 3)
    demand[::89] = 1e300
    flags = rng.random(rows) < 0.3
    header = ("timestamp", "price", "demand", "clamped")
    columns = [times, prices, demand, flags]
    expected = _csv_text(header, *columns)
    text = io.StringIO()
    write_csv(text, header, columns)
    write_csv(tmp_path / "out.csv", header, columns)
    assert text.getvalue() == expected
    assert (tmp_path / "out.csv").read_bytes() == expected.encode()


_BLOCK = 5  # rows rendered at a time in the block-boundary property
_FALLBACKS = st.sampled_from([math.nan, 1e300, 5e-324, -math.inf])


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.sampled_from([0, 1, 4, 5, 6, 8, 11, 16]),
    block_rows=st.sampled_from([1, 2, _BLOCK]),
    values=st.lists(st.floats(-1e4, 1e4, allow_subnormal=False), min_size=16, max_size=16),
    decades=st.lists(st.integers(-3, 10), min_size=3, max_size=3),
    late=st.dictionaries(st.integers(0, 15), _FALLBACKS, max_size=3),
    flags=st.lists(st.booleans(), min_size=16, max_size=16),
)
def test_blocks_of_rows_join_into_the_csv_writer_bytes(tmp_path, n, block_rows, values, decades, late, flags):
    """With blocks of about 5 rows: a column whose integer width and
    fraction places change from block to block, repr's cells in a later
    block only, one array in two files and twice in one, to a text stream
    and a path."""
    times = np.datetime64("2020-02-28T21:00", "us") + np.arange(n) * np.timedelta64(1, "h")
    with mock.patch.object(csv_text, "_BLOCK_VALUES", _BLOCK), mock.patch.object(csv_text, "_BLOCK_ROWS", block_rows):
        blocks = csv_text.row_blocks(n)
        # Each block of rows at its own decade: its own integer and fraction places.
        wide = np.array(values[:n])
        short = np.round(wide, 2)
        for rows, decade in zip(blocks, decades):
            wide[rows] *= 10.0**decade
        for row, value in late.items():
            if row >= blocks[0].stop and row < n:
                short[row] = value
        flag = np.array(flags[:n], dtype=bool)
        result = ("timestamp", "wide", "short", "again", "flag")
        with mock.patch.object(csv_text, "float_grid", wraps=float_grid) as render:
            text = io.StringIO()
            write_csvs(
                [
                    (text, result, [times, wide, short, wide, flag]),
                    (tmp_path / "result.csv", result, [times, wide, short, wide, flag]),
                    (tmp_path / "plot.csv", ("timestamp", "short"), [times, short]),
                ]
            )
    assert sum(len(call.args[0]) for call in render.call_args_list) == 2 * n  # wide and short, once each
    expected = _csv_text(result, times, wide, short, wide, flag)
    assert text.getvalue() == expected
    assert (tmp_path / "result.csv").read_bytes() == expected.encode()
    assert (tmp_path / "plot.csv").read_text() == _csv_text(("timestamp", "short"), times, short)


def test_stamps_every_hour_of_a_leap_year_and_its_neighbours():
    start = datetime(2023, 12, 31)
    stamps = [start + timedelta(hours=h) for h in range(24 * 368)]
    expected = [s.isoformat(timespec="minutes") for s in stamps]
    assert cell_strings(stamp_grid(np.array(stamps, dtype="datetime64[us]"))) == expected

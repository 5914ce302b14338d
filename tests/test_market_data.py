from __future__ import annotations

import csv
import io
import math
import re
from datetime import date, datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import series_to_csv, synthetic_market
from drspot import market_data, plain_blocks
from drspot.csv_text import cell_strings, float_grid, stamp_strings
from drspot.market_data import (
    GapError,
    MarketDataError,
    MissingColumnError,
    ParseError,
    RecordSeries,
    parse_hourly_csv,
    read_holidays,
    validate_series,
    write_hourly_csv,
)
from reference import HourlyRecord, derive_calendar, series_from_records

CSV_3ROWS = """timestamp,demand_mwh,spot_price,dry_bulb_f,dew_point_f
2014-08-18T00:00,1000.0,25.5,70.0,58.0
2014-08-18T01:00,950.0,24.0,69.0,57.5
2014-08-18T02:00,900.0,23.1,68.0,57.0
"""


def test_parse_minimal_csv():
    series = parse_hourly_csv(io.StringIO(CSV_3ROWS))
    assert len(series) == 3
    rec, cal = reference.hours(series)[0]
    assert series.hour_of_day[0] == 1
    assert rec.timestamp == datetime(2014, 8, 18, 0)
    assert rec.demand == 1000.0
    assert rec.spot_price == 25.5
    assert rec.dry_bulb_temp == 70.0
    assert rec.dew_point == 58.0
    assert cal.hour_of_day == 1


def test_parse_gap_strict_names_missing_hour():
    lines = CSV_3ROWS.splitlines()
    del lines[2]  # drop the 01:00 row
    with pytest.raises(GapError) as excinfo:
        parse_hourly_csv(io.StringIO("\n".join(lines)))
    assert "2014-08-18T01:00" in str(excinfo.value)
    assert excinfo.value.missing == datetime(2014, 8, 18, 1)


def test_parse_gap_permissive_fills_and_flags():
    lines = CSV_3ROWS.splitlines()
    del lines[2]
    series = parse_hourly_csv(io.StringIO("\n".join(lines)), strict=False)
    assert len(series) == 3
    filled_rec = reference.records(series)[1]
    assert filled_rec.timestamp == datetime(2014, 8, 18, 1)
    assert filled_rec.demand == pytest.approx(950.0)       # linear between 1000 and 900
    assert filled_rec.dry_bulb_temp == pytest.approx(69.0)
    assert filled_rec.spot_price == 25.5                   # forward-filled
    assert series.filled.tolist() == [datetime(2014, 8, 18, 1)]
    assert validate_series(series) == []


def test_parse_bad_demand_cites_row_and_column():
    bad = CSV_3ROWS.replace("1000.0", "abc")
    with pytest.raises(ParseError) as excinfo:
        parse_hourly_csv(io.StringIO(bad))
    assert excinfo.value.row == 2
    assert excinfo.value.column == "demand_mwh"


@pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-Infinity"])
def test_parse_non_finite_value_rejected(raw):
    bad = CSV_3ROWS.replace("24.0", raw)
    with pytest.raises(ParseError) as excinfo:
        parse_hourly_csv(io.StringIO(bad))
    assert excinfo.value.row == 3
    assert excinfo.value.column == "spot_price"
    assert "non-finite value" in str(excinfo.value)


@pytest.mark.parametrize("raw", ["1_000", "٢٥", "１２", " 9_5 "])
def test_parse_non_ascii_or_underscore_value_rejected_on_both_paths(raw):
    # Python's float reads all of these (as 1000.0, 25.0, 12.0 and 95.0).
    bad = CSV_3ROWS.replace("24.0", raw)
    for parse in (parse_hourly_csv, _parse_by_reader):
        with pytest.raises(ParseError) as excinfo:
            parse(io.StringIO(bad))
        assert str(excinfo.value) == f"row 3, column 'spot_price': non-numeric value: {raw.strip()!r}"


def test_parse_missing_column():
    bad = CSV_3ROWS.replace("spot_price", "price_usd")
    with pytest.raises(MissingColumnError) as excinfo:
        parse_hourly_csv(io.StringIO(bad))
    assert excinfo.value.column == "spot_price"


def test_parse_schema_remap():
    renamed = CSV_3ROWS.replace("demand_mwh", "Load").replace("spot_price", "RT_LMP")
    series = parse_hourly_csv(
        io.StringIO(renamed), schema={"demand_mwh": "Load", "spot_price": "RT_LMP"}
    )
    assert len(series) == 3
    assert series.demand[0] == 1000.0


def test_parse_ignores_da_price_column():
    # A day-ahead price column is not read: not even a non-numeric cell fails.
    expected = parse_hourly_csv(io.StringIO(CSV_3ROWS))
    extra = ["da_price", "", "nan", "abc"]
    for position in (1, 5):  # after the timestamp, and last
        lines = []
        for cell, line in zip(extra, CSV_3ROWS.splitlines()):
            cells = line.split(",")
            cells.insert(position, cell)
            lines.append(",".join(cells))
        with_extra = parse_hourly_csv(io.StringIO("\n".join(lines) + "\n"))
        assert with_extra == expected
        assert series_to_csv(with_extra) == CSV_3ROWS


def test_parse_bad_timestamp():
    bad = CSV_3ROWS.replace("2014-08-18T01:00", "not-a-time")
    with pytest.raises(ParseError) as excinfo:
        parse_hourly_csv(io.StringIO(bad))
    assert excinfo.value.column == "timestamp"
    assert excinfo.value.row == 3


def test_parse_sub_hour_timestamp_rejected():
    bad = CSV_3ROWS.replace("2014-08-18T01:00", "2014-08-18T01:30")
    with pytest.raises(ParseError):
        parse_hourly_csv(io.StringIO(bad))


def test_parse_duplicate_timestamp_rejected():
    bad = CSV_3ROWS.replace("2014-08-18T01:00", "2014-08-18T00:00")
    with pytest.raises(GapError):
        parse_hourly_csv(io.StringIO(bad))


def test_parse_repeated_hour_names_row_and_hour():
    bad = CSV_3ROWS.replace("2014-08-18T02:00", "2014-08-18T01:00")
    for strict in (True, False):
        with pytest.raises(GapError) as excinfo:
            parse_hourly_csv(io.StringIO(bad), strict=strict)
        assert str(excinfo.value) == "row 4: duplicate hour 2014-08-18T01:00"
        assert excinfo.value.row == 4
        assert excinfo.value.found == datetime(2014, 8, 18, 1)


def test_parse_earlier_hour_names_row_and_previous_hour():
    bad = CSV_3ROWS.replace("2014-08-18T02:00", "2014-08-17T23:00")
    with pytest.raises(GapError) as excinfo:
        parse_hourly_csv(io.StringIO(bad), strict=False)
    assert str(excinfo.value) == "row 4: hour 2014-08-17T23:00 not after 2014-08-18T01:00"


@pytest.mark.parametrize("stamp", ["2014-08-18T01:00+00:00", "2014-08-18T01:00-05:00"])
def test_parse_utc_offset_rejected(stamp):
    bad = CSV_3ROWS.replace("2014-08-18T01:00", stamp)
    with pytest.raises(ParseError) as excinfo:
        parse_hourly_csv(io.StringIO(bad))
    assert (excinfo.value.row, excinfo.value.column, excinfo.value.value) == (3, "timestamp", stamp)
    assert "timestamp has a UTC offset; local time expected" in str(excinfo.value)


def test_parse_reports_first_bad_cell_in_file_order():
    content = (
        "timestamp,demand_mwh,spot_price,dry_bulb_f,dew_point_f\n"
        "2014-08-18T00:00,1000.0,25.5,70.0,58.0\n"
        "2014-08-18T01:00,950.0,oops,69.0\n"  # bad price before the missing cell
        "2014-08-18T09:00,x,x,x,x\n"
    )
    with pytest.raises(ParseError) as excinfo:
        parse_hourly_csv(io.StringIO(content))
    assert (excinfo.value.row, excinfo.value.column) == (3, "spot_price")
    with pytest.raises(ParseError) as excinfo:
        parse_hourly_csv(io.StringIO(content.replace("oops", "24.0")))
    assert (excinfo.value.row, excinfo.value.column) == (3, "dew_point_f")
    assert "row too short" in str(excinfo.value)


def test_parse_keeps_rows_and_gaps_across_chunks():
    edge = market_data._CHUNK_ROWS  # data rows are converted this many at a time
    start = datetime(2020, 12, 31, 0)
    records = [_record(start + timedelta(hours=h), demand=float(h)) for h in range(2 * edge + 100)]
    series = series_from_records(records)
    lines = series_to_csv(series).splitlines()  # lines[k] is file row k + 1
    # Plain blocks of the characters of `edge` data lines end there too.
    with mock.patch.object(market_data, "_BLOCK_CHARS", sum(len(line) + 1 for line in lines[1 : edge + 1])):
        assert parse_hourly_csv(io.StringIO("\n".join(lines))) == series

        holed = lines[:edge] + lines[edge + 2 :]  # data rows edge - 1 and edge, across the chunk edge
        with pytest.raises(GapError) as excinfo:
            parse_hourly_csv(io.StringIO("\n".join(holed)))
        assert excinfo.value.missing == records[edge - 1].timestamp
        filled = parse_hourly_csv(io.StringIO("\n".join(holed)), strict=False)
        assert filled == series
        assert filled.filled.tolist() == [records[edge - 1].timestamp, records[edge].timestamp]

        repeated = lines[: edge + 1] + [lines[edge]] + lines[edge + 1 :]
        with pytest.raises(GapError, match=f"row {edge + 2}: duplicate hour "):
            parse_hourly_csv(io.StringIO("\n".join(repeated)))

        bad = lines[:10] + [""] + lines[10:]  # a blank line shifts later file rows by one
        fields = bad[2 * edge + 5].split(",")
        fields[1] = "abc"
        bad[2 * edge + 5] = ",".join(fields)
        with pytest.raises(ParseError) as excinfo:
            parse_hourly_csv(io.StringIO("\n".join(bad)))
        assert (excinfo.value.row, excinfo.value.column) == (2 * edge + 6, "demand_mwh")


def _checked_calendar(ts, holidays=frozenset()):
    """derive_calendar of ``ts``, after checking that the columns of a
    one-hour series give the same features."""
    cal = derive_calendar(ts, holidays)
    assert reference.calendar(series_from_records([_record(ts)], holidays)) == [cal]
    return cal


def test_derive_calendar_weekday():
    cal = _checked_calendar(datetime(2014, 8, 18, 13))  # a Monday
    assert cal.hour_of_day == 14
    assert cal.month == 8
    assert not cal.is_holiday and not cal.is_saturday and not cal.is_sunday


def test_derive_calendar_sunday_midnight():
    cal = _checked_calendar(datetime(2014, 8, 24, 0))
    assert cal.hour_of_day == 1
    assert cal.is_sunday and not cal.is_saturday


def test_derive_calendar_saturday():
    cal = _checked_calendar(datetime(2014, 8, 23, 12))
    assert cal.is_saturday and not cal.is_sunday


def test_derive_calendar_holiday():
    holidays = {date(2014, 7, 4)}
    assert _checked_calendar(datetime(2014, 7, 4, 9), holidays).is_holiday
    assert not _checked_calendar(datetime(2014, 7, 5, 9), holidays).is_holiday


def test_derive_calendar_is_pure():
    ts = datetime(2014, 8, 18, 13)
    assert derive_calendar(ts) == derive_calendar(ts)
    assert derive_calendar(ts, {date(2014, 8, 18)}) == derive_calendar(ts, {date(2014, 8, 18)})


def test_calendar_hour_range_over_full_day():
    hours = [derive_calendar(datetime(2014, 8, 18, h)).hour_of_day for h in range(24)]
    assert hours == list(range(1, 25))
    day = series_from_records([_record(datetime(2014, 8, 18, h)) for h in range(24)])
    assert day.hour_of_day.tolist() == list(range(1, 25))


def _series(records):
    return series_from_records(records)


def _record(ts, demand=100.0):
    return HourlyRecord(ts, demand, 30.0, 70.0, 60.0)


def test_validate_contiguous_day_ok():
    series = _series([_record(datetime(2014, 8, 18, h)) for h in range(24)])
    assert validate_series(series) == []


def test_validate_duplicate_timestamp():
    series = _series([_record(datetime(2014, 8, 18, 0)), _record(datetime(2014, 8, 18, 0))])
    violations = validate_series(series)
    assert len(violations) == 1
    assert "duplicate" in violations[0]
    assert "2014-08-18T00:00" in violations[0]


def test_validate_negative_demand():
    series = _series([_record(datetime(2014, 8, 18, 0)), _record(datetime(2014, 8, 18, 1), demand=-5.0)])
    violations = validate_series(series)
    assert len(violations) == 1
    assert "row 1" in violations[0] and "negative demand" in violations[0]


def test_validate_gap():
    series = _series([_record(datetime(2014, 8, 18, 0)), _record(datetime(2014, 8, 18, 2))])
    violations = validate_series(series)
    assert len(violations) == 1
    assert "missing hour 2014-08-18T01:00" in violations[0]


def test_validate_sub_hour_timestamp():
    series = _series([_record(datetime(2014, 8, 18, 0, 30))])
    assert any("hour boundary" in v for v in validate_series(series))


def test_csv_round_trip():
    rng = np.random.default_rng(7)
    records = [
        HourlyRecord(
            timestamp=datetime(2014, 8, 18, 0) + (h * (datetime(2014, 8, 18, 1) - datetime(2014, 8, 18, 0))),
            demand=float(rng.uniform(0, 5000)),
            spot_price=float(rng.uniform(5, 200)),
            dry_bulb_temp=float(rng.uniform(40, 100)),
            dew_point=float(rng.uniform(30, 80)),
        )
        for h in range(48)
    ]
    series = series_from_records(records, holidays={date(2014, 8, 19)})
    text = series_to_csv(series)
    reparsed = parse_hourly_csv(io.StringIO(text), holidays={date(2014, 8, 19)})
    assert reparsed == series


def test_csv_round_trip_via_file(tmp_path):
    series = _series([_record(datetime(2014, 8, 18, h)) for h in range(24)])
    path = tmp_path / "day.csv"
    write_hourly_csv(series, path)
    assert parse_hourly_csv(path) == series


def test_series_slicing_and_between():
    series = _series([_record(datetime(2014, 8, 18, h)) for h in range(24)])
    front = series[:6]
    assert isinstance(front, RecordSeries) and len(front) == 6
    window = series.between(datetime(2014, 8, 18, 6), datetime(2014, 8, 18, 9))
    assert [ts.hour for ts in window.times.tolist()] == [6, 7, 8]


def test_slices_share_columns_and_are_read_only():
    series = _series([_record(datetime(2014, 8, 18, h)) for h in range(24)])
    window = series.between(datetime(2014, 8, 18, 6), datetime(2014, 8, 18, 9))
    for part in (series[2:10], window):
        assert np.shares_memory(part.demand, series.demand)
        assert np.shares_memory(part.hour_of_day, series.hour_of_day)
    with pytest.raises(ValueError):
        series.demand[0] = 1.0


def test_record_constructor_rejects_aware_timestamps():
    with pytest.raises(ValueError, match="naive"):
        _series([_record(datetime(2014, 8, 18, tzinfo=timezone.utc))])


# Starts next to leap days, year ends and a non-leap century year, plus any hour.
_SPECIAL_STARTS = [
    datetime(1999, 12, 30, 22),
    datetime(2000, 2, 28, 5),
    datetime(2023, 12, 31, 20),
    datetime(2024, 2, 27, 23),
    datetime(2100, 2, 27, 12),
    datetime(1969, 12, 31, 3),
]
_any_hour = st.datetimes(min_value=datetime(1960, 1, 1), max_value=datetime(2099, 12, 31)).map(
    lambda ts: ts.replace(minute=0, second=0, microsecond=0)
)


@settings(max_examples=150, deadline=None)
@given(
    start=st.one_of(st.sampled_from(_SPECIAL_STARTS), _any_hour),
    hours=st.integers(min_value=0, max_value=24 * 9),
    holiday_days=st.sets(st.integers(min_value=-1, max_value=10), max_size=5),
    cut=st.tuples(st.integers(-300, 300), st.integers(-300, 300)),
    window=st.tuples(st.integers(-30, 24 * 10), st.integers(-30, 24 * 10), st.integers(0, 59)),
)
def test_columnar_calendar_slices_and_between_match_per_record_reference(
    start, hours, holiday_days, cut, window
):
    holidays = {start.date() + timedelta(days=d) for d in holiday_days}
    records = [_record(start + timedelta(hours=h), demand=float(h)) for h in range(hours)]
    series = series_from_records(records, holidays=holidays)

    expected = [derive_calendar(r.timestamp, holidays) for r in records]
    assert reference.calendar(series) == expected
    assert series.hour_of_day.tolist() == [c.hour_of_day for c in expected]
    assert series.month.tolist() == [c.month for c in expected]
    assert series.is_holiday.tolist() == [c.is_holiday for c in expected]
    assert series.weekday.tolist() == [r.timestamp.weekday() for r in records]
    assert reference.records(series) == records

    a, b = cut
    part = series[a:b]
    assert reference.records(part) == records[a:b]
    assert reference.calendar(part) == expected[a:b]

    lo = start + timedelta(hours=window[0], minutes=window[2])
    hi = start + timedelta(hours=window[1])
    kept = [i for i, r in enumerate(records) if lo <= r.timestamp < hi]
    between = series.between(lo, hi)
    assert reference.records(between) == [records[i] for i in kept]
    assert reference.calendar(between) == [expected[i] for i in kept]

    assert parse_hourly_csv(io.StringIO(series_to_csv(series)), holidays=holidays) == series


def test_column_formatters_match_per_value_reference():
    values = [0.0, -0.0, 1.0, -2.5, 1e-300, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, 123456789.125]
    values += [1e-4, 9.999999999999999e-05, 1e15, 999999999999999.9, 98738719860821.375, 2.0**52, 0.5**14]
    values += [math.nan, math.inf, -math.inf, 1600.25, -30.123456789012345]
    assert cell_strings(float_grid(np.array(values))) == [repr(float(v)) for v in values]
    stamps = [datetime(1900, 3, 1, 5), datetime(1969, 12, 31, 23), datetime(2024, 2, 29, 0)]
    stamps += [datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59), datetime(1969, 12, 31, 23, 59, 1, 5)]
    expected = [ts.isoformat(timespec="minutes") for ts in stamps]
    assert stamp_strings(np.array(stamps, dtype="datetime64[us]")) == expected


def test_read_holidays(tmp_path):
    path = tmp_path / "holidays.txt"
    path.write_text("2014-07-04\n\n# labor day\n2014-09-01\n")
    assert read_holidays(path) == {date(2014, 7, 4), date(2014, 9, 1)}
    bad = tmp_path / "bad.txt"
    bad.write_text("07/04/2014\n")
    with pytest.raises(ParseError):
        read_holidays(bad)


def test_series_takes_slices_only():
    series = _series([_record(datetime(2014, 8, 18, h)) for h in range(3)])
    with pytest.raises(TypeError, match="slices"):
        series[0]


def test_filled_is_a_sorted_read_only_column():
    stamps = [datetime(2014, 8, 18, 5), datetime(2014, 8, 18, 2)]
    ones = [1.0] * 8
    series = RecordSeries([datetime(2014, 8, 18, h) for h in range(8)], ones, ones, ones, ones, filled=stamps)
    assert series.filled.dtype == np.dtype("datetime64[us]")
    assert series.filled.tolist() == sorted(stamps)
    assert series[2:4].filled is series.filled
    with pytest.raises(ValueError):
        series.filled[0] = np.datetime64("2014-08-18T03:00")
    assert parse_hourly_csv(io.StringIO(CSV_3ROWS)).filled.tolist() == []


def test_parse_oversized_cell_names_file_line():
    limit = csv.field_size_limit()
    lines = CSV_3ROWS.splitlines()
    lines[2] = lines[2].replace("950.0", '"' + "9" * (limit + 1) + '"')
    with pytest.raises(ParseError) as excinfo:
        parse_hourly_csv(io.StringIO("\n".join(lines)))
    assert excinfo.value.row == 3
    assert str(excinfo.value) == f"row 3: malformed CSV: field larger than field limit ({limit})"

    # A bad cell on an earlier row is still reported first; in the header the
    # reader's error is reported as is.
    earlier = lines[:1] + [lines[1].replace("1000.0", "abc")] + lines[2:]
    with pytest.raises(ParseError, match="row 2, column 'demand_mwh'"):
        parse_hourly_csv(io.StringIO("\n".join(earlier)))
    with pytest.raises(ParseError, match="row 1: malformed CSV"):
        parse_hourly_csv(io.StringIO('"' + "t" * (limit + 1) + '"\n'))


def test_parse_path_skips_byte_order_mark(tmp_path):
    path = tmp_path / "excel.csv"
    path.write_bytes(b"\xef\xbb\xbf" + CSV_3ROWS.encode())
    assert parse_hourly_csv(path) == parse_hourly_csv(io.StringIO(CSV_3ROWS))


def test_parse_numbers_rows_by_file_line_after_multi_line_cell():
    lines = [
        "timestamp,demand_mwh,spot_price,dry_bulb_f,dew_point_f,note",
        '2021-06-07T00:00,1000.0,25.5,70.0,58.0,"two',
        'lines"',
        "2021-06-07T01:00,abc,24.0,69.0,57.5,",
    ]
    with pytest.raises(ParseError) as excinfo:
        parse_hourly_csv(io.StringIO("\n".join(lines) + "\n"))
    assert str(excinfo.value) == "row 4, column 'demand_mwh': non-numeric value: 'abc'"

    lines[3] = lines[3].replace("abc", "950.0")
    lines.append("2021-06-07T01:00,900.0,23.1,68.0,57.0,")
    with pytest.raises(GapError, match="^row 5: duplicate hour 2021-06-07T01:00$"):
        parse_hourly_csv(io.StringIO("\n".join(lines) + "\n"))

    # A bad cell of the record that spans lines is on the line it starts on.
    lines[1] = lines[1].replace("1000.0", "abc")
    with pytest.raises(ParseError, match="^row 2, column 'demand_mwh': non-numeric value: 'abc'$"):
        parse_hourly_csv(io.StringIO("\n".join(lines) + "\n"))


@pytest.mark.parametrize("blank", [" , , , , ", ",,,,"])
def test_parse_skips_blank_rows_inside_a_plain_block(blank):
    lines = CSV_3ROWS.splitlines()
    lines.insert(2, blank)
    assert parse_hourly_csv(io.StringIO("\n".join(lines) + "\n")) == parse_hourly_csv(io.StringIO(CSV_3ROWS))
    lines[3] = lines[3].replace("950.0", "abc")
    with pytest.raises(ParseError, match="^row 4, column 'demand_mwh': non-numeric value: 'abc'$"):
        parse_hourly_csv(io.StringIO("\n".join(lines) + "\n"))


# Well-formed stamps with a field out of range; numpy's ISO parser takes year 0.
@pytest.mark.parametrize("stamp", ["0000-01-01T00:00", "2014-02-29T01:00", "2014-13-01T01:00", "2014-08-18T24:00"])
def test_parse_out_of_range_stamp_is_a_bad_timestamp(stamp):
    bad = CSV_3ROWS.replace("2014-08-18T01:00", stamp)
    with pytest.raises(ParseError) as excinfo:
        parse_hourly_csv(io.StringIO(bad))
    assert str(excinfo.value) == f"row 3, column 'timestamp': bad timestamp: {stamp!r}"


def _parse_by_reader(source, **kwargs):
    """``parse_hourly_csv`` with no block taken as plain and no stamp read by
    numpy, so that every data line goes through ``csv.reader`` and every
    stamp through ``datetime.fromisoformat``."""
    with mock.patch.object(market_data, "_plain_block", return_value=None):
        with mock.patch.object(market_data, "_canonical_times", return_value=None):
            return parse_hourly_csv(source, **kwargs)


def test_quoted_header_leaves_the_data_lines_to_the_plain_path():
    lines = series_to_csv(synthetic_market(20, seed=1)).splitlines()
    lines[0] = '"' + lines[0].replace(",", '",', 1) + ',"two\nline note"'
    lines[1:] = [line + "," for line in lines[1:]]
    cells = lines[300].split(",")  # data row 300, on file line 302
    cells[1] = "abc"
    lines[300] = ",".join(cells)
    text = "\n".join(lines) + "\n"
    with mock.patch.object(market_data, "_record_chunks", side_effect=AssertionError("csv.reader path")):
        with pytest.raises(ParseError, match="^row 302, column 'demand_mwh': non-numeric value: 'abc'"):
            parse_hourly_csv(io.StringIO(text))
    with pytest.raises(ParseError, match="^row 302, column 'demand_mwh': non-numeric value: 'abc'"):
        _parse_by_reader(io.StringIO(text))


def test_plain_blocks_number_rows_like_the_csv_reader_across_block_edge():
    edge = market_data._CHUNK_ROWS
    start = datetime(2021, 6, 7)
    series = series_from_records([_record(start + timedelta(hours=h), float(h)) for h in range(2 * edge + 20)])
    text = series_to_csv(series)
    blocks = text.splitlines(keepends=True)[1:]
    for first in range(0, len(blocks), edge):  # every block of the canonical file is plain
        block = blocks[first : first + edge]
        assert market_data._plain_block("".join(block), 5, range(5)) is not None

    # Blocks of the characters of `edge` data lines: the first plain block
    # ends after data row `edge`.
    with mock.patch.object(market_data, "_BLOCK_CHARS", len("".join(blocks[:edge]))):
        for data_row in (edge - 1, edge, edge + 1, edge + 2):
            lines = text.splitlines()  # lines[k] is file row k + 1
            cells = lines[data_row].split(",")
            cells[1] = "abc"
            lines[data_row] = ",".join(cells)
            repeated = text.splitlines()
            repeated.insert(data_row + 1, repeated[data_row])
            for variant, expected in (
                (lines, f"row {data_row + 1}, column 'demand_mwh': non-numeric value: 'abc'"),
                (repeated, f"row {data_row + 2}: duplicate hour "),
            ):
                for parse in (parse_hourly_csv, _parse_by_reader):
                    with pytest.raises(MarketDataError) as excinfo:
                        parse(io.StringIO("\n".join(variant) + "\n"))
                    assert str(excinfo.value).startswith(expected)


def _data_blocks(text: str) -> list[list[str]]:
    """The blocks of data lines that the plain path reads from ``text``."""
    source = io.StringIO(text)
    next(source)  # the header
    return [io.StringIO(block).readlines() for block in market_data._text_blocks(source.read)]


def test_crlf_file_takes_the_plain_path():
    text = series_to_csv(synthetic_market(12, seed=1))
    crlf = text.replace("\n", "\r\n")
    for block in _data_blocks(crlf):
        assert market_data._plain_block("".join(block), 5, range(5)) is not None
    for source in (io.StringIO(crlf), io.TextIOWrapper(io.BytesIO(crlf.encode()), newline="")):
        assert parse_hourly_csv(source) == parse_hourly_csv(io.StringIO(text))

    # A carriage return anywhere else is left to the reader.
    for line_end in ("\r", "\r\r\n"):
        lines = crlf.splitlines(keepends=True)
        lines[5] = lines[5].replace("\r\n", line_end)
        block = _data_blocks("".join(lines))[0]
        assert market_data._plain_block("".join(block), 5, range(5)) is None


@mock.patch.object(market_data, "_BLOCK_CHARS", 2 * csv.field_size_limit())
def test_wide_block_takes_the_plain_path():
    # Each line is within csv.field_size_limit(), the block is not.
    wide = "x" * (csv.field_size_limit() // 200)
    lines = series_to_csv(synthetic_market(12, seed=1)).splitlines()
    text = "\n".join([lines[0] + ",note"] + [line + "," + wide for line in lines[1:]]) + "\n"
    block = _data_blocks(text)[0]
    assert len("".join(block)) > csv.field_size_limit()
    assert market_data._plain_block("".join(block), 6, range(5)) is not None
    assert parse_hourly_csv(io.StringIO(text)) == _parse_by_reader(io.StringIO(text))


# The differential property: a file parses alike with plain blocks and with
# every data line through csv.reader. The mutations sit anywhere, and often
# next to the block edges of the plain path.
_EDGE = market_data._CHUNK_ROWS
_BASE_LINES = series_to_csv(synthetic_market(23, seed=3)).splitlines()  # 552 data rows
_near_edge = [r for e in (1, _EDGE, 2 * _EDGE) for r in range(e - 1, e + 3) if r >= 1]
_row = st.one_of(st.sampled_from(_near_edge), st.integers(1, len(_BASE_LINES) - 1))
_LIMIT = csv.field_size_limit()
_cell = st.sampled_from(
    ['"950.0"', '"9\n50"', '"a\n\nb"', '"', '""', "9\x000", "abc", "nan", "inf", " 1.5 ", "1_0", ""]
    + ["1_000", "٢٥", "１２", "1e3"]
    + ["9" * _LIMIT, "9" * (_LIMIT + 1), '"' + "9" * (_LIMIT + 1) + '"']
)
_STAMP_EDITS = {
    "seconds": lambda s: s + ":00",
    "space": lambda s: s.replace("T", " "),
    "zulu": lambda s: s + "Z",
    "utc": lambda s: s + "+00:00",
    "offset": lambda s: s + "-05:00",
    "year_zero": lambda s: "0000" + s[4:],
    "arabic_digit": lambda s: s[:-1] + "٠",
    "fullwidth_digit": lambda s: "２" + s[1:],
    "half_past": lambda s: s[:-2] + "30",
    "padded": lambda s: " " + s + "\t",
    "month_13": lambda s: s[:5] + "13" + s[7:],
    "hour_24": lambda s: s[:11] + "24" + s[13:],
    # Stamps numpy reads and fromisoformat rejects: 15 and 17 characters, a
    # sign in place of a digit (year 21 to numpy) and an offset in place of
    # the minutes, which numpy drops.
    "year_digit_dropped": lambda s: s[1:],
    "year_zero_padded": lambda s: "0" + s,
    "signed_year": lambda s: "+" + s[1:],
    "offset_minutes": lambda s: s[:13] + "+00",
}
_csv_edit = st.one_of(
    st.tuples(st.just("insert"), _row, st.sampled_from(["", " ", " , , , , ", ",,,,", "\t,, ,,", ",,,,,,"])),
    st.tuples(st.just("cell"), _row, st.integers(0, 5), _cell),
    st.tuples(st.just("stamp"), _row, st.sampled_from(sorted(_STAMP_EDITS))),
    # Any digits in the canonical layout: numpy parses these, fromisoformat on the other path.
    st.tuples(st.just("digits"), _row, st.integers(0, 9999), *[st.integers(0, 99)] * 4),
    st.tuples(st.just("append"), _row, st.sampled_from(["\r", "\x00", ",1.0", ",1.0\r", "\r,1.0"])),
    st.tuples(st.just("short"), _row),
    st.tuples(st.just("drop"), _row),
    st.tuples(st.just("repeat"), _row),
)


def _edit_lines(lines: list[str], edit: tuple) -> list[str]:
    kind, row, *args = edit
    row %= len(lines)
    row = max(row, 1)  # the header stays as it is
    if kind == "insert":
        return lines[:row] + [args[0]] + lines[row:]
    if kind == "drop":
        return lines[:row] + lines[row + 1 :]
    if kind == "repeat":
        return lines[: row + 1] + lines[row:]
    cells = lines[row].split(",")
    if kind == "cell":
        cells[args[0] % len(cells)] = args[1]
    elif kind == "stamp":
        cells[0] = _STAMP_EDITS[args[0]](cells[0])
    elif kind == "digits":
        cells[0] = "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}".format(*args)
    elif kind == "append":
        cells[-1] += args[0]
    else:
        cells = cells[:-1]
    return lines[:row] + [",".join(cells)] + lines[row + 1 :]


def _outcome(parse, text: str, strict: bool, as_file: bool):
    """The series ``parse`` makes (as its CSV and filled hours), or its error."""
    if as_file:  # as parse_hourly_csv opens a path, which also ends lines at a lone \r
        source = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8-sig", newline="")
    else:
        source = io.StringIO(text)
    try:
        series = parse(source, strict=strict)
    except MarketDataError as exc:
        return type(exc), str(exc)
    return series_to_csv(series), series.filled.tolist()


def _stamp_example(*edits):
    return example(
        edits=list(edits), note=False, crlf=False, final_newline=True, as_file=False, quoted_header=False, block_chars=2000
    )


@settings(deadline=None)
@_stamp_example(("stamp", 300, "month_13"))
@_stamp_example(("digits", 300, 2021, 2, 30, 0, 0))
@_stamp_example(("digits", 300, 0, 12, 31, 23, 0))
@_stamp_example(("stamp", 300, "seconds"))
@_stamp_example(("stamp", 300, "space"))
@_stamp_example(("stamp", 300, "zulu"))
@_stamp_example(("stamp", 300, "fullwidth_digit"))
@_stamp_example(("stamp", 300, "year_digit_dropped"))
@_stamp_example(("stamp", 300, "year_zero_padded"))
@_stamp_example(("stamp", 300, "signed_year"))
@_stamp_example(("stamp", 300, "offset_minutes"))
@given(
    edits=st.lists(_csv_edit, min_size=1, max_size=4),
    note=st.booleans(),
    crlf=st.booleans(),
    final_newline=st.booleans(),
    as_file=st.booleans(),
    quoted_header=st.booleans(),
    # Blocks of a few dozen lines: every row is near a plain-block edge.
    block_chars=st.integers(500, 4000),
)
def test_plain_path_matches_csv_reader_path(edits, note, crlf, final_newline, as_file, quoted_header, block_chars):
    lines = [line + ",note" if k == 0 else line + "," for k, line in enumerate(_BASE_LINES)] if note else _BASE_LINES
    for edit in edits:
        lines = _edit_lines(lines, edit)
    if quoted_header:  # read alike by csv.reader
        lines = ['"' + lines[0].replace(",", '",', 1)] + lines[1:]
    ending = "\r\n" if crlf else "\n"
    text = ending.join(lines) + (ending if final_newline else "")
    with mock.patch.object(market_data, "_BLOCK_CHARS", block_chars):
        for strict in (True, False):
            assert _outcome(parse_hourly_csv, text, strict, as_file) == _outcome(_parse_by_reader, text, strict, as_file)


# Text that Python's float reads or rejects for many reasons: any ASCII
# without an underscore, float reprs, padded decimals with many digits and
# special values in any case.
_ascii_cell = st.one_of(
    st.text(st.characters(max_codepoint=127, blacklist_characters="_"), max_size=12),
    st.floats().map(repr),
    st.from_regex(
        r"[ \t\r\n\v\f]{0,2}[+-]?[0-9]{0,25}\.?[0-9]{0,25}([eE][+-]?[0-9]{1,4})?[ \t\r\n\v\f]{0,2}",
        fullmatch=True,
    ),
    st.from_regex(re.compile(r"[+-]?(nan|inf|infinity)", re.IGNORECASE), fullmatch=True),
    st.sampled_from(["nan", "NaN", "inf", "-Infinity", " 1.5 ", "", "abc", "1e3", "9\x000", "9\x00", "9" * _LIMIT]),
)


@given(st.lists(_ascii_cell, min_size=1, max_size=8))
def test_numpy_float_cast_matches_python_float(cells):
    # The parser converts a column of ASCII cells without an underscore with
    # one np.array(cells, dtype=float): it must read what float reads, and
    # raise ValueError where float does.
    try:
        expected = np.array([float(cell) for cell in cells])
    except ValueError:
        with pytest.raises(ValueError):
            np.array(cells, dtype=float)
        return
    actual = np.array(cells, dtype=float)
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan)
    assert np.array_equal(actual[~nan].view(np.uint64), expected[~nan].view(np.uint64))


# The arithmetic converters of canonical blocks. A decimal cell of 1 to 15
# digits is read as float reads it, bit for bit; any other column is left to
# float (the converter declines it).
_DECIMAL_FORM = re.compile(r"-?[0-9]*\.?[0-9]*")
_decimal_cell = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["", "-"]),
        st.text("0123456789", max_size=10),
        st.sampled_from(["", "."]),
        st.text("0123456789", max_size=10),
    ),
)


def _converts_as_decimal(cell: str) -> bool:
    return _DECIMAL_FORM.fullmatch(cell) is not None and 1 <= sum(map(str.isdigit, cell)) <= 15


@example(["-0.0", ".5", "5.", "007.50", "-.5", "0", "-0", "999999999999999", "0.000000000000001"])
@example(["0.3", "1.1", "-2.675", "0.1234567890123"])  # m * 10**-f would round these differently
@example(["1234567890123456", "1.5"])
@example(["1.5", "-", "2"])
@example(["1.5", ".", "2"])
@example(["", "1"])
@given(st.lists(_decimal_cell, min_size=1, max_size=8))
def test_decimal_converter_matches_float(cells):
    text = " " * plain_blocks.DECIMAL_WIDTH + ",".join(cells) + "\n"
    data = np.frombuffer(text.encode(), dtype=np.uint8)
    ends = np.flatnonzero((data == ord(",")) | (data == ord("\n")))
    starts = np.append(plain_blocks.DECIMAL_WIDTH, ends[:-1] + 1)
    values = plain_blocks.decimal_column(data, starts, ends)
    if not all(map(_converts_as_decimal, cells)):
        assert values is None
        return
    assert values is not None
    assert np.array_equal(values.view(np.uint64), np.array([float(cell) for cell in cells]).view(np.uint64))


_stamp_fields = st.tuples(
    st.one_of(st.sampled_from([0, 1, 1900, 1970, 2000, 2021, 2100, 9999]), st.integers(0, 9999)),
    st.integers(0, 13),
    st.integers(0, 32),
    st.integers(0, 25),
    st.sampled_from([0, 0, 0, 30, 59, 60]),
)


def _stamp_fields_example(*fields):
    return example(list(fields))


@_stamp_fields_example((1900, 2, 29, 0, 0), (2000, 2, 29, 0, 0), (2021, 2, 28, 23, 0))
@_stamp_fields_example((2021, 2, 29, 0, 0))
@_stamp_fields_example((2100, 2, 29, 0, 0))
@_stamp_fields_example((2021, 4, 31, 0, 0))
@_stamp_fields_example((2021, 6, 31, 0, 0))
@_stamp_fields_example((2021, 9, 31, 0, 0))
@_stamp_fields_example((2021, 11, 31, 0, 0))
@_stamp_fields_example((2021, 0, 1, 0, 0))
@_stamp_fields_example((2021, 13, 1, 0, 0))
@_stamp_fields_example((0, 12, 31, 23, 0))
@_stamp_fields_example((2021, 6, 7, 24, 0))
@_stamp_fields_example((2021, 6, 7, 5, 30))
@_stamp_fields_example((1, 1, 1, 0, 0), (9999, 12, 31, 23, 0), (1969, 12, 31, 23, 0))
@given(st.lists(_stamp_fields, min_size=1, max_size=6))
def test_stamp_converter_matches_fromisoformat(fields):
    # Stamps in the canonical digit layout. The converter reads a column of
    # them when fromisoformat reads each as a whole hour, to the same time;
    # it declines any other column. Both callers: the csv.reader path's
    # stamp strings, and a plain block's bytes.
    stamps = ["{:04d}-{:02d}-{:02d}T{:02d}:{:02d}".format(*f) for f in fields]
    try:
        expected = [datetime.fromisoformat(stamp) for stamp in stamps]
    except ValueError:
        expected = None
    if expected is not None and any(ts.minute for ts in expected):
        expected = None
    block = "".join(stamp + ",1.0,2.0,3.0,4.0\n" for stamp in stamps)
    plain = market_data._plain_block(block, 5, range(5))
    for times in (market_data._canonical_times(stamps), None if plain is None else plain[0]):
        if expected is None:
            assert times is None
        else:
            assert times is not None and times.tolist() == expected

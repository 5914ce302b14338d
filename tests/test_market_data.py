from __future__ import annotations

import csv
import io
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from drspot import market_data
from drspot.market_data import (
    GapError,
    MissingColumnError,
    ParseError,
    RecordSeries,
    float_strings,
    parse_hourly_csv,
    read_holidays,
    series_to_csv,
    stamp_strings,
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
    assert rec.day_ahead_price is None
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


def test_parse_optional_da_price():
    content = (
        "timestamp,demand_mwh,spot_price,dry_bulb_f,dew_point_f,da_price\n"
        "2014-08-18T00:00,1000.0,25.5,70.0,58.0,26.0\n"
        "2014-08-18T01:00,950.0,24.0,69.0,57.5,\n"
    )
    series = parse_hourly_csv(io.StringIO(content))
    assert series.day_ahead_price[0] == 26.0
    assert np.isnan(series.day_ahead_price[1])
    assert [r.day_ahead_price for r in reference.records(series)] == [26.0, None]


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
            day_ahead_price=float(rng.uniform(5, 200)) if h % 3 else None,
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
    assert float_strings(np.array(values)) == [repr(float(v)) for v in values]
    stamps = [datetime(1900, 3, 1, 5), datetime(1969, 12, 31, 23), datetime(2024, 2, 29, 0)]
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
    series = RecordSeries([datetime(2014, 8, 18, h) for h in range(8)], ones, ones, ones, ones, ones, filled=stamps)
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

from __future__ import annotations

import io
from datetime import date, datetime

import numpy as np
import pytest

from drspot.market_data import (
    GapError,
    HourlyRecord,
    MissingColumnError,
    ParseError,
    RecordSeries,
    derive_calendar,
    parse_hourly_csv,
    read_holidays,
    series_to_csv,
    validate_series,
    write_hourly_csv,
)

CSV_3ROWS = """timestamp,demand_mwh,spot_price,dry_bulb_f,dew_point_f
2014-08-18T00:00,1000.0,25.5,70.0,58.0
2014-08-18T01:00,950.0,24.0,69.0,57.5
2014-08-18T02:00,900.0,23.1,68.0,57.0
"""


def test_parse_minimal_csv():
    series = parse_hourly_csv(io.StringIO(CSV_3ROWS))
    assert len(series) == 3
    rec, cal = series[0]
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
    filled_rec, _ = series[1]
    assert filled_rec.timestamp == datetime(2014, 8, 18, 1)
    assert filled_rec.demand == pytest.approx(950.0)       # linear between 1000 and 900
    assert filled_rec.dry_bulb_temp == pytest.approx(69.0)
    assert filled_rec.spot_price == 25.5                   # forward-filled
    assert series.filled == {datetime(2014, 8, 18, 1)}
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
    assert series.records[0].demand == 1000.0


def test_parse_optional_da_price():
    content = (
        "timestamp,demand_mwh,spot_price,dry_bulb_f,dew_point_f,da_price\n"
        "2014-08-18T00:00,1000.0,25.5,70.0,58.0,26.0\n"
        "2014-08-18T01:00,950.0,24.0,69.0,57.5,\n"
    )
    series = parse_hourly_csv(io.StringIO(content))
    assert series.records[0].day_ahead_price == 26.0
    assert series.records[1].day_ahead_price is None


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


def test_derive_calendar_weekday():
    cal = derive_calendar(datetime(2014, 8, 18, 13))  # a Monday
    assert cal.hour_of_day == 14
    assert cal.month == 8
    assert not cal.is_holiday and not cal.is_saturday and not cal.is_sunday


def test_derive_calendar_sunday_midnight():
    cal = derive_calendar(datetime(2014, 8, 24, 0))
    assert cal.hour_of_day == 1
    assert cal.is_sunday and not cal.is_saturday


def test_derive_calendar_saturday():
    cal = derive_calendar(datetime(2014, 8, 23, 12))
    assert cal.is_saturday and not cal.is_sunday


def test_derive_calendar_holiday():
    holidays = {date(2014, 7, 4)}
    assert derive_calendar(datetime(2014, 7, 4, 9), holidays).is_holiday
    assert not derive_calendar(datetime(2014, 7, 5, 9), holidays).is_holiday


def test_derive_calendar_is_pure():
    ts = datetime(2014, 8, 18, 13)
    assert derive_calendar(ts) == derive_calendar(ts)
    assert derive_calendar(ts, {date(2014, 8, 18)}) == derive_calendar(ts, {date(2014, 8, 18)})


def test_calendar_hour_range_over_full_day():
    hours = [derive_calendar(datetime(2014, 8, 18, h)).hour_of_day for h in range(24)]
    assert hours == list(range(1, 25))


def _series(records):
    return RecordSeries(records)


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
    series = RecordSeries(records, holidays={date(2014, 8, 19)})
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
    assert [r.timestamp.hour for r in window.records] == [6, 7, 8]


def test_read_holidays(tmp_path):
    path = tmp_path / "holidays.txt"
    path.write_text("2014-07-04\n\n# labor day\n2014-09-01\n")
    assert read_holidays(path) == {date(2014, 7, 4), date(2014, 9, 1)}
    bad = tmp_path / "bad.txt"
    bad.write_text("07/04/2014\n")
    with pytest.raises(ParseError):
        read_holidays(bad)

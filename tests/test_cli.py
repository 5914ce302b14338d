from __future__ import annotations

import csv
import json
import math
import subprocess
import sys
import tempfile
import warnings
from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import DATA_DIR, shifted_market, synthetic_market
from drspot import pipeline
from drspot.cli import main
from drspot.config import load_settings
from drspot.market_data import RecordSeries, parse_hourly_csv, write_hourly_csv
from drspot.regression import design_matrix, predict

BUNDLED_DATA = DATA_DIR / "synthetic_market.csv"
BUNDLED_CONFIG = DATA_DIR / "scenario.json"
GOLDEN_SUMMARY = DATA_DIR / "golden_summary.json"


@pytest.fixture()
def market_csv(tmp_path):
    path = tmp_path / "market.csv"
    write_hourly_csv(synthetic_market(28, seed=80), path)
    return path


@pytest.fixture()
def compact_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "feature_candidates": ["intercept", "demand", "temperature", "dew_point", "saturday", "sunday"],
                "base_features": ["intercept", "demand"],
            }
        )
    )
    return path


def run_simulate(data, config, out, start="2021-06-28", days=7, *extra):
    return main(
        [
            "simulate",
            "--data", str(data),
            "--config", str(config),
            "--window-start", start,
            "--days", str(days),
            "--out", str(out),
            *extra,
        ]
    )


def reference_csv(header, timestamps, *columns) -> str:
    """The per-row formatting the writers used before they formatted whole
    columns: isoformat stamps, repr(float(x)) values, 0/1 flags."""

    def cell(value):
        if isinstance(value, (bool, np.bool_)):
            return "1" if value else "0"
        return repr(float(value))

    lines = [",".join(header)]
    for i, ts in enumerate(timestamps):
        lines.append(",".join([ts.isoformat(timespec="minutes"), *(cell(col[i]) for col in columns)]))
    return "\n".join(lines) + "\n"


class TestFit:
    def test_writes_model_json_and_table(self, market_csv, compact_config, tmp_path, capsys):
        out = tmp_path / "model.json"
        rc = main(["fit", "--data", str(market_csv), "--config", str(compact_config), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["n_obs"] > 0
        assert doc["features"][0]["name"] == "intercept"
        assert "holdout_ferms" in doc
        printed = capsys.readouterr().out
        assert "t-value" in printed and "holdout ferms" in printed

    def test_model_json_has_selection_trace(self, market_csv, compact_config, tmp_path):
        out = tmp_path / "model.json"
        assert main(["fit", "--data", str(market_csv), "--config", str(compact_config), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        steps = doc["selection"]
        added = [step["added"] for step in steps if step["added"] is not None]
        assert ["intercept", "demand", *added] == [f["name"] for f in doc["features"]]
        for step in steps:
            assert set(step) == {"added", "ferms", "runner_up", "runner_up_ferms", "margin", "disqualified"}
            if step["runner_up"] is not None:
                assert step["margin"] == step["runner_up_ferms"] - step["ferms"] >= 0.0

    def test_rank_deficient_base_exits_1(self, tmp_path, capsys):
        # The bundled data under a config without holidays: the holiday column is all zero.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"base_features": ["intercept", "holiday"]}))
        rc = main(["fit", "--data", str(BUNDLED_DATA), "--config", str(config), "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: fit: design matrix is rank deficient: column 'holiday' is linearly dependent\n"
        )

    def test_unreadable_data_exits_1(self, compact_config, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        rc = main(["fit", "--data", str(missing), "--config", str(compact_config), "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert str(missing) in capsys.readouterr().err

    def test_gate_failure_exits_2(self, market_csv, compact_config, tmp_path, capsys):
        rc = main(
            [
                "fit",
                "--data", str(market_csv),
                "--config", str(compact_config),
                "--out", str(tmp_path / "m.json"),
                "--gate", "0.05",
            ]
        )
        assert rc == 2
        assert "gate" in capsys.readouterr().err

    def test_holdout_days_flag_changes_split(self, market_csv, compact_config, tmp_path):
        out = tmp_path / "model.json"
        rc = main(
            [
                "fit",
                "--data", str(market_csv),
                "--config", str(compact_config),
                "--out", str(out),
                "--holdout-days", "3",
            ]
        )
        assert rc == 0
        assert json.loads(out.read_text())["n_obs"] == 25 * 24


class TestForecast:
    def test_writes_forecast_csv(self, market_csv, compact_config, tmp_path, capsys):
        out = tmp_path / "forecast.csv"
        rc = main(
            [
                "forecast",
                "--data", str(market_csv),
                "--config", str(compact_config),
                "--window-start", "2021-06-28",
                "--days", "7",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "timestamp,spot_price,forecast_price"
        assert len(lines) == 7 * 24 + 1
        assert "window ferms" in capsys.readouterr().out

    def test_window_with_negative_mean_price_writes_forecast(self, compact_config, tmp_path, capsys):
        """The window's ferms is undefined when its mean price is not
        positive; the forecast is written all the same, and the command
        succeeds."""
        market = shifted_market(35, seed=1, shift=-1000.0, first_day=28)
        data, out = tmp_path / "window_shifted.csv", tmp_path / "forecast.csv"
        write_hourly_csv(market, data)
        argv = ["forecast", "--data", str(data), "--config", str(compact_config), "--out", str(out)]
        assert main(argv + ["--window-start", "2021-07-05", "--days", "7"]) == 0
        assert "window ferms: undefined (mean price <= 0)" in capsys.readouterr().out.splitlines()
        settings = load_settings(compact_config)
        history, study = market[: 28 * 24], market[28 * 24 :]
        spec, model, _ = pipeline.fit_price_model(history, settings.scenario)
        forecast = predict(model, design_matrix(study, spec))
        header = ("timestamp", "spot_price", "forecast_price")
        assert out.read_text() == reference_csv(header, study.times.tolist(), study.spot_price, forecast)


class TestSimulate:
    def test_zero_elasticity_gives_zero_deltas(self, market_csv, tmp_path):
        config = tmp_path / "zero.json"
        config.write_text(
            json.dumps(
                {
                    "feature_candidates": ["intercept", "demand", "temperature"],
                    "elasticity": {
                        k: 0.0
                        for k in (
                            "peak_peak", "peak_offpeak", "peak_low",
                            "offpeak_peak", "offpeak_offpeak", "offpeak_low",
                            "low_peak", "low_offpeak", "low_low",
                        )
                    },
                }
            )
        )
        out = tmp_path / "out"
        assert run_simulate(market_csv, config, out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["delta_energy_mwh"] == 0.0
        assert summary["delta_cost"] == 0.0
        assert summary["clamp_count"] == 0

    def test_window_outside_data_exits_1(self, market_csv, compact_config, tmp_path, capsys):
        rc = run_simulate(market_csv, compact_config, tmp_path / "out", start="2022-01-01")
        assert rc == 1
        assert "2022-01-01" in capsys.readouterr().err

    def test_summary_selection_matches_fit(self, market_csv, compact_config, tmp_path):
        out = tmp_path / "out"
        assert run_simulate(market_csv, compact_config, out) == 0
        summary = json.loads((out / "summary.json").read_text())
        settings = load_settings(compact_config)
        series = parse_hourly_csv(market_csv, schema=settings.columns, holidays=settings.holidays)
        trace = []
        pipeline.fit_price_model(series.between(datetime.min, datetime(2021, 6, 28)), settings.scenario, trace)
        assert summary["selection"] == [step.to_json_dict() for step in trace]
        added = [step["added"] for step in summary["selection"] if step["added"] is not None]
        assert summary["selected_features"] == ["intercept", "demand", *added]

    @pytest.mark.parametrize("flat_rate", [5e-324, 1e-300])
    def test_overflow_exits_1_without_warnings(self, market_csv, compact_config, tmp_path, capsys, flat_rate):
        config = tmp_path / "extreme.json"
        config.write_text(json.dumps({**json.loads(compact_config.read_text()), "flat_rate": flat_rate}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_simulate(market_csv, config, tmp_path / "out") == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: simulate: ") and err.count("\n") == 1

    def test_outputs_present(self, market_csv, compact_config, tmp_path):
        out = tmp_path / "out"
        assert run_simulate(market_csv, compact_config, out) == 0
        for name in (
            "result.csv",
            "summary.json",
            "plot_price_forecast.csv",
            "plot_demand.csv",
            "plot_spot_price.csv",
        ):
            assert (out / name).exists(), name

    def test_bundled_dataset_matches_golden(self, tmp_path):
        out = tmp_path / "out"
        rc = run_simulate(BUNDLED_DATA, BUNDLED_CONFIG, out, start="2021-08-09", days=7)
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        golden = json.loads(GOLDEN_SUMMARY.read_text())
        for key, expected in golden.items():
            if isinstance(expected, float):
                assert summary[key] == pytest.approx(expected, rel=1e-9), key
            else:
                assert summary[key] == expected, key
        # spot-check the summary against the per-hour series it claims to aggregate
        rows = [line.split(",") for line in (out / "result.csv").read_text().splitlines()[1:]]
        base_cost = sum(float(r[1]) * float(r[4]) for r in rows)
        dr_cost = sum(float(r[3]) * float(r[5]) for r in rows)
        assert summary["baseline_cost"] == pytest.approx(base_cost, rel=1e-12)
        assert summary["delta_cost"] == pytest.approx(dr_cost - base_cost, rel=1e-9)

    def test_holdout_ferms_is_the_final_selection_score(self, tmp_path):
        # The selection scores the holdout ferms of every step; the reported
        # holdout ferms is the score it stopped at, not a second evaluation.
        assert run_simulate(BUNDLED_DATA, BUNDLED_CONFIG, tmp_path / "out", start="2021-08-09", days=7) == 0
        model_json = tmp_path / "model.json"
        assert main(["fit", "--data", str(BUNDLED_DATA), "--config", str(BUNDLED_CONFIG), "--out", str(model_json)]) == 0
        for doc in (json.loads((tmp_path / "out" / "summary.json").read_text()), json.loads(model_json.read_text())):
            assert doc["selection"]
            assert doc["holdout_ferms"] == doc["selection"][-1]["ferms"]  # both positive: equal bits

    def test_byte_deterministic_outputs(self, market_csv, compact_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_simulate(market_csv, compact_config, out1) == 0
        assert run_simulate(market_csv, compact_config, out2) == 0
        for name in ("result.csv", "summary.json", "plot_demand.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


class TestOutputBytes:
    """Every CSV the CLI writes equals the per-row reference formatting."""

    START, END = datetime(2021, 6, 28), datetime(2021, 7, 5)

    def _split(self, market_csv, config):
        settings = load_settings(config)
        series = parse_hourly_csv(market_csv, schema=settings.columns, holidays=settings.holidays)
        return settings, series.between(datetime.min, self.START), series.between(self.START, self.END)

    def test_simulate_csvs_match_reference(self, market_csv, compact_config, tmp_path):
        out = tmp_path / "out"
        assert run_simulate(market_csv, compact_config, out) == 0
        settings, history, study = self._split(market_csv, compact_config)
        r = pipeline.run_scenario(history, study, settings.scenario)
        ts = r.times.tolist()
        expected = {
            "result.csv": reference_csv(
                pipeline.RESULT_COLUMNS, ts, r.baseline_demand, r.forecast_price, r.dr_demand,
                r.baseline_spot_price, r.updated_spot_price, r.clamp_flags,
            ),
            "plot_price_forecast.csv": reference_csv(
                ("timestamp", "actual_price", "forecast_price"), ts, study.spot_price, r.forecast_price
            ),
            "plot_demand.csv": reference_csv(
                ("timestamp", "demand_before", "demand_after"), ts, r.baseline_demand, r.dr_demand
            ),
            "plot_spot_price.csv": reference_csv(
                ("timestamp", "price_before", "price_after"), ts, r.baseline_spot_price, r.updated_spot_price
            ),
        }
        for name, text in expected.items():
            assert (out / name).read_bytes() == text.encode(), name

    def test_forecast_csv_matches_reference(self, market_csv, compact_config, tmp_path):
        out = tmp_path / "forecast.csv"
        argv = ["forecast", "--data", str(market_csv), "--config", str(compact_config)]
        assert main(argv + ["--window-start", "2021-06-28", "--days", "7", "--out", str(out)]) == 0
        settings, history, study = self._split(market_csv, compact_config)
        spec, model, _ = pipeline.fit_price_model(history, settings.scenario)
        forecast = predict(model, design_matrix(study, spec))
        header = ("timestamp", "spot_price", "forecast_price")
        expected = reference_csv(header, study.times.tolist(), study.spot_price, forecast)
        assert out.read_bytes() == expected.encode()


class TestTimestampErrors:
    def test_utc_offset_exits_1(self, market_csv, compact_config, tmp_path, capsys):
        lines = market_csv.read_text().splitlines()
        lines[1:] = [line.replace(",", "+00:00,", 1) for line in lines[1:]]
        market_csv.write_text("\n".join(lines) + "\n")
        assert run_simulate(market_csv, compact_config, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert "row 2, column 'timestamp': timestamp has a UTC offset; local time expected" in err
        assert "Traceback" not in err

    def test_zulu_stamp_exits_1_without_warnings(self, market_csv, compact_config, tmp_path, capsys):
        lines = market_csv.read_text().splitlines()
        lines[5] = lines[5].replace(",", "Z,", 1)
        market_csv.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_simulate(market_csv, compact_config, tmp_path / "out") == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: load: ") and "row 6, column 'timestamp': " in err and err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["--strict", "--permissive"])
    def test_duplicate_hour_exits_1(self, market_csv, compact_config, tmp_path, capsys, mode):
        lines = market_csv.read_text().splitlines()
        lines.insert(11, lines[10])  # file row 11 repeated as row 12
        market_csv.write_text("\n".join(lines) + "\n")
        stamp = lines[11].split(",")[0]
        assert run_simulate(market_csv, compact_config, tmp_path / "out", "2021-06-28", 7, mode) == 1
        assert f"load: row 12: duplicate hour {stamp}" in capsys.readouterr().err

    def test_earlier_hour_exits_1(self, market_csv, compact_config, tmp_path, capsys):
        lines = market_csv.read_text().splitlines()
        lines.insert(11, lines[3])
        market_csv.write_text("\n".join(lines) + "\n")
        assert run_simulate(market_csv, compact_config, tmp_path / "out") == 1
        expected = f"row 12: hour {lines[11].split(',')[0]} not after {lines[10].split(',')[0]}"
        assert expected in capsys.readouterr().err


class TestReport:
    def test_report_after_simulate_never_fails(self, market_csv, compact_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_simulate(market_csv, compact_config, out) == 0
        rc = main(["report", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "energy delta" in printed and "clamped hours" in printed

    def test_missing_summary_exits_1(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path)])
        assert rc == 1
        assert "summary.json" in capsys.readouterr().err

    def test_tampered_result_csv_exits_1(self, market_csv, compact_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_simulate(market_csv, compact_config, out) == 0
        result = out / "result.csv"
        lines = result.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 2)[0]  # truncate a row
        result.write_text("\n".join(lines) + "\n")
        rc = main(["report", str(out)])
        assert rc == 1
        assert "result.csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: [doc], "expected a JSON object, got list"),
            (lambda doc: {k: v for k, v in doc.items() if k != "delta_energy_mwh"}, "missing key 'delta_energy_mwh'"),
            (lambda doc: {**doc, "holdout_ferms": "4.2"}, "key 'holdout_ferms' must be a JSON number, got str"),
            (lambda doc: {**doc, "clamp_count": True}, "key 'clamp_count' must be a JSON number, got bool"),
        ],
        ids=["list", "missing_key", "string_value", "bool_value"],
    )
    def test_malformed_summary_exits_1(self, market_csv, compact_config, tmp_path, capsys, edit, message):
        out = tmp_path / "out"
        assert run_simulate(market_csv, compact_config, out) == 0
        summary = out / "summary.json"
        summary.write_text(json.dumps(edit(json.loads(summary.read_text()))))
        capsys.readouterr()
        assert main(["report", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: read: {summary}: {message}\n"
        assert captured.out == ""


class TestGapHandling:
    def test_strict_rejects_gap_permissive_fills(self, compact_config, tmp_path, capsys):
        path = tmp_path / "gappy.csv"
        write_hourly_csv(synthetic_market(28, seed=81), path)
        lines = path.read_text().splitlines()
        del lines[50]  # punch a one-hour hole
        path.write_text("\n".join(lines) + "\n")

        args = ["fit", "--data", str(path), "--config", str(compact_config), "--out", str(tmp_path / "m.json")]
        assert main(args) == 1
        assert "missing hour" in capsys.readouterr().err
        assert main(args + ["--permissive"]) == 0

    def test_summary_lists_filled_hours(self, market_csv, compact_config, tmp_path, capsys):
        clean = tmp_path / "clean"
        assert run_simulate(market_csv, compact_config, clean) == 0
        assert json.loads((clean / "summary.json").read_text())["filled_hours"] == []

        lines = market_csv.read_text().splitlines()
        holes = [lines[100].split(",")[0], lines[101].split(",")[0], lines[400].split(",")[0]]
        del lines[400], lines[101], lines[100]
        market_csv.write_text("\n".join(lines) + "\n")
        assert run_simulate(market_csv, compact_config, tmp_path / "strict") == 1
        assert f"missing hour {holes[0]}" in capsys.readouterr().err
        out = tmp_path / "filled"
        assert run_simulate(market_csv, compact_config, out, "2021-06-28", 7, "--permissive") == 0
        assert json.loads((out / "summary.json").read_text())["filled_hours"] == holes


class TestBadValues:
    def test_nan_demand_exits_1(self, compact_config, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        write_hourly_csv(synthetic_market(28, seed=82), path)
        lines = path.read_text().splitlines()
        fields = lines[40].split(",")
        fields[1] = "nan"
        lines[40] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        rc = main(["fit", "--data", str(path), "--config", str(compact_config), "--out", str(tmp_path / "m.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "non-finite value" in err and "row 41" in err and "demand_mwh" in err

    def test_zero_baseline_window_exits_1(self, compact_config, tmp_path, capsys):
        market = synthetic_market(28, seed=80)
        window_start = 21 * 24
        columns = reference.columns(market)
        columns[1] = np.where(np.arange(len(market)) >= window_start, 0.0, market.demand)
        path = tmp_path / "zero_window.csv"
        write_hourly_csv(RecordSeries(*columns), path)
        rc = run_simulate(path, compact_config, tmp_path / "out")
        assert rc == 1
        assert "baseline energy" in capsys.readouterr().err

    def test_negative_mean_price_exits_1(self, compact_config, tmp_path, capsys):
        path = tmp_path / "negative.csv"
        write_hourly_csv(shifted_market(35, seed=1, shift=-1000.0), path)
        assert run_simulate(path, compact_config, tmp_path / "out", "2021-07-05") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: simulate: mean of actual series must be positive, got -")


class TestFlagRanges:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "--gate", "nan"], "--gate must be a finite number > 0, got nan"),
            (["fit", "--gate", "inf"], "--gate must be a finite number > 0, got inf"),
            (["fit", "--gate", "0"], "--gate must be a finite number > 0, got 0.0"),
            (["fit", "--holdout-days", "0"], "--holdout-days must be >= 1, got 0"),
            (["simulate", "--window-start", "2021-06-28", "--days", "-1"], "--days must be >= 1, got -1"),
            (["forecast", "--window-start", "2021-06-28", "--days", "0"], "--days must be >= 1, got 0"),
        ],
    )
    def test_out_of_range_flag_exits_1(self, market_csv, compact_config, tmp_path, capsys, argv, message):
        command, *flags = argv
        common = ["--data", str(market_csv), "--config", str(compact_config), "--out", str(tmp_path / "out")]
        assert main([command, *common, *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("days", [9999999999, 3_000_000])
    def test_window_end_past_year_9999_exits_1(self, market_csv, compact_config, tmp_path, capsys, days):
        # The first overflows timedelta itself, the second only the window end.
        assert run_simulate(market_csv, compact_config, tmp_path / "out", "2021-06-28", days) == 1
        assert capsys.readouterr().err == f"error: window: --days {days} puts the window end past 9999-12-31\n"


class TestMalformedCsv:
    def test_oversized_cell_exits_1(self, market_csv, compact_config, tmp_path, capsys):
        lines = market_csv.read_text().splitlines()
        fields = lines[40].split(",")
        fields[2] = '"' + "1" * (csv.field_size_limit() + 1) + '"'
        lines[40] = ",".join(fields)
        market_csv.write_text("\n".join(lines) + "\n")
        assert run_simulate(market_csv, compact_config, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert "load: row 41: malformed CSV: field larger than field limit" in err
        assert "Traceback" not in err


_ELASTICITY_KEYS = (
    "peak_peak", "peak_offpeak", "peak_low",
    "offpeak_peak", "offpeak_offpeak", "offpeak_low",
    "low_peak", "low_offpeak", "low_low",
)
_SELF_KEYS = {"peak_peak", "offpeak_offpeak", "low_low"}
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10**6), st.floats(), st.text(max_size=4)
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _or_junk(valid):
    """Mostly a valid value, sometimes any JSON value (NaN and infinities included)."""
    return st.one_of(valid, valid, _json_values)


_config_json = st.fixed_dictionaries(
    {},
    optional={
        "flat_rate": _or_junk(st.floats(1.0, 200.0)),
        "ferms_gate": _or_junk(st.floats(1.0, 100.0)),
        "holdout_days": _or_junk(st.integers(1, 25)),
        "significance_thresholds": _or_junk(st.just([1.3, 1.69, 2.45])),
        "elasticity": _or_junk(
            st.fixed_dictionaries(
                {
                    key: _or_junk(st.floats(-1.0, 0.0) if key in _SELF_KEYS else st.floats(0.0, 0.1))
                    for key in _ELASTICITY_KEYS
                }
            )
        ),
        "periods": _or_junk(
            st.permutations(range(1, 25)).map(lambda h: {"peak": h[:8], "offpeak": h[8:16], "low": h[16:]})
        ),
        "feature_candidates": _or_junk(st.just(["intercept", "demand", "temperature", "saturday", "sunday"])),
        "base_features": _or_junk(st.just(["intercept", "demand"])),
        "columns": _or_junk(st.just({})),
        "holidays": _or_junk(st.lists(st.dates(date(2021, 6, 7), date(2021, 7, 4)).map(date.isoformat), max_size=3)),
        "holidays_file": _json_values,
        "extra_key": _json_values,
    },
)


@pytest.fixture(scope="module")
def module_market_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("market") / "market.csv"
    write_hourly_csv(synthetic_market(17, seed=80), path)  # 14 days of history, a 3-day window
    return path


def _all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(map(_all_finite, value.values()))
    if isinstance(value, list):
        return all(map(_all_finite, value))
    return True


def _assert_finite_outputs(out_dir: str) -> None:
    with open(f"{out_dir}/result.csv") as handle:
        rows = [line.split(",") for line in handle.read().splitlines()[1:]]
    assert all(math.isfinite(float(cell)) for row in rows for cell in row[1:])
    with open(f"{out_dir}/summary.json") as handle:
        assert _all_finite(json.load(handle))


@settings(max_examples=30, deadline=None)
@given(config=_config_json)
def test_random_config_exits_cleanly_and_finite(module_market_csv, config):
    with tempfile.TemporaryDirectory() as tmp:
        config_path = f"{tmp}/config.json"
        with open(config_path, "w") as handle:
            json.dump(config, handle)  # NaN and infinities as JSON's NaN/Infinity tokens
        rc = run_simulate(module_market_csv, config_path, f"{tmp}/out", "2021-06-21", 3)
        assert rc in (0, 1, 2)
        if rc == 0:
            _assert_finite_outputs(f"{tmp}/out")


_LONG_CELL = "1" * (csv.field_size_limit() + 10)
_cell_text = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
    st.sampled_from(
        ["", "nan", "inf", "-1", "0", "1e308", "1" * 400, '"', "2021-08-01T00:00", "2021-08-01T00:00+01:00"]
    ),
)
# One edit of the bundled CSV's lines (header included), applied in order.
_csv_mutation = st.one_of(
    st.tuples(st.just("edit"), st.integers(0, 1680), st.integers(0, 4), _cell_text),
    st.tuples(st.just("drop"), st.integers(0, 1680)),
    st.tuples(st.just("repeat"), st.integers(0, 1680)),
    st.tuples(st.just("long"), st.integers(0, 1680), st.integers(0, 4)),
    st.tuples(st.just("blank"), st.integers(0, 1680)),
    st.just(("bom",)),
)


def _mutate_lines(lines: list[str], mutation: tuple) -> list[str]:
    kind, *where = mutation
    if kind == "bom":
        return ["\ufeff" + lines[0], *lines[1:]]
    row = where[0] % len(lines)
    if kind == "drop":
        return lines[:row] + lines[row + 1 :]
    if kind == "repeat":
        return lines[: row + 1] + lines[row:]
    if kind == "blank":
        return lines[:row] + [""] + lines[row:]
    cells = lines[row].split(",")
    cells[where[1] % len(cells)] = _LONG_CELL if kind == "long" else where[2]
    return lines[:row] + [",".join(cells)] + lines[row + 1 :]


@settings(max_examples=30, deadline=None)
@given(mutations=st.lists(_csv_mutation, min_size=1, max_size=4))
def test_mutated_csv_exits_cleanly_and_finite(mutations):
    lines = BUNDLED_DATA.read_text().splitlines()
    for mutation in mutations:
        lines = _mutate_lines(lines, mutation)
    with tempfile.TemporaryDirectory() as tmp:
        data = f"{tmp}/market.csv"
        with open(data, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(lines) + "\n")
        rc = run_simulate(data, BUNDLED_CONFIG, f"{tmp}/out", "2021-08-09", 7)
        assert rc in (0, 1, 2)
        if rc == 0:
            _assert_finite_outputs(f"{tmp}/out")


class TestConfigFile:
    @pytest.mark.parametrize("columns", [{"spot": "rt_lmp"}, {"demand": "demand_mwh"}])
    def test_unknown_columns_key_exits_1(self, market_csv, tmp_path, capsys, columns):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({**json.loads(BUNDLED_CONFIG.read_text()), "columns": columns}))
        assert run_simulate(market_csv, config, tmp_path / "out") == 1
        assert f"unknown columns key {next(iter(columns))!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_byte_order_marks_exit_0(self, market_csv, compact_config, tmp_path):
        (tmp_path / "holidays.txt").write_text("\ufeff2021-07-05\n", encoding="utf-8")
        data = {**json.loads(compact_config.read_text()), "holidays_file": "holidays.txt"}
        config = tmp_path / "bom.json"
        config.write_text("\ufeff" + json.dumps(data), encoding="utf-8")
        assert run_simulate(market_csv, config, tmp_path / "out") == 0


class TestConfigEnvVar:
    def test_env_var_used_as_fallback(self, market_csv, tmp_path, monkeypatch, capsys):
        config = tmp_path / "from_env.json"
        config.write_text(json.dumps({"feature_candidates": ["intercept", "demand"]}))
        monkeypatch.setenv("DR_SPOT_SIM_CONFIG", str(config))
        out = tmp_path / "model.json"
        rc = main(["fit", "--data", str(market_csv), "--out", str(out)])
        assert rc == 0
        names = {f["name"] for f in json.loads(out.read_text())["features"]}
        assert names <= {"intercept", "demand"}


def test_module_entry_point_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "drspot", "report", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "summary.json" in proc.stderr

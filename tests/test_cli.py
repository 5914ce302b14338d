from __future__ import annotations

import csv
import json
import math
import subprocess
import sys
import tempfile
from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import DATA_DIR, synthetic_market
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
            rows = [line.split(",") for line in open(f"{tmp}/out/result.csv").read().splitlines()[1:]]
            assert all(math.isfinite(float(cell)) for row in rows for cell in row[1:])
            with open(f"{tmp}/out/summary.json") as handle:
                assert _all_finite(json.load(handle))


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

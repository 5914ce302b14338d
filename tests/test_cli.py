from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import pytest

from conftest import DATA_DIR, synthetic_market
from drspot.cli import main
from drspot.market_data import RecordSeries, write_hourly_csv

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


def run_simulate(data, config, out, start="2021-06-28", days=7):
    return main(
        [
            "simulate",
            "--data", str(data),
            "--config", str(config),
            "--window-start", start,
            "--days", str(days),
            "--out", str(out),
        ]
    )


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
        records = [
            dataclasses.replace(record, demand=0.0) if i >= window_start else record
            for i, record in enumerate(market.records)
        ]
        path = tmp_path / "zero_window.csv"
        write_hourly_csv(RecordSeries(records), path)
        rc = run_simulate(path, compact_config, tmp_path / "out")
        assert rc == 1
        assert "baseline energy" in capsys.readouterr().err


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

from __future__ import annotations

import json
import re
from datetime import date

import pytest

from drspot.config import CONFIG_ENV_VAR, ConfigError, load_settings, resolve_config_path
from drspot.elasticity import PeriodClass


def write_config(tmp_path, data):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return path


def test_no_path_gives_defaults():
    settings = load_settings(None)
    assert settings.scenario.flat_rate == 30.0
    assert settings.scenario.ferms_gate == 15.0
    assert settings.scenario.holdout_days == 7
    assert settings.scenario.significance_thresholds == (1.3, 1.69, 2.45)
    assert settings.scenario.elasticity_table.peak_peak == -0.10
    assert settings.columns == {}
    assert settings.holidays == frozenset()


def test_empty_object_gives_defaults(tmp_path):
    settings = load_settings(write_config(tmp_path, {}))
    assert settings.scenario.flat_rate == 30.0


def test_full_config_parsed(tmp_path):
    path = write_config(
        tmp_path,
        {
            "flat_rate": 42.0,
            "ferms_gate": 9.5,
            "holdout_days": 3,
            "significance_thresholds": [1.0, 2.0, 3.0],
            "elasticity": {
                "peak_peak": -0.2, "peak_offpeak": 0.02, "peak_low": 0.01,
                "offpeak_peak": 0.02, "offpeak_offpeak": -0.2, "offpeak_low": 0.005,
                "low_peak": 0.01, "low_offpeak": 0.005, "low_low": -0.2,
            },
            "periods": {
                "peak": list(range(17, 22)),
                "offpeak": list(range(9, 17)) + list(range(22, 25)),
                "low": list(range(1, 9)),
            },
            "feature_candidates": ["intercept", "demand", "temperature"],
            "base_features": ["intercept"],
            "columns": {"demand_mwh": "Load"},
            "holidays": ["2014-07-04"],
        },
    )
    settings = load_settings(path)
    scenario = settings.scenario
    assert scenario.flat_rate == 42.0
    assert scenario.ferms_gate == 9.5
    assert scenario.holdout_days == 3
    assert scenario.significance_thresholds == (1.0, 2.0, 3.0)
    assert scenario.elasticity_table.peak_peak == -0.2
    assert scenario.period_config.classify(18) is PeriodClass.PEAK
    assert scenario.feature_candidates == ("intercept", "demand", "temperature")
    assert settings.columns == {"demand_mwh": "Load"}
    assert settings.holidays == {date(2014, 7, 4)}


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_settings(write_config(tmp_path, {"flatrate": 30}))


def test_invalid_elasticity_sign_rejected(tmp_path):
    table = {k: 0.0 for k in (
        "peak_peak", "peak_offpeak", "peak_low",
        "offpeak_peak", "offpeak_offpeak", "offpeak_low",
        "low_peak", "low_offpeak", "low_low",
    )}
    table["peak_peak"] = 0.3  # positive self-elasticity
    with pytest.raises(ValueError):
        load_settings(write_config(tmp_path, {"elasticity": table}))


def test_incomplete_elasticity_rejected(tmp_path):
    with pytest.raises(ConfigError, match="elasticity"):
        load_settings(write_config(tmp_path, {"elasticity": {"peak_peak": -0.1}}))


def test_bad_period_partition_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_settings(
            write_config(tmp_path, {"periods": {"peak": [1], "offpeak": [2], "low": [3]}})
        )


def test_bad_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_settings(path)


def test_holidays_file_merged(tmp_path):
    holidays_file = tmp_path / "holidays.txt"
    holidays_file.write_text("2014-09-01\n")
    path = write_config(tmp_path, {"holidays": ["2014-07-04"], "holidays_file": "holidays.txt"})
    settings = load_settings(path)
    assert settings.holidays == {date(2014, 7, 4), date(2014, 9, 1)}


def test_env_var_fallback(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    assert resolve_config_path(None) is None
    assert resolve_config_path("explicit.json") == "explicit.json"
    monkeypatch.setenv(CONFIG_ENV_VAR, "from_env.json")
    assert resolve_config_path(None) == "from_env.json"
    assert resolve_config_path("explicit.json") == "explicit.json"


_ZERO_TABLE = {k: 0.0 for k in (
    "peak_peak", "peak_offpeak", "peak_low",
    "offpeak_peak", "offpeak_offpeak", "offpeak_low",
    "low_peak", "low_offpeak", "low_low",
)}


@pytest.mark.parametrize(
    "data, message",
    [
        ({"flat_rate": None}, "flat_rate must be a number, got None"),
        ({"flat_rate": "30"}, "flat_rate must be a number"),
        ({"ferms_gate": True}, "ferms_gate must be a number, got True"),
        ({"flat_rate": 10**400}, "flat_rate is out of range"),
        ({"holdout_days": 1.5}, "holdout_days must be an integer, got 1.5"),
        ({"holdout_days": 2.0}, "holdout_days must be an integer, got 2.0"),
        ({"holdout_days": True}, "holdout_days must be an integer, got True"),
        ({"holidays": 5}, "holidays must be a list, got 5"),
        ({"holidays": [20140704]}, "holidays must be ISO dates"),
        ({"holidays_file": 5}, "holidays_file must be a path"),
        ({"significance_thresholds": 2.0}, "significance_thresholds must be a list"),
        ({"significance_thresholds": [1, "2", 3]}, "significance_thresholds must be a number"),
        ({"elasticity": [1, 2]}, "elasticity must be an object"),
        ({"elasticity": {**_ZERO_TABLE, "low_low": None}}, "elasticity.low_low must be a number"),
        ({"periods": {"peak": [13.7], "offpeak": [], "low": []}}, "periods.peak must be integer hours, got 13.7"),
        ({"periods": {"peak": 5, "offpeak": [], "low": []}}, "periods.peak must be a list"),
        ({"feature_candidates": "intercept"}, "feature_candidates must be a list"),
        ({"base_features": [{"name": "intercept"}]}, "base_features must be feature names"),
        ({"columns": ["demand_mwh"]}, "columns must be an object"),
        ({"columns": {"demand_mwh": 3}}, "columns must be CSV column names"),
    ],
)
def test_wrong_json_types_rejected(tmp_path, data, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_settings(write_config(tmp_path, data))


def test_whole_hours_written_as_floats_rejected(tmp_path):
    periods = {"peak": list(range(13, 21)), "offpeak": list(range(9, 13)) + list(range(21, 25)),
               "low": [1.0, 2, 3, 4, 5, 6, 7, 8]}
    with pytest.raises(ConfigError, match="periods.low must be integer hours, got 1.0"):
        load_settings(write_config(tmp_path, {"periods": periods}))


@pytest.mark.parametrize("key", ["flat_rate", "ferms_gate"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_rate_and_gate_rejected(tmp_path, key, value):
    with pytest.raises(ConfigError, match=f"{key} must be finite and > 0"):
        load_settings(write_config(tmp_path, {key: value}))


@pytest.mark.parametrize("entry", ["peak_peak", "low_offpeak"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_elasticity_rejected(tmp_path, entry, value):
    with pytest.raises(ConfigError, match=f"elasticity {entry} must be finite"):
        load_settings(write_config(tmp_path, {"elasticity": {**_ZERO_TABLE, entry: value}}))

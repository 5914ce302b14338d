"""Scenario configuration file loading.

The config is one JSON document; every key is optional and falls back to
the built-in defaults. Schema:

    flat_rate                 number > 0, $/MWh
    ferms_gate                number > 0, percent
    holdout_days              integer >= 1
    significance_thresholds   [t10, t5, t1]
    elasticity                {peak_peak, peak_offpeak, peak_low,
                               offpeak_peak, offpeak_offpeak, offpeak_low,
                               low_peak, low_offpeak, low_low}
    periods                   {"peak": [hours], "offpeak": [hours], "low": [hours]}
    feature_candidates        [feature names]
    base_features             [feature names]
    columns                   {canonical name: CSV column name}
    holidays                  ["YYYY-MM-DD", ...]
    holidays_file             path, relative to the config file
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

from .elasticity import ElasticityTable, PeriodConfig
from .market_data import read_holidays
from .pipeline import ScenarioConfig

CONFIG_ENV_VAR = "DR_SPOT_SIM_CONFIG"

_KNOWN_KEYS = {
    "flat_rate",
    "ferms_gate",
    "holdout_days",
    "significance_thresholds",
    "elasticity",
    "periods",
    "feature_candidates",
    "base_features",
    "columns",
    "holidays",
    "holidays_file",
}

_ELASTICITY_KEYS = {
    "peak_peak", "peak_offpeak", "peak_low",
    "offpeak_peak", "offpeak_offpeak", "offpeak_low",
    "low_peak", "low_offpeak", "low_low",
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Settings:
    """A loaded configuration: pipeline parameters plus data-ingestion
    options (column remapping and the holiday calendar)."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    columns: dict[str, str] = field(default_factory=dict)
    holidays: frozenset[date] = frozenset()


def resolve_config_path(explicit: str | None) -> str | None:
    """CLI --config wins; DR_SPOT_SIM_CONFIG is the fallback."""
    return explicit or os.environ.get(CONFIG_ENV_VAR) or None


def _expect(path: Path, key: str, value, kind: type | tuple[type, ...], what: str):
    """``value`` if it has the JSON type ``kind``, else ConfigError. JSON
    true/false are never numbers here, and a float is never an integer."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{path}: {key} must be {what}, got {value!r}")
    return value


def _number(path: Path, key: str, value) -> float:
    try:
        return float(_expect(path, key, value, (int, float), "a number"))
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{path}: {key} is out of range: {value!r}") from None


def _items(path: Path, key: str, value, kind: type, what: str) -> list:
    """A JSON list whose items all have the JSON type ``kind``."""
    return [_expect(path, key, item, kind, what) for item in _expect(path, key, value, list, "a list")]


def load_settings(path: str | Path | None) -> Settings:
    """Load a config file, or return defaults when no path is given."""
    if path is None:
        return Settings()
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None

    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")

    scenario_kwargs: dict = {}
    for key in ("flat_rate", "ferms_gate"):
        if key in data:
            scenario_kwargs[key] = _number(path, key, data[key])
    if "holdout_days" in data:
        scenario_kwargs["holdout_days"] = _expect(path, "holdout_days", data["holdout_days"], int, "an integer")
    if "significance_thresholds" in data:
        thresholds = _expect(path, "significance_thresholds", data["significance_thresholds"], list, "a list")
        if len(thresholds) != 3:
            raise ConfigError(f"{path}: significance_thresholds must be [t10, t5, t1]")
        scenario_kwargs["significance_thresholds"] = tuple(
            _number(path, "significance_thresholds", t) for t in thresholds
        )
    if "elasticity" in data:
        table = _expect(path, "elasticity", data["elasticity"], dict, "an object")
        if set(table) != _ELASTICITY_KEYS:
            raise ConfigError(
                f"{path}: elasticity must define exactly the keys {sorted(_ELASTICITY_KEYS)}"
            )
        values = {k: _number(path, f"elasticity.{k}", v) for k, v in table.items()}
        try:
            scenario_kwargs["elasticity_table"] = ElasticityTable(**values)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if "periods" in data:
        periods = _expect(path, "periods", data["periods"], dict, "an object")
        if set(periods) != {"peak", "offpeak", "low"}:
            raise ConfigError(f"{path}: periods must define peak, offpeak, and low hour lists")
        hours = {
            f"{name}_hours": frozenset(_items(path, f"periods.{name}", listed, int, "integer hours"))
            for name, listed in periods.items()
        }
        try:
            scenario_kwargs["period_config"] = PeriodConfig(**hours)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    for key in ("feature_candidates", "base_features"):
        if key in data:
            scenario_kwargs[key] = tuple(_items(path, key, data[key], str, "feature names"))

    try:
        scenario = ScenarioConfig(**scenario_kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None

    holidays: set[date] = set()
    for raw in _items(path, "holidays", data.get("holidays", []), str, "ISO dates"):
        try:
            holidays.add(date.fromisoformat(raw))
        except ValueError:
            raise ConfigError(f"{path}: bad holiday date {raw!r}") from None
    if "holidays_file" in data:
        holidays_file = _expect(path, "holidays_file", data["holidays_file"], str, "a path")
        holidays |= read_holidays(path.parent / holidays_file)

    columns = _expect(path, "columns", data.get("columns", {}), dict, "an object")
    for name in columns.values():
        _expect(path, "columns", name, str, "CSV column names")
    return Settings(scenario=scenario, columns=dict(columns), holidays=frozenset(holidays))

"""Command line front end.

Subcommands: fit (model estimation and coefficient table), forecast
(standalone day-ahead price forecast), simulate (full demand response
scenario with CSV/JSON outputs), report (summarize a simulate output
directory). Exit codes: 0 success, 1 input or runtime error, 2 quality
gate failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from contextlib import contextmanager
from datetime import date, datetime, time, timedelta
from pathlib import Path

from . import pipeline
from .config import ConfigError, Settings, load_settings, resolve_config_path
from .csv_text import float_grids, stamp_grid, stamp_strings, write_csv
from .market_data import MarketDataError, RecordSeries, parse_hourly_csv
from .pipeline import EmptyWindowError, ModelRejectedError, RESULT_COLUMNS
from .regression import RegressionError, ZeroMeanActualError, design_matrix, ferms, predict


class CommandError(Exception):
    """Fatal command failure; the message names the stage that failed."""


@contextmanager
def _stage(name: str):
    try:
        yield
    except (ModelRejectedError, CommandError):
        raise
    except (MarketDataError, RegressionError, ConfigError, EmptyWindowError, ValueError, OSError) as exc:
        raise CommandError(f"{name}: {exc}") from exc


def _json_text(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _load_settings(args) -> Settings:
    with _stage("config"):
        settings = load_settings(resolve_config_path(args.config))
        if getattr(args, "holdout_days", None) is not None:
            settings = dataclasses.replace(
                settings,
                scenario=dataclasses.replace(settings.scenario, holdout_days=args.holdout_days),
            )
        return settings


def _load_series(args, settings: Settings) -> RecordSeries:
    with _stage("load"):
        return parse_hourly_csv(
            args.data,
            schema=settings.columns,
            holidays=settings.holidays,
            strict=not args.permissive,
        )


def _split_window(series: RecordSeries, args) -> tuple[RecordSeries, RecordSeries]:
    with _stage("window"):
        start = datetime.combine(date.fromisoformat(args.window_start), time(0))
        try:
            end = start + timedelta(days=args.days)
        except OverflowError:
            raise ValueError(f"--days {args.days} puts the window end past {date.max}") from None
        study = series.between(start, end)
        if len(study) != args.days * 24:
            raise ValueError(
                f"window {args.window_start} +{args.days}d is not fully inside the data "
                f"({len(study)} of {args.days * 24} hours found)"
            )
        history = series.between(datetime.min, start)
        if not len(history):
            raise ValueError(f"no history before window start {args.window_start}")
        return history, study


def cmd_fit(args) -> int:
    settings = _load_settings(args)
    series = _load_series(args, settings)
    selection = []
    with _stage("fit"):
        _spec, model, holdout_ferms = pipeline.fit_price_model(series, settings.scenario, selection)
    thresholds = settings.scenario.significance_thresholds
    doc = model.to_json_dict(thresholds)
    doc["holdout_ferms"] = holdout_ferms
    doc["selection"] = [step.to_json_dict() for step in selection]
    with _stage("write"):
        Path(args.out).write_text(_json_text(doc))
    print(model.table_text(thresholds))
    print(f"n_obs: {model.n_obs}")
    print(f"holdout ferms: {holdout_ferms:.2f}%")
    print(f"model written to {args.out}")
    if args.gate is not None and holdout_ferms > args.gate:
        raise ModelRejectedError(holdout_ferms, args.gate)
    return 0


def cmd_forecast(args) -> int:
    settings = _load_settings(args)
    series = _load_series(args, settings)
    history, study = _split_window(series, args)
    with _stage("fit"):
        spec, model, holdout_ferms = pipeline.fit_price_model(history, settings.scenario)
    with _stage("forecast"):
        forecast = predict(model, design_matrix(study, spec))
    with _stage("write"):
        columns = [stamp_grid(study.times), *float_grids(study.spot_price, forecast)]
        write_csv(args.out, ("timestamp", "spot_price", "forecast_price"), columns)
    print(f"holdout ferms: {holdout_ferms:.2f}%")
    # The window's ferms is only reported: a window whose mean price is not
    # positive has none, and the forecast stands.
    try:
        print(f"window ferms: {ferms(forecast, study.spot_price):.2f}%")
    except ZeroMeanActualError:
        print("window ferms: undefined (mean price <= 0)")
    print(f"forecast written to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    settings = _load_settings(args)
    series = _load_series(args, settings)
    history, study = _split_window(series, args)
    with _stage("simulate"):
        result = pipeline.run_scenario(history, study, settings.scenario)
        summary = pipeline.impact_summary(result)
    with _stage("write"):
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        pipeline.write_result_csv(result, out_dir / "result.csv")
        doc = summary.to_json_dict()
        doc["holdout_ferms"] = result.holdout_ferms
        doc["clamp_count"] = result.clamp_count
        doc["hours"] = len(result)
        doc["selected_features"] = list(result.model.spec)
        doc["filled_hours"] = stamp_strings(series.filled)
        doc["selection"] = [step.to_json_dict() for step in result.selection]
        (out_dir / "summary.json").write_text(_json_text(doc))
        cells = result.csv_grids
        plots = {
            "plot_price_forecast.csv": {
                "timestamp": cells["timestamp"],
                "actual_price": cells["actual_price"],
                "forecast_price": cells["forecast_price"],
            },
            "plot_demand.csv": {
                "timestamp": cells["timestamp"],
                "demand_before": cells["baseline_demand"],
                "demand_after": cells["dr_demand"],
            },
            "plot_spot_price.csv": {
                "timestamp": cells["timestamp"],
                "price_before": cells["baseline_spot_price"],
                "price_after": cells["updated_spot_price"],
            },
        }
        for name, columns in plots.items():
            write_csv(out_dir / name, list(columns), list(columns.values()))
    print(f"simulated {len(result)} hours, outputs in {out_dir}")
    print(
        f"energy delta: {summary.delta_energy_mwh:.1f} MWh ({summary.delta_energy_pct:+.2f}%), "
        f"cost delta: {summary.delta_cost:,.0f} $ ({summary.delta_cost_pct:+.2f}%)"
    )
    return 0


def _read_result_csv(path: Path) -> int:
    text = path.read_text().splitlines()
    if not text:
        raise ValueError(f"{path}: empty file")
    header = text[0].split(",")
    if tuple(header) != RESULT_COLUMNS:
        raise ValueError(f"{path}: unexpected header {header}")
    for line_num, line in enumerate(text[1:], start=2):
        if len(line.split(",")) != len(RESULT_COLUMNS):
            raise ValueError(f"{path}: row {line_num} has the wrong number of fields")
    return len(text) - 1


# The summary.json keys that report prints: the impact summary and three that simulate adds.
_REPORT_KEYS = (
    *(f.name for f in dataclasses.fields(pipeline.ImpactSummary)), "hours", "holdout_ferms", "clamp_count"
)


def _read_summary(path: Path) -> dict:
    if not path.exists():
        raise FileNotFoundError(f"{path} not found")
    summary = json.loads(path.read_text())
    if not isinstance(summary, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(summary).__name__}")
    for key in _REPORT_KEYS:
        if key not in summary:
            raise ValueError(f"{path}: missing key {key!r}")
        value = summary[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{path}: key {key!r} must be a JSON number, got {type(value).__name__}")
    return summary


def cmd_report(args) -> int:
    result_dir = Path(args.result_dir)
    with _stage("read"):
        summary = _read_summary(result_dir / "summary.json")
        rows = _read_result_csv(result_dir / "result.csv")
        if rows != summary["hours"]:
            raise ValueError(f"{result_dir / 'result.csv'}: {rows} rows but summary says {summary['hours']}")
    print(f"scenario report: {result_dir}")
    print(f"  hours simulated       {summary['hours']}")
    print(
        f"  energy delta          {summary['delta_energy_mwh']:.1f} MWh "
        f"({summary['delta_energy_pct']:+.2f}%)"
    )
    print(
        f"  wholesale cost delta  {summary['delta_cost']:,.0f} $ "
        f"({summary['delta_cost_pct']:+.2f}%)"
    )
    print(f"  baseline cost         {summary['baseline_cost']:,.0f} $")
    print(f"  cost after response   {summary['dr_cost']:,.0f} $")
    print(f"  peak price before     {summary['peak_price_before']:.2f} $/MWh")
    print(f"  peak price after      {summary['peak_price_after']:.2f} $/MWh")
    print(f"  holdout ferms         {summary['holdout_ferms']:.2f}%")
    print(f"  clamped hours         {summary['clamp_count']}")
    return 0


def _add_common(sub: argparse.ArgumentParser, window: bool) -> None:
    sub.add_argument("--data", required=True, help="hourly market data CSV")
    sub.add_argument("--config", default=None, help="config JSON (or set DR_SPOT_SIM_CONFIG)")
    sub.add_argument("--holdout-days", type=int, default=None, help="override config holdout days")
    gaps = sub.add_mutually_exclusive_group()
    gaps.add_argument("--strict", dest="permissive", action="store_false", help="reject gaps (default)")
    gaps.add_argument("--permissive", dest="permissive", action="store_true", help="fill gaps")
    sub.set_defaults(permissive=False)
    if window:
        sub.add_argument("--window-start", required=True, help="study window start date (ISO)")
        sub.add_argument("--days", type=int, required=True, help="study window length in days")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drspot",
        description="Spot-market price impact simulator for price-elastic demand response",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit the price model and write it as JSON")
    _add_common(fit, window=False)
    fit.add_argument("--out", required=True, help="output model JSON path")
    fit.add_argument("--gate", type=float, default=None, help="fail (exit 2) if holdout ferms exceeds this")
    fit.set_defaults(func=cmd_fit)

    forecast = sub.add_parser("forecast", help="forecast prices for a window")
    _add_common(forecast, window=True)
    forecast.add_argument("--out", required=True, help="output forecast CSV path")
    forecast.set_defaults(func=cmd_forecast)

    simulate = sub.add_parser("simulate", help="run the demand response scenario")
    _add_common(simulate, window=True)
    simulate.add_argument("--out", required=True, help="output directory")
    simulate.set_defaults(func=cmd_simulate)

    report = sub.add_parser("report", help="summarize a simulate output directory")
    report.add_argument("result_dir", help="directory written by simulate")
    report.set_defaults(func=cmd_report)
    return parser


def _check_flags(args) -> None:
    """Ranges argparse does not check; a bad value is an input error (exit 1)."""
    gate = getattr(args, "gate", None)
    if gate is not None and not 0 < gate < math.inf:  # NaN fails too
        raise CommandError(f"--gate must be a finite number > 0, got {gate}")
    for flag, name in (("--days", "days"), ("--holdout-days", "holdout_days")):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise CommandError(f"{flag} must be >= 1, got {value}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except ModelRejectedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MarketDataError, RegressionError, ConfigError, EmptyWindowError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Command line front end.

Subcommands: fit (model estimation and coefficient table), forecast
(standalone day-ahead price forecast), simulate (full demand response
scenario with CSV/JSON outputs), report (summarize a simulate output
directory). Exit codes: 0 success, 1 input or runtime error (a usage
error included), 2 quality gate failure.
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
from .csv_text import write_csv
from .market_data import MarketDataError, RecordSeries, iso_minutes, parse_hourly_csv
from .pipeline import EmptyWindowError, ModelRejectedError, RESULT_COLUMNS
from .regression import RegressionError, ZeroMeanActualError, ferms


class CommandError(Exception):
    """Fatal command failure; the message names the stage that failed."""


@contextmanager
def _stage(name: str):
    try:
        yield
    except (MarketDataError, RegressionError, ConfigError, EmptyWindowError, ValueError, OSError) as exc:
        raise CommandError(f"{name}: {exc}") from exc


def _json_text(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _load_settings(args) -> Settings:
    with _stage("config"):
        return load_settings(resolve_config_path(args.config))


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
        pipeline.require_valid(series, "history")
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
    # Checked after the write: model.json is how a rejected fit is inspected.
    if holdout_ferms > settings.scenario.ferms_gate:
        raise ModelRejectedError(holdout_ferms, settings.scenario.ferms_gate)
    return 0


def cmd_forecast(args) -> int:
    settings = _load_settings(args)
    series = _load_series(args, settings)
    history, study = _split_window(series, args)
    with _stage("window"):
        pipeline.require_valid(history, "history")
        pipeline.require_valid(study, "study window")
    with _stage("fit"):
        _spec, model, holdout_ferms = pipeline.fit_price_model(history, settings.scenario)
    if holdout_ferms > settings.scenario.ferms_gate:
        raise ModelRejectedError(holdout_ferms, settings.scenario.ferms_gate)
    with _stage("forecast"):
        forecast = pipeline.predict_window(model, study)
    with _stage("write"):
        write_csv(args.out, ("timestamp", "spot_price", "forecast_price"), [study.times, study.spot_price, forecast])
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
        pipeline.write_result_csv(result, out_dir)
        doc = summary.to_json_dict()
        doc["holdout_ferms"] = result.holdout_ferms
        doc["clamp_count"] = result.clamp_count
        doc["hours"] = len(result)
        doc["selected_features"] = list(result.model.spec)
        doc["filled_hours"] = [iso_minutes(t) for t in series.filled.tolist()]
        doc["selection"] = [step.to_json_dict() for step in result.selection]
        (out_dir / "summary.json").write_text(_json_text(doc))
    print(f"simulated {len(result)} hours, outputs in {out_dir}")
    print(
        f"energy delta: {summary.delta_energy_mwh:.1f} MWh ({summary.delta_energy_pct:+.2f}%), "
        f"cost delta: {summary.delta_cost:,.0f} $ ({summary.delta_cost_pct:+.2f}%)"
    )
    return 0


def _read_result_csv(path: Path) -> int:
    rows = -1
    with open(path) as lines:
        for rows, line in enumerate(lines):
            fields = line.rstrip("\n").split(",")
            if rows == 0 and tuple(fields) != RESULT_COLUMNS:
                raise ValueError(f"{path}: unexpected header {fields}")
            if len(fields) != len(RESULT_COLUMNS):
                raise ValueError(f"{path}: row {rows + 1} has the wrong number of fields")
    if rows < 0:
        raise ValueError(f"{path}: empty file")
    return rows


# The summary.json keys that report prints: the impact summary and three that simulate adds.
_REPORT_KEYS = (
    *(f.name for f in dataclasses.fields(pipeline.ImpactSummary)), "hours", "holdout_ferms", "clamp_count"
)


def _read_summary(path: Path) -> dict:
    if not path.exists():
        raise FileNotFoundError(f"{path} not found")
    try:
        summary = json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:  # also too many digits, too deep a nesting
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(summary, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(summary).__name__}")
    for key in _REPORT_KEYS:
        if key not in summary:
            raise ValueError(f"{path}: missing key {key!r}")
        value = summary[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{path}: key {key!r} must be a JSON number, got {type(value).__name__}")
        # Python's decoder reads NaN, Infinity and 1e400; an int past the
        # float range is exact, and math.isfinite would overflow on it.
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{path}: key {key!r} must be a finite number, got {value}")
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
    sub.add_argument("--permissive", action="store_true", help="fill gaps (default: reject them)")
    if window:
        sub.add_argument("--window-start", required=True, help="study window start date (ISO)")
        sub.add_argument("--days", type=int, required=True, help="study window length in days")


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1, as input errors do: exit 2 is the quality gate's."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="drspot",
        description="Spot-market price impact simulator for price-elastic demand response",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit the price model and write it as JSON")
    _add_common(fit, window=False)
    fit.add_argument("--out", required=True, help="output model JSON path")
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
    days = getattr(args, "days", None)
    if days is not None and days < 1:
        raise CommandError(f"--days must be >= 1, got {days}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except ModelRejectedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CommandError, MarketDataError, RegressionError, ConfigError, EmptyWindowError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

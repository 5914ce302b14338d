"""Workload definitions and the seeded input generator.

Every workload runs ``drspot simulate`` with ``data/scenario.json``. The two
long workloads tile the bundled 70-day CSV: tile k is shifted by 70*k days,
which keeps the weekday of every hour, and every tile after the first gets a
small multiplicative perturbation drawn from ``random.Random(seed)``. The
program only sees the generated CSV file.

Standard library only, so that generating inputs never loads numpy into the
process that measures set-up time or memory.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

BUNDLED_CSV = Path("data") / "synthetic_market.csv"
SCENARIO = Path("data") / "scenario.json"
GOLDEN = Path("data") / "golden_summary.json"
TILE_DAYS = 70
HOURS_PER_DAY = 24

# The seed whose long-workload outputs are stored in references.json.
DEFAULT_SEED = 0

WORKLOADS = ("bundled_week", "long_history", "long_window")


@dataclass(frozen=True)
class Sizes:
    """Days of history and of study window for one generated workload."""

    history_days: int
    window_days: int


# long_history: 4 tiles (280 days) with the last 7 days as the window, so
#   forward selection runs at 6,384 train hours and dominates the call.
# long_window: 28 days of history (504 train hours) and a 364-day window, so
#   window design matrices, the response loop, re-pricing and the CSV writes
#   dominate while selection stays small.
FULL_SIZES = {
    "long_history": Sizes(history_days=4 * TILE_DAYS - 7, window_days=7),
    "long_window": Sizes(history_days=28, window_days=364),
}
# Tiny sizes for the self-check: still two tiles each, so the perturbation runs.
QUICK_SIZES = {
    "long_history": Sizes(history_days=TILE_DAYS + 7, window_days=7),
    "long_window": Sizes(history_days=28, window_days=56),
}


@dataclass(frozen=True)
class Workload:
    """One generated workload: the simulate arguments and the input stamp."""

    name: str
    csv_path: Path
    window_start: str
    days: int
    history_hours: int
    csv_bytes: int
    csv_sha256: str

    def simulate_argv(self, out_dir: Path) -> list[str]:
        return [
            "simulate",
            "--data", str(self.csv_path),
            "--config", str(SCENARIO),
            "--window-start", self.window_start,
            "--days", str(self.days),
            "--out", str(out_dir),
        ]

    def stamp(self) -> dict:
        return {
            "history_hours": self.history_hours,
            "window_hours": self.days * HOURS_PER_DAY,
            "csv_bytes": self.csv_bytes,
            "csv_sha256": self.csv_sha256,
        }


def _read_bundled(root: Path) -> tuple[str, list[list[str]]]:
    lines = (root / BUNDLED_CSV).read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:] if line]


def _tiled_rows(header: str, rows: list[list[str]], hours: int, seed: int) -> list[str]:
    if header != "timestamp,demand_mwh,spot_price,dry_bulb_f,dew_point_f":
        raise ValueError(f"unexpected bundled CSV header {header!r}")
    rng = random.Random(seed)
    out = [header]
    for k in range(-(-hours // len(rows))):
        shift = timedelta(days=TILE_DAYS * k)
        # One level shift per tile plus per-hour noise; tile 0 is the bundled data.
        demand_level = 1.0 + 0.03 * rng.uniform(-1.0, 1.0) if k else 1.0
        price_level = 1.0 + 0.05 * rng.uniform(-1.0, 1.0) if k else 1.0
        for ts, demand, price, dry_bulb, dew_point in rows:
            if len(out) > hours:
                break
            stamp = (datetime.fromisoformat(ts) + shift).isoformat(timespec="minutes")
            demand, price = float(demand), float(price)
            dry_bulb, dew_point = float(dry_bulb), float(dew_point)
            if k:
                demand *= demand_level * (1.0 + 0.01 * rng.gauss(0.0, 1.0))
                price *= price_level * (1.0 + 0.02 * rng.gauss(0.0, 1.0))
                dry_bulb += 0.5 * rng.gauss(0.0, 1.0)
                dew_point += 0.5 * rng.gauss(0.0, 1.0)
            out.append(f"{stamp},{demand:.3f},{price:.4f},{dry_bulb:.2f},{dew_point:.2f}")
    return out


def build(name: str, seed: int, root: Path, work_dir: Path, quick: bool = False) -> Workload:
    """Write the input CSV for ``name`` under ``work_dir`` and describe it.

    ``bundled_week`` ignores the seed and reads the bundled CSV in place.
    """
    header, rows = _read_bundled(root)
    first = datetime.fromisoformat(rows[0][0])
    if name == "bundled_week":
        # The README quick start: the final bundled week.
        data = (root / BUNDLED_CSV).read_bytes()
        window_start = datetime(2021, 8, 9)
        return Workload(
            name=name,
            csv_path=BUNDLED_CSV,
            window_start=window_start.date().isoformat(),
            days=7,
            history_hours=(window_start - first) // timedelta(hours=1),
            csv_bytes=len(data),
            csv_sha256=hashlib.sha256(data).hexdigest(),
        )
    if name not in FULL_SIZES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    sizes = (QUICK_SIZES if quick else FULL_SIZES)[name]
    hours = (sizes.history_days + sizes.window_days) * HOURS_PER_DAY
    data = ("\n".join(_tiled_rows(header, rows, hours, seed)) + "\n").encode()
    work_dir.mkdir(parents=True, exist_ok=True)
    path = work_dir / "input.csv"
    path.write_bytes(data)
    return Workload(
        name=name,
        csv_path=path.relative_to(root),
        window_start=(first + timedelta(days=sizes.history_days)).date().isoformat(),
        days=sizes.window_days,
        history_hours=sizes.history_days * HOURS_PER_DAY,
        csv_bytes=len(data),
        csv_sha256=hashlib.sha256(data).hexdigest(),
    )

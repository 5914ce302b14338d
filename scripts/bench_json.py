"""Condense benchmark results into one JSON file that can be committed.

    python3 scripts/bench_json.py --side parent=../parent/.perfbench \
        --side change=.perfbench --out BENCH_6.json

Each ``--side LABEL=DIR`` names a directory that ``perfbench/run.py`` wrote
(``.perfbench/`` of a checkout). Every ``*/result.json`` under it is read,
except the tiny runs of ``--self-check``. For each side, workload and trace
mode the output holds the seeds, the attempted and failed call counts, and
for every metric the run values in seed order (a run's value is the median
of its calls) with their median and quartiles. Each side also carries the
environment stamp of its runs; a side whose runs differ in it (another
commit or source tree, another interpreter) is refused, so that stale
results cannot mix in.

Every side after the first is also compared with the first, the parent,
under ``comparison``: per workload, trace mode and metric, the runs of the
two sides are paired by seed and counted as wins, ties and losses of the
later side (lower is better unless BENCHMARK.json declares the metric
``higher``). ``median_gap`` is the parent's median minus the side's over the
paired runs, signed so that a positive gap favours the side, and
``spread`` is the distance between the parent's quartiles over the same
runs (``pairs`` counts them). ``gain`` holds when there are at least ten
pairs, the side wins at least nine tenths of them (ties count for
neither) and the gap exceeds the spread: the rule for claiming a gain.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10  # fewer pairs support no claim


def summarize(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def load_runs(directory: Path) -> list[dict]:
    """The full-size runs under ``directory`` in seed order, all of one environment."""
    runs = [json.loads(path.read_text()) for path in sorted(directory.glob("*/result.json"))]
    runs = sorted((run for run in runs if not run["quick"]), key=lambda run: run["seed"])
    if not runs:
        raise SystemExit(f"error: no benchmark results under {directory}")
    stamps = {json.dumps(run["env"], sort_keys=True) for run in runs}
    if len(stamps) > 1:
        raise SystemExit(f"error: {directory} mixes runs of {len(stamps)} environments: {sorted(stamps)}")
    return runs


def condense(runs: list[dict]) -> dict:
    groups: dict[str, dict[str, list[dict]]] = {}
    for run in runs:
        groups.setdefault(run["workload"], {}).setdefault(f"trace{int(run['trace'])}", []).append(run)
    workloads = {}
    for workload, modes in sorted(groups.items()):
        workloads[workload] = {}
        for mode, group in sorted(modes.items()):
            names = sorted({name for run in group for name in run["samples"]})
            workloads[workload][mode] = {
                "seeds": [run["seed"] for run in group],
                "attempted": sum(run["attempted"] for run in group),
                "failed": sum(run["failed"] for run in group),
                "metrics": {
                    name: summarize([run["samples"][name][0] for run in group if name in run["samples"]])
                    for name in names
                },
            }
    return {"env": runs[0]["env"], "workloads": workloads}


def higher_is_better() -> set[str]:
    """The metrics that BENCHMARK.json declares better when higher."""
    declared = json.loads(BENCHMARK.read_text())
    return {metric["name"] for key in ("end_to_end", "per_layer") for metric in declared[key]
            if metric["better"] == "higher"}


def compare(parent_runs: list[dict], side_runs: list[dict], higher: set[str]) -> dict:
    """Wins, ties and losses of one side against the parent, runs paired by seed."""
    pairs: dict[tuple, list[tuple[float, float]]] = {}
    parent = {(run["workload"], f"trace{int(run['trace'])}", run["seed"]): run["samples"] for run in parent_runs}
    for run in side_runs:
        mode = f"trace{int(run['trace'])}"
        base = parent.get((run["workload"], mode, run["seed"]), {})
        for name in base.keys() & run["samples"].keys():
            pairs.setdefault((run["workload"], mode, name), []).append((base[name][0], run["samples"][name][0]))

    out: dict = {}
    for (workload, mode, name), values in sorted(pairs.items()):
        sign = -1.0 if name in higher else 1.0  # gaps > 0 favour the side
        gaps = [sign * (old - new) for old, new in values]
        parent_stats = summarize([old for old, _ in values])
        median_gap = sign * (parent_stats["median"] - summarize([new for _, new in values])["median"])
        wins, spread = sum(gap > 0 for gap in gaps), parent_stats["q3"] - parent_stats["q1"]
        out.setdefault(workload, {}).setdefault(mode, {})[name] = {
            "pairs": len(values),
            "wins": wins,
            "ties": sum(gap == 0 for gap in gaps),
            "losses": sum(gap < 0 for gap in gaps),
            "median_gap": median_gap,
            "spread": spread,
            "gain": len(values) >= MIN_PAIRS and 10 * wins >= 9 * len(values) and median_gap > spread,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", required=True, metavar="LABEL=DIR",
                        help="a label and the result directory of one side; repeat for each side")
    parser.add_argument("--out", required=True, help="output JSON path, e.g. BENCH_<pr>.json")
    args = parser.parse_args(argv)

    runs = {}
    for side in args.side:
        label, sep, directory = side.partition("=")
        if not sep or not label or not directory:
            parser.error(f"--side must be LABEL=DIR, got {side!r}")
        runs[label] = load_runs(Path(directory))
    doc = {"sides": {label: condense(side_runs) for label, side_runs in runs.items()}}
    parent, *others = runs
    if others:
        higher = higher_is_better()
        doc["comparison"] = {label: compare(runs[parent], runs[label], higher) for label in others}
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

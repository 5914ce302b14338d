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
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def summarize(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def condense(directory: Path) -> dict:
    runs = [json.loads(path.read_text()) for path in sorted(directory.glob("*/result.json"))]
    runs = sorted((run for run in runs if not run["quick"]), key=lambda run: run["seed"])
    if not runs:
        raise SystemExit(f"error: no benchmark results under {directory}")
    stamps = {json.dumps(run["env"], sort_keys=True) for run in runs}
    if len(stamps) > 1:
        raise SystemExit(f"error: {directory} mixes runs of {len(stamps)} environments: {sorted(stamps)}")

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", required=True, metavar="LABEL=DIR",
                        help="a label and the result directory of one side; repeat for each side")
    parser.add_argument("--out", required=True, help="output JSON path, e.g. BENCH_<pr>.json")
    args = parser.parse_args(argv)

    sides = {}
    for side in args.side:
        label, sep, directory = side.partition("=")
        if not sep or not label or not directory:
            parser.error(f"--side must be LABEL=DIR, got {side!r}")
        sides[label] = condense(Path(directory))
    Path(args.out).write_text(json.dumps({"sides": sides}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

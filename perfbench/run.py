"""drspot benchmark: times ``drspot simulate`` on one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bundled_week --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

``--trace 0`` measures the end-to-end metrics. ``run_s`` is the median time of
one untraced simulate call after a warm-up call, and ``setup_s`` the median
time of a fresh interpreter that imports ``drspot.cli`` and loads
``data/scenario.json``; both are wall times corrected for CPU contention by
the probe in probe.py, and the raw medians are printed as ``run_wall_s`` and
``setup_wall_s``. ``peak_rss_mb`` is the peak RSS of the process that makes
only the simulate calls. ``--trace 1`` alternates untraced and traced calls
and reports the per-layer metrics of tracer.py plus ``trace.overhead_s``.

Every call's outputs are checked (see worker.py); a failed check counts the
call as failed. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it list every metric with its unit and sample count, ``error_rate``, the input
stamp and the environment stamp. Metric names and units come from
BENCHMARK.json. ``--self-check`` runs every workload at tiny sizes for one
second in both modes and checks the shape of each result.

Only the standard library is imported here: the measured program runs in
child processes, started with ``OPENBLAS_NUM_THREADS=1`` because BLAS threads
on small matrices made call times much less steady on a 2-core machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from probe import Probe, corrected_times

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench"
REQUIRED = (Path("src/drspot/cli.py"), workloads.BUNDLED_CSV, workloads.SCENARIO, workloads.GOLDEN)
BLAS_THREADS = "1"
SETUP_LAUNCHES = 20
QUICK_SETUP_LAUNCHES = 3
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import drspot.cli; "
    "from drspot.config import load_settings; load_settings('data/scenario.json')"
)
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def setup_times(launches: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh set-up launches, and the same at reference speed."""
    probe = Probe()
    wall, probe_s = [], []
    for _ in range(launches):
        before = probe()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL)
        # wait(timeout=...) polls with sleeps of up to 50 ms, which would
        # quantise the launch time; a plain wait blocks until the exit.
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        rc = proc.wait()
        wall.append(time.perf_counter() - start)
        watchdog.cancel()
        if rc != 0:
            raise SystemExit(f"set-up launch failed with exit code {rc}")
        probe_s.append((before + probe()) / 2)
    return wall, corrected_times(wall, probe_s, probe.reference_s)


def source_stamp() -> dict:
    """Identify the measured code: the git commit when there is one, and a
    hash of the package sources, which a checkout without git still has."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def reference_for(workload: workloads.Workload, seed: int, quick: bool) -> tuple[dict | None, list[str]]:
    """The summary the outputs must match, and problems with the input itself."""
    if workload.name == "bundled_week":
        return json.loads((ROOT / workloads.GOLDEN).read_text()), []
    if quick or seed != workloads.DEFAULT_SEED:
        return None, []
    stored = json.loads((BENCH_DIR / "references.json").read_text())[workload.name]
    if stored["csv_sha256"] != workload.csv_sha256:
        return stored["summary"], [f"generated input sha256 {workload.csv_sha256} differs from the reference input"]
    return stored["summary"], []


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    work_dir = WORK_ROOT / f"{name}-seed{seed}-trace{int(trace)}{'-quick' if quick else ''}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload = workloads.build(name, seed, ROOT, work_dir, quick)
    reference, input_problems = reference_for(workload, seed, quick)
    scenario = json.loads((ROOT / workloads.SCENARIO).read_text())
    spec = {
        "argv": workload.simulate_argv((work_dir / "out").relative_to(ROOT)),
        "days": workload.days,
        "ferms_gate": float(scenario.get("ferms_gate", 15.0)),
        "reference": reference,
        "out_dir": str((work_dir / "out").relative_to(ROOT)),
        "spans_path": str(work_dir / "spans.json"),
        "seconds": seconds,
        "trace": trace,
    }
    spec_path = work_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))

    setup, setup_corrected = ([], []) if trace else setup_times(QUICK_SETUP_LAUNCHES if quick else SETUP_LAUNCHES)
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"benchmark worker failed with exit code {proc.returncode}")
    child = json.loads(lines[-1])

    samples: dict[str, tuple[float, int]] = {}
    run_s = child["run_s"]
    if trace:
        traced = child["traced"]
        for metric in sorted({m for call in traced for m in call}):
            values = [call[metric] for call in traced if metric in call]
            samples[metric] = (statistics.median(values), len(values))
        if run_s and child["traced_main_s"]:
            overhead = statistics.median(child["traced_main_s"]) - statistics.median(run_s)
            samples["trace.overhead_s"] = (overhead, len(child["traced_main_s"]))
    else:
        if run_s:
            samples["run_s"] = (statistics.median(child["run_corrected_s"]), len(run_s))
            samples["run_wall_s"] = (statistics.median(run_s), len(run_s))
        samples["setup_s"] = (statistics.median(setup_corrected), len(setup))
        samples["setup_wall_s"] = (statistics.median(setup), len(setup))
        samples["peak_rss_mb"] = (child["peak_rss_mb"], 1)

    result = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "quick": quick,
        "input": workload.stamp(),
        "env": {**child["env"], **source_stamp()},
        "holdout_ferms": (child["summary"] or {}).get("holdout_ferms"),
        "attempted": child["attempted"],
        "failed": child["failed"],
        "problems": input_problems + child["problems"],
        "samples": samples,
        "run_wall_s_all": run_s,
        "run_s_all": child["run_corrected_s"],
        "probe_s_all": child["probe_s"],
        "setup_wall_s_all": setup,
        "setup_s_all": setup_corrected,
    }
    (work_dir / "result.json").write_text(json.dumps(result, indent=1))
    return result


def declared_metrics() -> dict[bool, dict[str, str]]:
    """Metric name -> unit from BENCHMARK.json, keyed by trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def final_line(result: dict, units: dict[str, str]) -> dict:
    return {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["samples"][name][0], "unit": unit}
            for name, unit in units.items()
            if name in result["samples"]
        },
    }


def print_report(result: dict, units: dict[str, str]) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}"
          f"{'  quick' if result['quick'] else ''}")
    print("input " + json.dumps(result["input"], sort_keys=True))
    print("env   " + json.dumps(result["env"], sort_keys=True))
    print(f"holdout ferms {result['holdout_ferms']}")
    print(f"{'metric':<32} {'value':>14} {'unit':<6} samples")
    rows = dict(result["samples"])
    rows["error_rate"] = (result["failed"] / result["attempted"], result["attempted"])
    for name, (value, count) in rows.items():
        unit = units.get(name, {"error_rate": "ratio"}.get(name, "s"))
        print(f"{name:<32} {value:>14.6g} {unit:<6} {count}")
    for problem in result["problems"]:
        print(f"FAILED: {problem}")


def self_check() -> int:
    """Every workload at tiny sizes, one second, both modes; checks the shape."""
    declared = declared_metrics()
    bad = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = measure(name, workloads.DEFAULT_SEED, 1.0, trace, quick=True)
            line = final_line(result, declared[trace])
            missing = sorted(set(declared[trace]) - set(line["metrics"]))
            values = [m["value"] for m in line["metrics"].values()]
            ok = (line["correct"] and line["attempted"] >= 1 and not missing
                  and all(isinstance(v, (int, float)) and math.isfinite(v) for v in values))
            print(f"{'ok  ' if ok else 'FAIL'} {name} trace={int(trace)} attempted={line['attempted']}"
                  f" failed={line['failed']} missing={missing} problems={result['problems'][:3]}")
            if not ok:
                bad.append(f"{name} trace={int(trace)}")
    print(json.dumps({"self_check": "failed" if bad else "ok", "failures": bad}))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="tiny sizes, all workloads, both modes")
    args = parser.parse_args(argv)

    missing = [str(p) for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a drspot checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    units = declared_metrics()[bool(args.trace)]
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(result, units)
    print(json.dumps(final_line(result, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

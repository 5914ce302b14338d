"""Measuring process of the benchmark: runs one workload's simulate calls.

run.py starts it in the checkout root as ``python3 perfbench/worker.py SPEC``,
where SPEC is a JSON file it wrote, and reads one JSON object from the last
line of its standard output. The process does nothing but the simulate
calls and their output checks, so its peak RSS is the workload's memory.

Each call runs ``drspot.cli.main`` in-process after ``gc.collect()`` and is
timed from argument parsing to its return, after the last output file is
written. Output checks run between calls, outside the timed region:
exit code 0, ``days*24`` result rows, holdout ferms within the configured
gate, the stored reference summary (when the spec has one), ``drspot report``
reading the outputs back, and output files byte-identical to the warm-up
call's.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from probe import Probe, corrected_times
from tracer import Tracer, call_metrics, nesting_errors, self_times

MAX_PROBLEMS = 10


def summary_mismatches(summary: dict, reference: dict, rel: float = 1e-9) -> list[str]:
    """Keys of ``reference`` that ``summary`` does not match: floats within
    ``rel``, everything else (counts, the feature list and its order) exactly."""
    problems = []
    for key, want in reference.items():
        got = summary.get(key)
        if isinstance(want, float) and isinstance(got, (int, float)):
            ok = math.isclose(got, want, rel_tol=rel, abs_tol=0.0)
        else:
            ok = got == want
        if not ok:
            problems.append(f"summary {key}: got {got!r}, want {want!r}")
    return problems


def _quiet_main(cli, argv: list[str]) -> tuple[int, float]:
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - start
    return rc, elapsed


def _file_hashes(out_dir: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if path.is_file()
    }


class Checker:
    """Output checks of one workload; the first good call fixes the bytes
    every later call must reproduce."""

    def __init__(self, cli, spec: dict):
        self.cli = cli
        self.out_dir = Path(spec["out_dir"])
        self.hours = spec["days"] * 24
        self.gate = spec["ferms_gate"]
        self.reference = spec["reference"]
        self.hashes: dict[str, str] | None = None
        self.summary: dict | None = None

    def __call__(self, rc: int) -> list[str]:
        if rc != 0:
            return [f"simulate exited with {rc}"]
        summary = json.loads((self.out_dir / "summary.json").read_text())
        problems = []
        if summary.get("hours") != self.hours:
            problems.append(f"summary hours {summary.get('hours')}, want {self.hours}")
        if not summary.get("holdout_ferms", math.inf) <= self.gate:
            problems.append(f"holdout ferms {summary.get('holdout_ferms')} above gate {self.gate}")
        if self.reference is not None:
            problems += summary_mismatches(summary, self.reference)
        report_rc, _ = _quiet_main(self.cli, ["report", str(self.out_dir)])
        if report_rc != 0:
            problems.append(f"report exited with {report_rc}")
        hashes = _file_hashes(self.out_dir)
        if self.hashes is None:
            self.hashes, self.summary = hashes, summary
        elif hashes != self.hashes:
            changed = sorted(k for k in hashes.keys() | self.hashes.keys() if hashes.get(k) != self.hashes.get(k))
            problems.append(f"outputs differ from the first call: {changed}")
        return problems

    def bytes_written(self) -> int:
        return sum(path.stat().st_size for path in self.out_dir.iterdir() if path.is_file())


def env_stamp() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def run(spec: dict) -> dict:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import drspot.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"drspot was imported from {cli.__file__}, not from this checkout")

    argv = spec["argv"]
    check = Checker(cli, spec)
    attempted = failed = 0
    problems: list[str] = []
    run_s: list[float] = []
    probe_s: list[float] = []
    traced: list[dict] = []
    traced_main_s: list[float] = []
    spans_out: list[list] = []

    def call(tracer=None, probe=None) -> tuple[float, float | None] | None:
        """Make one checked call. If it passed, return its wall time and, when
        bracketed by the probe, the mean of the probe times around it."""
        nonlocal attempted, failed
        attempted += 1
        probed = None
        gc.collect()
        try:
            before = probe() if probe is not None else None
            if tracer is None:
                rc, wall = _quiet_main(cli, argv)
            else:
                with tracer.install():
                    rc, wall = _quiet_main(cli, argv)
            if probe is not None:
                probed = (before + probe()) / 2
            found = check(rc)
        except Exception:  # a crash inside the program is a failed call, not a dead run
            found = ["call or check raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]]
        if tracer is not None:
            found += record_trace(tracer)
        if found:
            failed += 1
            problems.extend(found[: MAX_PROBLEMS - len(problems)])
            return None
        return wall, probed

    def record_trace(tracer) -> list[str]:
        spans = tracer.take()
        errors = nesting_errors(spans)
        if errors:
            return errors
        root_span = spans[0]
        own_total = sum(self_times(spans))
        if not math.isclose(own_total, root_span.duration, rel_tol=1e-9, abs_tol=1e-9):
            return [f"self times sum to {own_total}, cli.main took {root_span.duration}"]
        metrics = call_metrics(spans)
        metrics["cli.bytes_written"] = check.bytes_written()
        traced.append(metrics)
        traced_main_s.append(root_span.duration)
        spans_out.append([[s.name, s.parent, s.start, s.end, s.attrs] for s in spans])
        return []

    call()  # warm-up: fills caches and fixes the reference output bytes
    # Taken before the probe allocates anything; later calls repeat the same work.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe = Probe(qr=True)
    tracer = Tracer() if spec["trace"] else None
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        times = call(probe=probe)
        if times is not None:
            run_s.append(times[0])
            probe_s.append(times[1])
        if tracer is not None:
            call(tracer)
        if time.perf_counter() >= deadline:
            break

    if spans_out:
        Path(spec["spans_path"]).write_text(json.dumps(spans_out))
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "run_s": run_s,
        "run_corrected_s": corrected_times(run_s, probe_s, probe.reference_s),
        "probe_s": probe_s,
        "traced": traced,
        "traced_main_s": traced_main_s,
        "peak_rss_mb": peak_rss_mb,
        "summary": check.summary,
        "env": env_stamp(),
    }


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: worker.py SPEC.json")
    result = run(json.loads(Path(sys.argv[1]).read_text()))
    print(json.dumps(result))

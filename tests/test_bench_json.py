from __future__ import annotations

import importlib.util
import json

import pytest

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location("bench_json", REPO_ROOT / "scripts" / "bench_json.py")
bench_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_json)

ENV = {"python": "3.11.7", "numpy": "2.4.6", "src_sha256": "abc"}


def write_run(root, workload, seed, run_s, trace=0, quick=False, env=ENV):
    run_dir = root / f"{workload}-seed{seed}-trace{trace}{'-quick' if quick else ''}"
    run_dir.mkdir(parents=True)
    result = {
        "workload": workload, "seed": seed, "trace": bool(trace), "quick": quick, "env": env,
        "attempted": 10, "failed": 0, "samples": {"run_s": [run_s, 10], "peak_rss_mb": [40.0, 1]},
    }
    (run_dir / "result.json").write_text(json.dumps(result))


def test_condenses_runs_per_side_workload_and_mode(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, run_s in zip((3, 1, 2, 4), (0.4, 0.1, 0.2, 0.3)):
        write_run(parent, "long_window", seed, run_s)
    write_run(parent, "long_window", 9, 5.0, quick=True)  # a self-check run, skipped
    write_run(change, "bundled_week", 1, 0.05, env={**ENV, "src_sha256": "def"})
    out = tmp_path / "BENCH.json"
    assert bench_json.main(["--side", f"parent={parent}", "--side", f"change={change}", "--out", str(out)]) == 0

    doc = json.loads(out.read_text())["sides"]
    assert doc["parent"]["env"] == ENV
    group = doc["parent"]["workloads"]["long_window"]["trace0"]
    assert group["seeds"] == [1, 2, 3, 4]
    assert (group["attempted"], group["failed"]) == (40, 0)
    assert group["metrics"]["run_s"] == {
        "median": pytest.approx(0.25), "q1": pytest.approx(0.175), "q3": pytest.approx(0.325),
        "n": 4, "values": [0.1, 0.2, 0.4, 0.3],
    }
    single = doc["change"]["workloads"]["bundled_week"]["trace0"]["metrics"]["run_s"]
    assert (single["median"], single["q1"], single["q3"]) == (0.05, 0.05, 0.05)


def test_refuses_mixed_environments_and_empty_sides(tmp_path):
    write_run(tmp_path / "a", "long_window", 1, 0.1)
    write_run(tmp_path / "a", "long_window", 2, 0.1, env={**ENV, "src_sha256": "stale"})
    with pytest.raises(SystemExit, match="mixes runs of 2 environments"):
        bench_json.main(["--side", f"a={tmp_path / 'a'}", "--out", str(tmp_path / "out.json")])
    with pytest.raises(SystemExit, match="no benchmark results"):
        bench_json.main(["--side", f"b={tmp_path / 'b'}", "--out", str(tmp_path / "out.json")])

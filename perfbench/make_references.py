"""Write references.json: the simulate summary of each long workload at the
default seed, with the sha256 of its generated input.

The benchmark checks every default-seed call against these summaries (floats
at rel 1e-9, the selected features in order). Regenerate only when the
generator or the program's output is meant to change:

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from drspot.cli import main as drspot_main

    references = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name in workloads.FULL_SIZES:
            work_dir = Path(tmp) / name
            workload = workloads.build(name, workloads.DEFAULT_SEED, ROOT, work_dir)
            out_dir = work_dir / "out"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = drspot_main(workload.simulate_argv(out_dir))
            if rc != 0:
                raise SystemExit(f"{name}: simulate exited with {rc}")
            references[name] = {
                "csv_sha256": workload.csv_sha256,
                "summary": json.loads((out_dir / "summary.json").read_text()),
            }
    (Path(__file__).parent / "references.json").write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

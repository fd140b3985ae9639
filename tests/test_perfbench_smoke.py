"""The benchmark's smoke run, so a change to sensim cannot silently break it.

`perfbench/run.py --smoke` generates every workload at a small size, runs the
CLI on it and checks the output bytes against the pinned digests; it also
drives the in-process replay, which imports sensim's public names.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run_has_no_failures():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke", "--seed", "5"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    assert {row["workload"] for row in rows} == {"jacobi", "chain", "stream-mix"}
    assert all(row["failed"] == 0 for row in rows), proc.stdout

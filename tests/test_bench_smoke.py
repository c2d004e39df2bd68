"""Smoke test of the benchmark harness at tiny sizes."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_recover_large_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "recover-large",
         "--smoke", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0

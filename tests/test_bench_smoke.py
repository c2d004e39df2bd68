"""Smoke test of the benchmark harness at tiny sizes."""

import importlib.util
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


def test_traced_sparse_enum_smoke_run_is_correct():
    # every SVD call goes through the tracer's wrapper, which takes 2-D
    # input only, so a stacked SVD in the enumeration fails here
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sparse-enum",
         "--smoke", "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_traced_names_resolve_to_functions():
    # the traced run wraps each TARGETS name on its bgpc module, so a
    # renamed or deleted function would otherwise surface only there
    spec = importlib.util.spec_from_file_location("bench_spans",
                                                  ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name in spans.TARGETS:
        if name == "cxmat.svd":  # numpy.linalg.svd, wrapped in numpy itself
            continue
        mod, fn = name.split(".")
        assert callable(getattr(importlib.import_module(f"bgpc.{mod}"), fn, None)), name

"""Smoke test of the benchmark harness at tiny sizes."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bgpc.cli import main
from bgpc.serialize import load_json, matrix_from_dict

ROOT = Path(__file__).resolve().parents[1]


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recover_large_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "recover-large",
         "--smoke", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


@pytest.mark.parametrize("workload", ["phase-sweep", "construct-grid"])
def test_untraced_smoke_run_is_correct(workload):
    # phase-sweep runs its certificates through bgpc sweep, construct-grid
    # through verify_claim1_rank
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
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


def test_traced_recover_large_smoke_run_is_correct():
    # the tracer wraps the JSON readers and writers that the CLI ops call
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "recover-large",
         "--smoke", "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["serialize.dump_json.bytes"]["value"] > 0


def test_traced_names_resolve_to_functions():
    # the traced run wraps each TARGETS name on its bgpc module, so a
    # renamed or deleted function would otherwise surface only there
    spans = load_bench_module("spans")
    for name in spans.TARGETS:
        if name == "cxmat.svd":  # numpy.linalg.svd, wrapped in numpy itself
            continue
        mod, fn = name.split(".")
        assert callable(getattr(importlib.import_module(f"bgpc.{mod}"), fn, None)), name


def matrix_objects(d):
    if isinstance(d, dict):
        if set(d) == {"rows", "cols", "data"}:
            yield d
        else:
            for value in d.values():
                yield from matrix_objects(value)


def test_bench_matrix_parser_agrees_with_bgpc(tmp_path):
    # the benchmark checks bgpc's output with its own parser, read_matrix
    read_matrix = load_bench_module("workloads").read_matrix
    for tag, dims in (("dense", ["--n", "8", "--m", "4", "--N", "2"]),
                      ("sparse", ["--n", "16", "--m", "8", "--N", "2",
                                  "--s", "3"])):
        p = {k: str(tmp_path / f"{tag}_{k}.json")
             for k in ("inst", "Y", "A", "res", "sres")}
        assert main(["gen", *dims, "--seed", "3", "--out", p["inst"],
                     "--y-out", p["Y"], "--a-out", p["A"]]) == 0
        assert main(["recover", "--Y", p["Y"], "--A", p["A"],
                     "--out", p["res"]]) == 0
        if tag == "sparse":
            assert main(["recover-sparse", "--Y", p["Y"], "--A", p["A"],
                         "--s", "3", "--out", p["sres"]]) == 0
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == 9
    for path in files:
        for d in matrix_objects(load_json(path)):
            ours, theirs = matrix_from_dict(d), read_matrix(d)
            assert theirs.shape == ours.shape
            # read_matrix forms re + 1j*im, which turns -0.0 into +0.0 (the
            # recovered lambda has one); adding zero does the same to bgpc's
            # exact decoding and changes no other bit
            np.testing.assert_array_equal((theirs + 0).view(np.uint64),
                                          (ours + 0).view(np.uint64))

"""Smoke test of the benchmark: every workload at tiny size, in seconds.

Run from the repository root:

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
from spans import Tracer, _covered  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]

# a deliberately wrong expectation per workload, applied to one unit
WRONG = {
    "construct-grid": lambda e: (e[0] + 1,) + e[1:],
    "phase-sweep": lambda e: {k: (not v) if i == 0 else v
                              for i, (k, v) in enumerate(e.items())},
    "sparse-enum": lambda e: (e[0], e[1] + 1e-3, e[2]),
    "recover-large": lambda e: (e[0] + 1e-3, e[1]),
}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", trace, "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_wrong_expectation_counts_in_fail_ratio(workload, tmp_path):
    run.import_bgpc()
    from workloads import WORKLOADS
    wl = WORKLOADS[workload](3, str(tmp_path), smoke=True)
    wl.setup()
    honest = wl.expected
    seen = []

    def expected(key):
        seen.append(key)
        exp = honest(key)
        return WRONG[workload](exp) if len(seen) == 1 else exp

    wl.expected = expected
    key = wl.warm_key()
    phase = run.measure(wl, [key, key])
    assert 1 <= phase.failed < phase.attempted


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_tracer_keeps_every_span_across_threads():
    tracer = Tracer()
    per_thread, n_threads = 2000, 8

    def worker():
        for _ in range(per_thread):
            tracer.call("w", int, (), {}, lambda *a: {"n": 1})

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    total = per_thread * n_threads
    assert len(tracer.spans) == total
    assert len({span[0] for span in tracer.spans}) == total
    assert tracer.counters["n"] == total


def test_self_time_subtracts_the_union_of_children():
    # children overlap (two sweep workers) and one sticks out of the parent
    assert _covered(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0), (8.0, 12.0)]) == 6.0


def test_tail_keeps_ten_samples_beyond_or_falls_back_to_the_maximum():
    assert run.tail([float(x) for x in range(20)]) == (9.0, 50.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_each_unit_is_scaled_by_the_probes_right_after_it():
    w, nominal = calibrate.WINDOW, calibrate.NOMINAL_S
    cal = calibrate.Calibration()
    cal.times = [nominal] * w + [2 * nominal] * w
    cal.marks = [0, w, 2 * w]  # the last unit has no probe after it
    assert cal.scales() == [1.0, 0.5, 0.5]

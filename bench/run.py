"""bgpc benchmark: one workload per process, end-to-end or traced.

Run from the repository root:

    python3 bench/run.py --workload construct-grid --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` next to this directory; the run
fails, printing no result, when it is not there. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones of ``BENCHMARK.json``, with times scaled to a reference
host speed on the workloads that ask for it (see ``calibrate.py``); with
``--trace 1`` they are the per-layer ones, from a fixed set of units run
once untraced and once traced. The line before it carries the run's
details (machine record, op name, tail percentile and sample counts, fail
ratio, unscaled wall-clock figures), which are also written to
``bench/out/``. ``--smoke`` runs the same code at tiny sizes.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 4  # extra fresh-process set-ups; setup_s is the median of 1 + this
TAIL_BEYOND = 10

E2E_METRICS = [
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def import_bgpc():
    """Import bgpc from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "bgpc" / "__init__.py").is_file():
        sys.exit(f"bgpc sources not found under {src}")
    sys.path.insert(0, str(src))
    import bgpc
    if Path(bgpc.__file__).resolve().parent != src / "bgpc":
        sys.exit(f"bgpc imported from {bgpc.__file__}, not from {src}")


def machine_record(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit,
        "seed": seed,
    }


class Phase:
    """Latency samples and gate counts of a run of units."""

    def __init__(self):
        self.latencies: list[float] = []
        self.strata: list = []
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.wall_s

    def p50(self) -> float:
        """The median latency, taken within each stratum and averaged.

        A median across equally weighted strata of very different cost
        (the two sizes of recover-large) falls in the gap between them and
        follows the slowest cheap unit and the fastest costly one.
        """
        groups = defaultdict(list)
        for stratum, dt in zip(self.strata, self.latencies):
            groups[stratum].append(dt)
        return statistics.fmean(statistics.median(g) for g in groups.values())

    def scaled(self, factors: list[float]) -> "Phase":
        """This phase with each latency times its factor, and the timed
        phase times the latency-weighted mean factor."""
        out = Phase()
        out.strata = self.strata
        out.latencies = [dt * k for dt, k in zip(self.latencies, factors)]
        out.attempted, out.failed = self.attempted, self.failed
        out.wall_s = self.wall_s * sum(out.latencies) / sum(self.latencies)
        return out


def run_unit(wl, key, phase, call=None):
    exp = wl.expected(key)
    t0 = time.perf_counter()
    got = wl.run(key) if call is None else call(wl.run, key)
    phase.latencies.append(time.perf_counter() - t0)
    phase.strata.append(wl.stratum(key))
    attempted, failed = wl.check(key, got, exp)
    phase.attempted += attempted
    phase.failed += failed


def measure(wl, keys, seconds=None, call=None, cal=None) -> Phase:
    """Run units until ``seconds`` pass (at a group boundary) or keys run out.

    With a ``Calibration``, its probe runs between units; ``wall_s`` leaves
    the probe's time out.
    """
    phase = Phase()
    t0 = time.perf_counter()
    deadline = None if seconds is None else t0 + seconds
    unit_s = 0.0
    for i, key in enumerate(keys, 1):
        run_unit(wl, key, phase, call)
        if cal is not None:
            unit_s += phase.latencies[-1]
            cal.after_unit(unit_s)
        if deadline is not None and i % wl.group == 0 and time.perf_counter() >= deadline:
            break
    phase.wall_s = time.perf_counter() - t0 - (cal.spent_s if cal else 0.0)
    return phase


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples beyond) at the highest percentile
    with at least TAIL_BEYOND samples beyond it; the maximum if none has."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= TAIL_BEYOND:
        return lat[-1], 100.0, 0
    return lat[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def set_up(args, workdir, tracer=None):
    """Build the workload, generate its inputs and run one warm-up unit.

    With a tracer, input generation is traced (op id "setup"); the warm-up
    unit never is.
    """
    import_bgpc()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed, str(workdir), args.smoke)
    if tracer is None:
        wl.setup()
    else:
        tracer.op = "setup"
        tracer.install()
        try:
            wl.setup()
        finally:
            tracer.uninstall()
    warm = Phase()
    run_unit(wl, wl.warm_key(), warm)
    return wl, warm


def probe_setups(args) -> list[float]:
    """Set-up time of fresh processes, each up to its first timed unit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def end_to_end(args, wl, setup_s) -> tuple[dict, dict, list[Phase]]:
    cal = None
    if wl.host_scaled:
        from calibrate import Calibration
        cal = Calibration()
    phase = measure(wl, wl.timed_keys(), seconds=args.seconds, cal=cal)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup_s] + probe_setups(args)
    scales = None if cal is None else cal.scales()
    shown = phase if cal is None else phase.scaled(scales)
    tail_s, tail_pct, beyond = tail(shown.latencies)
    metrics = {
        "ops_per_s": shown.ops_per_s,
        "op_p50_ms": shown.p50() * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }
    details = {
        "host_scaled": cal is not None,
        "latency_samples": len(phase.latencies),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "setup_samples_s": setups,
        "timed_wall_s": phase.wall_s,
    }
    if cal is not None:
        details.update({
            "probes": len(cal.times),
            "median_time_scale": statistics.median(scales),
            "wall_ops_per_s": phase.ops_per_s,
            "wall_op_p50_ms": phase.p50() * 1e3,
            "wall_op_tail_ms": tail(phase.latencies)[0] * 1e3,
        })
    return {k: {"value": metrics[k], "unit": u} for k, u in E2E_METRICS}, details, [phase]


def traced(args, wl, tracer) -> tuple[dict, dict, list[Phase]]:
    from spans import LAYER_METRICS
    keys = wl.traced_keys()
    plain = measure(wl, keys)
    tracer.install()
    try:
        phase = measure(wl, keys, call=tracer.run_op)
    finally:
        tracer.uninstall()
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    values = tracer.layer_metrics(phase.attempted)
    values["trace.overhead_ratio"] = phase.ops_per_s / plain.ops_per_s
    details = {"traced_units": len(keys), "traced_ops": phase.attempted,
               "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
               "untraced_ops_per_s": plain.ops_per_s, "traced_ops_per_s": phase.ops_per_s}
    return ({k: {"value": values.get(k, 0.0), "unit": u} for k, u in LAYER_METRICS},
            details, [plain, phase])


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["construct-grid", "phase-sweep", "sparse-enum", "recover-large"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
        wl, warm = set_up(args, workdir, tracer)
        setup_s = time.perf_counter() - T_START
        if wl.host_scaled and not args.trace:
            from calibrate import scale_now
            setup_s *= scale_now()
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics, details, phases = traced(args, wl, tracer)
        else:
            metrics, details, phases = end_to_end(args, wl, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.attempted for p in [warm, *phases])
    failed = sum(p.failed for p in [warm, *phases])
    details = {"workload": args.workload, "op": wl.op_name, "smoke": args.smoke,
               "trace": args.trace, "fail_ratio": failed / attempted, **details,
               "machine": machine_record(args.seed)}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"{name}.json").write_text(json.dumps({**details, "result": result}, indent=1))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

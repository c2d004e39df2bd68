"""The four benchmark workloads.

Each workload turns the command-line seed into inputs, hands only those
inputs to bgpc through its public functions or its CLI, and checks every
result against an expectation the benchmark derives on its own (theory,
or the generated truth), never against bgpc's own helpers.

A workload yields *units*: one unit is one latency sample and holds one or
more *ops* (the thing ``ops_per_s`` counts). Only ``phase-sweep`` has more
than one op per unit, because its trials run inside one ``bgpc sweep``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from itertools import cycle

import numpy as np

# bgpc functions are looked up on the package at each call, so that the
# traced run's wrappers see the benchmark's own calls too.
import bgpc
from bgpc import cli

IDENTIFIABLE = "IdentifiableUpToScaling"
UNIQUE = "Unique"
ALIGN_TOL = 1e-8


def derive_seed(seed: int, *path: int) -> int:
    """A 32-bit seed for one input, fixed by the run seed and a path."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def align_error(estimate: np.ndarray, truth: np.ndarray) -> float:
    """min over complex sigma of ||estimate - sigma*truth|| / ||truth||."""
    t = truth.reshape(-1)
    e = estimate.reshape(-1)
    sigma = np.vdot(t, e) / np.vdot(t, t)
    return float(np.linalg.norm(e - sigma * t) / np.linalg.norm(t))


def read_matrix(d: dict) -> np.ndarray:
    """Parse the on-disk matrix format without going through bgpc."""
    pairs = np.asarray(d["data"], dtype=np.float64).reshape(-1, 2)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(d["rows"], d["cols"])


def quiet_cli(argv: list[str]) -> int:
    """``bgpc <argv>`` in-process, with its progress line discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Workload:
    """Interface the runner drives; see the module docstring for units."""

    name = ""
    op_name = ""
    # the timed phase may stop only after a multiple of this many units
    group = 1
    # report times scaled to a reference host speed (see calibrate.py)
    host_scaled = False

    def __init__(self, seed: int, workdir: str, smoke: bool):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke

    def setup(self) -> None:
        """Generate inputs and write input files."""

    def warm_key(self):
        raise NotImplementedError

    def timed_keys(self):
        """Endless iterator of unit keys for the timed phase."""
        raise NotImplementedError

    def traced_keys(self) -> list:
        """Fixed unit keys for the traced run, so counts repeat exactly."""
        raise NotImplementedError

    def stratum(self, key):
        """Latency class of a unit; op_p50_ms averages per-class medians."""
        return None

    def expected(self, key):
        raise NotImplementedError

    def run(self, key):
        """The timed call into bgpc; returns its raw outcome."""
        raise NotImplementedError

    def check(self, key, got, exp) -> tuple[int, int]:
        """(ops attempted, ops failed) for one unit."""
        raise NotImplementedError


class ConstructGrid(Workload):
    """construct_claim1 + verify_claim1_rank over the criterion-1 grid.

    Exact DFT instances only, two SVDs and two matrix builds per op, no
    random generation, enumeration or file I/O. Op cost grows steeply
    with n, so a timed phase that walked the grid in natural order would
    see a cost mix that depends on how far it got. The timed phase
    instead walks it with a golden-ratio stride from a seeded start: every
    window of consecutive ops is a near-uniform sample of the grid. The
    traced run walks the whole grid once, in natural order.
    """

    name = "construct-grid"
    op_name = "construct+verify"

    def setup(self):
        top = 8 if self.smoke else 24
        self.grid = [(n, m, N) for n in range(4, top + 1) for m in range(2, n)
                     for N in range(2, m + 1) if (n - m) * N >= n - 1]
        size = len(self.grid)
        stride = round(size * (math.sqrt(5) - 1) / 2)
        while math.gcd(stride, size) != 1:
            stride += 1
        start = derive_seed(self.seed, 0) % size
        self.order = [self.grid[(start + i * stride) % size] for i in range(size)]

    def warm_key(self):
        return self.grid[-1]

    def timed_keys(self):
        return cycle(self.order)

    def traced_keys(self):
        return list(self.grid)

    def expected(self, key):
        n, m, N = key
        return (m * N, m * N - 1, n * N - m * N - n + 1)

    def run(self, key):
        return bgpc.verify_claim1_rank(bgpc.construct_claim1(*key))

    def check(self, key, got, exp):
        ok = got.passed and (got.stacked_rank, got.D_rank, got.left_null_dim) == exp
        return 1, int(not ok)


class PhaseSweep(Workload):
    """The criterion-2 subspace grid through ``bgpc --threads <nproc> sweep``.

    Thousands of tiny instances, where generation, the Python build loops
    and per-call overhead outweigh the factorization; the only workload
    through the experiment thread pool and the CSV writer. One unit is one
    sweep call (one trial per cell); one op is one trial. Calls cycle over
    a few seeded configs, so every repeat of a config must reproduce the
    first call's CSV byte for byte.
    """

    name = "phase-sweep"
    op_name = "trial"
    n_configs = 16

    def setup(self):
        if self.smoke:
            self.n, dims, Ns = 8, range(2, 7), range(2, 5)
        else:
            self.n, dims, Ns = 16, range(2, 13), range(2, 9)
        self.workers = len(os.sched_getaffinity(0))
        # a cell's trials succeed exactly when N >= ceil((n-1)/(n-m))
        self.thresholds = {(m, N): N >= -((self.n - 1) // -(self.n - m))
                           for m in dims for N in Ns}
        self.configs = []
        for k in range(self.n_configs):
            cfg = {"mode": "Subspace", "n": self.n, "dim_range": list(dims),
                   "N_range": list(Ns), "trials": 1,
                   "base_seed": derive_seed(self.seed, 1, k),
                   "check_recovery": True, "record_timing": False}
            path = os.path.join(self.workdir, f"sweep{k}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            self.configs.append(path)
        self.csv = os.path.join(self.workdir, "sweep.csv")
        self.first_csv: dict[int, bytes] = {}

    def warm_key(self):
        return 0

    def timed_keys(self):
        return cycle(range(self.n_configs))

    def traced_keys(self):
        return list(range(4 if self.smoke else 12))

    def expected(self, key):
        return self.thresholds

    def run(self, key):
        return quiet_cli(["--threads", str(self.workers), "sweep",
                          "--config", self.configs[key], "--csv", self.csv])

    def check(self, key, got, exp):
        with open(self.csv, "rb") as fh:
            raw = fh.read()
        rows = raw.decode().splitlines()[1:]
        attempted = len(exp)  # one trial per cell
        if got != 0 or len(rows) != len(exp):
            return attempted, attempted
        if self.first_csv.setdefault(key, raw) != raw:
            return attempted, attempted
        failed = 0
        for row in rows:
            f = row.split(",")
            met = exp.get((int(f[2]), int(f[3])))
            trials, successes = int(f[5]), int(f[6])
            if met is None or f[4] != ("true" if met else "false"):
                failed += trials
            else:
                failed += trials - successes if met else successes
        return attempted, failed


class SparseEnum(Workload):
    """certify_joint_sparse + recover_joint_sparse on seeded instances.

    n=20, m=12, s=3, N=3: 220 support cells per call, above threshold, so
    every cell is visited and the per-cell enumeration loop in certify and
    recover does almost all the work.
    """

    name = "sparse-enum"
    op_name = "certify+recover-sparse"
    pool = 8
    host_scaled = True

    def setup(self):
        n, m, s, N = (10, 6, 2, 3) if self.smoke else (20, 12, 3, 3)
        self.s = s
        self.instances = []
        for k in range(self.pool):
            inst = bgpc.random_instance(n, m, N, derive_seed(self.seed, 2, k),
                                   sparsity=s)
            Y = inst.lambda0[:, None] * (inst.A @ inst.X0)
            self.instances.append((inst, Y))

    def warm_key(self):
        return 0

    def timed_keys(self):
        return cycle(range(self.pool))

    def traced_keys(self):
        return list(range(self.pool)) * (1 if self.smoke else 2)

    def expected(self, key):
        inst, _ = self.instances[key]
        return inst.support, inst.X0, inst.lambda0

    def run(self, key):
        inst, Y = self.instances[key]
        rep = bgpc.certify_joint_sparse(inst.A, inst.X0, inst.lambda0, self.s)
        return rep, bgpc.recover_joint_sparse(Y, inst.A, self.s)

    def check(self, key, got, exp):
        rep, res = got
        support, X0, lam0 = exp
        ok = (rep.verdict == IDENTIFIABLE and res.status == UNIQUE
              and tuple(res.support) == tuple(support)
              and align_error(res.X, X0) <= ALIGN_TOL
              and align_error(res.lam, lam0) <= ALIGN_TOL)
        return 1, int(not ok)


class RecoverLarge(Workload):
    """``bgpc certify --out`` then ``bgpc recover --out`` on large instances.

    Inputs are written by ``bgpc gen`` at (64, 48, 8) and (128, 96, 8) and
    ops alternate between the two sizes. Large factorizations dominate,
    and ``serialize`` reads and writes matrices of about 1 MB. The timed
    phase stops only after whole pairs, so both sizes carry equal weight,
    and each size is its own latency stratum.
    """

    name = "recover-large"
    op_name = "certify+recover-cli"
    group = 2

    def setup(self):
        sizes = [(8, 4, 2), (12, 8, 4)] if self.smoke else [(64, 48, 8), (128, 96, 8)]
        self.files = []
        self.truth = []
        for k, (n, m, N) in enumerate(sizes):
            paths = {p: os.path.join(self.workdir, f"{p}{n}.json")
                     for p in ("inst", "Y", "A", "report", "result")}
            rc = quiet_cli(["gen", "--n", str(n), "--m", str(m), "--N", str(N),
                            "--seed", str(derive_seed(self.seed, 3, k)),
                            "--out", paths["inst"], "--y-out", paths["Y"],
                            "--a-out", paths["A"]])
            if rc != 0:
                raise RuntimeError(f"bgpc gen exited {rc}")
            with open(paths["inst"]) as fh:
                d = json.load(fh)
            self.truth.append((read_matrix(d["X0"]), read_matrix(d["lambda0"])))
            self.files.append(paths)

    def warm_key(self):
        return 0

    def timed_keys(self):
        return cycle(range(len(self.files)))

    def traced_keys(self):
        return [0, 1] * (1 if self.smoke else 4)

    def stratum(self, key):
        return key

    def expected(self, key):
        return self.truth[key]

    def run(self, key):
        p = self.files[key]
        rc1 = quiet_cli(["certify", "--instance", p["inst"], "--out", p["report"]])
        rc2 = quiet_cli(["recover", "--Y", p["Y"], "--A", p["A"],
                         "--out", p["result"]])
        return rc1, rc2

    def check(self, key, got, exp):
        if got != (0, 0):
            return 1, 1
        with open(self.files[key]["result"]) as fh:
            res = json.load(fh)
        X0, lam0 = exp
        ok = (res["status"] == UNIQUE
              and align_error(read_matrix(res["X"]), X0) <= ALIGN_TOL
              and align_error(read_matrix(res["lambda"]), lam0) <= ALIGN_TOL)
        return 1, int(not ok)


WORKLOADS = {w.name: w for w in (ConstructGrid, PhaseSweep, SparseEnum, RecoverLarge)}

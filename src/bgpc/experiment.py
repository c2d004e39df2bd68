"""Monte-Carlo phase-transition sweeps over (n, m or s, N) grids.

Each grid cell draws seeded random instances and counts how often the
identifiability certificate succeeds; the empirical success rate jumps
from 0 to 1 exactly at the sample-complexity threshold. Per-trial seeds
derive from (base seed, mode, n, dim, N, trial), so any cell reproduces
independently of the order the grid runs in.
"""

from __future__ import annotations

import time
from dataclasses import MISSING, asdict, dataclass

import numpy as np

from .certify import (IDENTIFIABLE, JOINT_SPARSE, SUBSPACE,
                      certify_joint_sparse, certify_subspace)
from .cxmat import check_tolerance
from .errors import BudgetExceededError, DimensionError
from .model import (DEFAULT_CELL_BUDGET, check_cell_budget, forward,
                    min_samples_joint_sparse, min_samples_subspace,
                    random_instance)
from .recover import UNIQUE, recover
from .serialize import dump_json, is_int

CSV_HEADER = "mode,n,dim,N,threshold_met,trials,successes,rate,mean_runtime_ms,skipped_reason"


@dataclass(frozen=True)
class PhaseCell:
    mode: str
    n: int
    dim: int  # m in Subspace mode, s in JointSparse mode
    N: int
    threshold_met: bool
    trials: int
    successes: int
    rate: float
    mean_runtime_ms: float
    skipped_reason: str = ""


@dataclass
class SweepConfig:
    mode: str                      # Subspace | JointSparse
    n: int
    dim_range: list[int]           # m values, or s values in JointSparse mode
    N_range: list[int]
    trials: int
    base_seed: int = 0
    tolerance: float | None = None
    m: int | None = None           # dictionary size, JointSparse mode only
    check_recovery: bool = False
    record_timing: bool = True
    max_cells: int = DEFAULT_CELL_BUDGET

    def __post_init__(self):
        if self.mode not in (SUBSPACE, JOINT_SPARSE):
            raise DimensionError(f"unknown sweep mode {self.mode!r}")
        for name in ("n", "trials", "base_seed", "max_cells", "m"):
            value = getattr(self, name)
            if not (is_int(value) or name == "m" and value is None):
                raise DimensionError(f"{name} must be an integer, got {value!r}")
        for name in ("dim_range", "N_range"):
            value = getattr(self, name)
            if not (isinstance(value, list) and value and all(map(is_int, value))):
                raise DimensionError(
                    f"{name} must be a nonempty list of integers, got {value!r}")
        for name in ("check_recovery", "record_timing"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise DimensionError(f"{name} must be true or false, got {value!r}")
        if self.trials < 1:
            raise DimensionError("trials must be >= 1")
        if self.base_seed < 0:
            raise DimensionError(f"base_seed must be >= 0, got {self.base_seed}")
        if self.mode == JOINT_SPARSE and self.m is None:
            raise DimensionError("JointSparse sweeps need the dictionary size m")
        if self.mode == JOINT_SPARSE and self.check_recovery:
            raise DimensionError("check_recovery applies to Subspace sweeps only")
        check_tolerance(self.tolerance)


def trial_seed(base_seed: int, mode: str, n: int, dim: int, N: int, t: int) -> int:
    """Deterministic per-trial seed, stable across runs and schedulers."""
    mode_code = 0 if mode == SUBSPACE else 1
    ss = np.random.SeedSequence([base_seed, mode_code, n, dim, N, t])
    return int(ss.generate_state(1)[0])


def _cell_skip_reason(cfg: SweepConfig, dim: int, N: int) -> str:
    if N < 2:
        return "N < 2"
    if cfg.mode == SUBSPACE:
        if not (cfg.n > dim >= 1):
            return "requires n > m >= 1"
    else:
        if dim < 1:
            return "requires s >= 1"
        if not (cfg.n > 2 * dim):
            return "requires n > 2s"
        if dim > cfg.m:
            return "requires s <= m"
        try:
            check_cell_budget(cfg.m, dim, cfg.max_cells)
        except BudgetExceededError:
            return "enumeration budget exceeded"
    return ""


def _run_cell(cfg: SweepConfig, dim: int, N: int) -> PhaseCell:
    reason = _cell_skip_reason(cfg, dim, N)
    if reason:
        return PhaseCell(mode=cfg.mode, n=cfg.n, dim=dim, N=N,
                         threshold_met=False, trials=0, successes=0,
                         rate=0.0, mean_runtime_ms=0.0, skipped_reason=reason)
    if cfg.mode == SUBSPACE:
        threshold = min_samples_subspace(cfg.n, dim)
    else:
        threshold = min_samples_joint_sparse(cfg.n, dim)
    successes = 0
    elapsed = 0.0
    for t in range(cfg.trials):
        seed = trial_seed(cfg.base_seed, cfg.mode, cfg.n, dim, N, t)
        t0 = time.perf_counter()
        if cfg.mode == SUBSPACE:
            inst = random_instance(cfg.n, dim, N, seed)
            report = certify_subspace(inst.A, inst.X0, inst.lambda0,
                                      tol=cfg.tolerance)
        else:
            inst = random_instance(cfg.n, cfg.m, N, seed, sparsity=dim)
            report = certify_joint_sparse(inst.A, inst.X0, inst.lambda0, dim,
                                          tol=cfg.tolerance,
                                          max_cells=cfg.max_cells)
        ok = report.verdict == IDENTIFIABLE
        if ok and cfg.check_recovery:
            res = recover(forward(inst), inst.A, tol=cfg.tolerance)
            ok = res.status == UNIQUE
        elapsed += time.perf_counter() - t0
        if ok:
            successes += 1
    mean_ms = (elapsed / cfg.trials) * 1e3 if cfg.record_timing else 0.0
    return PhaseCell(mode=cfg.mode, n=cfg.n, dim=dim, N=N,
                     threshold_met=N >= threshold, trials=cfg.trials,
                     successes=successes, rate=successes / cfg.trials,
                     mean_runtime_ms=mean_ms)


def run_sweep(cfg: SweepConfig) -> list[PhaseCell]:
    """Run the grid serially, in grid order."""
    return [_run_cell(cfg, dim, N) for dim in cfg.dim_range for N in cfg.N_range]


def cells_to_csv(cells: list[PhaseCell]) -> str:
    lines = [CSV_HEADER]
    for c in cells:
        lines.append(f"{c.mode},{c.n},{c.dim},{c.N},{str(c.threshold_met).lower()},"
                     f"{c.trials},{c.successes},{c.rate:.17g},"
                     f"{c.mean_runtime_ms:.3f},{c.skipped_reason}")
    return "\n".join(lines) + "\n"


def write_csv(cells: list[PhaseCell], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(cells_to_csv(cells))


def write_json(cells: list[PhaseCell], path) -> None:
    dump_json([asdict(c) for c in cells], path)


def config_from_dict(d: dict) -> SweepConfig:
    if not isinstance(d, dict):
        raise DimensionError("sweep config must be a JSON object")
    fields = SweepConfig.__dataclass_fields__
    extra = set(d) - set(fields)
    if extra:
        raise DimensionError(f"unknown sweep config fields: {sorted(extra)}")
    missing = [f for f, spec in fields.items()
               if spec.default is MISSING and f not in d]
    if missing:
        raise DimensionError(f"missing sweep config fields: {missing}")
    return SweepConfig(**d)

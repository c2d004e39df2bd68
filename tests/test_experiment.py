import numpy as np
import pytest

from bgpc import SweepConfig, run_sweep
from bgpc.certify import JOINT_SPARSE, SUBSPACE
from bgpc.errors import DimensionError
from bgpc.experiment import (CSV_HEADER, cells_to_csv, trial_seed, write_csv,
                             write_json)


def small_config(**overrides):
    base = dict(mode=SUBSPACE, n=10, dim_range=[3, 4, 8], N_range=[2, 3],
                trials=5, base_seed=7, record_timing=False)
    base.update(overrides)
    return SweepConfig(**base)


class TestTrialSeed:
    def test_deterministic(self):
        assert trial_seed(1, SUBSPACE, 16, 4, 2, 0) == \
            trial_seed(1, SUBSPACE, 16, 4, 2, 0)

    def test_distinct_cells(self):
        seeds = {trial_seed(1, SUBSPACE, 16, d, N, t)
                 for d in (2, 3) for N in (2, 3) for t in range(5)}
        assert len(seeds) == 20

    def test_mode_separates(self):
        assert trial_seed(1, SUBSPACE, 16, 4, 2, 0) != \
            trial_seed(1, JOINT_SPARSE, 16, 4, 2, 0)


class TestRunSweep:
    def test_grid_order_and_determinism(self):
        cells1 = run_sweep(small_config())
        cells2 = run_sweep(small_config())
        assert [(c.dim, c.N) for c in cells1] == \
            [(3, 2), (3, 3), (4, 2), (4, 3), (8, 2), (8, 3)]
        assert cells1 == cells2

    def test_parallel_matches_serial(self):
        serial = run_sweep(small_config())
        parallel = run_sweep(small_config(), max_workers=4)
        assert serial == parallel

    def test_rates_at_threshold(self):
        # n = 10: threshold is 2 for m in {3, 4}; m = 8 needs N >= 5
        for c in run_sweep(small_config()):
            if c.dim in (3, 4):
                assert c.threshold_met and c.rate == 1.0
            else:
                assert not c.threshold_met and c.rate == 0.0

    def test_hard_zero_below_counting_bound(self):
        for c in run_sweep(small_config()):
            if c.trials and 1 + c.n * (c.N - 1) < c.dim * c.N:
                assert c.rate == 0.0

    def test_monotone_in_N(self):
        cfg = small_config(dim_range=[6], N_range=[2, 3, 4, 5])
        rates = [c.rate for c in run_sweep(cfg)]
        assert rates == sorted(rates)

    def test_skipped_cells(self):
        cfg = small_config(dim_range=[4, 10, 12])
        cells = run_sweep(cfg)
        skipped = [c for c in cells if c.skipped_reason]
        assert len(skipped) == 4  # m in {10, 12} is not below n
        for c in skipped:
            assert c.trials == 0 and c.rate == 0.0

    def test_joint_sparse_mode(self):
        cfg = SweepConfig(mode=JOINT_SPARSE, n=16, m=6, dim_range=[2],
                          N_range=[2], trials=4, base_seed=1,
                          record_timing=False)
        (cell,) = run_sweep(cfg)
        assert cell.threshold_met and cell.rate == 1.0

    def test_joint_sparse_budget_skips_cell(self):
        # C(6, 2) = 15 support cells exceed a budget of 10
        cfg = SweepConfig(mode=JOINT_SPARSE, n=16, m=6, dim_range=[1, 2],
                          N_range=[2], trials=2, max_cells=10)
        ran, skipped = run_sweep(cfg)
        assert not ran.skipped_reason and ran.trials == 2
        assert skipped.skipped_reason == "enumeration budget exceeded"
        assert skipped.trials == 0

    def test_joint_sparse_sparsity_zero_skips_cell(self):
        cfg = SweepConfig(mode=JOINT_SPARSE, n=16, m=6, dim_range=[0, 2],
                          N_range=[2], trials=2, record_timing=False)
        skipped, ran = run_sweep(cfg)
        assert skipped.skipped_reason == "requires s >= 1"
        assert skipped.trials == 0
        assert not ran.skipped_reason and ran.rate == 1.0

    def test_joint_sparse_needs_m(self):
        with pytest.raises(DimensionError):
            SweepConfig(mode=JOINT_SPARSE, n=16, dim_range=[2], N_range=[2],
                        trials=1)

    def test_check_recovery_agrees(self):
        plain = run_sweep(small_config())
        cross = run_sweep(small_config(check_recovery=True))
        assert [c.successes for c in plain] == [c.successes for c in cross]


class TestOutput:
    def test_csv_header_and_shape(self):
        cells = run_sweep(small_config())
        text = cells_to_csv(cells)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(cells)
        assert all(line.count(",") == 9 for line in lines)

    def test_csv_byte_reproducible(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_sweep(small_config()), p1)
        write_csv(run_sweep(small_config()), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_mirror(self, tmp_path):
        import json
        cells = run_sweep(small_config())
        path = tmp_path / "out.json"
        write_json(cells, path)
        loaded = json.loads(path.read_text())
        assert len(loaded) == len(cells)
        assert loaded[0]["mode"] == SUBSPACE
        assert set(loaded[0]) == {"mode", "n", "dim", "N", "threshold_met",
                                  "trials", "successes", "rate",
                                  "mean_runtime_ms", "skipped_reason"}

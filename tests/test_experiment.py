import json

import numpy as np
import pytest

from bgpc import SweepConfig, run_sweep
from bgpc.certify import JOINT_SPARSE, SUBSPACE
from bgpc.errors import DimensionError
from bgpc.experiment import (CSV_HEADER, PhaseCell, cells_to_csv,
                             config_from_dict, trial_seed, write_csv,
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

    @pytest.mark.parametrize("mode, m, dim, N, reason", [
        (SUBSPACE, None, 4, 1, "N < 2"),
        (SUBSPACE, None, 16, 2, "requires n > m >= 1"),
        (JOINT_SPARSE, 6, 8, 2, "requires n > 2s"),
        (JOINT_SPARSE, 6, 7, 2, "requires s <= m"),
    ])
    def test_skip_reasons(self, mode, m, dim, N, reason):
        cfg = SweepConfig(mode=mode, n=16, m=m, dim_range=[dim], N_range=[N],
                          trials=2, record_timing=False)
        (cell,) = run_sweep(cfg)
        assert (cell.skipped_reason, cell.trials, cell.rate) == (reason, 0, 0.0)

    @pytest.mark.parametrize("m, N_range, threshold_met, rate", [
        # m < 2s: a union J0 | J1 has at most m = 12 columns, not 2s = 14,
        # so the certificate passes once (16 - 12) min(N, 7) >= 15, at N = 4
        (12, [4, 5, 6, 7], False, 1.0),
        # ceil(15 / (16 - 14)) = 8 > s: rank(A X0) <= s = 7, and
        # (16 - 14) min(8, 7) = 14 < 15, so every trial fails
        (14, [8], True, 0.0),
    ])
    def test_joint_sparse_threshold_corners(self, m, N_range, threshold_met, rate):
        # threshold_met is N >= ceil((n - 1) / (n - 2s)), the paper's count;
        # in these two corners it disagrees with the certificate's rate
        cfg = SweepConfig(mode=JOINT_SPARSE, n=16, m=m, dim_range=[7],
                          N_range=N_range, trials=3, base_seed=1,
                          record_timing=False)
        for cell in run_sweep(cfg):
            assert (cell.threshold_met, cell.rate) == (threshold_met, rate)

    def test_joint_sparse_needs_m(self):
        with pytest.raises(DimensionError):
            SweepConfig(mode=JOINT_SPARSE, n=16, dim_range=[2], N_range=[2],
                        trials=1)

    def test_check_recovery_agrees(self):
        plain = run_sweep(small_config())
        cross = run_sweep(small_config(check_recovery=True))
        assert [c.successes for c in plain] == [c.successes for c in cross]


class TestConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("n", 10.5), ("n", "10"), ("n", True), ("trials", "5"),
        ("trials", 2.0), ("base_seed", None), ("base_seed", False),
        ("max_cells", 1e6), ("dim_range", 3), ("dim_range", [3, "4"]),
        ("dim_range", (3, 4)), ("dim_range", []), ("N_range", [2.0]),
        ("N_range", [True]), ("N_range", None),
    ])
    def test_bad_integer_fields(self, field, value):
        with pytest.raises(DimensionError, match=field):
            small_config(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("check_recovery", "no"), ("check_recovery", 1),
        ("record_timing", "no"), ("record_timing", 0), ("record_timing", None),
    ])
    def test_flags_must_be_booleans(self, field, value):
        with pytest.raises(DimensionError, match=f"{field} must be true or false"):
            small_config(**{field: value})

    def test_negative_base_seed_rejected_before_any_trial(self):
        with pytest.raises(DimensionError, match="base_seed must be >= 0"):
            small_config(base_seed=-1)

    @pytest.mark.parametrize("m", ["8", 8.0, False])
    def test_bad_dictionary_size(self, m):
        with pytest.raises(DimensionError, match="m must be an integer"):
            SweepConfig(mode=JOINT_SPARSE, n=16, m=m, dim_range=[2],
                        N_range=[2], trials=1)

    def test_check_recovery_rejected_in_joint_sparse(self):
        with pytest.raises(DimensionError, match="check_recovery applies to Subspace"):
            SweepConfig(mode=JOINT_SPARSE, n=16, m=8, dim_range=[2],
                        N_range=[2], trials=1, check_recovery=True)

    @pytest.mark.parametrize("tol", [-1e-9, float("nan"), "1e-3", True])
    def test_bad_tolerance_before_any_trial(self, tol):
        with pytest.raises(ValueError, match="nonnegative real"):
            small_config(tolerance=tol)

    def test_numpy_integers_accepted(self):
        cfg = small_config(n=np.int64(10), dim_range=[np.int64(3)],
                           N_range=[np.int32(2)], trials=np.int16(5),
                           tolerance=np.float64(1e-9))
        (cell,) = run_sweep(cfg)
        assert cell.rate == 1.0

    @pytest.mark.parametrize("doc", [[1, 2], "Subspace", 3, None])
    def test_config_must_be_an_object(self, doc):
        with pytest.raises(DimensionError, match="must be a JSON object"):
            config_from_dict(doc)

    def test_missing_fields_named(self):
        expected = r"missing sweep config fields: \['N_range', 'trials'\]"
        with pytest.raises(DimensionError, match=expected):
            config_from_dict({"mode": SUBSPACE, "n": 10, "dim_range": [3]})


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

    def test_json_and_csv_bytes_match_hand_written_reference(self, tmp_path):
        cells = run_sweep(small_config(dim_range=[3, 4, 8, 12]))
        cells.append(PhaseCell(mode=SUBSPACE, n=10, dim=3, N=2,
                               threshold_met=True, trials=3, successes=1,
                               rate=1 / 3, mean_runtime_ms=1.23456))
        keys = ["mode", "n", "dim", "N", "threshold_met", "trials",
                "successes", "rate", "mean_runtime_ms", "skipped_reason"]
        ref = [{k: getattr(c, k) for k in keys} for c in cells]
        path = tmp_path / "out.json"
        write_json(cells, path)
        assert path.read_text() == json.dumps(ref, indent=2) + "\n"
        rows = [CSV_HEADER] + [",".join([
            c.mode, str(c.n), str(c.dim), str(c.N),
            "true" if c.threshold_met else "false", str(c.trials),
            str(c.successes), format(c.rate, ".17g"),
            format(c.mean_runtime_ms, ".3f"), c.skipped_reason])
            for c in cells]
        assert cells_to_csv(cells) == "\n".join(rows) + "\n"

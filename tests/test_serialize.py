import numpy as np
import pytest

from bgpc import (certify_subspace, construct_claim1, construct_claim2,
                  forward, random_instance, recover, verify_claim1_rank)
from bgpc.errors import DimensionError
from bgpc.serialize import (constructed_from_dict, constructed_to_dict,
                            instance_from_dict, instance_to_dict,
                            matrix_from_dict, matrix_to_dict, recovery_to_dict,
                            report_to_dict, verification_to_dict)


class TestMatrixFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        out = matrix_from_dict(matrix_to_dict(M))
        np.testing.assert_array_equal(out, M)

    def test_vector_as_matrix(self):
        v = np.array([1 + 2j, 3 - 4j])
        d = matrix_to_dict(v)
        assert (d["rows"], d["cols"]) == (2, 1)
        np.testing.assert_array_equal(matrix_from_dict(d).reshape(-1), v)

    def test_row_major_layout(self):
        d = matrix_to_dict(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert [p[0] for p in d["data"]] == [1.0, 2.0, 3.0, 4.0]

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionError):
            matrix_from_dict({"rows": 2, "cols": 2, "data": [[1, 0]] * 3})

    def test_rejects_missing_field(self):
        with pytest.raises(DimensionError):
            matrix_from_dict({"rows": 1, "data": [[1, 0]]})

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            matrix_from_dict({"rows": 1, "cols": 1,
                              "data": [[float("inf"), 0.0]]})


class TestInstanceFormat:
    def test_round_trip_dense(self):
        inst = random_instance(8, 4, 2, seed=1)
        out = instance_from_dict(instance_to_dict(inst))
        np.testing.assert_array_equal(out.A, inst.A)
        np.testing.assert_array_equal(out.X0, inst.X0)
        np.testing.assert_array_equal(out.lambda0, inst.lambda0)
        assert out.support is None

    def test_round_trip_sparse_support_one_based(self):
        inst = random_instance(12, 5, 2, seed=2, sparsity=2)
        d = instance_to_dict(inst)
        assert d["support"] == [j + 1 for j in inst.support]
        assert instance_from_dict(d).support == inst.support

    def test_forward_survives_round_trip(self):
        inst = random_instance(8, 4, 2, seed=3)
        out = instance_from_dict(instance_to_dict(inst))
        np.testing.assert_array_equal(forward(out), forward(inst))


class TestReportFormats:
    def test_certificate_report_keys(self):
        inst = random_instance(8, 4, 2, seed=4)
        d = report_to_dict(certify_subspace(inst.A, inst.X0, inst.lambda0))
        assert set(d) == {"mode", "verdict", "condition1_rank_full",
                          "condition2_lambda_unique", "stacked_rank",
                          "required_rank", "tolerance_used",
                          "support_cells_checked", "failing_support"}
        assert d["verdict"] == "IdentifiableUpToScaling"

    def test_constructed_round_trip(self):
        ci = construct_claim1(8, 4, 2)
        d = constructed_to_dict(ci)
        assert d["selected_cols"] == [1, 2, 4, 6]
        out = constructed_from_dict(d)
        assert out.selected_cols == ci.selected_cols
        np.testing.assert_array_equal(out.A, ci.A)
        assert verify_claim1_rank(out).passed

    def test_claim2_round_trip_keeps_row_order(self):
        ci = construct_claim2(12, 8, 3, 2, [1, 4, 6], [0, 4, 7])
        assert ci.row_order == (1, 2, 0, 3, 4)
        d = constructed_to_dict(ci)
        assert d["row_order"] == [2, 3, 1, 4, 5]
        out = constructed_from_dict(d)
        assert out.row_order == ci.row_order
        np.testing.assert_array_equal(out.X0, ci.X0)
        assert "row_order" not in constructed_to_dict(construct_claim1(8, 4, 2))

    def test_verification_record_keys(self):
        rec = verify_claim1_rank(construct_claim1(8, 4, 2))
        d = verification_to_dict(rec)
        assert d["pass"] is True
        assert d["left_null_dim"] == 1

    def test_recovery_result(self):
        inst = random_instance(8, 4, 2, seed=5)
        res = recover(forward(inst), inst.A)
        d = recovery_to_dict(res)
        assert d["status"] == "Unique" and d["null_dim"] == 1
        np.testing.assert_array_equal(
            matrix_from_dict(d["X"]), res.X)

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bgpc import (SweepConfig, certify_joint_sparse, certify_subspace,
                  construct_claim1, construct_claim2, forward, random_instance,
                  recover, run_sweep, verify_claim1_rank)
from bgpc.errors import DimensionError
from bgpc.serialize import (constructed_from_dict, constructed_to_dict,
                            dump_json, instance_from_dict, instance_to_dict,
                            matrix_from_dict, matrix_to_dict, recovery_to_dict,
                            report_to_dict, verification_to_dict)

SRC = Path(__file__).resolve().parents[1] / "src"


# the per-entry codec and hand-written record writers that the vectorized
# codec and the field-driven writer replaced, kept as references
def reference_matrix_to_dict(M):
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim == 1:
        M = M[:, None]
    rows, cols = M.shape
    flat = M.reshape(-1)
    return {"rows": rows, "cols": cols,
            "data": [[float(z.real), float(z.imag)] for z in flat]}


def reference_matrix_from_dict(d):
    rows, cols, data = int(d["rows"]), int(d["cols"]), d["data"]
    out = np.empty(rows * cols, dtype=np.complex128)
    for i, pair in enumerate(data):
        out[i] = complex(float(pair[0]), float(pair[1]))
    return out.reshape(rows, cols)


def reference_instance_to_dict(inst):
    d = {"n": inst.n, "m": inst.m, "N": inst.N,
         "lambda0": reference_matrix_to_dict(inst.lambda0),
         "X0": reference_matrix_to_dict(inst.X0),
         "A": reference_matrix_to_dict(inst.A)}
    if inst.support is not None:
        d["support"] = [j + 1 for j in inst.support]
    return d


def reference_constructed_to_dict(ci):
    d = {"n": ci.n, "m": ci.m, "N": ci.N,
         "X0": reference_matrix_to_dict(ci.X0),
         "A": reference_matrix_to_dict(ci.A),
         "selected_cols": [j + 1 for j in ci.selected_cols],
         "complement_cols": [j + 1 for j in ci.complement_cols],
         "expected_left_null_dim": ci.expected_left_null_dim}
    if ci.row_order is not None:
        d["row_order"] = [j + 1 for j in ci.row_order]
    return d


def bits(M):
    return np.ascontiguousarray(M, dtype=np.complex128).view(np.uint64)


# finite doubles with the edge cases spelled out: signed zeros, subnormals
# and the ends of the range
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))


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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pairs=arrays(np.float64, st.tuples(st.integers(1, 5),
                                              st.integers(1, 5), st.just(2)),
                        elements=EDGE_FLOATS),
           vector=st.booleans())
    def test_matches_per_entry_reference_bitwise(self, pairs, vector):
        M = pairs.view(np.complex128)[..., 0]
        if vector:
            M = M[:, 0]
        d = matrix_to_dict(M)
        ref = reference_matrix_to_dict(M)
        assert json.dumps(d) == json.dumps(ref)
        assert [[np.float64(x).tobytes() for x in p] for p in d["data"]] == \
            [[np.float64(x).tobytes() for x in p] for p in ref["data"]]
        back = json.loads(json.dumps(d))
        np.testing.assert_array_equal(bits(matrix_from_dict(back)),
                                      bits(reference_matrix_from_dict(back)))
        np.testing.assert_array_equal(
            bits(matrix_from_dict(back)),
            bits(M if M.ndim == 2 else M[:, None]))

    def test_non_contiguous_input(self):
        M = np.arange(12.0).reshape(3, 4) - 1j * np.arange(12.0).reshape(3, 4)
        assert matrix_to_dict(M.T) == reference_matrix_to_dict(M.T)
        assert matrix_to_dict(M[:, ::2]) == reference_matrix_to_dict(M[:, ::2])


GOOD = {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}

# (case id, malformed matrix object, words the error must contain)
MALFORMED_MATRICES = [
    ("null-entry", {**GOOD, "data": [[None, 0]]}, "non-finite"),
    ("bare-number-pair", {**GOOD, "data": [5]}, "shape"),
    ("data-is-number", {**GOOD, "data": 5}, "shape"),
    ("data-is-string", {**GOOD, "data": "ab"}, "[re, im]"),
    ("dict-pair", {**GOOD, "data": [{"re": 1, "im": 0}]}, "[re, im]"),
    ("ragged-pair", {"rows": 2, "cols": 1, "data": [[1, 0], [2]]}, "[re, im]"),
    ("triple", {**GOOD, "data": [[1, 0, 0]]}, "shape"),
    ("nested-too-deep", {**GOOD, "data": [[[1, 0]]]}, "shape"),
    ("huge-integer", {**GOOD, "data": [[10 ** 400, 0]]}, "[re, im]"),
    ("string-entry", {**GOOD, "data": [["1.5", 2.0]]}, "not strings or booleans"),
    ("boolean-entry", {**GOOD, "data": [[True, 2.0]]}, "not strings or booleans"),
    ("rows-fraction", {**GOOD, "rows": 1.7}, "rows and cols"),
    ("rows-true", {**GOOD, "rows": True}, "rows and cols"),
    ("rows-zero", {"rows": 0, "cols": 1, "data": []}, "rows and cols"),
    ("cols-string", {**GOOD, "cols": "1"}, "rows and cols"),
    ("wrong-length", {"rows": 2, "cols": 2, "data": [[1, 0]] * 3}, "rows*cols = 4"),
    ("non-finite", {**GOOD, "data": [[float("inf"), 0.0]]}, "non-finite"),
    ("nan", {**GOOD, "data": [[0.0, float("nan")]]}, "non-finite"),
    ("missing-data", {"rows": 1, "cols": 1}, "malformed"),
    ("not-an-object", [[1, 0]], "malformed"),
]


class TestMalformedMatrices:
    @pytest.mark.parametrize("case, d, words", MALFORMED_MATRICES,
                             ids=[c[0] for c in MALFORMED_MATRICES])
    def test_library_raises_naming_the_matrix(self, case, d, words):
        with pytest.raises(DimensionError) as info:
            matrix_from_dict(d, "A")
        assert str(info.value).startswith("A: ") and words in str(info.value)

    @pytest.mark.parametrize("case, d, words", MALFORMED_MATRICES,
                             ids=[c[0] for c in MALFORMED_MATRICES])
    def test_cli_exit_1_without_traceback(self, tmp_path, case, d, words):
        Y, A = tmp_path / "Y.json", tmp_path / "A.json"
        Y.write_text(json.dumps(GOOD))
        A.write_text(json.dumps(d))
        proc = subprocess.run(
            [sys.executable, "-m", "bgpc.cli", "recover", "--Y", str(Y),
             "--A", str(A)], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: A: ") and words in proc.stderr
        assert "Traceback" not in proc.stderr


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

    @pytest.mark.parametrize("inst", [
        random_instance(8, 4, 2, seed=1),
        random_instance(16, 8, 2, seed=2, sparsity=3),
        random_instance(128, 96, 8, seed=3),
    ], ids=["dense", "sparse", "large"])
    def test_matches_hand_written_reference(self, inst):
        assert json.dumps(instance_to_dict(inst), indent=2) == \
            json.dumps(reference_instance_to_dict(inst), indent=2)

    @pytest.mark.parametrize("change, words", [
        ({"n": "8"}, "instance: n must be an integer, got '8'"),
        ({"m": 4.7}, "instance: m must be an integer, got 4.7"),
        ({"N": True}, "instance: N must be an integer, got True"),
        ({"support": "abc"}, "instance: support must be a list of 1-based"),
        ({"support": [0, 2, 3]}, "instance: support must be a list of 1-based"),
        ({"support": [1.0, 2]}, "instance: support must be a list of 1-based"),
        ({"A": {"rows": 8, "cols": 4, "data": 5}}, "A: data has shape"),
        ({"lambda0": None}, "lambda0: malformed matrix object"),
    ])
    def test_malformed_fields_rejected_by_name(self, change, words):
        d = {**instance_to_dict(random_instance(8, 4, 2, seed=1,
                                                sparsity=2)), **change}
        with pytest.raises(DimensionError) as info:
            instance_from_dict(d)
        assert str(info.value).startswith(words)

    def test_missing_field_or_non_object_rejected(self):
        d = instance_to_dict(random_instance(8, 4, 2, seed=1))
        del d["N"]
        with pytest.raises(DimensionError, match="instance: missing field 'N'"):
            instance_from_dict(d)
        with pytest.raises(DimensionError, match="expected a JSON object"):
            instance_from_dict([1, 2])


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

    @pytest.mark.parametrize("ci", [
        construct_claim1(8, 4, 2),
        construct_claim1(128, 96, 8),
        construct_claim2(12, 8, 3, 2, [1, 4, 6], [0, 4, 7]),
    ], ids=["claim1", "claim1-large", "claim2"])
    def test_constructed_matches_hand_written_reference(self, ci):
        assert json.dumps(constructed_to_dict(ci), indent=2) == \
            json.dumps(reference_constructed_to_dict(ci), indent=2)

    @pytest.mark.parametrize("field, value", [
        ("n", "8"), ("N", 2.0), ("expected_left_null_dim", "1"),
        ("selected_cols", [0, 1, 3, 5]), ("complement_cols", "3"),
        ("row_order", [2, 3, -1]),
    ])
    def test_constructed_malformed_fields_rejected_by_name(self, field, value):
        d = {**constructed_to_dict(construct_claim1(8, 4, 2)), field: value}
        with pytest.raises(DimensionError,
                           match=f"^constructed instance: {field} must be"):
            constructed_from_dict(d)

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


# doubles whose text is an edge case of float repr: signed zero, the least
# subnormal, the switch to exponent notation and the ends of the range
EDGE_PAIRS = [[-0.0, 5e-324], [1e16, -1e300], [1e-300, 1e300], [-1e-320, 0.0]]


def with_edge_values(obj):
    """obj with the first pairs of every matrix's data set to EDGE_PAIRS."""
    if isinstance(obj, dict):
        obj = {k: with_edge_values(v) for k, v in obj.items()}
        if set(obj) == {"rows", "cols", "data"}:
            k = min(len(obj["data"]), len(EDGE_PAIRS))
            obj["data"] = EDGE_PAIRS[:k] + obj["data"][k:]
    return obj


def sweep_list():
    cfg = SweepConfig(mode="Subspace", n=10, dim_range=[3, 8], N_range=[2],
                      trials=2, base_seed=7, record_timing=False)
    return [asdict(c) for c in run_sweep(cfg)]


def written_records():
    inst = random_instance(12, 5, 3, seed=1)
    sparse = random_instance(16, 8, 2, seed=2, sparsity=3)
    below = random_instance(8, 6, 2, seed=1)
    yield "matrix", matrix_to_dict(inst.A)
    yield "1x1", matrix_to_dict(np.array([[1 + 2j]]))
    yield "vector", matrix_to_dict(inst.lambda0)
    yield "dense-instance", instance_to_dict(inst)
    yield "sparse-instance", instance_to_dict(sparse)
    yield "claim2", constructed_to_dict(
        construct_claim2(12, 8, 3, 2, [1, 4, 6], [0, 4, 7]))
    yield "report", report_to_dict(certify_subspace(inst.A, inst.X0, inst.lambda0))
    yield "sparse-report", report_to_dict(certify_joint_sparse(
        sparse.A, sparse.X0, sparse.lambda0, 3))
    yield "verification", verification_to_dict(
        verify_claim1_rank(construct_claim1(8, 4, 2)))
    yield "recovery", recovery_to_dict(recover(forward(inst), inst.A))
    yield "recovery-nulls", recovery_to_dict(recover(forward(below), below.A))
    yield "sweep", sweep_list()


@pytest.mark.parametrize("name, obj", list(written_records()),
                         ids=[name for name, _ in written_records()])
def test_written_bytes_match_json_dump_indent_2(tmp_path, name, obj):
    # dump_json lays matrices out by string operations; the bytes must stay
    # those of json's own indent=2 writer
    obj = with_edge_values(obj)
    ours, ref = tmp_path / "ours.json", tmp_path / "ref.json"
    dump_json(obj, ours)
    with open(ref, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
    assert ours.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("obj", [
    {"note": "\x00", "A": matrix_to_dict(np.eye(2))},  # a grid's stand-in
    {"M": [[1.0, "a, b"], [2.0, 3.0]]},
    {"M": [[1.0, 2.0], []]},
    {"M": [[[1.0, 2.0]], [3.0]]},
    [[1, None, True], [float("nan"), float("inf"), -float("inf")]],
    [[{"re": 1.0}], [2.0]],
], ids=["mark-in-a-string", "string-in-grid", "empty-row", "ragged-depth",
        "literals", "object-in-grid"])
def test_written_bytes_match_json_dump_off_the_matrix_path(tmp_path, obj):
    path = tmp_path / "out.json"
    dump_json(obj, path)
    assert path.read_text() == json.dumps(obj, indent=2) + "\n"


def test_unencodable_object_raises_as_json_does_and_writes_nothing(tmp_path):
    cycle = {"data": [[1.0, 2.0]]}
    cycle["self"] = cycle
    path = tmp_path / "out.json"
    with pytest.raises(ValueError, match="Circular reference"):
        dump_json(cycle, path)
    with pytest.raises(TypeError, match="not JSON serializable"):
        dump_json({"M": [[1.0, np.float32(2.0)]]}, path)
    assert not path.exists()

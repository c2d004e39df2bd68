import importlib
import warnings
from dataclasses import replace
from itertools import combinations
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bgpc import (BudgetExceededError, DimensionError, IDENTIFIABLE,
                  NOT_CERTIFIED, build_D_stack, build_stacked,
                  certify_joint_sparse, certify_subspace, dft_matrix,
                  random_instance)
from bgpc.certify import (JOINT_SPARSE, SUBSPACE, CertificateReport,
                          _elimination_bound, _lambda_uniqueness, _norm,
                          _normalized, _stacked_bound, build_stacked_restricted)
from bgpc.construct import construct_claim1
from bgpc.cxmat import default_cutoff, numeric_rank
from bgpc.model import support_cells


def vec(X):
    return X.flatten(order="F")


def build_D_block(a_row, X0):
    """Cross-ratio block for one measurement row: build_D_stack of one row."""
    return build_D_stack(np.asarray(a_row, dtype=np.complex128).reshape(1, -1), X0)


class TestBuildDBlock:
    def test_scalar_dictionary(self):
        out = build_D_block([1.0], [[2.0, 5.0]])
        np.testing.assert_allclose(out, [[-5.0, 2.0]])

    def test_annihilates_vec(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            m, N = rng.integers(1, 6), rng.integers(2, 6)
            a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            X0 = rng.standard_normal((m, N)) + 1j * rng.standard_normal((m, N))
            D = build_D_block(a, X0)
            assert D.shape == (N - 1, m * N)
            assert np.linalg.norm(D @ vec(X0)) < 1e-10

    def test_constructed_left_factor(self):
        # for the DFT-column construction, row j of the left factor is
        # (-alpha^(j*(k-1)), 0.., 1, ..0): substitute and compare entrywise
        n, m, N = 8, 4, 3
        ci = construct_claim1(n, m, N)
        alpha = np.exp(-2j * np.pi / n)
        for k in range(n):
            D = build_D_block(ci.A[k, :], ci.X0)
            C = np.zeros((N - 1, N), dtype=complex)
            for j in range(1, N):
                C[j - 1, 0] = -alpha ** (j * k)
                C[j - 1, j] = 1.0
            np.testing.assert_allclose(D, np.kron(C, ci.A[k, :][None, :]),
                                       atol=1e-12)

    def test_single_snapshot_rejected(self):
        with pytest.raises(DimensionError):
            build_D_block([1.0, 2.0], [[1.0], [2.0]])


class TestBuildDStack:
    @staticmethod
    def looped(A, X0):
        # reference: one build_D_block-style Kronecker block per row of A
        N = X0.shape[1]
        blocks = []
        for a in A:
            w = a @ X0
            C = np.zeros((N - 1, N), dtype=complex)
            C[:, 0] = -w[1:]
            C[np.arange(N - 1), np.arange(1, N)] = w[0]
            blocks.append(np.kron(C, a[None, :]))
        return np.vstack(blocks)

    def test_matches_per_row_kronecker_blocks(self):
        for seed in range(40):
            n, m, N = 3 + seed % 9, 1 + seed % 5, 2 + seed % 4
            inst = random_instance(n, m, N, seed=seed, sparsity=m)
            D = build_D_stack(inst.A, inst.X0)
            ref = self.looped(inst.A, inst.X0)
            assert D.shape == ref.shape == (n * (N - 1), m * N)
            np.testing.assert_allclose(D, ref, rtol=0,
                                       atol=1e-13 * np.max(np.abs(ref)))

    def test_block_is_one_row_stack(self):
        inst = random_instance(6, 3, 3, seed=4)
        for k in range(6):
            np.testing.assert_array_equal(
                build_D_block(inst.A[k], inst.X0),
                build_D_stack(inst.A[k:k + 1], inst.X0))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            build_D_block([1.0, 2.0, 3.0], np.ones((2, 3)))


class TestBuildStacked:
    def test_shape(self):
        inst = random_instance(8, 4, 2, seed=1)
        assert build_stacked(inst.A, inst.X0).shape == (9, 8)

    def test_first_row_is_vec_conj(self):
        inst = random_instance(6, 3, 2, seed=2)
        S = build_stacked(inst.A, inst.X0)
        got = S[0, :] @ vec(inst.X0)
        assert abs(got - np.linalg.norm(inst.X0) ** 2) < 1e-10

    def test_rows_orthogonal_to_vec(self):
        inst = random_instance(6, 3, 3, seed=3)
        S = build_stacked(inst.A, inst.X0)
        resid = S[1:, :] @ vec(inst.X0)
        assert np.linalg.norm(resid) < 1e-10


class TestCertifySubspace:
    def test_identifiable_above_threshold(self):
        inst = random_instance(8, 4, 2, seed=5)
        rep = certify_subspace(inst.A, inst.X0, inst.lambda0)
        assert rep.verdict == IDENTIFIABLE
        assert rep.condition1_rank_full and rep.condition2_lambda_unique
        assert rep.stacked_rank == rep.required_rank == 8

    def test_not_certified_below_threshold(self):
        # 1 + n(N-1) = 9 rows < mN = 12 columns: rank cannot be full
        inst = random_instance(8, 6, 2, seed=5)
        rep = certify_subspace(inst.A, inst.X0, inst.lambda0)
        assert rep.verdict == NOT_CERTIFIED
        assert not rep.condition1_rank_full
        assert rep.stacked_rank <= 9

    def test_zero_gain_entry_fails_condition2(self):
        inst = random_instance(8, 4, 2, seed=6)
        lam = inst.lambda0.copy()
        lam[3] = 0.0
        rep = certify_subspace(inst.A, inst.X0, lam)
        assert not rep.condition2_lambda_unique
        assert rep.verdict == NOT_CERTIFIED

    def test_single_snapshot_rejected(self):
        inst = random_instance(8, 4, 1, seed=7)
        with pytest.raises(DimensionError):
            certify_subspace(inst.A, inst.X0, inst.lambda0)

    @pytest.mark.parametrize("N", [2, 1])
    def test_negative_tolerance_refused_first(self, svd_calls, N):
        # as in certify_joint_sparse: before any SVD, and before the refusal
        # of a single snapshot
        inst = random_instance(8, 4, N, seed=7)
        with pytest.raises(ValueError, match="tolerance must be a nonnegative"):
            certify_subspace(inst.A, inst.X0, inst.lambda0, tol=-1.0)
        assert svd_calls == []

    def test_scaling_invariance_of_verdict(self):
        rng = np.random.default_rng(8)
        for seed in range(30):
            n, m = (8, 4) if seed % 2 == 0 else (8, 6)
            inst = random_instance(n, m, 2, seed=seed)
            sigma = complex(rng.standard_normal() + 1j * rng.standard_normal())
            base = certify_subspace(inst.A, inst.X0, inst.lambda0)
            scaled = certify_subspace(inst.A, sigma * inst.X0,
                                      inst.lambda0 / sigma)
            assert base.verdict == scaled.verdict
            assert base.condition1_rank_full == scaled.condition1_rank_full

    def test_row_budget_necessity(self):
        # whenever 1 + n(N-1) < mN, condition 1 fails for every input
        rng = np.random.default_rng(9)
        cases = 0
        while cases < 30:
            n = int(rng.integers(4, 12))
            m = int(rng.integers(2, n))
            N = int(rng.integers(2, m + 1)) if m >= 2 else 2
            if 1 + n * (N - 1) >= m * N:
                continue
            inst = random_instance(n, m, N, seed=int(rng.integers(1 << 31)))
            rep = certify_subspace(inst.A, inst.X0, inst.lambda0)
            assert not rep.condition1_rank_full
            cases += 1


def shapes():
    return st.integers(3, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(1, n - 1), st.integers(2, 4)))


class TestUnitsOfTheInstance:
    """(A c, X0 d, lambda0 / (c d)) gives the same Y, so the same verdict."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(shape=shapes(), seed=st.integers(0, 2 ** 31 - 1),
           k=st.integers(-150, 150), on_A=st.booleans())
    def test_subspace(self, shape, seed, k, on_A):
        inst = random_instance(*shape, seed=seed)
        c = 10.0 ** k
        A, X0 = (inst.A * c, inst.X0) if on_A else (inst.A, inst.X0 * c)
        ref = certify_subspace(inst.A, inst.X0, inst.lambda0)
        rep = certify_subspace(A, X0, inst.lambda0 / c)
        assert (rep.verdict, rep.stacked_rank) == (ref.verdict, ref.stacked_rank)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 31 - 1), k=st.integers(-150, 150))
    def test_joint_sparse(self, seed, k):
        inst = random_instance(9, 5, 2, seed=seed, sparsity=2)
        c = 10.0 ** k
        ref = certify_joint_sparse(inst.A, inst.X0, inst.lambda0, 2)
        rep = certify_joint_sparse(inst.A * c, inst.X0, inst.lambda0 / c, 2)
        assert (rep.verdict, rep.stacked_rank, rep.failing_support) == \
            (ref.verdict, ref.stacked_rank, ref.failing_support)

    @pytest.mark.parametrize("c", [1e-300, 1e300])
    def test_extreme_snapshots_certified(self, c):
        inst = random_instance(8, 4, 2, seed=5)
        with np.errstate(over="raise", under="ignore"):
            rep = certify_subspace(inst.A, inst.X0 * c, inst.lambda0 / c)
        assert rep.verdict == IDENTIFIABLE
        assert rep.condition2_lambda_unique


class TestRestricted:
    def test_full_restriction_identical(self):
        inst = random_instance(8, 4, 2, seed=10)
        S = build_stacked(inst.A, inst.X0)
        R = build_stacked_restricted(inst.A, inst.X0, range(4))
        np.testing.assert_array_equal(S, R)

    def test_column_count(self):
        inst = random_instance(10, 6, 2, seed=11)
        R = build_stacked_restricted(inst.A, inst.X0, [1, 3, 5])
        assert R.shape == (1 + 10 * 1, 3 * 2)

    def test_support_restriction_keeps_orthogonality(self):
        inst = random_instance(12, 6, 2, seed=12, sparsity=3)
        J = list(inst.support)
        R = build_stacked_restricted(inst.A, inst.X0, J)
        resid = R[1:, :] @ inst.X0[J, :].flatten(order="F")
        assert np.linalg.norm(resid) < 1e-10

    def test_cells_are_column_subsets_of_full_build(self):
        # X0 vanishes off J0, so the restriction to J = J0 | J1 is the
        # columns t*m + j (j in J) of the full build, bit for bit
        n, m, s, N = 20, 12, 3, 3
        inst = random_instance(n, m, N, seed=20, sparsity=s)
        S = build_stacked(inst.A, inst.X0)
        cells = 0
        for J1 in combinations(range(m), s):
            J = sorted(set(inst.support) | set(J1))
            cols = (np.arange(N)[:, None] * m + J).ravel()
            np.testing.assert_array_equal(
                S[:, cols], build_stacked_restricted(inst.A, inst.X0, J))
            cells += 1
        assert cells == 220

    def test_empty_restriction_rejected(self):
        inst = random_instance(8, 4, 2, seed=13)
        with pytest.raises(DimensionError):
            build_stacked_restricted(inst.A, inst.X0, [])


class TestCertifyJointSparse:
    def test_identifiable(self):
        inst = random_instance(16, 8, 2, seed=14, sparsity=3)
        rep = certify_joint_sparse(inst.A, inst.X0, inst.lambda0, 3)
        assert rep.verdict == IDENTIFIABLE
        assert rep.support_cells_checked == 56  # C(8, 3)

    def test_single_snapshot_rejected(self):
        inst = random_instance(16, 8, 1, seed=15, sparsity=3)
        with pytest.raises(DimensionError):
            certify_joint_sparse(inst.A, inst.X0, inst.lambda0, 3)

    def test_theorem_hypothesis(self):
        inst = random_instance(8, 8, 2, seed=16, sparsity=4)
        with pytest.raises(DimensionError):
            certify_joint_sparse(inst.A, inst.X0, inst.lambda0, 4)

    def test_budget_refusal(self):
        inst = random_instance(16, 8, 2, seed=17, sparsity=3)
        with pytest.raises(BudgetExceededError):
            certify_joint_sparse(inst.A, inst.X0, inst.lambda0, 3, max_cells=10)

    def test_negative_tolerance_refused_before_any_svd(self, svd_calls):
        inst = random_instance(20, 12, 3, seed=17, sparsity=3)
        with pytest.raises(ValueError, match="tolerance must be a nonnegative"):
            certify_joint_sparse(inst.A, inst.X0, inst.lambda0, 3, tol=-1.0)
        assert svd_calls == []

    @pytest.mark.parametrize("s", [0, -1, 9])
    def test_sparsity_out_of_range(self, s):
        inst = random_instance(20, 8, 2, seed=17, sparsity=3)
        with pytest.raises(DimensionError, match=r"requires 1 <= s <= m"):
            certify_joint_sparse(inst.A, inst.X0, inst.lambda0, s)

    @pytest.mark.parametrize("s", [2, 4])
    def test_support_of_another_size(self, s):
        inst = random_instance(20, 8, 2, seed=17, sparsity=3)
        with pytest.raises(DimensionError,
                           match=rf"X0 row support has size 3, expected s={s}"):
            certify_joint_sparse(inst.A, inst.X0, inst.lambda0, s)

    def test_full_support_matches_subspace(self):
        # s = m: the single cell J0 | J1 = 0..m-1 is the subspace certificate
        n, m = 12, 4
        inst = random_instance(n, m, 2, seed=18, sparsity=m)
        sparse = certify_joint_sparse(inst.A, inst.X0, inst.lambda0, m,
                                      max_cells=10)
        dense = certify_subspace(inst.A, inst.X0, inst.lambda0)
        assert sparse.support_cells_checked == 1
        assert sparse.verdict == dense.verdict
        assert sparse.stacked_rank == dense.stacked_rank

    def test_failing_support_recorded(self):
        # s = 6, m = 12: cells with |J0 | J1| >= 9 need rank >= 18 from
        # only 1 + n(N-1) = 17 rows, so enumeration must hit a failure
        inst = random_instance(16, 12, 2, seed=19, sparsity=6)
        rep = certify_joint_sparse(inst.A, inst.X0, inst.lambda0, 6)
        assert rep.verdict == NOT_CERTIFIED
        assert rep.failing_support is not None
        assert rep.support_cells_checked >= 1
        union = set(inst.support) | set(rep.failing_support)
        assert len(union) * 2 > rep.stacked_rank


def certify_every_cell(A, X0, lambda0, s, tol=None):
    """The joint-sparse certificate deciding every cell in lexicographic order."""
    A, X0, lambda0 = _normalized(A, X0, lambda0)
    m, N = X0.shape
    J0 = set(np.flatnonzero(np.any(X0 != 0, axis=1)).tolist())
    cond2 = _lambda_uniqueness(A, X0, lambda0)
    S = build_stacked(A, X0)
    failing = None
    for checked, J1 in enumerate(combinations(range(m), s), start=1):
        J = sorted(J0 | set(J1))
        rr = numeric_rank(S[:, (np.arange(N)[:, None] * m + J).ravel()], tol=tol)
        if rr.numeric_rank != len(J) * N:
            failing = tuple(J1)
            break
    cond1 = failing is None
    return CertificateReport(
        mode=JOINT_SPARSE,
        verdict=IDENTIFIABLE if (cond1 and cond2) else NOT_CERTIFIED,
        condition1_rank_full=cond1,
        condition2_lambda_unique=cond2,
        stacked_rank=rr.numeric_rank,
        required_rank=len(J) * N,
        tolerance_used=rr.tolerance_used,
        support_cells_checked=checked,
        failing_support=failing,
    )


def duplicate_column(inst, inside):
    """A with one column copied onto another, both inside or both outside J0."""
    pool = inst.support if inside else [j for j in range(inst.m)
                                        if j not in inst.support]
    A = inst.A.copy()
    A[:, pool[-1]] = A[:, pool[0]]
    return A


def duplicate_top_outside(inst):
    """A with its highest column outside J0 copied from the next highest."""
    outside = [j for j in range(inst.m) if j not in inst.support]
    A = inst.A.copy()
    A[:, outside[-1]] = A[:, outside[-2]]
    return A


class TestDisjointCellScreen:
    """Deciding the cells disjoint from J0 first changes no report field."""

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("n, m, s, N", [
        (20, 12, 3, 3), (16, 10, 2, 4), (14, 8, 3, 2),
        (10, 5, 3, 3),  # m < 2s: no disjoint cell
    ])
    @pytest.mark.parametrize("variant", [
        "plain", "dup_outside", "dup_inside", "tol", "tol0", "large", "small"])
    def test_matches_deciding_every_cell(self, seed, n, m, s, N, variant):
        inst = random_instance(n, m, N, seed=seed, sparsity=s)
        A, X0, tol = inst.A, inst.X0, None
        if variant.startswith("dup"):
            A = duplicate_column(inst, inside=variant == "dup_inside")
        elif variant.startswith("tol"):
            tol = 1e-9 if variant == "tol" else 0.0
        elif variant != "plain":
            X0 = X0 * (1e300 if variant == "large" else 1e-300)
        rep = certify_joint_sparse(A, X0, inst.lambda0, s, tol=tol)
        assert rep == certify_every_cell(A, X0, inst.lambda0, s, tol=tol)
        if variant == "dup_outside":  # fails in a disjoint cell
            assert rep.verdict == NOT_CERTIFIED
        elif variant != "dup_inside":
            assert rep.verdict == IDENTIFIABLE

    def test_disjoint_cells_only(self, monkeypatch):
        # C(9, 3) = 84 disjoint cells and the last cell; a regression to
        # deciding all 220 cells fails here without any timing
        module = importlib.import_module("bgpc.certify")
        calls = []
        monkeypatch.setattr(module, "numeric_rank",
                            lambda *a, **k: calls.append(1) or numeric_rank(*a, **k))
        inst = random_instance(20, 12, 3, seed=5, sparsity=3)
        rep = certify_joint_sparse(inst.A, inst.X0, inst.lambda0, 3)
        assert rep.verdict == IDENTIFIABLE
        assert rep.support_cells_checked == 220
        assert len(calls) <= 85


def last_cell_sigma_min(A, X0, lambda0, s):
    """sigma_min of the cell J0 | {m-s..m-1} of the normalized instance."""
    A, X0, _ = _normalized(A, X0, lambda0)
    m, N = X0.shape
    J = sorted(set(np.flatnonzero(np.any(X0 != 0, axis=1))) | set(range(m - s, m)))
    S_J = build_stacked(A, X0)[:, (np.arange(N)[:, None] * m + J).ravel()]
    return np.linalg.svd(S_J, compute_uv=False)[-1]


def record_calls(monkeypatch, *names):
    """Wrap each named function of bgpc.certify to record what it returns."""
    module = importlib.import_module("bgpc.certify")
    results = {name: [] for name in names}

    def recorded(name, f):
        def wrapper(*a, **k):
            results[name].append(f(*a, **k))
            return results[name][-1]
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, recorded(name, getattr(module, name)))
    return results


ROOT_PASSES = [(20, 12, 3, 3), (16, 8, 3, 3), (11, 5, 3, 3)]  # last: m < 2s
ROOT_COUNT_DECLINES = [(20, 12, 3, 2), (16, 10, 2, 4)]  # (n-m) min(N, s) < n-1


class TestWholeDictionaryScreen:
    """Deciding the whole dictionary, the walk's root, first changes no
    report field."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n, m, s, N", ROOT_PASSES + ROOT_COUNT_DECLINES)
    @pytest.mark.parametrize("variant", [
        "plain", "near_dup_1e-8", "near_dup_1e-12", "tol_0.1", "tol_1",
        "tol_10", "large", "small", "dup_top_outside"])
    def test_matches_deciding_every_cell(self, monkeypatch, seed, n, m, s, N,
                                         variant):
        inst = random_instance(n, m, N, seed=seed, sparsity=s)
        A, X0, tol = inst.A, inst.X0, None
        if variant == "dup_top_outside":
            A = duplicate_top_outside(inst)
        elif variant.startswith("near_dup"):  # inside J0 for seed 1
            rng = np.random.default_rng(seed)
            pool = [j for j in range(m) if (j in inst.support) == (seed == 1)]
            A = A.copy()
            A[:, pool[-1]] = A[:, pool[0]] + float(variant[9:]) * (
                rng.standard_normal(n) + 1j * rng.standard_normal(n))
        elif variant.startswith("tol"):
            tol = float(variant[4:]) * last_cell_sigma_min(A, X0, inst.lambda0, s)
        elif variant != "plain":
            X0 = X0 * (1e300 if variant == "large" else 1e-300)
        calls = record_calls(monkeypatch, "_stacked_bound", "numeric_rank")
        rep = certify_joint_sparse(A, X0, inst.lambda0, s, tol=tol)
        assert rep == certify_every_cell(A, X0, inst.lambda0, s, tol=tol)
        assert calls["_stacked_bound"] == []
        if variant in ("plain", "large", "small"):
            assert rep.verdict == IDENTIFIABLE
            if (n, m, s, N) in ROOT_COUNT_DECLINES:  # below 84 disjoint cells + 1
                assert len(calls["numeric_rank"]) < 85
            else:  # the root and the last cell
                assert len(calls["numeric_rank"]) == 2
        elif variant == "dup_top_outside":
            assert rep.verdict == NOT_CERTIFIED
        elif variant == "near_dup_1e-12":
            # nodes stop being factored once J0's own gather is not clear,
            # so each cell is factored once, with the root and J0's gather
            assert len(calls["numeric_rank"]) <= comb(m, s) + 2

    def test_one_cell_factored(self, monkeypatch):
        # one SVD of the whole dictionary and the last cell for the report;
        # a regression to the 84 disjoint cells fails here
        calls = record_calls(monkeypatch, "_stacked_bound", "numeric_rank")
        inst = random_instance(20, 12, 3, seed=5, sparsity=3)
        rep = certify_joint_sparse(inst.A, inst.X0, inst.lambda0, 3)
        assert calls["_stacked_bound"] == []
        assert len(calls["numeric_rank"]) == 2
        assert rep.support_cells_checked == 220
        assert rep.verdict == IDENTIFIABLE

    def test_failure_after_ruled_out_subtrees(self, monkeypatch):
        # the first failing cell is the 21st of 56; subtrees before it are
        # decided whole, and the walk's nodes of one cell are decided as
        # cells, never screened first: 37 gathers are factored in all
        module = importlib.import_module("bgpc.certify")
        walked = []
        monkeypatch.setattr(module, "support_cells", lambda *a: (
            walked.append(J) or J for J in support_cells(*a)))
        calls = record_calls(monkeypatch, "numeric_rank")
        inst = random_instance(16, 8, 3, seed=0, sparsity=3)
        A = duplicate_top_outside(inst)
        rep = certify_joint_sparse(A, inst.X0, inst.lambda0, 3)
        assert len(calls["numeric_rank"]) == 37
        assert rep == certify_every_cell(A, inst.X0, inst.lambda0, 3)
        assert rep.support_cells_checked == 21
        assert rep.failing_support == walked[-1]


def shuffled_within(groups, rng):
    """A permutation of range(len(groups)) moving j only among the indices
    with the same group key."""
    p = np.arange(len(groups))
    for key in set(groups):
        idx = [j for j, g in enumerate(groups) if g == key]
        p[idx] = rng.permutation(idx)
    return p


class TestJointSparsePermutation:
    """Permuting the columns of A with the rows of X0 keeps the verdict."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n, m, s, N", [(20, 12, 3, 3), (16, 10, 2, 4)])
    @pytest.mark.parametrize("variant", ["plain", "dup_outside", "dup_inside"])
    def test_column_permutation(self, seed, n, m, s, N, variant):
        inst = random_instance(n, m, N, seed=seed, sparsity=s)
        A = inst.A if variant == "plain" else duplicate_column(
            inst, inside=variant == "dup_inside")
        rep = certify_joint_sparse(A, inst.X0, inst.lambda0, s)
        assert rep.verdict == (IDENTIFIABLE if variant == "plain" else NOT_CERTIFIED)
        rng = np.random.default_rng(100 + seed)
        # any permutation; then one that maps J0 and the first and last s
        # columns onto themselves, so the reported cell (the last one, or the
        # first one when a column of J0 is duplicated) keeps its size
        keep = [(j in inst.support, j < s, j >= m - s) for j in range(m)]
        for p, same_cell in [(rng.permutation(m), False),
                             (shuffled_within(keep, rng), variant != "dup_outside")]:
            perm = certify_joint_sparse(A[:, p], inst.X0[p], inst.lambda0, s)
            assert perm.verdict == rep.verdict
            assert perm.condition1_rank_full == rep.condition1_rank_full
            assert perm.condition2_lambda_unique == rep.condition2_lambda_unique
            if same_cell:
                assert perm.required_rank == rep.required_rank


def certify_stacked_svd(A, X0, lambda0, tol=None):
    """The subspace certificate from one SVD of the stacked matrix."""
    A, X0, lambda0 = _normalized(A, X0, lambda0)
    m, N = X0.shape
    cond2 = _lambda_uniqueness(A, X0, lambda0)
    rr = numeric_rank(build_stacked(A, X0), tol=tol)
    cond1 = rr.numeric_rank == m * N
    verdict = IDENTIFIABLE if (cond1 and cond2) else NOT_CERTIFIED
    return CertificateReport(
        mode=SUBSPACE,
        verdict=verdict,
        condition1_rank_full=cond1,
        condition2_lambda_unique=cond2,
        stacked_rank=rr.numeric_rank,
        required_rank=m * N,
        tolerance_used=rr.tolerance_used,
    )


def assert_matches_stacked_svd(A, X0, lambda0, tol=None) -> bool:
    """certify_subspace equals the stacked-SVD report field for field; True
    when the screen decided, so that the stacked matrix was never built.
    Only a screened pass at the default tolerance reports
    max(rows, cols) eps ||S||_F, which lies between the stacked cutoff and
    sqrt(mN) times it."""
    module = importlib.import_module("bgpc.certify")
    with mock.patch.object(module, "build_stacked", wraps=build_stacked) as built:
        rep = certify_subspace(A, X0, lambda0, tol)
    screened = not built.called
    ref = certify_stacked_svd(A, X0, lambda0, tol)
    if screened and tol is None:
        bound = ref.tolerance_used * np.sqrt(ref.required_rank)
        assert ref.tolerance_used <= rep.tolerance_used * (1 + 1e-12)
        assert rep.tolerance_used <= bound * (1 + 1e-12)
        rep = replace(rep, tolerance_used=ref.tolerance_used)
    assert rep == ref
    return screened


def full_window_instance(n, N, selected, eps=0.0, seed=0):
    """DFT columns holding a second full circular window, so rank(S) < mN,
    perturbed by eps times a complex Gaussian."""
    rng = np.random.default_rng(seed)
    A = dft_matrix(n)[:, selected]
    A = A + eps * (rng.standard_normal(A.shape) + 1j * rng.standard_normal(A.shape))
    return A, np.eye(len(selected), N, dtype=np.complex128), np.ones(n)


FULL_WINDOWS = [(12, 3, [0, 1, 2, 5, 6, 7]), (16, 4, [0, 1, 2, 3, 6, 7, 8, 9, 12]),
                (10, 2, [0, 1, 4, 5, 7]), (20, 3, [0, 1, 2, 4, 5, 6, 9, 10, 11, 15])]


class TestSubspaceScreen:
    """Deciding rank(S) = mN by block elimination changes no verdict or rank."""

    def test_matches_stacked_svd_on_seeded_cases(self):
        rng = np.random.default_rng(20)
        screened = 0
        for seed in range(1000):
            n = int(rng.integers(3, 17))
            m = int(rng.integers(1, n))
            N = int(rng.integers(2, 6))
            inst = random_instance(n, m, N, seed=seed)
            X0 = inst.X0
            if seed % 5 == 1:  # a weak first snapshot
                X0 = X0 * np.r_[10.0 ** -rng.uniform(0, 6), np.ones(N - 1)]
            screened += assert_matches_stacked_svd(inst.A, X0, inst.lambda0)
        assert 500 < screened < 1000

    @pytest.mark.parametrize("n, m, N",
                             [(8, 6, 2), (16, 12, 3), (16, 14, 7), (12, 11, 5)])
    def test_below_threshold_declines(self, n, m, N):
        inst = random_instance(n, m, N, seed=n + m + N)
        assert (n - m) * N < n - 1
        assert not assert_matches_stacked_svd(inst.A, inst.X0, inst.lambda0)

    def test_zero_gain_entry(self):
        inst = random_instance(12, 6, 3, seed=21)
        lam = inst.lambda0.copy()
        lam[2] = 0.0
        assert assert_matches_stacked_svd(inst.A, inst.X0, lam)
        assert certify_subspace(inst.A, inst.X0, lam).verdict == NOT_CERTIFIED

    def test_zero_first_snapshot_declines(self):
        inst = random_instance(12, 6, 3, seed=22)
        X0 = inst.X0.copy()
        X0[:, 0] = 0.0
        assert not assert_matches_stacked_svd(inst.A, X0, inst.lambda0)

    @pytest.mark.parametrize("seed", range(5))
    def test_duplicated_columns_decline(self, seed):
        inst = random_instance(12, 6, 4, seed=seed)
        A = inst.A.copy()
        A[:, 4] = A[:, 1]
        assert not assert_matches_stacked_svd(A, inst.X0, inst.lambda0)

    @pytest.mark.parametrize("tol", [0, 0.0, 1e-9, 1e6, 1e-300])
    def test_explicit_tolerance(self, tol):
        for seed in range(20):
            inst = random_instance(10 + seed % 5, 5, 2 + seed % 3, seed=seed)
            assert_matches_stacked_svd(inst.A, inst.X0, inst.lambda0, tol)
        rep = certify_subspace(inst.A, inst.X0, inst.lambda0, tol)
        assert rep.tolerance_used == float(tol)
        assert rep.stacked_rank == (0 if tol == 1e6 else rep.required_rank)

    @pytest.mark.parametrize("c", [1e300, 1e-300])
    def test_extreme_snapshots(self, c):
        for seed in range(10):
            inst = random_instance(16, 8, 3, seed=seed)
            with np.errstate(over="raise", under="ignore"):
                assert assert_matches_stacked_svd(inst.A, inst.X0 * c, inst.lambda0 / c)

    def test_column_permutations(self):
        rng = np.random.default_rng(23)
        for seed in range(20):
            inst = random_instance(14, 8, 3, seed=seed)
            p = rng.permutation(8)
            base = certify_subspace(inst.A, inst.X0, inst.lambda0)
            assert_matches_stacked_svd(inst.A[:, p], inst.X0[p], inst.lambda0)
            rep = certify_subspace(inst.A[:, p], inst.X0[p], inst.lambda0)
            assert (rep.verdict, rep.stacked_rank) == (base.verdict, base.stacked_rank)

    @pytest.mark.parametrize("n, N, selected", FULL_WINDOWS)
    @pytest.mark.parametrize("eps", [0.0, 1e-14, 1e-12, 1e-9, 1e-6, 1e-3])
    def test_perturbed_full_window(self, n, N, selected, eps):
        A, X0, lam = full_window_instance(n, N, selected, eps)
        screened = assert_matches_stacked_svd(A, X0, lam)
        if eps <= 1e-14:  # sigma_min(S) is near or below the cutoff
            assert not screened
        if eps == 0.0:
            assert certify_subspace(A, X0, lam).verdict == NOT_CERTIFIED

    def test_large_pass_builds_nothing(self, monkeypatch):
        module = importlib.import_module("bgpc.certify")

        def refuse(*args, **kwargs):
            raise AssertionError("the stacked matrix was built or factored")

        monkeypatch.setattr(module, "build_stacked", refuse)
        monkeypatch.setattr(module, "numeric_rank", refuse)
        inst = random_instance(128, 96, 8, seed=24)
        rep = certify_subspace(inst.A, inst.X0, inst.lambda0)
        assert (rep.verdict, rep.stacked_rank) == (IDENTIFIABLE, 768)


def eliminated_stack(R, K, X0):
    """U S of the certify module docstring, built from R, the K_j and X0:
    vec(X0)^H, then block rows [-K_j, 0, .., [R; 0], .., 0]."""
    Nm1, n, m = K.shape
    rows = [X0.flatten(order="F").conj()[None, :]]
    for j in range(1, Nm1 + 1):
        block = np.zeros((n, m * (Nm1 + 1)), dtype=np.complex128)
        block[:, :m] = -K[j - 1]
        block[:m, j * m:(j + 1) * m] = R
        rows.append(block)
    return np.vstack(rows)


def sigma_min(M):
    return np.linalg.svd(M, compute_uv=False)[-1]


def complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestEliminationBound:
    """The bound of the certify module docstring never exceeds sigma_min(S)."""

    @pytest.mark.parametrize("R, K, X0", [
        # [[1, 1], [0, 1]]: sigma_min 0.618, bound 0.5; without sqrt(2), 0.707
        ([[1.0]], [[[0.0]]], [[1.0, 1.0]]),
        # [[1, 0], [-10, 1]]: sigma_min 0.099, bound 0.064; without E, 0.707
        ([[1.0]], [[[10.0]]], [[1.0, 0.0]]),
    ])
    def test_two_by_two(self, R, K, X0):
        R, K, X0 = (np.asarray(M, dtype=np.complex128) for M in (R, K, X0))
        assert 0 < _elimination_bound(R, K, X0) <= sigma_min(eliminated_stack(R, K, X0))

    def test_singular_R_declines(self):
        R = np.array([[1.0, 1.0], [0.0, 1e-17]], dtype=np.complex128)
        K = np.ones((1, 3, 2), dtype=np.complex128)
        assert _elimination_bound(R, K, np.eye(2, dtype=np.complex128)) == 0.0

    def test_tiny_R_declines_without_overflow(self):
        # c / r = 1e200: R^-1 K_j^top and T would overflow
        K = np.ones((1, 3, 2), dtype=np.complex128)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _elimination_bound(1e-200 * np.eye(2, dtype=np.complex128), K,
                                      np.ones((2, 2), dtype=np.complex128)) == 0.0

    def test_norm_at_extreme_scales(self):
        M = complex_normal(np.random.default_rng(27), 4, 3)
        for e in (-900, -600, 0, 600, 900):
            assert _norm(np.ldexp(M.view(np.float64), e).view(np.complex128)) == \
                np.ldexp(np.linalg.norm(M), e)
        assert _norm(np.zeros((2, 2), dtype=np.complex128)) == 0.0

    def test_exactly_singular_T_bounded_by_zero(self):
        # X0[:, 1:] = 0, so T's first row is x_0^H and the B_j rows are
        # multiples of it: rank(T) = 1 < m, but the computed T is not exact
        x0 = np.array([0.3 + 0.7j, -1.1 + 0.2j])
        X0 = np.zeros((2, 3), dtype=np.complex128)
        X0[:, 0] = x0
        K = np.zeros((2, 4, 2), dtype=np.complex128)
        K[:, 2:] = np.array([[0.1, 0.7], [1.3, -0.3j]])[:, :, None] * x0.conj()
        S = eliminated_stack(np.eye(2, dtype=np.complex128), K, X0)
        assert np.linalg.svd(S, compute_uv=False)[-1] < 1e-15
        assert _elimination_bound(np.eye(2, dtype=np.complex128), K, X0) <= 0

    def test_random_blocks(self):
        rng = np.random.default_rng(25)
        for _ in range(300):
            m = int(rng.integers(1, 5))
            n = m + int(rng.integers(0, 4))
            N = int(rng.integers(2, 5))
            if 1 + (n - m) * (N - 1) < m:
                continue
            R = np.triu(complex_normal(rng, m, m)) * 10.0 ** rng.uniform(-3, 1, m)
            K = complex_normal(rng, N - 1, n, m) * 10.0 ** rng.uniform(-2, 2)
            X0 = complex_normal(rng, m, N) * 10.0 ** rng.uniform(-2, 2, N)
            S = eliminated_stack(R, K, X0)
            s = np.linalg.svd(S, compute_uv=False)
            assert _elimination_bound(R, K, X0) <= s[-1] + default_cutoff(S.shape, s[0])

    def test_instances_with_a_weak_first_snapshot(self):
        # a small x_0 makes R small against the K_j, where ||E|| matters
        for seed in range(100):
            for n, m, N in [(4, 2, 2), (5, 3, 2), (6, 4, 3)]:
                inst = random_instance(n, m, N, seed=seed)
                for c in (1e-1, 1e-2):
                    X0 = inst.X0 * np.r_[c, np.ones(N - 1)]
                    S = build_stacked(inst.A, X0)
                    s = np.linalg.svd(S, compute_uv=False)
                    low, s_norm = _stacked_bound(inst.A, X0)
                    assert low <= s[-1] + default_cutoff(S.shape, s[0])
                    assert s[0] <= s_norm * (1 + 1e-12)

    @pytest.mark.parametrize("n, N, selected", FULL_WINDOWS)
    def test_exact_rank_deficiency_bounded_by_zero(self, n, N, selected):
        # sigma_min(S) = 0 exactly; only the rounding terms keep the bound
        # computed from the noise in T at or below it
        A, X0, _ = full_window_instance(n, N, selected)
        assert _stacked_bound(A, X0)[0] <= 0

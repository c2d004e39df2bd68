import importlib
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bgpc import (BudgetExceededError, DimensionError, IDENTIFIABLE,
                  NOT_CERTIFIED, build_D_block, build_D_stack, build_stacked,
                  build_stacked_restricted, certify_joint_sparse,
                  certify_subspace, random_instance)
from bgpc.certify import (JOINT_SPARSE, CertificateReport, _lambda_uniqueness,
                          _normalized)
from bgpc.construct import construct_claim1
from bgpc.cxmat import numeric_rank


def vec(X):
    return X.flatten(order="F")


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

    @pytest.mark.parametrize("s", [0, -1, 9])
    def test_sparsity_out_of_range(self, s):
        inst = random_instance(20, 8, 2, seed=17, sparsity=3)
        with pytest.raises(DimensionError, match=r"requires 1 <= s <= m"):
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

import importlib
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bgpc import (AMBIGUOUS, DEGENERATE_GAMMA, UNIQUE, align_scale, forward,
                  numeric_rank, random_instance, recover, recover_joint_sparse)
from bgpc.errors import BudgetExceededError, DimensionError
from bgpc.recover import (DEFAULT_GAMMA_TOL, EQUIVALENCE_TOL, _degenerate,
                          _gamma_system, _solve_gamma, build_recovery_system)


class TestBuildSystem:
    def test_single_equation(self):
        L = build_recovery_system([[3.0]], [[2.0]])
        np.testing.assert_allclose(L, [[2.0, -3.0]])

    def test_true_solution_annihilated(self):
        inst = random_instance(8, 4, 2, seed=0)
        L = build_recovery_system(forward(inst), inst.A)
        sol = np.concatenate([inst.X0.flatten(order="F"), 1.0 / inst.lambda0])
        assert np.linalg.norm(L @ sol) / np.linalg.norm(sol) < 1e-9

    def test_shape(self):
        inst = random_instance(8, 4, 2, seed=1)
        assert build_recovery_system(forward(inst), inst.A).shape == (16, 16)

    def test_matches_entrywise_definition(self):
        inst = random_instance(7, 3, 4, seed=17)
        Y, A = forward(inst), inst.A
        n, m, N = 7, 3, 4
        ref = np.zeros((n * N, m * N + n), dtype=np.complex128)
        for j in range(N):
            for k in range(n):
                ref[j * n + k, j * m:(j + 1) * m] = A[k, :]
                ref[j * n + k, m * N + k] = -Y[k, j]
        np.testing.assert_array_equal(build_recovery_system(Y, A), ref)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            build_recovery_system(np.ones((3, 2)), np.ones((4, 2)))


class TestRecover:
    def test_identifiable_instance(self):
        inst = random_instance(8, 4, 2, seed=2)
        res = recover(forward(inst), inst.A)
        assert res.status == UNIQUE and res.null_dim == 1
        ax = align_scale(res.X, inst.X0)
        al = align_scale(res.lam[:, None], inst.lambda0[:, None])
        assert ax.relative_error <= 1e-8
        assert al.relative_error <= 1e-8
        # the two alignment scales are reciprocal
        assert abs(ax.sigma * al.sigma - 1.0) < 1e-6

    def test_reproduces_measurements(self):
        inst = random_instance(10, 4, 2, seed=3)
        Y = forward(inst)
        res = recover(Y, inst.A)
        Yhat = res.lam[:, None] * (inst.A @ res.X)
        assert np.linalg.norm(Yhat - Y) / np.linalg.norm(Y) < 1e-8

    def test_below_threshold_ambiguous(self):
        # unknown count mN + n = 20 exceeds the 16 equations
        inst = random_instance(8, 6, 2, seed=4)
        res = recover(forward(inst), inst.A)
        assert res.status == AMBIGUOUS
        assert res.null_dim >= 4

    def test_zero_gain_never_unique(self):
        inst = random_instance(8, 4, 2, seed=5)
        lam = inst.lambda0.copy()
        lam[0] = 0.0
        Y = lam[:, None] * (inst.A @ inst.X0)
        res = recover(Y, inst.A)
        assert res.status != UNIQUE

    def test_gamma_lambda_reciprocity(self):
        inst = random_instance(9, 4, 2, seed=6)
        res = recover(forward(inst), inst.A)
        assert res.status == UNIQUE
        np.testing.assert_allclose(res.lam * res.gamma, 1.0, atol=1e-8)

    def test_degenerate_gamma(self, degenerate_gamma_pair):
        res = recover(*degenerate_gamma_pair)
        assert res.status == DEGENERATE_GAMMA and res.null_dim == 1
        assert abs(res.gamma[0]) <= 1e-8 * np.max(np.abs(res.gamma))
        assert res.lam is None

    def test_rank_deficient_dictionary_ambiguous(self):
        inst = random_instance(10, 4, 3, seed=14)
        A = inst.A.copy()
        A[:, 3] = A[:, 0]
        Y = inst.lambda0[:, None] * (A @ inst.X0)
        res = recover(Y, A)
        # one null(A) direction per snapshot on top of the gamma line
        assert res.status == AMBIGUOUS and res.null_dim == 1 + 3

    def test_explicit_tol_cuts_gamma_system_not_A(self):
        # A's singular values (~1e-6) sit far below tol, G's (~0.1) above it
        inst = random_instance(8, 4, 2, seed=2)
        res = recover(forward(inst), inst.A * 1e-6, tol=1e-3)
        assert res.status == UNIQUE
        assert align_scale(res.X, inst.X0).relative_error <= 1e-8

    @pytest.mark.parametrize("call", [
        lambda Y, A: recover(Y, A, tol=-1.0),
        lambda Y, A: recover_joint_sparse(Y, A, 2, tol=-1.0),
    ])
    def test_negative_tolerance_rejected(self, call, monkeypatch):
        inst = random_instance(8, 4, 2, seed=15)

        def no_svd(*args, **kwargs):
            raise AssertionError("factorized before validating tol")
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        with pytest.raises(ValueError, match="nonnegative"):
            call(forward(inst), inst.A)


def oracle_null_dim(Y, A):
    L = build_recovery_system(Y, A)
    return L.shape[1] - numeric_rank(L).numeric_rank


def rank_deficient(inst):
    A = inst.A.copy()
    A[:, -1] = A[:, 0]
    return inst.lambda0[:, None] * (A @ inst.X0), A


class TestReducedSystemMatchesFullSystem:
    """recover's nullity equals the full (vec X, gamma) system's, seed by seed."""

    @pytest.mark.parametrize("n,m,N,make", [
        (8, 4, 2, None),            # identifiable
        (12, 9, 3, None),           # identifiable, near the threshold
        (8, 6, 2, None),            # below the threshold
        (10, 7, 1, None),           # one snapshot
        (10, 4, 3, rank_deficient),
        (9, 5, 2, rank_deficient),
    ])
    def test_null_dim(self, n, m, N, make):
        for seed in range(20):
            inst = random_instance(n, m, N, seed=seed)
            Y, A = (forward(inst), inst.A) if make is None else make(inst)
            assert recover(Y, A).null_dim == oracle_null_dim(Y, A), seed

    def test_square_dictionary_leaves_gamma_free(self):
        rng = np.random.default_rng(16)
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        Y = rng.standard_normal((5, 2)) + 0j
        res = recover(Y, A)
        assert res.status == AMBIGUOUS
        assert res.null_dim == oracle_null_dim(Y, A) == 5

    def test_zero_dictionary_column(self):
        Y = np.arange(1.0, 7.0)[:, None]
        A = np.zeros((6, 1))
        res = recover(Y, A)
        assert res.null_dim == oracle_null_dim(Y, A) == 1
        assert res.status == DEGENERATE_GAMMA
        np.testing.assert_array_equal(res.gamma, 0.0)


def shapes():
    return st.integers(3, 16).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(1, n - 1), st.integers(1, 4)))


class TestModelSymmetries:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(shape=shapes(), seed=st.integers(0, 2 ** 31 - 1),
           k=st.integers(-150, 150))
    def test_units_of_Y(self, shape, seed, k):
        inst = random_instance(*shape, seed=seed)
        Y = forward(inst)
        ref = recover(Y, inst.A)
        res = recover(Y * 10.0 ** k, inst.A)
        assert (res.status, res.null_dim) == (ref.status, ref.null_dim)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(shape=shapes(), seed=st.integers(0, 2 ** 31 - 1))
    def test_column_permutation_of_A(self, shape, seed):
        inst = random_instance(*shape, seed=seed)
        Y = forward(inst)
        perm = np.random.default_rng(seed).permutation(inst.m)
        ref = recover(Y, inst.A)
        res = recover(Y, inst.A[:, perm])
        assert res.status == ref.status
        if ref.status == UNIQUE:
            err = align_scale(res.lam[:, None], ref.lam[:, None]).relative_error
            assert err <= 1e-8

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(shape=shapes(), seed=st.integers(0, 2 ** 31 - 1),
           k=st.integers(-150, 150))
    def test_positive_scale_of_A(self, shape, seed, k):
        inst = random_instance(*shape, seed=seed)
        Y = forward(inst)
        ref = recover(Y, inst.A)
        assert recover(Y, inst.A * 10.0 ** k).status == ref.status


class TestRecoverJointSparse:
    def test_planted_support(self):
        inst = random_instance(16, 8, 2, seed=7, sparsity=3)
        res = recover_joint_sparse(forward(inst), inst.A, 3)
        assert res.status == UNIQUE
        assert res.support == inst.support
        assert align_scale(res.X, inst.X0).relative_error <= 1e-8

    def test_full_support_matches_dense(self):
        inst = random_instance(12, 4, 2, seed=8, sparsity=4)
        sparse = recover_joint_sparse(forward(inst), inst.A, 4)
        dense = recover(forward(inst), inst.A)
        assert sparse.status == dense.status == UNIQUE
        assert align_scale(sparse.X, dense.X).relative_error < 1e-10

    def test_equation_deficit_ambiguous(self):
        # nN = 10 equations vs sN + n = 14 unknowns per support
        inst = random_instance(10, 6, 1, seed=9, sparsity=2)
        Y = forward(inst)
        res = recover_joint_sparse(Y, inst.A, 2)
        assert res.status == AMBIGUOUS

    @pytest.mark.parametrize("seed", range(3))
    def test_units_of_Y_do_not_merge_distinct_hits(self, seed):
        # with s = 1, Y has rank 1 and every column fits: Ambiguous at any
        # units of Y, although the norms of the hits overflow near 1e300
        inst = random_instance(10, 6, 3, seed, sparsity=1)
        Y = forward(inst)
        assert recover_joint_sparse(Y, inst.A, 1).status == AMBIGUOUS
        with np.errstate(over="raise"):
            assert recover_joint_sparse(Y * 1e300, inst.A, 1).status == AMBIGUOUS

    def test_budget_refusal(self):
        inst = random_instance(16, 8, 2, seed=10, sparsity=3)
        with pytest.raises(BudgetExceededError):
            recover_joint_sparse(forward(inst), inst.A, 3, max_cells=5)

    def test_hypothesis_rejected(self):
        inst = random_instance(8, 8, 2, seed=11, sparsity=4)
        with pytest.raises(DimensionError):
            recover_joint_sparse(forward(inst), inst.A, 4)

    @pytest.mark.parametrize("s", [0, -1, 9])
    def test_sparsity_out_of_range(self, s):
        # s > m with n > 2s used to enumerate nothing and report Ambiguous
        inst = random_instance(20, 8, 2, seed=11, sparsity=3)
        with pytest.raises(DimensionError, match=r"requires 1 <= s <= m"):
            recover_joint_sparse(forward(inst), inst.A, s)


def solve_every_cell(Y, A, s, tol):
    """The joint-sparse enumeration with _solve_gamma on every cell."""
    m, N = A.shape[1], Y.shape[1]
    hits = []
    max_null = 0
    for J in combinations(range(m), s):
        null_dim, gamma, XJ = _solve_gamma(Y, A[:, list(J)], tol)
        max_null = max(max_null, null_dim)
        if gamma is None or _degenerate(gamma, DEFAULT_GAMMA_TOL):
            continue
        X = np.zeros((m, N), dtype=np.complex128)
        X[list(J), :] = XJ
        hits.append((J, X, gamma))
    if not hits:
        return AMBIGUOUS, max_null, None, None
    J_ref, X_ref, g_ref = hits[0]
    ref = np.concatenate([X_ref.flatten(order="F"), g_ref])[None, :]
    for _, X, gamma in hits[1:]:
        cand = np.concatenate([X.flatten(order="F"), gamma])[None, :]
        if align_scale(cand, ref).relative_error > EQUIVALENCE_TOL:
            return AMBIGUOUS, 1, None, None
    return UNIQUE, 1, tuple(J_ref), X_ref


def assert_matches_every_cell(Y, A, s, tol):
    """recover_joint_sparse agrees with solve_every_cell, X bitwise."""
    status, null_dim, support, X = solve_every_cell(Y, A, s, tol)
    res = recover_joint_sparse(Y, A, s, tol=tol)
    assert (res.status, res.null_dim, res.support) == (status, null_dim, support)
    assert res.X is None if X is None else res.X.tobytes() == X.tobytes()
    return support


class TestJointSparseScreen:
    """Cells ruled out from singular values alone change no result.

    The instances reach every branch of the screen: cells with
    rank(A[:, J]) < s (a duplicated column), cells whose G is marginal
    (Y + 1e-13 by default, Y + 1e-9 at tol = 1e-9), cells of deficient
    rank, and instances with no solution at all (Y + 1e-9 by default).
    """

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("duplicate", [False, True], ids=["distinct", "dup"])
    @pytest.mark.parametrize("noise", [0.0, 1e-9, 1e-13])
    @pytest.mark.parametrize("tol", [None, 1e-9])
    def test_matches_solving_every_cell(self, seed, duplicate, noise, tol):
        inst = random_instance(14, 8, 2, seed=seed, sparsity=3)
        A = inst.A.copy()
        if duplicate:
            A[:, 5] = A[:, 1]
        Y = inst.lambda0[:, None] * (A @ inst.X0) + noise
        assert_matches_every_cell(Y, A, 3, tol)

    @pytest.mark.parametrize("seed", range(8))
    def test_cutoff_at_the_smallest_singular_value(self, seed):
        # tol is the smallest singular value of the planted cell's G from
        # the full SVD, which cuts it; the values-only SVD can put it a few
        # ulps higher, above the cutoff. Such a cell is marginal, so it is
        # solved and not screened out (the planted solution survives).
        inst = random_instance(14, 8, 2, seed=seed, sparsity=3)
        Y = forward(inst) + 1e-9
        *_, G = _gamma_system(Y, inst.A[:, list(inst.support)])
        tol = float(np.linalg.svd(G, full_matrices=True)[1][-1])
        assert assert_matches_every_cell(Y, inst.A, 3, tol) == inst.support

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("n, m, s, N, tol", [
        (20, 12, 3, 3, None), (16, 10, 2, 4, None),
        (14, 8, 3, 1, None),  # N = 1: G_K has fewer than n rows, no pruning
        (14, 8, 3, 2, 0.0),   # tol = 0: the cutoff bound is 0, no pruning
    ])
    @pytest.mark.parametrize("noise", [0.0, 1e-9])
    def test_subtree_screen_matches_solving_every_cell(self, seed, n, m, s, N,
                                                       tol, noise):
        inst = random_instance(n, m, N, seed=seed, sparsity=s)
        assert_matches_every_cell(forward(inst) + noise, inst.A, s, tol)

    def test_only_the_planted_cell_is_solved(self, monkeypatch):
        # a regression to solving every cell fails here without any timing
        module = importlib.import_module("bgpc.recover")
        calls = []
        monkeypatch.setattr(module, "_solve_gamma",
                            lambda *a: calls.append(a) or _solve_gamma(*a))
        inst = random_instance(20, 12, 3, seed=5, sparsity=3)
        res = recover_joint_sparse(forward(inst), inst.A, 3)
        assert res.status == UNIQUE and res.support == inst.support
        assert len(calls) == 1

    def test_large_units_screen_without_overflow(self, monkeypatch):
        # A and Y near 1e250: the screen's rounding term must stay finite,
        # or nothing is ruled out and every cell is solved
        module = importlib.import_module("bgpc.recover")
        calls = []
        monkeypatch.setattr(module, "_solve_gamma",
                            lambda *a: calls.append(a) or _solve_gamma(*a))
        inst = random_instance(20, 12, 3, seed=5, sparsity=3)
        ref = recover_joint_sparse(forward(inst), inst.A, 3)
        solved = len(calls)
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = recover_joint_sparse(forward(inst) * 1e250, inst.A * 1e250, 3)
        assert (res.status, res.support) == (ref.status, ref.support) == (
            UNIQUE, inst.support)
        assert len(calls) == solved


class TestOracleAgreement:
    def test_certificate_matches_recovery(self):
        from bgpc import IDENTIFIABLE, certify_subspace
        from bgpc.errors import InconsistentSystemError
        rng = np.random.default_rng(12)
        agree = 0
        for _ in range(60):
            n = int(rng.integers(6, 13))
            m = int(rng.integers(2, n))
            inst = random_instance(n, m, 2, seed=int(rng.integers(1 << 31)))
            rep = certify_subspace(inst.A, inst.X0, inst.lambda0)
            try:
                res = recover(forward(inst), inst.A)
                unique_null = res.null_dim == 1
            except InconsistentSystemError:
                unique_null = False
            assert (rep.verdict == IDENTIFIABLE) == unique_null
            agree += 1
        assert agree == 60

import importlib
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bgpc import (AMBIGUOUS, DEGENERATE_GAMMA, UNIQUE, align_scale, forward,
                  numeric_rank, random_instance, recover, recover_joint_sparse)
from bgpc.cxmat import SCREEN_SAFETY, clears, default_cutoff
from bgpc.errors import BudgetExceededError, DimensionError
from bgpc.recover import (EQUIVALENCE_TOL, _degenerate,
                          _gamma_system, _root_screen, _solve_gamma,
                          build_recovery_system)


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

    def test_inconsistent_measurements_ambiguous(self):
        # a random Y fits no gamma: G is square and of full rank, and
        # rank(A) = m leaves no null(A) direction either; recovery reports
        # that as recover_joint_sparse does, not as an error
        inst = random_instance(8, 4, 2, seed=2)
        Y = np.random.default_rng(2).standard_normal((8, 2)) + 0j
        res = recover(Y, inst.A)
        assert (res.status, res.null_dim) == (AMBIGUOUS, 0)
        assert (res.gamma, res.lam, res.X, res.support) == (None,) * 4

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
        if gamma is None or _degenerate(gamma):
            continue
        X = np.zeros((m, N), dtype=np.complex128)
        X[list(J), :] = XJ
        hits.append((J, X, gamma))
    if not hits:
        return AMBIGUOUS, max_null, None, None, None
    J_ref, X_ref, g_ref = hits[0]
    ref = np.concatenate([X_ref.flatten(order="F"), g_ref])[None, :]
    for _, X, gamma in hits[1:]:
        cand = np.concatenate([X.flatten(order="F"), gamma])[None, :]
        if align_scale(cand, ref).relative_error > EQUIVALENCE_TOL:
            return AMBIGUOUS, 1, None, None, None
    return UNIQUE, 1, tuple(J_ref), X_ref, g_ref


def assert_matches_every_cell(Y, A, s, tol):
    """recover_joint_sparse agrees with solve_every_cell, gamma and X bitwise."""
    status, null_dim, support, X, gamma = solve_every_cell(Y, A, s, tol)
    res = recover_joint_sparse(Y, A, s, tol=tol)
    assert (res.status, res.null_dim, res.support) == (status, null_dim, support)
    assert res.X is None if X is None else res.X.tobytes() == X.tobytes()
    assert (res.gamma is None if gamma is None
            else res.gamma.tobytes() == gamma.tobytes())
    return support


def near_duplicate(inst, inside: bool, eps: float = 1e-4):
    """inst's (Y, A) with one column of A moved within eps of another, both
    columns inside the planted support or both outside it."""
    cols = [j for j in range(inst.m) if (j in inst.support) == inside][:2]
    rng = np.random.default_rng(1000)
    A = inst.A.copy()
    A[:, cols[1]] = A[:, cols[0]] + eps * (rng.standard_normal(inst.n)
                                           + 1j * rng.standard_normal(inst.n))
    return inst.lambda0[:, None] * (A @ inst.X0), A


def orthonormal(inst):
    """inst's (Y, A) with A's columns orthonormalized: kappa(A) = 1."""
    A = np.linalg.qr(inst.A)[0]
    return inst.lambda0[:, None] * (A @ inst.X0), A


# (Y, A) variants of a planted instance; at (20, 12, 3, 3) the root counts
# for all of them but near_dup_in, whose A is too close to rank deficient
ROOT_VARIANTS = {
    "plain": lambda inst: (forward(inst), inst.A),
    "noise 1e-14": lambda inst: (forward(inst) + 1e-14, inst.A),
    "noise 1e-13": lambda inst: (forward(inst) + 1e-13, inst.A),
    "noise 1e-9": lambda inst: (forward(inst) + 1e-9, inst.A),
    "orthonormal": orthonormal,
    "near_dup_in": lambda inst: near_duplicate(inst, inside=True),
    "near_dup_out": lambda inst: near_duplicate(inst, inside=False),
    "Y*1e300": lambda inst: (forward(inst) * 1e300, inst.A),
    "Y*1e-300": lambda inst: (forward(inst) * 1e-300, inst.A),
    "A*1e250": lambda inst: (forward(inst), inst.A * 1e250),
    "A*1e-250": lambda inst: (forward(inst), inst.A * 1e-250),
    "A,Y*1e250": lambda inst: (forward(inst) * 1e250, inst.A * 1e250),
}


# (Y, A, tol) variants of a planted instance at (20, 12, 3, 3) whose root is
# tried and declined: A's rank is not clear (an exact duplicate), or the
# bound rules out too little (near-duplicates, Y too small for tol)
DECLINED_ROOT_VARIANTS = {
    "exact_dup_in": lambda inst: (*near_duplicate(inst, True, 0.0), None),
    "exact_dup_out": lambda inst: (*near_duplicate(inst, False, 0.0), None),
    "near_dup_1e-12_in": lambda inst: (*near_duplicate(inst, True, 1e-12), None),
    "near_dup_1e-12_out": lambda inst: (*near_duplicate(inst, False, 1e-12), None),
    "near_dup_1e-8_in": lambda inst: (*near_duplicate(inst, True, 1e-8), None),
    "near_dup_1e-8_out": lambda inst: (*near_duplicate(inst, False, 1e-8), None),
    "near_dup_1e-4_in": lambda inst: (*near_duplicate(inst, True), None),
    "Y*1e-300, tol 1e-9": lambda inst: (forward(inst) * 1e-300, inst.A, 1e-9),
}


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
        (14, 8, 3, 2, 0.0),   # tol = 0: a bound clears the cutoff 0 when positive
    ])
    @pytest.mark.parametrize("noise", [0.0, 1e-9])
    def test_subtree_screen_matches_solving_every_cell(self, seed, n, m, s, N,
                                                       tol, noise):
        inst = random_instance(n, m, N, seed=seed, sparsity=s)
        assert_matches_every_cell(forward(inst) + noise, inst.A, s, tol)

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("N", [3, 2], ids=["root", "no_root"])
    @pytest.mark.parametrize("variant", [
        "plain", "near_dup_in", "near_dup_out", "Y*1e300", "Y*1e-300",
        "A,Y*1e250"])
    @pytest.mark.parametrize("tol", [None, 1e-9, 0.0])
    def test_root_screen_matches_solving_every_cell(self, seed, N, variant, tol):
        # at N = 2, (n - m) N < n: the root does not count, and the walk
        # screens nodes of at most 10 columns
        inst = random_instance(20, 12, N, seed=seed, sparsity=3)
        assert_matches_every_cell(*ROOT_VARIANTS[variant](inst), 3, tol)

    @pytest.mark.parametrize("variant", list(DECLINED_ROOT_VARIANTS))
    def test_declined_root_matches_solving_every_cell(self, variant):
        inst = random_instance(20, 12, 3, seed=1, sparsity=3)
        Y, A, tol = DECLINED_ROOT_VARIANTS[variant](inst)
        c = 3 ** 0.5 * float(np.max(np.abs(Y)))
        bound = tol or default_cutoff(((20 - 3) * 3, 20), c)
        assert _root_screen(Y, A, 3, c, bound) is None
        assert_matches_every_cell(Y, A, 3, tol)

    @pytest.mark.parametrize("n, m, s, N, seed, variant, tol, svds, cells, null_dim", [
        (20, 12, 3, 3, 5, "plain", None, 4, 1, 1),
        (20, 12, 3, 2, 5, "plain", None, 22, 5, 1),
        (16, 10, 2, 4, 5, "plain", None, 14, 4, 1),
        (20, 12, 3, 3, 5, "plain", 0.0, 4, 1, 0),
        (20, 12, 3, 2, 5, "plain", 0.0, 22, 5, 0),
        (16, 10, 2, 4, 5, "plain", 0.0, 14, 4, 0),
        (20, 12, 3, 3, 5, "Y*1e-300", 1e-9, 440, 220, 20),
        (16, 10, 2, 4, 0, "exact_dup_in", None, 130, 45, 5),
        (16, 10, 2, 4, 1, "exact_dup_in", None, 147, 45, 5),
        (16, 10, 2, 4, 2, "exact_dup_in", None, 146, 45, 5)])
    def test_svd_count(self, monkeypatch, svd_calls, n, m, s, N, seed, variant,
                       tol, svds, cells, null_dim):
        # a regression to solving every cell, or to screening nodes that
        # cannot count, fails here without any timing: with the root, one
        # SVD of A and one of G_root, then the planted cell's two; without
        # it (N = 2, and N = 4 > s), two per node of few enough columns to
        # count and two per cell solved, the first few cells being yielded
        # before any node below the root counts. At tol = 0 the nodes
        # screen as at the default cutoff; the planted cell's sigma_n(G) is
        # a rounding error above 0, so no cell has a null vector. With
        # Y * 1e-300 no bound can clear 10x tol = 1e-9, so no node is
        # factored and each cell costs its own two SVDs. With a duplicate
        # column inside the support, every node holding both copies fails
        # the rank clearance and is descended, so all 45 cells are solved
        # and those nodes cost more than the 90 SVDs of solving every cell
        module = importlib.import_module("bgpc.recover")
        solved = []
        monkeypatch.setattr(module, "_solve_gamma",
                            lambda *a: solved.append(a) or _solve_gamma(*a))
        inst = random_instance(n, m, N, seed=seed, sparsity=s)
        Y, A = (near_duplicate(inst, True, 0.0) if variant == "exact_dup_in"
                else ROOT_VARIANTS[variant](inst))
        res = recover_joint_sparse(Y, A, s, tol=tol)
        if null_dim == 1:
            assert res.status == UNIQUE and res.support == inst.support
        else:
            assert (res.status, res.null_dim) == (AMBIGUOUS, null_dim)
        assert (len(svd_calls), len(solved)) == (svds, cells)

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("variant", [v for v in ROOT_VARIANTS if v != "near_dup_in"])
    def test_root_solves_only_the_heavy_cell(self, monkeypatch, seed, variant):
        # when the root counts it is the only node screened: every cell
        # that misses one of the s heaviest rows of the root's X is ruled
        # out at once
        module = importlib.import_module("bgpc.recover")
        screened, solved = [], []
        monkeypatch.setattr(module, "_root_screen", lambda *a: (
            screened.append(a[1].shape[1]) or _root_screen(*a)))
        monkeypatch.setattr(module, "_solve_gamma",
                            lambda *a: solved.append(a) or _solve_gamma(*a))
        inst = random_instance(20, 12, 3, seed=seed, sparsity=3)
        Y, A = ROOT_VARIANTS[variant](inst)
        rows, _ = _root_screen(Y, A, 3, 3 ** 0.5 * float(np.max(np.abs(Y))), 0.0)
        heavy = tuple(i for i, w in enumerate(rows) if w >= sorted(rows)[-3])
        res = recover_joint_sparse(Y, A, 3)
        assert screened == [12]
        if variant == "noise 1e-9":
            # no gamma fits: J* is ruled out too
            assert (res.status, res.null_dim, solved) == (AMBIGUOUS, 0, [])
            return
        assert heavy == inst.support
        assert [a[1].tobytes() for a in solved] == [A[:, list(heavy)].tobytes()]
        if variant != "noise 1e-13":  # there the planted cell is marginal
            assert (res.status, res.support) == (UNIQUE, heavy)

    def test_tie_at_the_s_th_weight_solves_no_cell(self, monkeypatch):
        # s + 1 rows at or above w_s: every s-cell misses one of them, so
        # the root leaves no cell, as the bound of each would find
        module = importlib.import_module("bgpc.recover")
        seen, solved = [], []

        def tied(Y, A, s, y_max, bound):
            rows, low = _root_screen(Y, A, s, y_max, bound)
            order = np.argsort(rows)
            rows = list(rows)
            rows[order[-s - 1]] = rows[order[-s]]
            seen.append((rows, low, bound))
            return rows, low

        monkeypatch.setattr(module, "_root_screen", tied)
        monkeypatch.setattr(module, "_solve_gamma",
                            lambda *a: solved.append(a) or _solve_gamma(*a))
        inst = random_instance(20, 12, 3, seed=5, sparsity=3)
        res = recover_joint_sparse(forward(inst), inst.A, 3)
        assert (res.status, res.null_dim, solved) == (AMBIGUOUS, 0, [])
        [(rows, low, bound)] = seen  # the root alone is screened
        assert all(clears(low(sum(w for i, w in enumerate(rows) if i not in J)),
                          SCREEN_SAFETY * bound)
                   for J in combinations(range(12), 3))

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


class TestRootBound:
    """A node's bound, over every column set K of its dictionary: never
    above the computed sigma_n(G_J) of a cell inside K, and never above the
    same bound formed from rho_K = ||P_perp,K diag(gamma) Y||_F projected
    directly, with no rounding terms. Its value at the s-th heaviest row
    weight is never above sigma_n(G_J) of a cell missing a heavy row."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shape", [(12, 8, 3, 3), (10, 5, 2, 2), (20, 12, 3, 2)])
    @pytest.mark.parametrize("variant", [
        v for v in ROOT_VARIANTS if v != "near_dup_in"])
    def test_bound_below_every_cell(self, seed, shape, variant):
        # the noise 1e-14 and 1e-13 is about the cells' cutoff
        # max((n-s)N, n) eps c, c ~ 10; with orthonormal columns of A the
        # Schur complement step is tight
        n, m, s, N = shape
        inst = random_instance(n, m, N, seed=seed, sparsity=s)
        Y, A = ROOT_VARIANTS[variant](inst)
        if (n - m) * N < n:
            # the root is declined; take the inner node that drops the last
            # two columns outside the planted support, with (n - m) N = n
            outside = [j for j in range(m) if j not in inst.support]
            A = A[:, [j for j in range(m) if j not in outside[-2:]]]
            m -= 2
        c = N ** 0.5 * float(np.max(np.abs(Y)))
        rows, low_of_weight = _root_screen(Y, A, s, c, 0.0)

        def node_low(K):
            return low_of_weight(sum(w for i, w in enumerate(rows) if i not in K))

        sigma_n = {}
        for J in combinations(range(m), s):
            *_, r, G = _gamma_system(Y, A[:, list(J)])
            assert r == s
            sigma_n[J] = np.linalg.svd(G, full_matrices=True)[1][-1]
        # the bound in units of c, from the root's SVD and a QR per node
        *_, G = _gamma_system(Y, A)
        _, sG, VhG = np.linalg.svd(G, full_matrices=False)
        sigma2, tau = sG[-2] / c, sG[-1] / c
        Z = VhG[-1].conj()[:, None] * (Y / c)
        ruled_out = 0
        for k in range(s, m + 1):
            for K in combinations(range(m), k):
                low = node_low(K)
                assert low <= min(v for J, v in sigma_n.items() if set(J) <= set(K))
                Q = np.linalg.qr(A[:, list(K)])[0]
                rho = np.linalg.norm(Z - Q @ (Q.conj().T @ Z))
                h = (rho * sigma2 - tau) / np.hypot(sigma2 + 1.0, rho + tau)
                assert low <= c * max(h, tau)
                ruled_out += low > 0
        assert ruled_out > 0
        # the heavy-cell step: low(w_s) bounds every cell that misses one of
        # the rows at least as heavy as the s-th heaviest
        w_s = sorted(rows)[-s]
        heavy = {i for i, w in enumerate(rows) if w >= w_s}
        missing = [v for J, v in sigma_n.items() if not heavy <= set(J)]
        assert 0 < low_of_weight(w_s) <= min(missing)


class TestOracleAgreement:
    def test_certificate_matches_recovery(self):
        from bgpc import IDENTIFIABLE, certify_subspace
        rng = np.random.default_rng(12)
        agree = 0
        for _ in range(60):
            n = int(rng.integers(6, 13))
            m = int(rng.integers(2, n))
            inst = random_instance(n, m, 2, seed=int(rng.integers(1 << 31)))
            rep = certify_subspace(inst.A, inst.X0, inst.lambda0)
            res = recover(forward(inst), inst.A)
            assert (rep.verdict == IDENTIFIABLE) == (res.null_dim == 1)
            agree += 1
        assert agree == 60

    def test_joint_sparse_certificate_implies_recovery(self):
        # one way only: recovery's cells are s-subsets, while the certificate
        # asks full rank of every union of up to 2s columns
        from bgpc import IDENTIFIABLE, certify_joint_sparse
        rng = np.random.default_rng(18)
        certified = 0
        for _ in range(60):
            n = int(rng.integers(7, 15))
            s = int(rng.integers(1, (n - 1) // 2 + 1))
            m = int(rng.integers(s, min(n, 10) + 1))
            N = int(rng.integers(2, 5))
            inst = random_instance(n, m, N, seed=int(rng.integers(1 << 31)),
                                   sparsity=s)
            rep = certify_joint_sparse(inst.A, inst.X0, inst.lambda0, s)
            if rep.verdict == IDENTIFIABLE:
                res = recover_joint_sparse(forward(inst), inst.A, s)
                assert (res.status, res.support) == (UNIQUE, inst.support)
                certified += 1
        assert certified >= 30

    def test_joint_sparse_recovery_without_certificate(self):
        # the converse fails: a union J0 u J1 of 12 columns gathers
        # |J| N = 36 columns of S over 1 + n(N - 1) = 33 rows, so no such
        # cell can pass, yet the planted support is the only s-cell that fits
        from bgpc import NOT_CERTIFIED, certify_joint_sparse
        inst = random_instance(16, 12, 3, seed=0, sparsity=7)
        rep = certify_joint_sparse(inst.A, inst.X0, inst.lambda0, 7)
        res = recover_joint_sparse(forward(inst), inst.A, 7)
        assert rep.verdict == NOT_CERTIFIED
        assert (res.status, res.support) == (UNIQUE, inst.support)

    @pytest.mark.parametrize("n, m, s, N", [(16, 14, 5, 2), (16, 14, 6, 3)])
    def test_joint_sparse_recovery_below_the_threshold(self, n, m, s, N):
        # one step below ceil((n - 1)/(n - 2s)) = N + 1 the certificate's
        # full-rank condition fails, yet recovery still returns the planted
        # support: the two agree one way only
        from bgpc import (NOT_CERTIFIED, certify_joint_sparse,
                          min_samples_joint_sparse)
        assert min_samples_joint_sparse(n, s) == N + 1
        for seed in range(4):
            inst = random_instance(n, m, N, seed=seed, sparsity=s)
            rep = certify_joint_sparse(inst.A, inst.X0, inst.lambda0, s)
            res = recover_joint_sparse(forward(inst), inst.A, s)
            assert (rep.verdict, rep.condition1_rank_full) == (NOT_CERTIFIED, False)
            assert (res.status, res.support) == (UNIQUE, inst.support), seed

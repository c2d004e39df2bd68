from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bgpc import (BGPCInstance, DimensionError, align_scale, forward,
                  min_samples_joint_sparse, min_samples_subspace,
                  random_instance)
from bgpc.model import gain_count_suffices, support_cells


def forward_oracle(inst):
    # independent brute-force triple loop
    Y = np.zeros((inst.n, inst.N), dtype=np.complex128)
    for k in range(inst.n):
        for j in range(inst.N):
            acc = 0.0 + 0.0j
            for l in range(inst.m):
                acc += inst.A[k, l] * inst.X0[l, j]
            Y[k, j] = inst.lambda0[k] * acc
    return Y


class TestForward:
    def test_unit_gains(self):
        inst = random_instance(6, 3, 2, seed=0)
        ones = BGPCInstance(n=6, m=3, N=2, lambda0=np.ones(6, dtype=complex),
                            X0=inst.X0, A=inst.A)
        np.testing.assert_allclose(forward(ones), inst.A @ inst.X0)

    def test_identity_dictionary(self):
        n = 4
        lam = np.arange(1, n + 1) + 1j
        inst = BGPCInstance(n=n, m=n, N=n, lambda0=lam,
                            X0=np.eye(n, dtype=complex),
                            A=np.eye(n, dtype=complex))
        np.testing.assert_allclose(forward(inst), np.diag(lam))

    def test_matches_triple_loop(self):
        inst = random_instance(8, 4, 2, seed=7)
        np.testing.assert_allclose(forward(inst), forward_oracle(inst),
                                   atol=1e-12)

    def test_scaling_ambiguity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            inst = random_instance(8, 4, 2, seed=int(rng.integers(1 << 31)))
            sigma = complex(rng.standard_normal() + 1j * rng.standard_normal())
            scaled = BGPCInstance(n=8, m=4, N=2,
                                  lambda0=sigma * inst.lambda0,
                                  X0=inst.X0 / sigma, A=inst.A)
            np.testing.assert_allclose(forward(scaled), forward(inst),
                                       atol=1e-10)


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance(8, 4, 2, seed=123)
        b = random_instance(8, 4, 2, seed=123)
        np.testing.assert_array_equal(a.lambda0, b.lambda0)
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.X0, b.X0)

    def test_seeds_differ(self):
        a = random_instance(8, 4, 2, seed=1)
        b = random_instance(8, 4, 2, seed=2)
        assert not np.allclose(a.A, b.A)

    def test_sparse_support(self):
        inst = random_instance(12, 5, 2, seed=9, sparsity=2)
        nz = [i for i in range(5) if np.any(inst.X0[i, :] != 0)]
        assert nz == list(inst.support)
        assert len(nz) == 2

    def test_forward_no_zero_rows(self):
        for seed in range(20):
            inst = random_instance(8, 4, 2, seed=seed)
            norms = np.linalg.norm(forward(inst), axis=1)
            assert np.all(norms > 0)

    def test_subspace_requires_tall(self):
        with pytest.raises(DimensionError):
            random_instance(4, 4, 2, seed=0)

    def test_sparsity_bound(self):
        with pytest.raises(DimensionError):
            random_instance(10, 4, 2, seed=0, sparsity=5)


class TestThresholds:
    def test_inverse_rendering(self):
        assert min_samples_subspace(65536, 9) == 2

    def test_half_dimension(self):
        # two snapshots suffice whenever the subspace is at most half the
        # ambient dimension (m = 1 needs only one)
        for n in range(4, 60):
            assert min_samples_subspace(n, 1) == 1
            for m in range(2, n // 2 + 1):
                assert min_samples_subspace(n, m) == 2

    def test_small_cases(self):
        assert min_samples_subspace(4, 2) == 2
        assert min_samples_subspace(8, 6) == 4

    def test_subspace_hypothesis(self):
        with pytest.raises(DimensionError):
            min_samples_subspace(4, 4)

    def test_least_N_characterization(self):
        # the threshold is the least N with n*(N-1) + 1 >= m*N
        for n in range(3, 41):
            for m in range(2, n):
                thr = min_samples_subspace(n, m)
                assert n * (thr - 1) + 1 >= m * thr
                if thr > 1:
                    assert n * (thr - 2) + 1 < m * (thr - 1)

    def test_joint_sparse(self):
        assert min_samples_joint_sparse(16, 3) == 2
        assert min_samples_joint_sparse(9, 4) == 8
        for n in range(5, 101):
            for s in range(1, (n - 1) // 4 + 1):
                if s < n / 4:
                    assert min_samples_joint_sparse(n, s) == 2

    def test_joint_sparse_hypothesis(self):
        with pytest.raises(DimensionError):
            min_samples_joint_sparse(8, 4)


class TestAlignScale:
    def test_pure_scale(self):
        rng = np.random.default_rng(3)
        T = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        al = align_scale(3j * T, T)
        assert abs(al.sigma - 3j) < 1e-12
        assert al.relative_error < 1e-12
        assert not al.degenerate

    def test_identity(self):
        T = np.array([[1.0, 2.0], [3.0, 4.0]])
        al = align_scale(T, T)
        assert abs(al.sigma - 1) < 1e-15
        assert al.relative_error == 0.0

    def test_orthogonal_is_degenerate(self):
        al = align_scale([[0.0, 1.0]], [[1.0, 0.0]])
        assert abs(al.sigma) < 1e-15
        assert al.degenerate

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            align_scale([[1.0]], [[0.0]])

    def test_minimizer_property(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            T = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
            sigma = complex(rng.standard_normal() + 1j * rng.standard_normal())
            al = align_scale(sigma * T, T)
            assert abs(al.sigma - sigma) < 1e-10 * max(1, abs(sigma))
            assert al.relative_error < 1e-12

    @pytest.mark.parametrize("c", [1e300, 1e-300])
    def test_common_extreme_scale_changes_nothing(self, c):
        rng = np.random.default_rng(5)
        T = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        E = 2j * T + 1e-3 * rng.standard_normal((4, 3))
        ref = align_scale(E, T)
        with np.errstate(over="raise"):
            got = align_scale(E * c, T * c)
        assert abs(got.sigma - ref.sigma) <= 1e-12 * abs(ref.sigma)
        assert got.relative_error == pytest.approx(ref.relative_error, rel=1e-12)
        assert got.degenerate == ref.degenerate

    def test_overflowing_ratio_is_infinite_not_nan(self):
        rng = np.random.default_rng(6)
        T = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        E = 1e300 * (T + rng.standard_normal((3, 2)))
        al = align_scale(E, T * 1e-300)
        assert al.relative_error == np.inf
        assert not al.relative_error <= 1e-6


@pytest.mark.parametrize("n, m, s, N, k, suffices", [
    (16, 14, 7, 8, 14, False),  # README's corner: 2 * 7 = 14 < 15
    (20, 12, 3, 3, 12, True),   # the sparse-enum root: 8 * 3 = 24 >= 19
    (20, 12, 3, 2, 12, False),  # a declined root: 8 * 2 = 16 < 19
    (20, 12, 3, 2, 9, True),    # the same instance at a 9-column node: 22 >= 19
])
def test_gain_count(n, m, s, N, k, suffices):
    assert k <= m
    assert gain_count_suffices(n, k, s, N) is suffices


def walk_shapes():
    return st.integers(1, 8).flatmap(lambda m: st.tuples(st.just(m),
                                                          st.integers(0, m)))


class TestSupportCells:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(shape=walk_shapes())
    def test_nothing_ruled_out_yields_every_cell(self, shape):
        m, s = shape
        asked = []
        cells = list(support_cells(m, s, asked.append))  # always None: descend
        assert cells == list(combinations(range(m), s))
        # each superset is asked once, and it is a prefix plus a full tail
        assert len(asked) == len(set(asked))
        assert all(len(K) > s and K[-1] == m - 1 for K in asked)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(shape=walk_shapes(), seed=st.integers(0, 2 ** 31 - 1),
           p=st.sampled_from([0.1, 0.3, 0.6, 0.9]), monotone=st.booleans())
    def test_omitted_cells_lie_inside_a_ruled_out_superset(self, shape, seed, p,
                                                           monotone):
        # monotone: K is ruled out exactly when it lies inside a random good
        # set of columns; otherwise each K gets an arbitrary random answer
        m, s = shape
        rng = np.random.default_rng(seed)
        good = set(np.flatnonzero(rng.random(m) < p).tolist())
        answers = {}

        def screen(K):
            assert K not in answers
            answers[K] = set(K) <= good if monotone else bool(rng.random() < p)
            return () if answers[K] else None

        cells = list(support_cells(m, s, screen))
        every = list(combinations(range(m), s))
        walked = set(cells)
        assert cells == [J for J in every if J in walked]  # a subsequence
        ruled = [set(K) for K, out in answers.items() if out]
        for J in set(every) - walked:
            assert any(set(J) <= K for K in ruled)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(shape=walk_shapes(), seed=st.integers(0, 2 ** 31 - 1),
           p=st.sampled_from([0.1, 0.3, 0.6, 0.9]),
           q=st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    def test_decided_nodes_leave_their_cells(self, shape, seed, p, q):
        # a fixed random set of cells is left; each K is decided or not by a
        # fixed random draw, and a decided K returns every left cell inside
        # it, those that lack the node's prefix too
        m, s = shape
        every = list(combinations(range(m), s))
        rng = np.random.default_rng(seed)
        left = {J for J in every if rng.random() < q}

        def decided(K):
            return np.random.default_rng([seed, len(K), *K]).random() < p

        asked = []

        def screen(K):
            asked.append(K)
            if not decided(K):
                return None
            return [J for J in every[::-1] if J in left and set(J) <= set(K)]

        def covered(J):
            # the walk passes J's nodes prefix J[:i] with next column
            # j <= J[i]; j = J[i - 1] + 1 is the parent's own K, not asked,
            # and a K of s columns is a cell, yielded unasked
            return any(decided(K) for i in range(s)
                       for j in range(J[i - 1] + 2 if i else 0, J[i] + 1)
                       for K in [J[:i] + tuple(range(j, m))] if len(K) > s)

        cells = list(support_cells(m, s, screen))
        assert cells == [J for J in every if J in left or not covered(J)]
        assert len(asked) == len(set(asked))
        # a K of s columns is the one cell inside it, and deciding that
        # cell costs what a screen of K would
        assert all(len(K) > s for K in asked)

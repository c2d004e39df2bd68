import numpy as np
import pytest

from bgpc import DimensionError, dft_matrix, numeric_rank
from bgpc.cxmat import EPS, clears, default_cutoff, pow2_scaled, rank_decision


def rand_cmat(rng, r, c):
    return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))


class TestDftMatrix:
    def test_n1_identity(self):
        np.testing.assert_allclose(dft_matrix(1), [[1.0]])

    def test_n2(self):
        np.testing.assert_allclose(dft_matrix(2), [[1, 1], [1, -1]], atol=1e-15)

    def test_n4_entry(self):
        # oracle: direct evaluation of exp(-2*pi*i*1*1/4)
        expected = np.exp(-2j * np.pi / 4)
        assert abs(dft_matrix(4)[1, 1] - expected) < 1e-15
        assert abs(dft_matrix(4)[1, 1] - (-1j)) < 1e-15

    def test_rejects_zero(self):
        with pytest.raises(DimensionError):
            dft_matrix(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33, 64])
    def test_scaled_unitary(self, n):
        F = dft_matrix(n)
        np.testing.assert_allclose(F @ F.conj().T, n * np.eye(n), atol=1e-10)

    @pytest.mark.parametrize("n", [4, 8, 11, 16])
    def test_column_product_identity(self, n):
        # column (n+1-j1) entrywise-times column j2 equals column (j2-j1),
        # 1-based labels
        F = dft_matrix(n)
        for j1 in range(1, n):
            for j2 in range(j1 + 1, n + 1):
                lhs = F[:, (n + 1 - j1) - 1] * F[:, j2 - 1]
                np.testing.assert_allclose(lhs, F[:, (j2 - j1) - 1], atol=1e-10)


class TestNumericRank:
    def test_identity(self):
        assert numeric_rank(np.eye(3)).numeric_rank == 3

    def test_zero(self):
        assert numeric_rank(np.zeros((2, 2))).numeric_rank == 0

    def test_rank_one(self):
        # oracle: 2x2 SVD by hand, singular values (2, 0)
        rr = numeric_rank([[1, 1], [1, 1]])
        assert rr.numeric_rank == 1
        np.testing.assert_allclose(rr.singular_values, [2.0, 0.0], atol=1e-15)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            numeric_rank([[np.nan, 0], [0, 1]])

    def test_rank_counts_above_tolerance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            M = rand_cmat(rng, 5, 4)
            rr = numeric_rank(M)
            assert rr.numeric_rank == int(
                np.sum(rr.singular_values > rr.tolerance_used))
            assert np.all(np.diff(rr.singular_values) <= 0)

    def test_conjugate_transpose_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            M = rand_cmat(rng, 6, 4)
            assert numeric_rank(M).numeric_rank == \
                numeric_rank(M.conj().T).numeric_rank

    def test_explicit_tolerance(self):
        M = np.diag([1.0, 1e-6])
        assert numeric_rank(M, tol=1e-3).numeric_rank == 1
        assert numeric_rank(M, tol=1e-9).numeric_rank == 2


class TestRankDecision:
    def test_default_cutoff(self):
        s = np.array([3.0, 1.0, 1e-15])
        rr = rank_decision(s, (3, 5))
        assert rr.tolerance_used == 5 * EPS * 3.0
        assert rr.numeric_rank == 2

    def test_default_cutoff_is_the_rule(self):
        assert default_cutoff((3, 5), 3.0) == 5 * EPS * 3.0
        s = np.array([7.0, 2.0])
        assert rank_decision(s, (9, 2)).tolerance_used == default_cutoff((9, 2), 7.0)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            rank_decision(np.array([1.0]), (1, 1), tol=-1e-12)
        with pytest.raises(ValueError):
            numeric_rank(np.eye(2), tol=-1.0)

    @pytest.mark.parametrize("tol", [float("nan"), "1e-3", True, 1j])
    def test_non_real_or_nan_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="nonnegative real"):
            rank_decision(np.array([1.0]), (1, 1), tol=tol)

    def test_marginal_within_ten_times_cutoff(self):
        s = np.array([1.0, 5e-3])
        assert rank_decision(s, (2, 2), tol=1e-3).marginal
        assert not rank_decision(s, (2, 2), tol=1e-4).marginal
        # nothing kept, nothing borderline
        assert not rank_decision(s, (2, 2), tol=2.0).marginal

    def test_marginal_boundary_is_exact(self):
        # 10 * 0.1 == 1.0 in binary: a value at exactly 10x the cutoff clears
        assert 10 * 0.1 == 1.0
        assert not rank_decision(np.array([1.0]), (1, 1), tol=0.1).marginal
        assert rank_decision(np.array([np.nextafter(1.0, 0)]), (1, 1), tol=0.1).marginal

    def test_no_singular_values(self):
        rr = rank_decision(np.zeros(0), (0, 3))
        assert (rr.numeric_rank, rr.tolerance_used, rr.marginal) == (0, 0.0, False)

    def test_numeric_rank_is_svd_then_decision(self):
        rng = np.random.default_rng(6)
        M = rand_cmat(rng, 5, 3) @ rand_cmat(rng, 3, 4)
        rr = numeric_rank(M)
        ref = rank_decision(np.linalg.svd(M, compute_uv=False), M.shape)
        assert rr.numeric_rank == ref.numeric_rank == 3
        assert rr.tolerance_used == ref.tolerance_used


class TestClears:
    """The one margin rule: low clears c = max(cutoff, tol) when it is at
    least 10c and above c."""

    @pytest.mark.parametrize("c", [0.1, 3e-7, 2.5, 1e300, 5e-324])
    def test_boundary_at_ten_times(self, c):
        assert clears(10 * c, c)
        assert not clears(np.nextafter(10 * c, 0), c)
        assert not clears(c, c)

    def test_zero_cutoff(self):
        assert clears(5e-324, 0.0)
        assert not clears(0.0, 0.0)
        assert not clears(-1.0, 0.0)

    def test_tol_none_below_and_above_the_cutoff(self):
        assert clears(1.0, 0.1) and clears(1.0, 0.1, None)
        assert not clears(0.5, 0.1, None)
        # tol below the cutoff leaves it in charge; above, tol takes over
        assert clears(1.0, 0.1, 0.01) and not clears(0.5, 0.1, 0.01)
        assert clears(10.0, 0.1, 1.0) and not clears(np.nextafter(10.0, 0), 0.1, 1.0)
        assert not clears(1.0, 0.1, 1.0)

    def test_nonfinite(self):
        assert not clears(float("nan"), 1.0)
        assert not clears(1.0, float("inf"))


class TestPow2Scaled:
    @pytest.mark.parametrize("c", [1e300, 1.0, 1e-300, 2.0 ** -1074])
    def test_exact_unit_scaling(self, c):
        M = np.array([[3.0 - 1j, 0.5], [0.0, -2j]]) * c
        S, e = pow2_scaled(M)
        assert 0.5 <= np.max(np.abs(S)) < 1.0
        back = np.ldexp(S.view(np.float64), e).view(np.complex128)
        np.testing.assert_array_equal(back, M)

    def test_zero_matrix(self):
        S, e = pow2_scaled(np.zeros((2, 2), dtype=np.complex128))
        assert e == 0 and not np.any(S)

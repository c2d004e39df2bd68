import importlib
import warnings
from dataclasses import replace

import numpy as np
import pytest

from bgpc import (DimensionError, InfeasibleConstructionError,
                  construct_claim1, construct_claim2, dft_matrix, numeric_rank,
                  select_columns, verify_claim1_rank)
from bgpc.certify import (_normalized, _stacked_rank, build_D_stack,
                          build_stacked)
from bgpc.construct import ConstructedInstance


def feasible_triples(n_max):
    for n in range(4, n_max + 1):
        for m in range(2, n):
            for N in range(2, m + 1):
                if (n - m) * N >= n - 1:
                    yield n, m, N


def window_violations(selected, n, N):
    """Circular windows of N consecutive columns that are fully selected,
    other than the initial block 0..N-1."""
    sel = set(selected)
    bad = []
    for start in range(n):
        window = [(start + k) % n for k in range(N)]
        if all(i in sel for i in window) and window != list(range(N)):
            bad.append(window)
    return bad


def _region_capacity(length, run, N):
    # max selectable from `length` contiguous positions, starting with a
    # run of `run` already-selected neighbors, never reaching N in a row
    count = 0
    r = run
    for _ in range(length):
        if r < N - 1:
            count += 1
            r += 1
        else:
            r = 0
    return count


def greedy_select_columns(n, m, N):
    """Reference: the greedy search with lookahead that the closed form
    in ``select_columns`` replaced. Returns None when it finds no selection."""
    selected = list(range(N))
    needed = m - N
    run = 0
    for i in range(N + 1, n - 1):
        remaining = (n - 1) - (i + 1)
        if needed > 0 and run < N - 1 and \
                needed - 1 <= _region_capacity(remaining, run + 1, N):
            selected.append(i)
            needed -= 1
            run += 1
        else:
            if needed > _region_capacity(remaining, 0, N):
                return None
            run = 0
    return tuple(selected) if needed == 0 else None


def claim2_reference(n, N, J0, J1):
    """Reference: construct_claim2's permutation written as a per-column
    copy loop over the base construction."""
    J0 = sorted(set(J0))
    union = sorted(set(J0) | set(J1))
    base = construct_claim1(n, len(union), N)
    pos0 = [union.index(j) for j in J0]
    perm = pos0[:N] + [p for p in range(len(union)) if p not in pos0[:N]]
    A = np.empty_like(base.A)
    X0 = np.zeros_like(base.X0)
    for i, p in enumerate(perm):
        A[:, p] = base.A[:, i]
        X0[p, :] = base.X0[i, :]
    return A, X0, tuple(perm)


class TestSelection:
    def test_desk_example(self):
        sel = select_columns(8, 4, 2)
        assert sel == (0, 1, 3, 5)  # 1-based {1, 2, 4, 6}
        assert 4 not in sel and 7 not in sel

    def test_infeasible(self):
        with pytest.raises(InfeasibleConstructionError):
            select_columns(5, 4, 2)

    def test_square_identity_snapshots(self):
        ci = construct_claim1(6, 3, 3)
        np.testing.assert_array_equal(ci.X0, np.eye(3))
        assert ci.selected_cols == (0, 1, 2)

    def test_closed_form_matches_greedy_reference(self):
        checked = 0
        for n, m, N in feasible_triples(48):
            assert select_columns(n, m, N) == greedy_select_columns(n, m, N), \
                (n, m, N)
            checked += 1
        assert checked == 14493

    def test_every_infeasible_triple_refused(self):
        checked = 0
        for n in range(4, 49):
            for m in range(2, n):
                for N in range(2, m + 1):
                    if (n - m) * N >= n - 1:
                        continue
                    assert greedy_select_columns(n, m, N) is None
                    with pytest.raises(InfeasibleConstructionError) as exc:
                        select_columns(n, m, N)
                    assert str(exc.value) == (
                        f"(n-m)*N = {(n - m) * N} < n-1 = {n - 1}: "
                        "no valid column selection")
                    checked += 1
        assert checked > 0

    @pytest.mark.parametrize("n, m, N", [(8, 8, 2), (4, 5, 2), (8, 4, 5),
                                         (8, 4, 1)])
    def test_dimension_checks(self, n, m, N):
        with pytest.raises(DimensionError, match="requires n > m >= N >= 2"):
            select_columns(n, m, N)

    def test_invariants_exhaustive(self):
        for n, m, N in feasible_triples(24):
            ci = construct_claim1(n, m, N)
            sel, comp = set(ci.selected_cols), set(ci.complement_cols)
            assert len(sel) == m
            assert sel | comp == set(range(n)) and not (sel & comp)
            assert set(range(N)) <= sel
            assert N in comp and (n - 1) in comp
            assert not window_violations(ci.selected_cols, n, N)
            assert ci.expected_left_null_dim == n * N - m * N - n + 1
            assert ci.expected_left_null_dim >= 0


class TestVerifyRanks:
    def test_n8_m4_N2(self):
        rec = verify_claim1_rank(construct_claim1(8, 4, 2))
        assert (rec.D_rank, rec.stacked_rank, rec.left_null_dim) == (7, 8, 1)
        assert rec.passed

    def test_n12_m6_N2(self):
        rec = verify_claim1_rank(construct_claim1(12, 6, 2))
        assert rec.left_null_dim == 24 - 12 - 12 + 1 == 1
        assert rec.passed

    def test_n9_m6_N3(self):
        rec = verify_claim1_rank(construct_claim1(9, 6, 3))
        assert rec.left_null_dim == 1
        assert rec.D_rank == 17
        assert rec.stacked_rank == 18
        assert rec.passed

    def test_rank_nullity(self):
        for n, m, N in [(8, 4, 2), (10, 5, 2), (9, 6, 3), (12, 8, 3)]:
            ci = construct_claim1(n, m, N)
            rec = verify_claim1_rank(ci)
            assert rec.left_null_dim + rec.D_rank == n * (N - 1)


    def test_screen_decides_every_triple(self, monkeypatch):
        # diag(w_0) A = A has orthogonal columns on the DFT construction, so
        # certify's elimination screen decides rank mN on every triple, with
        # S never built; its cutoff is no smaller than that of one SVD of S
        monkeypatch.setattr(importlib.import_module("bgpc.certify"), "build_stacked",
                            lambda *a: pytest.fail("the stacked matrix was built"))
        for n, m, N in feasible_triples(16):
            ci = construct_claim1(n, m, N)
            A, X0, _ = _normalized(ci.A, ci.X0, np.ones(n))
            rank, screened = _stacked_rank(A, X0)
            rr = numeric_rank(build_stacked(A, X0))
            assert rank == rr.numeric_rank == verify_claim1_rank(ci).stacked_rank == m * N
            assert rr.tolerance_used <= screened * (1 + 1e-12)

    def test_explicit_tolerance_reported(self):
        ci = construct_claim1(12, 8, 3)
        assert verify_claim1_rank(ci, tol=1e-9).tolerance_used == 1e-9
        rec = verify_claim1_rank(ci, tol=1e6)
        assert (rec.stacked_rank, rec.tolerance_used, rec.passed) == (0, 1e6, False)

    def test_negative_tolerance_refused_before_any_svd(self, svd_calls):
        with pytest.raises(ValueError, match="tolerance must be a nonnegative"):
            verify_claim1_rank(construct_claim1(128, 96, 8), tol=-1.0)
        assert svd_calls == []

    @pytest.mark.parametrize("c", [1.0, 1e-200, 1e-160, 1e160, 1e200])
    @pytest.mark.parametrize("n, N, selected", [
        (12, 3, (0, 1, 2, 5, 6, 7)), (16, 4, (0, 1, 2, 3, 6, 7, 8, 9, 12))])
    def test_full_window_at_extreme_scales(self, n, N, selected, c):
        # a second full circular window makes rank(S) < mN exactly; at any
        # scale of X0 the certificate's route and verify_claim1_rank find
        # the rank of one SVD of S, with no warning
        m = len(selected)
        ci = ConstructedInstance(
            n=n, m=m, N=N, X0=np.eye(m, N, dtype=np.complex128) * c,
            A=dft_matrix(n)[:, list(selected)], selected_cols=selected,
            complement_cols=tuple(sorted(set(range(n)) - set(selected))),
            expected_left_null_dim=n * N - m * N - n + 1)
        A, X0, _ = _normalized(ci.A, ci.X0, np.ones(n))
        rr = numeric_rank(build_stacked(A, X0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _stacked_rank(A, X0) == (rr.numeric_rank, rr.tolerance_used)
            rec = verify_claim1_rank(ci)
        assert rec.stacked_rank == rr.numeric_rank < m * N and not rec.passed

    @pytest.mark.parametrize("c", [1e-200, 1e-160, 1e160, 1e200])
    def test_constructed_instance_at_extreme_scales(self, c):
        ci = construct_claim1(12, 8, 3)
        ci = replace(ci, X0=ci.X0 * c)
        A, X0, _ = _normalized(ci.A, ci.X0, np.ones(12))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _stacked_rank(A, X0)[0] == 24
            assert verify_claim1_rank(ci).passed

    def test_failing_stack_factors_D(self, duplicated_column_construction):
        ci = duplicated_column_construction
        rec = verify_claim1_rank(ci)
        assert not rec.passed
        assert rec.stacked_rank < ci.m * ci.N
        assert rec.D_rank == numeric_rank(build_D_stack(ci.A, ci.X0)).numeric_rank
        assert rec.left_null_dim == ci.n * (ci.N - 1) - rec.D_rank


class TestColumnPermutation:
    def test_stacked_rank_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n, m, N = 9, 4, 2
            A = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            X0 = rng.standard_normal((m, N)) + 1j * rng.standard_normal((m, N))
            perm = rng.permutation(m)
            r1 = numeric_rank(build_stacked(A, X0)).numeric_rank
            r2 = numeric_rank(build_stacked(A[:, perm], X0[perm, :])).numeric_rank
            assert r1 == r2


class TestClaim2:
    def test_union_equals_support(self):
        # J1 = J0: reduces to the base construction up to row relabeling
        ci = construct_claim2(16, 8, 3, 2, J0=[0, 1, 2], J1=[0, 1, 2])
        base = construct_claim1(16, 3, 2)
        assert ci.m == 3
        assert ci.selected_cols == base.selected_cols
        assert sorted(ci.row_order) == [0, 1, 2]
        assert verify_claim1_rank(ci).passed

    def test_overlapping_supports(self):
        ci = construct_claim2(16, 8, 3, 2, J0=[0, 1, 2], J1=[2, 3, 4])
        assert ci.m == 5
        assert (16 - 5) * 2 >= 15  # feasibility of the union size
        rec = verify_claim1_rank(ci)
        assert rec.passed
        assert rec.stacked_rank == 5 * 2

    def test_nonzero_rows_sit_on_support_positions(self):
        J0, J1 = [1, 4, 6], [0, 4, 7]
        ci = construct_claim2(16, 8, 3, 2, J0=J0, J1=J1)
        union = sorted(set(J0) | set(J1))
        nz = [i for i in range(ci.m) if np.any(ci.X0[i, :] != 0)]
        positions0 = [union.index(j) for j in J0]
        assert set(nz) <= set(positions0)
        assert len(nz) == ci.N

    def test_matches_per_column_reference_bitwise(self):
        rng = np.random.default_rng(5)
        checked = 0
        for n, m, s, N in [(16, 8, 3, 2), (16, 8, 3, 3), (20, 10, 4, 3),
                           (24, 12, 5, 4), (12, 6, 2, 2)]:
            for _ in range(8):
                J0 = sorted(rng.choice(m, s, replace=False).tolist())
                J1 = sorted(rng.choice(m, s, replace=False).tolist())
                try:
                    ci = construct_claim2(n, m, s, N, J0=J0, J1=J1)
                except InfeasibleConstructionError:
                    continue
                A, X0, perm = claim2_reference(n, N, J0, J1)
                assert ci.row_order == perm
                assert ci.A.tobytes() == A.tobytes()
                assert ci.X0.tobytes() == X0.tobytes()
                checked += 1
        assert checked >= 30

    def test_infeasible_union(self):
        # l = 2, N = 2: (16 - 2) * 2 >= 15 holds, but N > s is rejected
        with pytest.raises(Exception):
            construct_claim2(16, 8, 1, 2, J0=[0], J1=[1])

"""Explicit instances with provably full certificate rank.

The construction picks X0 as the first N columns of the m x m identity and
A as m columns of the n x n DFT matrix F, chosen so that no N circularly
consecutive columns are all selected except the initial block 0..N-1. For
such a pair the stacked certificate matrix has full column rank mN, the
block stack without its first row has rank mN - 1, and the left null space
of that stack has dimension exactly nN - mN - n + 1.

Why the ranks are exact: W = A X0 = F[:, :N] has no zero entry and the
rows of F^-1[comp, :] span the left null space of A, so (as in recovery)
rank(S) = mN exactly when G = [F^-1[comp, :] diag(w_j)]_j has rank n - 1.
Row (j, c) of G is the DFT row at frequency (j - c) mod n, up to a factor
1/n, and distinct DFT rows are independent (Vandermonde). Frequency r is
missed exactly when columns -r, ..., N-1-r (mod n) are all selected, as
r = 0 is; so rank(G) = n - 1 exactly when every other circular window of
N columns holds an unselected column.

Column indices are 0-based here; serialization shifts to 1-based labels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .certify import build_stacked
from .cxmat import check_tolerance, dft_matrix, numeric_rank
from .errors import DimensionError, InfeasibleConstructionError


@dataclass(frozen=True)
class ConstructedInstance:
    # the field order is the key order of the JSON file (serialize.py)
    n: int
    m: int
    N: int
    X0: np.ndarray                    # m x N
    A: np.ndarray                     # n x m
    selected_cols: tuple[int, ...]    # 0-based DFT columns forming A
    complement_cols: tuple[int, ...]  # the unpicked columns
    expected_left_null_dim: int
    # claim-2 variant only: row_order[i] is the final position of base row i
    row_order: tuple[int, ...] | None = None


@dataclass(frozen=True)
class VerificationRecord:
    stacked_rank: int
    D_rank: int
    left_null_dim: int
    expected_left_null_dim: int
    tolerance_used: float
    passed: bool


def select_columns(n: int, m: int, N: int) -> tuple[int, ...]:
    """The block 0..N-1, then the first m - N of N+1..n-2 that skip every
    N-th position (runs of N - 1 picks); N and n-1 stay unselected. There
    are enough of them exactly when (n - m) * N >= n - 1."""
    if not (n > m >= N >= 2):
        raise DimensionError("requires n > m >= N >= 2")
    if (n - m) * N < n - 1:
        raise InfeasibleConstructionError(
            f"(n-m)*N = {(n - m) * N} < n-1 = {n - 1}: no valid column selection")
    extra = [i for i in range(N + 1, n - 1) if (i - N - 1) % N != N - 1]
    return tuple(range(N)) + tuple(extra[:m - N])


def construct_claim1(n: int, m: int, N: int) -> ConstructedInstance:
    """Build the DFT-column instance whose certificate rank is exact."""
    selected = select_columns(n, m, N)
    complement = tuple(sorted(set(range(n)) - set(selected)))
    F = dft_matrix(n)
    A = F[:, list(selected)]
    X0 = np.eye(m, N, dtype=np.complex128)
    M = n * N - m * N - n + 1
    return ConstructedInstance(
        n=n, m=m, N=N,
        selected_cols=selected,
        complement_cols=complement,
        A=A, X0=X0,
        expected_left_null_dim=M,
    )


def verify_claim1_rank(ci: ConstructedInstance,
                       tol: float | None = None) -> VerificationRecord:
    """Check the three exact rank statements for a constructed instance.

    The stacked certificate matrix S must have rank mN, the block stack
    D = S[1:] (S without its first row) rank mN - 1, and the left null
    space of D the predicted dimension (by rank-nullity on its n(N-1)
    rows). When rank(S) = mN, rank(D) = mN - 1 needs no second SVD:
    dropping one row lowers the rank by at most one, and D vec(X0) = 0 by
    construction, so D cannot have full column rank. D is factored only
    when rank(S) < mN.
    """
    check_tolerance(tol)
    n, m, N = ci.n, ci.m, ci.N
    S = build_stacked(ci.A, ci.X0)
    rr = numeric_rank(S, tol=tol)
    if rr.numeric_rank == m * N:
        D_rank = m * N - 1
    else:
        D_rank = numeric_rank(S[1:], tol=tol).numeric_rank
    left_null_dim = n * (N - 1) - D_rank
    passed = (
        rr.numeric_rank == m * N
        and D_rank == m * N - 1
        and left_null_dim == ci.expected_left_null_dim
    )
    return VerificationRecord(
        stacked_rank=rr.numeric_rank,
        D_rank=D_rank,
        left_null_dim=left_null_dim,
        expected_left_null_dim=ci.expected_left_null_dim,
        tolerance_used=rr.tolerance_used,
        passed=passed,
    )


def construct_claim2(n: int, m: int, s: int, N: int,
                     J0, J1) -> ConstructedInstance:
    """Joint-sparsity variant over the union support J0 | J1 (0-based sets).

    Builds the base construction at size (n, l, N) with l = |J0 | J1|,
    then permutes rows of X0 (and matching columns of A) so the nonzero
    rows land at the positions J0 occupies inside the union. Column
    permutation leaves every certificate rank unchanged, so the permuted
    instance verifies at size (n, l, N).
    """
    J0 = sorted(set(int(j) for j in J0))
    J1 = sorted(set(int(j) for j in J1))
    if len(J0) != s:
        raise DimensionError("J0 must have exactly s elements")
    if any(j < 0 or j >= m for j in J0 + J1):
        raise DimensionError("support indices out of range 0..m-1")
    union = sorted(set(J0) | set(J1))
    ell = len(union)
    if not (ell <= 2 * s < n):
        raise DimensionError("requires |J0 | J1| <= 2s < n")
    if not (2 <= N <= s):
        raise DimensionError("requires 2 <= N <= s")
    base = construct_claim1(n, ell, N)
    # positions of J0 inside the union; the first N carry the identity block
    pos0 = [union.index(j) for j in J0]
    perm = pos0[:N] + sorted(set(range(ell)) - set(pos0[:N]))
    A = np.empty_like(base.A)
    X0 = np.zeros_like(base.X0)
    A[:, perm] = base.A
    X0[perm, :] = base.X0
    return replace(base, A=A, X0=X0, row_order=tuple(perm))

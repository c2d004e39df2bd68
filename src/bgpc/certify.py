"""Rank certificates for identifiability up to scaling.

The certificate has two parts. Condition 2 asks that A @ X0 has no zero
rows and that every gain entry is nonzero, which pins down lambda once X is
known. Condition 1 asks that a stacked matrix, built from the conjugated
vectorization of X0 on top of one cross-ratio block per measurement row,
has full column rank; that forces X to be unique up to a global scale.
When both hold the instance is certified identifiable up to scaling.

A certificate that fails is reported as ``NotCertified``: failure of the
numeric rank test does not prove non-identifiability for a specific
borderline instance, so the verdict never claims "not identifiable".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .cxmat import EPS, as_cmatrix, numeric_rank, rank_decision
from .errors import DimensionError
from .model import DEFAULT_CELL_BUDGET, check_cell_budget

SUBSPACE = "Subspace"
JOINT_SPARSE = "JointSparse"

IDENTIFIABLE = "IdentifiableUpToScaling"
NOT_CERTIFIED = "NotCertified"


@dataclass(frozen=True)
class CertificateReport:
    mode: str
    verdict: str
    condition1_rank_full: bool
    condition2_lambda_unique: bool
    stacked_rank: int
    required_rank: int
    tolerance_used: float
    support_cells_checked: int | None = None
    failing_support: tuple[int, ...] | None = None


def build_D_block(a_row, X0) -> np.ndarray:
    """Cross-ratio block for one measurement row, shape (N-1) x mN.

    Row j of the left factor has -(a_row @ X0[:, j]) in column 0 and
    (a_row @ X0[:, 0]) in column j; the block is that factor Kronecker-
    multiplied on the right by a_row. By construction it annihilates
    the column-major vectorization of X0.
    """
    return build_D_stack(np.asarray(a_row, dtype=np.complex128).reshape(1, -1), X0)


def build_D_stack(A, X0) -> np.ndarray:
    """All n cross-ratio blocks C_k kron a_k stacked, shape n(N-1) x mN.

    Block k is :func:`build_D_block` of row a_k = A[k, :]; the left factors
    C_k come from W = A @ X0 and all n blocks are filled in one broadcast.
    """
    A = as_cmatrix(A, "A")
    X0 = as_cmatrix(X0, "X0")
    n, m = A.shape
    N = X0.shape[1]
    if X0.shape[0] != m:
        raise DimensionError("rows of X0 must match columns of A")
    if N < 2:
        raise DimensionError("cross-ratio blocks require N >= 2")
    W = A @ X0
    C = np.zeros((n, N - 1, N), dtype=np.complex128)
    C[:, :, 0] = -W[:, 1:]
    C[:, np.arange(N - 1), np.arange(1, N)] = W[:, :1]
    return (C[:, :, :, None] * A[:, None, None, :]).reshape(n * (N - 1), N * m)


def build_stacked(A, X0) -> np.ndarray:
    """Certificate matrix: vec(X0)* on top of the n cross-ratio blocks.

    Shape (1 + n(N-1)) x mN; vec is column-major.
    """
    A = as_cmatrix(A, "A")
    X0 = as_cmatrix(X0, "X0")
    vec = X0.flatten(order="F").conj()[None, :]
    return np.vstack([vec, build_D_stack(A, X0)])


def build_stacked_restricted(A, X0, J) -> np.ndarray:
    """Certificate matrix of the column/row restriction to index set J (0-based)."""
    A = as_cmatrix(A, "A")
    X0 = as_cmatrix(X0, "X0")
    J = sorted(set(int(j) for j in J))
    if not J:
        raise DimensionError("restriction index set must be nonempty")
    if J[0] < 0 or J[-1] >= A.shape[1]:
        raise DimensionError("restriction indices out of range")
    return build_stacked(A[:, J], X0[J, :])


def _unit_scale(M: np.ndarray) -> np.ndarray:
    """M times the power of two that puts its largest modulus in [0.5, 1).

    Scaling by a power of two is exact, so only the units of M change.
    """
    _, e = np.frexp(np.max(np.abs(M)))
    return np.ldexp(np.ascontiguousarray(M).view(np.float64), -e).view(np.complex128)


def _normalized(A, X0, lambda0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check an instance and rescale A, X0 and lambda0 each to unit size.

    (A c, X0 d, lambda0 / (c d)) gives the same Y for any scalars c, d, but
    the stacked matrix is quadratic in A and its first row does not depend
    on A at all, so without this step its rank call depends on the units
    of A (and condition 2 underflows at extreme magnitudes of X0).
    """
    A = as_cmatrix(A, "A")
    X0 = as_cmatrix(X0, "X0")
    lambda0 = np.asarray(lambda0, dtype=np.complex128).reshape(-1)
    if lambda0.shape[0] != A.shape[0] or X0.shape[0] != A.shape[1]:
        raise DimensionError("inconsistent instance dimensions")
    if X0.shape[1] < 2:
        raise DimensionError("certificate requires N >= 2 snapshots")
    return _unit_scale(A), _unit_scale(X0), _unit_scale(lambda0)


def _lambda_uniqueness(A, X0, lambda0) -> bool:
    """Condition 2: no zero rows in A @ X0 and no zero gain entries.

    Exact zeros never survive floating-point products, so "zero" means
    below eps * sqrt(m) * (largest magnitude in the tested object).
    """
    AX = A @ X0
    m = A.shape[1]
    row_tol = EPS * np.sqrt(m) * float(np.max(np.abs(AX)))
    lam_tol = EPS * np.sqrt(m) * float(np.max(np.abs(lambda0)))
    rows_ok = bool(np.all(np.linalg.norm(AX, axis=1) > row_tol))
    lam_ok = bool(np.all(np.abs(lambda0) > lam_tol))
    return rows_ok and lam_ok


def certify_subspace(A, X0, lambda0, tol: float | None = None) -> CertificateReport:
    """Decide the subspace-model certificate for (A, X0, lambda0).

    A, X0 and lambda0 are first scaled to unit size by exact powers of two,
    so the verdict does not depend on their units; an explicit ``tol`` cuts
    the singular values of the certificate matrix built from the scaled pair.
    """
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


def certify_joint_sparse(A, X0, lambda0, s: int, tol: float | None = None,
                         max_cells: int = DEFAULT_CELL_BUDGET) -> CertificateReport:
    """Joint-sparsity certificate: the rank test over every candidate support.

    The row support J0 of X0 must have size s, with 1 <= s <= m and n > 2s.
    For every s-subset J1 of the dictionary columns (lexicographic order),
    the restriction to J = J0 union J1 must have full column rank |J| * N;
    the loop exits on the first failing subset, which is recorded in the
    report. A, X0 and lambda0 are scaled to unit size first, as in
    :func:`certify_subspace`.

    The certificate matrix is built once: since X0 vanishes off J0, the
    restriction to J (:func:`build_stacked_restricted`) is exactly the
    columns t*m + j, j in J, t < N, of :func:`build_stacked`. A cell then
    costs one column gather and one values-only SVD. For m >= 2s, each
    cell is a column subset, with the same rows, of a cell with J1 disjoint
    from J0, so its sigma_min is no smaller and its sigma_max and cutoff
    (max(rows, cols) eps sigma_max, or ``tol``) no larger. When those
    C(m - s, s) cells pass clear of 10x their cutoff and of the default one
    (a bound on rounding), all cells pass and the last one is factored for
    the report; otherwise every cell is decided in order.
    """
    A, X0, lambda0 = _normalized(A, X0, lambda0)
    n, m = A.shape
    N = X0.shape[1]
    if not (1 <= s <= m):
        raise DimensionError("requires 1 <= s <= m")
    if not (n > 2 * s):
        raise DimensionError("joint-sparsity certificate requires n > 2s")
    J0 = set(np.flatnonzero(np.any(X0 != 0, axis=1)).tolist())
    if len(J0) != s:
        raise DimensionError(f"X0 row support has size {len(J0)}, expected s={s}")
    check_cell_budget(m, s, max_cells)

    cond2 = _lambda_uniqueness(A, X0, lambda0)
    S = build_stacked(A, X0)
    block_starts = np.arange(N)[:, None] * m

    def cell(J1):
        J = sorted(J0 | set(J1))
        return J, numeric_rank(S[:, (block_starts + J).ravel()], tol=tol)

    def clear(J1):  # full rank, clear of 10x its cutoff and the default one
        J, rr = cell(J1)
        floor = rank_decision(rr.singular_values, (S.shape[0], len(J) * N))
        return all(r.numeric_rank == len(J) * N and not r.marginal for r in (rr, floor))

    failing = None
    disjoint = combinations(sorted(set(range(m)) - J0), s)
    if m >= 2 * s and all(map(clear, disjoint)):
        J, rr = cell(range(m - s, m))
        checked = comb(m, s)
    else:
        for checked, J1 in enumerate(combinations(range(m), s), start=1):
            J, rr = cell(J1)
            if rr.numeric_rank != len(J) * N:
                failing = tuple(J1)
                break
    cond1 = failing is None
    verdict = IDENTIFIABLE if (cond1 and cond2) else NOT_CERTIFIED
    return CertificateReport(
        mode=JOINT_SPARSE,
        verdict=verdict,
        condition1_rank_full=cond1,
        condition2_lambda_unique=cond2,
        stacked_rank=rr.numeric_rank,
        required_rank=len(J) * N,
        tolerance_used=rr.tolerance_used,
        support_cells_checked=checked,
        failing_support=failing,
    )

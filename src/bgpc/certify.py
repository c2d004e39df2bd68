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

Condition 1 by block elimination. S = [vec(X0)^H; D] is (1 + n(N-1)) x mN.
With W = A X0 and M_j = diag(w_j) A, the rows of D grouped by snapshot
j >= 1 (a row permutation) are [-M_j, 0, .., M_0, .., 0], M_0 in column
block j. Take the full QR M_0 = Q [R; 0] and apply Q^H to every block row
(unitary): block row j becomes [-K_j, 0, .., [R; 0], .., 0] with
K_j = Q^H M_j, split into its top m rows K_j^top and the rest B_j. If R
is invertible, the column operation x_j = z_j + R^-1 K_j^top x_0, j >= 1
(E: identity plus the blocks R^-1 K_j^top under the first block column)
clears every K_j^top. With U the unitary that regroups the rows, applies
Q^H and moves the rows of the R blocks last,

    U S E = [[T, C], [0, I kron R]],
    T = [x_0^H + sum_j x_j^H R^-1 K_j^top; B_1; ..; B_{N-1}],

up to the signs of the B_j rows, with x_j = X0[:, j] and C zero except in
T's first row, which it extends by [x_1^H, .., x_{N-1}^H]. So
rank(S) = (N-1) m + rank(T): rank(S) = mN exactly when the
(1 + (n-m)(N-1)) x m matrix T has full column rank (225 x 96 against
897 x 768 for S at n=128, m=96, N=8), and never when T is wide.

The bound. Let r = sigma_min(R), t = sigma_min(T) and
eta = ||C|| / r = ||X0[:, 1:]||_F / r. For a unit (u, z), v = (I kron R) z
has ||v|| >= r ||z|| and ||C z|| <= eta ||v||, so the squared norm of
[[T, C], [0, I kron R]] (u, z) is at least (t ||u|| - eta ||v||)_+^2 + ||v||^2,
which is at least t^2 ||u||^2 / (1 + eta^2), and at least r^2 ||z||^2.
One of ||u||^2, ||z||^2 is at least 1/2, hence
sigma_min(U S E) >= min(r, t / sqrt(1 + eta^2)) / sqrt(2). As
sigma_min(S) = sigma_min(U S) >= sigma_min(U S E) / ||E|| and
||E|| <= 1 + ||K^top||_F / r, with K^top all K_j^top stacked,

    sigma_min(S) >= min(r, t / sqrt(1 + eta^2)) / (sqrt(2) (1 + ||K^top||_F / r)).

Rounding. Householder QR and the products Q^H M_j are backward stable:
the computed R and K_j are exact for S perturbed by about n eps ||S||_F,
subtracted from the bound. T's first row is formed as
x_0^H + sum_j y_j^H K_j^top with R^H y_j = x_j; that solve is exact for R
perturbed by m eps ||R||, which moves the row by at most
m eps ||R|| ||X0[:, 1:]||_F ||K^top||_F / r^2 (Cauchy-Schwarz), plus
m eps ||X0||_F for the sum. The SVDs of R and T err by their default
cutoffs; r is lowered by R's, and as the bound grows with r, that covers
every use of r. Each term is inflated by ``SCREEN_SAFETY``.

||S||_F^2 = ||X0||_F^2 + sum_k ||a_k||^2 (||w_k||^2 + (N-2) |w_k0|^2), so the
default cutoff max(rows, cols) eps sigma_max(S) is at most
max(rows, cols) eps ||S||_F. :func:`_stacked_rank` reports rank mN from
the bound alone when it clears 10x that and any explicit ``tol``;
otherwise (a wide T, a singular or marginal R, or a bound that is not
clear) it builds and factors S.

Range. A norm summed from squares loses every square that underflows and
overflows for large entries, while LAPACK rescales internally; a norm read
as 0 would drop the E factor and every rounding term. So the screen takes
A and X0 as :func:`_normalized` leaves them, each with its largest
modulus in [0.5, 1), takes the norms of X0, K^top and T by :func:`_norm`,
which sums them at unit scale when needed (the columns of X0 may differ
widely in size), and stops when c or ||K^top||_F exceeds 2^400 r, beyond
which R^-1 K_j^top and T could overflow. In that range nothing overflows;
the closed form of ||S||_F loses a relative part below 2^-600 to
underflow, and the products behind R, K and T lose far less than their
rounding terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .cxmat import (EPS, SCREEN_SAFETY, as_cmatrix, check_tolerance, clears,
                    default_cutoff, numeric_rank, pow2_scaled)
from .errors import DimensionError
from .model import (DEFAULT_CELL_BUDGET, check_cell_budget, gain_count_suffices,
                    support_cells)

SUBSPACE = "Subspace"
JOINT_SPARSE = "JointSparse"

IDENTIFIABLE = "IdentifiableUpToScaling"
NOT_CERTIFIED = "NotCertified"

# the elimination screen's range: c and ||K^top||_F below 2^400 sigma_min(R);
# see the module docstring
SCREEN_RATIO_RANGE = 2.0 ** 400


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


def _report(mode: str, cond1: bool, cond2: bool, *rest) -> CertificateReport:
    """The report of a certificate: identifiable when conditions 1 and 2 both
    hold; ``rest`` holds the fields from ``stacked_rank`` on, in order."""
    verdict = IDENTIFIABLE if cond1 and cond2 else NOT_CERTIFIED
    return CertificateReport(mode, verdict, cond1, cond2, *rest)


def build_D_stack(A, X0) -> np.ndarray:
    """All n cross-ratio blocks C_k kron a_k stacked, shape n(N-1) x mN.

    Row j of C_k has -w_kj in column 0 and w_k0 in column j (W = A @ X0), so
    each block annihilates vec(X0); all n blocks are filled in one broadcast.
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
    """Certificate matrix of the column/row restriction to index set J
    (0-based); a test oracle for the column gather of certify_joint_sparse."""
    A = as_cmatrix(A, "A")
    X0 = as_cmatrix(X0, "X0")
    J = sorted(set(int(j) for j in J))
    if not J:
        raise DimensionError("restriction index set must be nonempty")
    if J[0] < 0 or J[-1] >= A.shape[1]:
        raise DimensionError("restriction indices out of range")
    return build_stacked(A[:, J], X0[J, :])


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
    return pow2_scaled(A)[0], pow2_scaled(X0)[0], pow2_scaled(lambda0)[0]


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


def _norm(M) -> float:
    """Frobenius norm of a complex matrix with no square lost to underflow
    or overflow: a plain norm within 2^+-400 of 1 is accurate, and any
    other is summed again at unit scale."""
    with np.errstate(over="ignore"):
        plain = float(np.linalg.norm(M))
    if 2.0 ** -400 <= plain <= 2.0 ** 400:
        return plain
    scaled, e = pow2_scaled(M)
    return float(np.ldexp(np.linalg.norm(scaled), e))


def _elimination_bound(R, K, X0) -> float:
    """Lower bound on sigma_min(S), net of rounding, from the eliminated form.

    R is m x m and K holds K_j = Q^H diag(w_j) A, j = 1..N-1, shape
    (N-1, n, m) with n >= m and 1 + (n-m)(N-1) >= m; see the module
    docstring. Returns 0 when R is singular or marginal, or when c or
    ||K^top||_F is more than ``SCREEN_RATIO_RANGE`` times sigma_min(R).
    """
    m = X0.shape[0]
    sR = np.linalg.svd(R, compute_uv=False)
    r_err = SCREEN_SAFETY * default_cutoff(R.shape, sR[0])
    if not clears(sR[-1], r_err):
        return 0.0
    r = sR[-1] - r_err
    K_top = K[:, :m]
    c, k = _norm(X0[:, 1:]), _norm(K_top)
    if not max(c, k) <= SCREEN_RATIO_RANGE * r:
        return 0.0
    # x_j^H R^-1 K_j^top = y_j^H K_j^top with R^H y_j = x_j
    Yh = np.linalg.solve(R.conj().T, X0[:, 1:]).T.conj()
    t0 = X0[:, 0].conj() + np.einsum("ji,jik->k", Yh, K_top)
    T = np.vstack([t0[None, :], K[:, m:].reshape(-1, m)])
    sT = np.linalg.svd(T, compute_uv=False)
    t_err = SCREEN_SAFETY * (default_cutoff(T.shape, _norm(T))
                             + default_cutoff(R.shape, _norm(X0)
                                              + (sR[0] / r) * (c / r) * k))
    t = (sT[-1] - t_err) / np.sqrt(1 + (c / r) ** 2)
    return float(min(r, t) / (np.sqrt(2) * (1 + k / r)))


def _stacked_bound(A, X0) -> tuple[float, float]:
    """(lower bound on sigma_min(S) net of rounding, ||S||_F) for
    S = build_stacked(A, X0), without forming S; needs n >= m,
    1 + (n-m)(N-1) >= m and A, X0 scaled to unit size."""
    N = X0.shape[1]
    W = A @ X0
    Q, R = np.linalg.qr(W[:, :1] * A, mode="complete")
    K = Q.conj().T @ (W[:, 1:].T[:, :, None] * A)
    W2 = np.abs(W) ** 2  # ||S||_F in closed form, see the module docstring
    s_norm = float(np.sqrt(np.sum(np.abs(X0) ** 2) + np.sum(np.abs(A) ** 2, axis=1)
                           @ (np.sum(W2, axis=1) + (N - 2) * W2[:, 0])))
    low = (_elimination_bound(R[:A.shape[1]], K, X0)
           - SCREEN_SAFETY * default_cutoff(A.shape, s_norm))
    return low, s_norm


def _stacked_rank(A, X0, tol: float | None = None) -> tuple[int, float]:
    """(rank of build_stacked(A, X0), tolerance used), for A and X0 scaled
    to unit size by :func:`_normalized`.

    Rank mN is reported from the bound of the module docstring, with S never
    formed, when that bound clears 10x both ``tol`` and max(rows, cols) eps
    ||S||_F, a bound on the default cutoff; the tolerance is then ``tol`` or
    that bound. Otherwise S is built and factored by one SVD.
    """
    n, m = A.shape
    N = X0.shape[1]
    if 1 + (n - m) * (N - 1) >= m:  # else T is wide: rank(S) < mN
        low, s_norm = _stacked_bound(A, X0)
        cutoff = default_cutoff((1 + n * (N - 1), m * N), s_norm)
        if clears(low, cutoff, tol):
            return m * N, cutoff if tol is None else float(tol)
    rr = numeric_rank(build_stacked(A, X0), tol=tol)
    return rr.numeric_rank, rr.tolerance_used


def certify_subspace(A, X0, lambda0, tol: float | None = None) -> CertificateReport:
    """Decide the subspace-model certificate for (A, X0, lambda0).

    A, X0 and lambda0 are first scaled to unit size by exact powers of two,
    so the verdict does not depend on their units; an explicit ``tol`` cuts
    the singular values of the certificate matrix built from the scaled pair.
    Condition 1 is decided by :func:`_stacked_rank`.
    """
    check_tolerance(tol)
    A, X0, lambda0 = _normalized(A, X0, lambda0)
    m, N = X0.shape
    cond2 = _lambda_uniqueness(A, X0, lambda0)
    rank, tolerance = _stacked_rank(A, X0, tol)
    return _report(SUBSPACE, rank == m * N, cond2, rank, m * N, tolerance)


def certify_joint_sparse(A, X0, lambda0, s: int, tol: float | None = None,
                         max_cells: int = DEFAULT_CELL_BUDGET) -> CertificateReport:
    """Joint-sparsity certificate: the rank test over every candidate support.

    The row support J0 of X0 must have size s, with 1 <= s <= m and n > 2s.
    For every s-subset J1 of the dictionary columns (lexicographic order),
    the restriction to J = J0 union J1 must have full column rank |J| * N;
    the report names the first failing subset and its position. A, X0 and
    lambda0 are scaled to unit size first, as in :func:`certify_subspace`.

    As X0 vanishes off J0, the cell matrix S_J is the column gather of the
    columns t*m + j, j in J, t < N, of S = :func:`build_stacked`, so S is
    built once and a cell costs one values-only SVD. If J lies inside J',
    S_J is a column subset of S_J' with the same rows: sigma_min(S_J) >=
    sigma_min(S_J'), and S_J's sigma_max and cutoff are no larger. So when
    S_J' has full rank clear of 10x both ``tol`` and its default cutoff (a
    bound on rounding), every cell inside J' passes. The cells come from
    :func:`bgpc.model.support_cells`, which skips the subtree below a column
    set K when J' = J0 union K is so clear; its root K is every column,
    where S_J' = S. A node is declined unfactored when
    :func:`bgpc.model.gain_count_suffices` fails at k = |J'|, as S_J' is
    then short of full rank. Every J' holds J0, so once a factored node is
    not clear, S_J0 is factored; if it is not clear either, no node is, and
    none is factored again. If no cell fails, the report is the last cell's.
    """
    check_tolerance(tol)
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

    def cell(K):
        J = sorted(J0.union(K))
        return J, numeric_rank(S[:, (block_starts + J).ravel()], tol=tol)

    def clear(J, rr):  # full rank, clear of its cutoff and the default one
        sv = rr.singular_values
        return rr.numeric_rank == len(J) * N and clears(
            sv[-1], default_cutoff((S.shape[0], len(J) * N), sv[0]), tol)

    J0_clear = None  # asked once, after the first factored node that is not clear

    def screen(K):  # () when every cell inside K passes, else None
        nonlocal J0_clear
        if J0_clear is False or not gain_count_suffices(n, len(J0.union(K)), s, N):
            return None
        ok = clear(*cell(K))
        if not ok and J0_clear is None:
            J0_clear = clear(*cell(()))
        return () if ok else None

    failing = J1 = None
    for J1 in support_cells(m, s, screen):
        J, rr = cell(J1)
        if rr.numeric_rank != len(J) * N:
            failing = J1
            checked = comb(m, s) - sum(comb(m - 1 - c, s - i) for i, c in enumerate(J1))
            break
    else:
        if J1 != tuple(range(m - s, m)):  # the walk skipped the last cell
            J, rr = cell(range(m - s, m))
        checked = comb(m, s)
    return _report(JOINT_SPARSE, failing is None, cond2, rr.numeric_rank,
                   len(J) * N, rr.tolerance_used, checked, failing)

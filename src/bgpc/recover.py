"""Null-space recovery of (lambda, X) from (Y, A), up to scaling.

Writing gamma_k = 1/lambda_k turns diag(lambda) A X = Y into a homogeneous
linear system in (vec(X), gamma): each measurement entry contributes
A[k, :] @ X[:, j] - gamma_k * Y[k, j] = 0. That system is never formed.
Its solutions are exactly the gamma that map every snapshot into range(A),
i.e. the null space of G = [Q_perp^H diag(y_j)]_j with Q_perp an orthonormal
basis of range(A)-perp, each paired with X = A^+ diag(gamma) Y plus any
element of null(A) per snapshot. So the solver takes one SVD of A, one of
the (n - r)N x n matrix G, and reports the full system's nullity as
nullity(G) + N (m - r) with r = rank(A). When that nullity is one it reads
gamma off the single null vector of G; otherwise it reports ambiguity.

Every column of G scales with Y, so the verdict does not depend on the
units of Y. rank(A) always uses the default rule on A's own singular
values; an explicit ``tol`` is an absolute cutoff on the singular values
of G. This doubles as an independent oracle for the certificates: the two
routes share no code beyond the SVD and ``cxmat.rank_decision``.
``build_recovery_system`` keeps the full system as a test oracle for the
reduced one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cxmat import (SCREEN_SAFETY, as_cmatrix, check_tolerance, clears,
                    default_cutoff, rank_decision)
from .errors import DimensionError, InconsistentSystemError
from .model import (DEFAULT_CELL_BUDGET, align_scale, check_cell_budget,
                    support_cells)

UNIQUE = "Unique"
AMBIGUOUS = "Ambiguous"
DEGENERATE_GAMMA = "DegenerateGamma"

# relative floor below which a reciprocal-gain entry counts as zero
DEFAULT_GAMMA_TOL = 1e-8
# supports whose embedded solutions align within this are one equivalence class
EQUIVALENCE_TOL = 1e-6


@dataclass(frozen=True)
class RecoveryResult:
    status: str
    null_dim: int
    gamma: np.ndarray | None = None   # reciprocal gains, arbitrary global scale
    lam: np.ndarray | None = None     # gains, only when status is Unique
    X: np.ndarray | None = None
    support: tuple[int, ...] | None = None


def _as_pair(Y, A, tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Coerce (Y, A) and check them and ``tol`` before any factorization."""
    check_tolerance(tol)
    Y = as_cmatrix(Y, "Y")
    A = as_cmatrix(A, "A")
    if A.shape[0] != Y.shape[0]:
        raise DimensionError("Y and A must have the same number of rows")
    return Y, A


def build_recovery_system(Y, A) -> np.ndarray:
    """Homogeneous system matrix over (vec(X), gamma), shape nN x (mN + n).

    Row (k, j) carries A[k, :] in the j-th m-block and -Y[k, j] in the
    gamma column k; vec is column-major so the X unknowns line up with
    vec(X).
    """
    Y, A = _as_pair(Y, A)
    n, N = Y.shape
    minus_diag_y = (-Y.T[:, :, None] * np.eye(n)).reshape(n * N, n)
    return np.hstack([np.kron(np.eye(N), A), minus_diag_y])


def _gamma_system(Y: np.ndarray, A: np.ndarray):
    """SVD of A, r = rank(A), and the reduced (n - r)N x n system G.

    Returns (U, sA, Vh, r, G); the null space of G holds the gamma that map
    every snapshot into range(A).
    """
    n, N = Y.shape
    U, sA, Vh = np.linalg.svd(A, full_matrices=True)
    r = rank_decision(sA, A.shape).numeric_rank
    # row block j is Q_perp^H diag(y_j), with Q_perp = U[:, r:]; when r = n
    # G has no rows and every gamma solves it
    G = (U[:, r:].conj().T[None, :, :] * Y.T[:, None, :]).reshape(N * (n - r), n)
    return U, sA, Vh, r, G


def _solve_gamma(Y: np.ndarray, A: np.ndarray, tol: float | None):
    """Nullity of the (vec(X), gamma) system, and its solution when unique.

    Returns (null_dim, gamma, X); gamma and X are None unless the null
    space is one-dimensional and not marginal.
    """
    n, N = Y.shape
    m = A.shape[1]
    U, sA, Vh, r, G = _gamma_system(Y, A)
    _, sG, VhG = np.linalg.svd(G, full_matrices=True)
    rr = rank_decision(sG, G.shape, tol)
    null_dim = n - rr.numeric_rank + N * (m - r)
    if null_dim != 1 or rr.marginal:
        return null_dim, None, None
    if rr.numeric_rank == n:
        # only for A = 0 with one column and one snapshot: the single null
        # direction is gamma = 0 with X spanning null(A)
        return 1, np.zeros(n, dtype=np.complex128), Vh[r:].conj().T
    gamma = VhG[rr.numeric_rank].conj()
    # X = A^+ diag(gamma) Y from the SVD already taken
    X = Vh[:r].conj().T @ ((U[:, :r].conj().T @ (gamma[:, None] * Y)) / sA[:r, None])
    return 1, gamma, X


def _degenerate(gamma: np.ndarray, gamma_tol: float) -> bool:
    return np.min(np.abs(gamma)) <= gamma_tol * np.max(np.abs(gamma))


def recover(Y, A, tol: float | None = None,
            gamma_tol: float = DEFAULT_GAMMA_TOL) -> RecoveryResult:
    """Recover (lambda, X) from consistent measurements, up to global scale."""
    Y, A = _as_pair(Y, A, tol)
    null_dim, gamma, X = _solve_gamma(Y, A, tol)
    if null_dim == 0:
        raise InconsistentSystemError(
            "recovery system has trivial null space; Y is not consistent with A")
    if gamma is None:
        return RecoveryResult(status=AMBIGUOUS, null_dim=null_dim)
    if _degenerate(gamma, gamma_tol):
        return RecoveryResult(status=DEGENERATE_GAMMA, null_dim=1, gamma=gamma, X=X)
    return RecoveryResult(status=UNIQUE, null_dim=1, gamma=gamma,
                          lam=1.0 / gamma, X=X)


def recover_joint_sparse(Y, A, s: int, tol: float | None = None,
                         gamma_tol: float = DEFAULT_GAMMA_TOL,
                         max_cells: int = DEFAULT_CELL_BUDGET) -> RecoveryResult:
    """Recovery under a shared s-sparse row support, support unknown.

    Requires 1 <= s <= m and n > 2s. Tries every s-subset J of dictionary
    columns in lexicographic order and keeps those whose restricted system
    has a one-dimensional null space with nondegenerate gamma. Uniqueness
    requires all kept supports to yield scale-equivalent solutions; the
    reported support is the first (lexicographically minimal) passing one.

    The cells come from :func:`bgpc.model.support_cells`, which skips every
    subtree whose column set K is ruled out; each cell J it yields is
    tested the same way, as K = J. For J inside K, range(A_J) lies in
    range(A_K), so Q_perp,K = Q_perp,J T with T orthonormal:
    G_K = (I_N kron T^H) G_J, so sigma_n(G_J) >= sigma_n(G_K). Every cell's
    cutoff is at most ``tol`` or max((n-s)N, n) eps sqrt(N) max|Y|, since
    sqrt(N) max|Y| bounds each row norm of Y and so sigma_max(G_J). If A_K
    has full column rank clear of its cutoff and sigma_n(G_K) clears 10x
    that bound, by a safety factor for the computed Q_perp, every cell
    inside K has null_dim 0 clear of its cutoff and is skipped. The cells
    left are solved as in :func:`recover`.
    """
    Y, A = _as_pair(Y, A, tol)
    n, N = Y.shape
    m = A.shape[1]
    if not (1 <= s <= m):
        raise DimensionError("requires 1 <= s <= m")
    if not (n > 2 * s):
        raise DimensionError("joint-sparse recovery requires n > 2s")
    check_cell_budget(m, s, max_cells)
    y_max = N ** 0.5 * float(np.max(np.abs(Y)))
    bound = tol if tol is not None else default_cutoff(((n - s) * N, n), y_max)

    def ruled_out(K) -> bool:
        if bound <= 0 or (n - len(K)) * N < n:
            return False
        _, sA, _, _, G = _gamma_system(Y, A[:, list(K)])  # A_K is n x |K|
        if not clears(sA[-1], SCREEN_SAFETY * default_cutoff((n, len(K)), sA[0])):
            return False
        q_err = default_cutoff((n, len(K)), y_max) * (sA[0] / sA[-1])  # <= y_max / 40
        sG = np.linalg.svd(G, compute_uv=False)  # n values: G has >= n rows
        return clears(sG[-1] - SCREEN_SAFETY * q_err, SCREEN_SAFETY * bound)

    hits = []
    max_null = 0
    for J in support_cells(m, s, ruled_out):
        if ruled_out(J):
            continue
        null_dim, gamma, XJ = _solve_gamma(Y, A[:, list(J)], tol)
        max_null = max(max_null, null_dim)
        if gamma is None or _degenerate(gamma, gamma_tol):
            continue
        X = np.zeros((m, N), dtype=np.complex128)
        X[list(J), :] = XJ
        hits.append((J, X, gamma))
    if not hits:
        return RecoveryResult(status=AMBIGUOUS, null_dim=max_null)
    J_ref, X_ref, g_ref = hits[0]
    ref = np.concatenate([X_ref.flatten(order="F"), g_ref])[None, :]
    for _, X, gamma in hits[1:]:
        cand = np.concatenate([X.flatten(order="F"), gamma])[None, :]
        if not align_scale(cand, ref).relative_error <= EQUIVALENCE_TOL:
            return RecoveryResult(status=AMBIGUOUS, null_dim=1)
    return RecoveryResult(status=UNIQUE, null_dim=1, gamma=g_ref,
                          lam=1.0 / g_ref, X=X_ref, support=tuple(J_ref))

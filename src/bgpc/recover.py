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
from .errors import DimensionError
from .model import (DEFAULT_CELL_BUDGET, align_scale, check_cell_budget,
                    gain_count_suffices, support_cells)

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
    # the full V is needed only when G is wide; the full U never is
    _, sG, VhG = np.linalg.svd(G, full_matrices=G.shape[0] < n)
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


def _degenerate(gamma: np.ndarray) -> bool:
    return np.min(np.abs(gamma)) <= DEFAULT_GAMMA_TOL * np.max(np.abs(gamma))


def recover(Y, A, tol: float | None = None) -> RecoveryResult:
    """Recover (lambda, X) from (Y, A) up to global scale; no gamma fitting Y
    is Ambiguous with null_dim 0, as in :func:`recover_joint_sparse`."""
    Y, A = _as_pair(Y, A, tol)
    null_dim, gamma, X = _solve_gamma(Y, A, tol)
    if gamma is None:
        return RecoveryResult(status=AMBIGUOUS, null_dim=null_dim)
    if _degenerate(gamma):
        return RecoveryResult(status=DEGENERATE_GAMMA, null_dim=1, gamma=gamma, X=X)
    return RecoveryResult(status=UNIQUE, null_dim=1, gamma=gamma,
                          lam=1.0 / gamma, X=X)


def _root_screen(Y: np.ndarray, A: np.ndarray, s: int, y_max: float,
                 bound: float):
    """Cell bounds of the joint-sparse search from one factorization of A.

    A is the dictionary of one node of the walk, the node's columns of the
    whole dictionary, and the root of its own search. Returns None when A
    does not count (below); otherwise (rows, low): rows[i] = ||B_i||^2 for
    the rows of B = sigma_min(A) X / c below, and low maps the weight
    outside a column set K of A, the sum of rows[i] over i not in K, to a
    lower bound on the computed sigma_n(G_J) of every s-cell J inside K,
    each G_J formed and factored as in :func:`_solve_gamma`. K = all m
    columns of A is the node itself.
    Write c = y_max = sqrt(N) max|Y|: it bounds every row norm of Y, so
    ||G_J|| <= c, and ||diag(g) Y||_F <= c for every unit vector g.

    The bound, in exact arithmetic. Let v be a unit right singular vector of
    G for its smallest singular value, so ||G v|| = tau := sigma_n(G) and
    ||G u|| >= sigma2 := sigma_{n-1}(G) for every unit u orthogonal to v.
    For J inside A's columns, range(A_J) lies in range(A), so Q_perp =
    Q_perp,J T with T orthonormal, G = (I_N kron T^H) G_J, and
    ||G_J x|| >= ||G x||. And G_J v
    stacks the Q_perp,J^H z_j of Z = diag(v) Y, so ||G_J v|| =
    ||P_perp,J Z||_F >= ||P_perp,K Z||_F =: rho_K. Split Z = A X + R with
    X = A^+ Z and R orthogonal to range(A). With Kc the columns not in K,
    P_perp,K Z = P_perp,K A_Kc X_Kc + R: two orthogonal parts, and
    sigma_min(P_perp,K A_Kc) >= sigma_min(A) (a Schur complement), so
    rho_K >= sigma_min(A) ||X_Kc||_F. A unit x is a v + b u, u a unit
    vector orthogonal to v, and
        ||G_J x|| >= max(|b| sigma2 - |a| tau, |a| rho_K - |b| c),
    the first from G, the second from G_J. Along the unit circle the first
    grows with |b| and the second falls; they meet where (|a|, |b|) is
    proportional to (sigma2 + c, rho_K + tau). So
        sigma_n(G_J) >= (rho_K sigma2 - c tau)
                        / sqrt((sigma2 + c)^2 + (rho_K + tau)^2).
    The right side grows with rho_K, so a lower bound on rho_K may stand in
    for it, and it never exceeds sigma2. Also sigma_n(G_J) >= tau, which
    rules out every cell when no gamma fits; the bound is the larger of the
    two.

    Rounding. Each term is a multiple of c, inflated by ``SCREEN_SAFETY``
    for the constants the backward-error bounds leave out:
    - q c, q = n eps kappa(A). The computed Q_perp of A lies within about
      n eps kappa(A) of an exact orthonormal basis of range(A)-perp, so the
      computed G lies within q c of an exact G (no norm above depends on
      the basis). So does each cell's computed G_J of its exact one, as
      kappa(A_J) <= kappa(A).
    - (q + g) c in sigma2 and tau, g = default_cutoff(G.shape, s_1 / c).
      The SVD of the computed G is exact for a matrix within g c of it,
      with singular values s_i and right singular vectors within n eps of
      the computed ones. With v that matrix's last vector,
      ||G u|| >= s_(n-1) - (q + g) c, ||G v|| <= s_n + (q + g) c, and
      sigma_n(G) >= s_n - (q + g) c.
    - 5q c in rho_K. X is formed as A^+ diag(gamma) Y from A's computed
      SVD. The computed gamma lies within n eps of v, that SVD's
      pseudo-inverse is off by about sqrt(2) q / sigma_min(A), and
      ||Z||_F <= c; the products and row norms add (n + m + 1) eps c. So
      sigma_min(A) ||X_Kc||_F is within (1 + sqrt(2) + 2) q c of its
      computed value. And sigma_min(A) >= s_m(A) -
      default_cutoff(A.shape, s_1(A)), the backward error of A's SVD.
    - (q + default_cutoff(((n - s) N, n), 1)) c off the bound: a cell's
      computed sigma_n(G_J) lies within its Q_perp error and its own SVD's
      rounding of the exact one, with sigma_max(G_J) <= c.
    q is subtracted twice because its two copies bound two different
    computed matrices. The first, in sigma2, tau and rho_K, carries the
    node's computed G, from the SVD of A, to an exact one. The second, in
    the last term, carries each cell's exact G_J to the computed G_J that
    :func:`_solve_gamma` factors, from its own SVD of A_J. The exact bound
    links the two exact matrices only, and neither rounding error bounds
    the other.
    At ``tol`` = 0 the cells' cutoff bound is 0, and a bound that clears
    it is just low > 0: the computed sigma_n(G_J) is then positive, so
    G_J has rank n at the cutoff 0, as when the cell is solved.
    Everything is formed divided by c, so nothing overflows at any units
    of Y.

    A counts when:
    - (n - m) N >= n, so every G_J has at least n rows;
    - :func:`bgpc.model.gain_count_suffices` holds at k = m. Off the
      model G may still have full rank where it fails, and tau alone
      would rule out every cell; such a node is passed over unfactored
      all the same, since on the model its two SVDs would be wasted;
    - c clears ``SCREEN_SAFETY`` times ``bound``, checked before any SVD.
      low(w) is c times at most sigma2 or tau_low, less cell_err, and the
      singular values of G are at most ||G|| <= c, with e above their
      rounding; so low(w) < c for every w, and when c does not clear, no
      node can. Y = 0 is the case c = 0. This gate is a rule of cost, not
      of soundness: a declined node sends its cells on to be solved, as
      any other does;
    - rank(A) = m, clear of its cutoff by the ``SCREEN_SAFETY`` margin;
    - low(w_s) clears, w_s the s-th largest weight. Then sigma2 clears
      too, or tau does and no gamma fits at all. When A is nearly rank
      deficient, sigma_min(A) is small and the bound rules out little;
      the walk then descends to nodes of fewer columns.

    The heavy cell. Let J* be the rows of weight >= w_s; it has at least s
    of them. A column set K that misses a row i of J* leaves weight
    >= w_i >= w_s outside it, and low grows with that weight, so
    low(w_s) bounds every cell inside K. When A counts, every cell
    that misses a row of J* is ruled out: all cells when |J*| > s, and all
    but J* itself when |J*| = s. J* is then ruled out by low of the
    weight outside it, or left as the only cell to solve.
    """
    n, N = Y.shape
    m = A.shape[1]
    if ((n - m) * N < n or not gain_count_suffices(n, m, s, N)
            or not clears(y_max, SCREEN_SAFETY * bound)):
        return None
    U, sA, Vh, _, G = _gamma_system(Y, A)
    a_err = default_cutoff((n, m), sA[0])
    if not clears(sA[-1], SCREEN_SAFETY * a_err):
        return None
    _, sG, VhG = np.linalg.svd(G, full_matrices=False)
    q = default_cutoff((n, m), 1.0) * (sA[0] / sA[-1])
    e = SCREEN_SAFETY * (q + default_cutoff(G.shape, sG[0] / y_max))
    sigma2 = sG[-2] / y_max - e
    tau, tau_low = sG[-1] / y_max + e, sG[-1] / y_max - e
    # sigma_min(A) A^+ diag(gamma) Y / c, from the SVD of A already taken
    Z = VhG[-1].conj()[:, None] * (Y / y_max)
    B = Vh.conj().T @ ((U[:, :m].conj().T @ Z) * (sA[-1] / sA)[:, None])
    rows = (np.linalg.norm(B, axis=1) ** 2).tolist()
    shrink = 1.0 - a_err / sA[-1]
    x_err = SCREEN_SAFETY * 5.0 * q
    cell_err = SCREEN_SAFETY * (q + default_cutoff(((n - s) * N, n), 1.0))

    def low(rows_Kc: float) -> float:
        rho = shrink * rows_Kc ** 0.5 - x_err
        h = (rho * sigma2 - tau) / ((sigma2 + 1.0) ** 2 + (rho + tau) ** 2) ** 0.5
        return y_max * (max(h, tau_low) - cell_err)

    if not clears(low(sorted(rows)[-s]), SCREEN_SAFETY * bound):
        return None
    return rows, low


def recover_joint_sparse(Y, A, s: int, tol: float | None = None,
                         max_cells: int = DEFAULT_CELL_BUDGET) -> RecoveryResult:
    """Recovery under a shared s-sparse row support, support unknown.

    Requires 1 <= s <= m and n > 2s. Tries every s-subset J of dictionary
    columns in lexicographic order and keeps those whose restricted system
    has a one-dimensional null space with nondegenerate gamma. Uniqueness
    requires all kept supports to yield scale-equivalent solutions; the
    reported support is the first (lexicographically minimal) passing one.

    The cells come from :func:`bgpc.model.support_cells`. Each node K of
    its walk with more than s columns, the root of all m columns first, is
    screened by :func:`_root_screen` of A[:, K]: one SVD of A_K and one of
    its system G_K; a node of s columns is its one cell, and is solved.
    Every cell's cutoff is at most ``tol`` or max((n-s)N, n) eps
    sqrt(N) max|Y|, since sqrt(N) max|Y| bounds each row norm of Y and so
    sigma_max(G_J). When K counts, its bound clears 10x that cutoff bound
    for every cell inside K that misses a row of the heavy cell J*, the
    rows of A_K's X at least as heavy as its s-th heaviest, and
    rank(A_K) = |K| clear of its cutoff gives every A_J full column rank
    clear of its own: those cells have null_dim 0. So no cell inside K is
    left when J* has more than s rows, and otherwise only J*, unless its
    own bound clears too. A node that does not count is descended. No
    bound exceeds sqrt(N) max|Y|, so when that does not clear the cutoff
    bound (Y = 0, or a ``tol`` too large for the units of Y) no node is
    factored, and each cell costs its own two SVDs, as if every cell were
    solved. Above the sample complexity the root counts at a generic
    instance, and the planted support is the only cell solved. The cells
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

    def screen(K):  # None to descend, or the cells inside K left by its bound
        found = _root_screen(Y, A[:, list(K)], s, y_max, bound)
        if found is None:
            return None
        rows, low = found
        w_s = sorted(rows)[-s]
        heavy = tuple(K[i] for i, w in enumerate(rows) if w >= w_s)
        if len(heavy) > s or clears(low(sum(w for w in rows if w < w_s)),
                                    SCREEN_SAFETY * bound):
            return ()
        return (heavy,)

    hits, max_null = [], 0
    for J in support_cells(m, s, screen):
        null_dim, gamma, XJ = _solve_gamma(Y, A[:, list(J)], tol)
        max_null = max(max_null, null_dim)
        if gamma is None or _degenerate(gamma):
            continue
        X = np.zeros((m, N), dtype=np.complex128)
        X[list(J), :] = XJ
        # with [vec(X); gamma], the vector scale equivalence is judged on
        hits.append((J, X, gamma,
                     np.concatenate([X.flatten(order="F"), gamma])[None, :]))
    if not hits:
        return RecoveryResult(status=AMBIGUOUS, null_dim=max_null)
    J_ref, X_ref, g_ref, ref = hits[0]
    for *_, cand in hits[1:]:
        if not align_scale(cand, ref).relative_error <= EQUIVALENCE_TOL:
            return RecoveryResult(status=AMBIGUOUS, null_dim=1)
    return RecoveryResult(status=UNIQUE, null_dim=1, gamma=g_ref,
                          lam=1.0 / g_ref, X=X_ref, support=tuple(J_ref))

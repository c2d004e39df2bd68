"""BGPC problem instances and the surrounding arithmetic.

A BGPC instance bundles gains ``lambda0`` (length n), a dictionary ``A``
(n x m, tall in subspace mode), and snapshots ``X0`` (m x N); the forward
map is Y = diag(lambda0) @ A @ X0. Sample-complexity thresholds and the
scale-ambiguity alignment helper live here as well.

Row-support indices are 0-based throughout the Python API; serialization
converts to the 1-based on-disk convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .cxmat import as_cmatrix, pow2_scaled
from .errors import BudgetExceededError, DimensionError

# default cap on the s-subsets a joint-sparse support enumeration may visit
DEFAULT_CELL_BUDGET = 10 ** 6


@dataclass(frozen=True)
class BGPCInstance:
    n: int
    m: int
    N: int
    lambda0: np.ndarray  # shape (n,)
    X0: np.ndarray       # shape (m, N)
    A: np.ndarray        # shape (n, m)
    support: tuple[int, ...] | None = None  # sorted 0-based row support of X0

    def __post_init__(self):
        if self.lambda0.shape != (self.n,):
            raise DimensionError("lambda0 must have length n")
        if self.A.shape != (self.n, self.m):
            raise DimensionError("A must be n x m")
        if self.X0.shape != (self.m, self.N):
            raise DimensionError("X0 must be m x N")
        for arr in (self.lambda0, self.X0, self.A):
            if not np.isfinite(arr).all():
                raise ValueError("instance entries must be finite")
        if self.support is not None:
            sup = tuple(sorted(self.support))
            object.__setattr__(self, "support", sup)
            if len(sup) > self.m or any(j < 0 or j >= self.m for j in sup):
                raise DimensionError("support must be a subset of 0..m-1")
            off = [i for i in range(self.m) if i not in set(sup)]
            if off and np.any(self.X0[off, :] != 0):
                raise ValueError("X0 has nonzero rows outside the declared support")

    @property
    def s(self) -> int | None:
        return None if self.support is None else len(self.support)


@dataclass(frozen=True)
class ScaleAlignment:
    """Best complex scale sigma matching an estimate to a reference.

    ``relative_error`` is ||est - sigma*truth||_F / ||truth||_F at the
    minimizing sigma. ``degenerate`` flags a (near-)zero sigma, i.e. the
    estimate has no component along the reference.
    """

    sigma: complex
    relative_error: float
    degenerate: bool = False


def forward(inst: BGPCInstance) -> np.ndarray:
    """Y = diag(lambda0) @ A @ X0, shape (n, N)."""
    return inst.lambda0[:, None] * (inst.A @ inst.X0)


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    # standard complex normal: real/imag i.i.d. N(0, 1/2)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_instance(n: int, m: int, N: int, seed,
                    sparsity: int | None = None) -> BGPCInstance:
    """Draw a generic instance from a seeded complex Gaussian ensemble.

    In subspace mode (``sparsity`` None) requires n > m. In sparse mode the
    row support is drawn uniformly among s-subsets of 0..m-1 and all other
    rows of X0 are exactly zero. Identical seeds give identical instances.
    """
    if n < 1 or m < 1 or N < 1:
        raise DimensionError("n, m, N must be positive")
    if sparsity is None and n <= m:
        raise DimensionError("subspace mode requires n > m")
    if sparsity is not None and (sparsity < 1 or sparsity > m):
        raise DimensionError("sparsity must satisfy 1 <= s <= m")
    rng = np.random.default_rng(seed)
    lambda0 = _complex_normal(rng, n)
    A = _complex_normal(rng, (n, m))
    if sparsity is None:
        X0 = _complex_normal(rng, (m, N))
        support = None
    else:
        support = tuple(sorted(rng.choice(m, size=sparsity, replace=False).tolist()))
        X0 = np.zeros((m, N), dtype=np.complex128)
        X0[list(support), :] = _complex_normal(rng, (sparsity, N))
    return BGPCInstance(n=n, m=m, N=N, lambda0=lambda0, X0=X0, A=A, support=support)


def min_samples_subspace(n: int, m: int) -> int:
    """Optimal snapshot count ceil((n-1)/(n-m)) for the subspace model."""
    if not (n > m >= 1):
        raise DimensionError("requires n > m >= 1")
    return -((n - 1) // -(n - m))


def min_samples_joint_sparse(n: int, s: int) -> int:
    """Optimal snapshot count ceil((n-1)/(n-2s)) for the joint-sparsity model."""
    if not (n > 2 * s and s >= 1):
        raise DimensionError("requires n > 2s >= 2")
    return -((n - 1) // -(n - 2 * s))


def check_cell_budget(m: int, s: int, max_cells: int) -> None:
    """Refuse an enumeration of all s-subsets of m columns above max_cells."""
    n_cells = comb(m, s)
    if n_cells > max_cells:
        raise BudgetExceededError(
            f"support enumeration needs {n_cells} cells, budget is {max_cells}")


def gain_count_suffices(n: int, k: int, s: int, N: int) -> bool:
    """Whether (n - k) min(N, s) >= n - 1: the count of gain equations on k
    dictionary columns against the n - 1 unknowns of the gains up to scale.

    On k columns of full rank the gain system G = [Q_perp^H diag(y_j)]_j of
    :mod:`bgpc.recover` has n - k rows per snapshot, linear in y_j, so its
    rows span at most (n - k) rank(Y) dimensions; under the model Y has
    rank at most min(N, s). When the count fails, G has a null space of
    dimension two or more, and with W = A X0 for Y the certificate matrix
    on those columns is short of full rank.
    """
    return (n - k) * min(N, s) >= n - 1


def support_cells(m: int, s: int, screen):
    """The s-subsets of range(m) as tuples, in lexicographic order, less
    those a screen rules out. Below a node with chosen columns ``prefix``
    and next column j lie the cells inside K = prefix + (j..m-1) that hold
    prefix. ``screen(K)`` returns None to descend, or the cells inside K
    still left; the walk yields those that hold prefix and skips the rest
    of K. At the last j, m - s + len(prefix), K is itself one cell and is
    yielded unscreened, as a screen of it costs as much as deciding it; so
    ``screen`` is only asked a K of more than s columns. The caller
    decides each cell yielded."""
    def walk(prefix, start):
        if len(prefix) == s:
            yield prefix
            return
        for j in range(start, m - s + len(prefix) + 1):
            K = prefix + tuple(range(j, m))
            # K shrinks as j grows, so the first K decided ends the loop; at
            # j = start it is the caller's own K, already screened, and the
            # last K is one cell, left without a screen
            left = ([K] if len(K) == s else
                    screen(K) if j > start or not prefix else None)
            if left is not None:
                yield from (J for J in sorted(left) if J[:len(prefix)] == prefix)
                return
            yield from walk(prefix + (j,), j + 1)
    return walk((), 0)


def align_scale(estimate, truth) -> ScaleAlignment:
    """Closed-form minimizer of ||estimate - sigma*truth||_F over complex sigma.

    Both matrices are scaled to unit size by exact powers of two first, so
    the norms cannot overflow; sigma and the relative error then carry the
    ratio of the two scales, and overflow to inf only when that does.
    """
    E, e_exp = pow2_scaled(as_cmatrix(estimate, "estimate"))
    T, t_exp = pow2_scaled(as_cmatrix(truth, "truth"))
    if E.shape != T.shape:
        raise DimensionError("estimate and truth must have the same shape")
    t_norm = float(np.linalg.norm(T))
    if t_norm == 0.0:
        raise ValueError("truth must be nonzero")
    sigma = complex(np.vdot(T, E) / (t_norm * t_norm))
    resid = float(np.linalg.norm(E - sigma * T)) / t_norm
    e_norm = float(np.linalg.norm(E))
    degenerate = abs(sigma) * t_norm <= 1e-12 * max(e_norm, 1e-300)
    with np.errstate(over="ignore"):
        re, im, resid = np.ldexp([sigma.real, sigma.imag, resid], e_exp - t_exp)
    return ScaleAlignment(sigma=complex(re, im), relative_error=float(resid),
                          degenerate=degenerate)

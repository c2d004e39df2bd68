"""Dense complex-matrix foundation.

Everything downstream (certificates, constructions, recovery) runs through
the helpers in this module: DFT matrices and the one rank decision. Every
numeric rank in the package comes from :func:`rank_decision`, which owns
the check that an explicit cutoff is nonnegative and the flag for a
marginal call. The default cutoff ``max(rows, cols) * eps * sigma_max`` is
:func:`default_cutoff` and the one margin rule is :func:`clears`; the
screens that decide a rank from a bound, with no SVD, use both.

Matrices are plain ``numpy.ndarray`` of dtype complex128, treated as
immutable values: every operation returns a fresh array and never mutates
its inputs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

EPS = float(np.finfo(np.float64).eps)
# margin by which a rank screen's rounding terms are inflated, for constants
# the backward-error bounds leave out
SCREEN_SAFETY = 4.0


def as_cmatrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex128 array and reject empty or non-finite input."""
    M = np.asarray(a, dtype=np.complex128)
    if M.ndim == 1:
        M = M[None, :]
    if M.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={M.ndim}")
    if M.size == 0:
        raise DimensionError(f"{name} must be nonempty")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M


def pow2_scaled(M: np.ndarray) -> tuple[np.ndarray, int]:
    """(M / 2^e, e), with e chosen to put the largest modulus in [0.5, 1).

    Scaling by a power of two is exact, so only the units of M change.
    """
    _, e = np.frexp(np.max(np.abs(M)))
    scaled = np.ldexp(np.ascontiguousarray(M).view(np.float64), -e)
    return scaled.view(np.complex128), int(e)


@dataclass(frozen=True)
class RankResult:
    """Numeric rank of a matrix at an explicit tolerance.

    ``numeric_rank`` counts the singular values strictly above
    ``tolerance_used``; ``singular_values`` are sorted nonincreasing.
    ``marginal`` flags a smallest kept singular value within 10x of the
    cutoff, where the rank call is numerically borderline.
    """

    numeric_rank: int
    singular_values: np.ndarray
    tolerance_used: float
    marginal: bool


def check_tolerance(tol: float | None) -> None:
    """Reject a cutoff that is not a nonnegative real; None means the default."""
    if tol is not None and (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
                            or not tol >= 0):
        raise ValueError(f"tolerance must be a nonnegative real, got {tol!r}")


def default_cutoff(shape: tuple[int, ...], scale: float) -> float:
    """max(shape) * eps * scale: the default rank cutoff of a matrix of
    ``shape`` whose largest singular value is (at most) ``scale``, and the
    size of the rounding error of a backward-stable factorization of it."""
    return max(shape) * EPS * scale


def clears(low: float, cutoff: float, tol: float | None = None) -> bool:
    """low > c and not low < 10 c, for c = cutoff or, given tol, max(cutoff, tol)."""
    c = cutoff if tol is None else max(cutoff, tol)
    return low > c and not low < 10 * c


def rank_decision(s: np.ndarray, shape: tuple[int, int],
                  tol: float | None = None) -> RankResult:
    """Rank of a matrix of ``shape`` from its nonincreasing singular values.

    When ``tol`` is None the cutoff is max(rows, cols) * eps * sigma_max.
    """
    check_tolerance(tol)
    if tol is None:
        tol = default_cutoff(shape, float(s[0]) if s.size else 0.0)
    rank = int(np.count_nonzero(s > tol))
    marginal = rank > 0 and not clears(float(s[rank - 1]), tol)
    return RankResult(numeric_rank=rank, singular_values=s,
                      tolerance_used=float(tol), marginal=marginal)


def dft_matrix(n: int) -> np.ndarray:
    """Unnormalized n x n DFT matrix with entry (j, k) = exp(-2*pi*i*j*k/n).

    Every entry has unit modulus, so F @ F.conj().T == n * I.
    """
    if n < 1:
        raise DimensionError("dft_matrix requires n >= 1")
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n)


def numeric_rank(M, tol: float | None = None) -> RankResult:
    """Numeric rank of M: one SVD, then :func:`rank_decision`."""
    check_tolerance(tol)
    M = as_cmatrix(M)
    return rank_decision(np.linalg.svd(M, compute_uv=False), M.shape, tol)

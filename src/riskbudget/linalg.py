"""Dense symmetric linear algebra for covariance work.

Cholesky factorization with pivot-level failure reporting, a symmetric
eigensolver (LAPACK through numpy), Frobenius-nearest positive semidefinite
repair (also from an eigendecomposition in hand), and sample covariance
estimation. Everything operates on plain numpy arrays and is pure: no
function mutates its inputs.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray
from scipy.linalg.lapack import dpotrf

__all__ = [
    "NotPositiveDefinite",
    "InsufficientHistory",
    "cholesky",
    "symmetric_eig",
    "nearest_psd",
    "psd_from_eig",
    "covariance",
]


class NotPositiveDefinite(Exception):
    """Raised when a Cholesky pivot is not strictly positive.

    ``pivot`` is the 0-based index of the first failing pivot, i.e. the
    order of the smallest non-positive-definite leading minor minus one.
    Callers that can tolerate indefinite input should repair the matrix
    with :func:`nearest_psd` and retry.
    """

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"matrix is not positive definite (pivot {pivot} <= 0)")


class InsufficientHistory(Exception):
    """Raised when a return panel has fewer than two observations."""


def _as_square(a, name: str = "matrix") -> NDArray[np.float64]:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def cholesky(c) -> NDArray[np.float64]:
    """Upper-triangular Cholesky factor ``R`` with ``R.T @ R == c``.

    Parameters
    ----------
    c : (n, n) array_like
        Symmetric positive definite matrix.

    Returns
    -------
    (n, n) ndarray
        Upper-triangular ``R`` with strictly positive diagonal.

    Raises
    ------
    NotPositiveDefinite
        If a pivot <= 0 is encountered; ``pivot`` names the 0-based index.
    """
    c = _as_square(c)
    r, info = dpotrf(c, lower=0, clean=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefinite(pivot=info - 1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return r


def symmetric_eig(a):
    """Eigendecomposition of a symmetric matrix (LAPACK, ``numpy.linalg.eigh``).

    The input is symmetrized to ``(a + a.T) / 2`` first, so only its
    symmetric part matters.

    Returns
    -------
    (w, v) : ndarray pairs
        Eigenvalues ``w`` ascending and orthonormal eigenvectors as the
        columns of ``v``, so that ``a == v @ diag(w) @ v.T``.
    """
    a = _as_square(a)
    return np.linalg.eigh(0.5 * (a + a.T))


def nearest_psd(c, eps: float = 0.0) -> NDArray[np.float64]:
    """Frobenius-nearest positive semidefinite matrix, with eigenvalue floor.

    The input is symmetrized to ``B = (C + C.T) / 2``; the nearest PSD
    matrix is ``(B + H) / 2`` with ``H`` the symmetric polar factor of
    ``B``, which reduces to clipping the negative eigenvalues of ``B`` to
    zero. Eigenvalues below ``eps`` are then lifted to ``eps`` so that the
    result admits a Cholesky factorization when ``eps > 0``.

    Total on any square real input; output minimum eigenvalue is at least
    ``eps`` up to roundoff.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return psd_from_eig(*symmetric_eig(c), eps)


def psd_from_eig(w, v, eps: float) -> NDArray[np.float64]:
    """``v @ diag(max(w, eps)) @ v.T``, symmetrized: the repair of
    :func:`nearest_psd` from an eigendecomposition ``(w, v)`` already in hand."""
    out = (v * np.maximum(w, eps)) @ v.T
    return 0.5 * (out + out.T)


def covariance(returns) -> NDArray[np.float64]:
    """Sample covariance of a returns panel, denominator ``T - 1``.

    Parameters
    ----------
    returns : (T, n) array_like
        T aligned observations of n assets' per-period simple returns.

    Raises
    ------
    InsufficientHistory
        If fewer than two observations are supplied.
    """
    x = np.asarray(returns, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"returns must be a 2-d panel, got shape {x.shape}")
    t = x.shape[0]
    if t < 2:
        raise InsufficientHistory(f"need >= 2 observations, got {t}")
    centered = x - x.mean(axis=0)
    c = centered.T @ centered / (t - 1)
    return 0.5 * (c + c.T)

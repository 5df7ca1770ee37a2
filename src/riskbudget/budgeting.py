"""Classical risk-budget weights via the log-barrier objective.

Minimizing ``0.5 x'Cx - sum_i b_i log x_i`` over positive x makes the
stationarity conditions coincide with the risk-budget equations, so the
minimizer (rescaled to the simplex) allocates each asset exactly its
budgeted share of portfolio variance. Solved by Newton steps under one
damping rule that keeps every iterate positive, with no line search: the
objective is strictly convex, so a positive stationary point is its
unique minimizer.
"""

from __future__ import annotations

import numpy as np

from .linalg import cholesky

__all__ = [
    "NonConvergence",
    "DegeneratePortfolio",
    "solve_vanilla",
    "risk_contributions",
]


class NonConvergence(Exception):
    """Iteration budget exhausted before the stationarity residual fell below tol."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(f"no convergence after {iterations} iterations (residual {residual:.3e})")


class DegeneratePortfolio(Exception):
    """Portfolio variance is not positive; contributions are undefined."""


def _validate_budgets(budgets) -> np.ndarray:
    b = np.asarray(budgets, dtype=float).ravel()
    if np.any(b <= 0):
        raise ValueError("all budgets must be strictly positive; drop zero-budget assets first")
    if abs(b.sum() - 1.0) > 1e-8:
        raise ValueError(f"budgets must sum to 1, got {b.sum()!r}")
    return b


def solve_vanilla(cov, budgets, tol: float = 1e-10, max_iters: int = 200) -> np.ndarray:
    """Long-only weights whose risk contributions equal ``budgets``.

    Parameters
    ----------
    cov : (n, n) array_like
        Positive definite covariance matrix.
    budgets : (n,) array_like
        Strictly positive budgets summing to 1.
    tol : float
        Stationarity tolerance: iteration stops once
        ``|(Cx)_i - b_i / x_i| <= tol * (1 + max|Cx|)`` for all i, checked
        before the final rescaling.
    max_iters : int
        Newton steps taken before giving up.

    Returns
    -------
    (n,) ndarray
        Weights on the simplex (sum 1, all positive). Only the rescaled
        weights are exposed; the unit-variance intermediate solution of
        the barrier problem is internal.

    Raises
    ------
    NotPositiveDefinite
        If ``cov`` fails its Cholesky factorization.
    NonConvergence
        If the residual never reaches ``tol``.

    Notes
    -----
    Each iteration solves ``(C + diag(b / x**2)) d = Cx - b / x`` and sets
    ``x <- x - d / (1 + m)`` with ``m = max(0, max_i d_i / x_i)``: no
    coordinate loses more than the fraction ``m / (1 + m)`` of itself, and
    the step becomes the full Newton step as ``d`` vanishes. ``C`` is the
    covariance over its mean variance.
    """
    c = np.asarray(cov, dtype=float)
    b = _validate_budgets(budgets)
    if c.shape != (b.size, b.size):
        raise ValueError(f"cov shape {c.shape} does not match {b.size} budgets")
    cholesky(c)  # positive definiteness gate
    # normalize the variance scale: the stationarity conditions are scale
    # invariant and an O(1) matrix keeps the Newton arithmetic well away
    # from the floating-point noise floor
    c = c / float(np.mean(np.diag(c)))

    x = np.sqrt(b) / np.sqrt(np.diag(c))
    for _ in range(max_iters):
        cx = c @ x
        grad = cx - b / x
        residual = float(np.abs(grad).max())
        if residual <= tol * (1.0 + float(np.abs(cx).max())):
            return x / x.sum()
        delta = np.linalg.solve(c + np.diag(b / x**2), grad)
        m = max(0.0, float(np.max(delta / x)))
        x = x - delta / (1.0 + m)

    grad = c @ x - b / x
    raise NonConvergence(max_iters, float(np.abs(grad).max()))


def risk_contributions(cov, weights) -> np.ndarray:
    """Fractional variance contributions ``x_i (Cx)_i / x'Cx``; sums to 1."""
    c = np.asarray(cov, dtype=float)
    x = np.asarray(weights, dtype=float).ravel()
    cx = c @ x
    total = x @ cx
    if total <= 0:
        raise DegeneratePortfolio(f"portfolio variance {total!r} is not positive")
    return x * cx / total

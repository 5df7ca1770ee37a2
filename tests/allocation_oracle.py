"""Dense assembly of the allocation program, the reference for the row form.

This is the assembly ``build_program`` used before it emitted ``A`` as a
``RowMatrix``: every block written out row by row into a dense matrix.
"""

import numpy as np

from riskbudget.cones import NonNeg, SecondOrder, Zero
from riskbudget.linalg import cholesky


def dense_program(problem):
    """``(c, A, b, cones)`` of the allocation program, with ``A`` dense."""
    c = problem.cov
    n = problem.size
    upper = cholesky(c)
    has_t = problem.lam > 0
    has_d = problem.mu > 0

    nv = n + (1 if has_t else 0) + (2 * n if has_d else 0)
    t_col = n
    d_col = n + (1 if has_t else 0)

    obj = np.zeros(nv)
    obj[:n] = -problem.forecasts
    if has_t:
        obj[t_col] = problem.lam
    if has_d:
        obj[d_col:] = problem.mu

    rows, rhs, cones = [], [], []

    def add(kind, block, r):
        rows.append(np.atleast_2d(block))
        rhs.append(np.atleast_1d(np.asarray(r, dtype=float)))
        cones.append(kind(np.atleast_2d(block).shape[0]))

    budget_row = np.zeros(nv)
    budget_row[:n] = 1.0
    add(Zero, budget_row, 1.0)

    if has_d:
        blk = np.zeros((n, nv))
        blk[:, :n] = np.eye(n)
        blk[:, d_col : d_col + n] = -np.eye(n)
        blk[:, d_col + n :] = np.eye(n)
        add(Zero, blk, problem.prev_weights)

    lower_blk = np.zeros((n, nv))
    lower_blk[:, :n] = -np.eye(n)
    add(NonNeg, lower_blk, -problem.lower)
    finite_u = np.isfinite(problem.upper)
    if np.any(finite_u):
        idx = np.flatnonzero(finite_u)
        blk = np.zeros((idx.size, nv))
        blk[np.arange(idx.size), idx] = 1.0
        add(NonNeg, blk, problem.upper[idx])
    if has_d:
        blk = np.zeros((2 * n, nv))
        blk[:, d_col:] = -np.eye(2 * n)
        add(NonNeg, blk, np.zeros(2 * n))

    if has_t:
        blk = np.zeros((n + 1, nv))
        blk[0, t_col] = -1.0
        blk[1:, :n] = -upper
        add(SecondOrder, blk, np.zeros(n + 1))

    for i in range(n):
        blk = np.zeros((n + 2, nv))
        ei = np.zeros(n)
        ei[i] = 1.0
        blk[0, :n] = -(ei + c[i])
        blk[1, :n] = -(ei - c[i])
        blk[2:, :n] = -2.0 * np.sqrt(problem.budgets[i]) * upper
        add(SecondOrder, blk, np.zeros(n + 2))

    return obj, np.vstack(rows), np.concatenate(rhs), tuple(cones)

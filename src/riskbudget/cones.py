"""Cone block types and the Jordan-algebra machinery behind the solver.

The solver works on a product cone made of three block kinds: Zero blocks
(equality rows), NonNeg blocks (componentwise inequalities) and SecondOrder
blocks (Lorentz cones, first coordinate >= norm of the rest). This module
holds the block dataclasses plus the internal primitives an interior-point
iteration needs on the NonNeg x SecondOrder part: identity element, Jordan
products and inverses, Nesterov-Todd scalings, and maximum step lengths to
the cone boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Zero", "NonNeg", "SecondOrder", "ConeStructure", "NTScaling", "GramPlan"]


@dataclass(frozen=True)
class Zero:
    """Equality rows: the slack of this block is pinned to zero."""

    dim: int


@dataclass(frozen=True)
class NonNeg:
    """Componentwise nonnegative slack block."""

    dim: int


@dataclass(frozen=True)
class SecondOrder:
    """Lorentz cone block: s[0] >= ||s[1:]||. Requires dim >= 2."""

    dim: int


ConeBlock = Zero | NonNeg | SecondOrder


class ConeStructure:
    """Index bookkeeping for a cone list, built with array operations.

    The blocks are those of a ``ConeProgram``, which checked their types
    and dims when it was built.

    The cone rows are held in canonical order, as CVXOPT and ECOS hold
    them: every NonNeg row in program order, then every SecondOrder block
    in program order. ``zero_rows`` and ``cone_rows`` are the positions in
    the program's row order of the Zero rows and of the cone rows in that
    canonical order, so ``A[cone_rows]`` lists the cone rows as the solver
    works on them. Every other position is relative to the canonical cone
    rows, where the SecondOrder blocks lie contiguous at the end.
    Per-block quantities are segmented sums (``np.add.reduceat`` at the
    block starts) with 0/1 and sign masks that vanish off the second-order
    rows, so no operation loops over blocks in Python. ``jdot``,
    ``max_step`` and ``margin`` reduce over the last axis, so on the stack
    ``[s; z]`` of shape ``(2, dim)`` one pass gives, bit for bit, the
    per-block values, step lengths and margins of ``s`` and ``z`` taken one
    at a time.
    """

    def __init__(self, blocks):
        # kind code per block: 0 Zero, 1 NonNeg, 2 SecondOrder
        kinds = np.array([0 if isinstance(blk, Zero) else 1 if isinstance(blk, NonNeg) else 2
                          for blk in blocks], dtype=int)
        dims = np.array([blk.dim for blk in blocks], dtype=int)
        row_kind = np.repeat(kinds, dims)
        # a stable sort by kind keeps program order within each kind
        order = np.argsort(row_kind, kind="stable")
        nzero = np.count_nonzero(row_kind == 0)
        self.zero_rows, self.cone_rows = order[:nzero], order[nzero:]
        self.dim = self.cone_rows.size
        nnn = np.count_nonzero(row_kind == 1)
        self.nn_idx = np.arange(nnn)
        soc_dims = dims[kinds == 2]
        self.soc_starts = nnn + np.cumsum(soc_dims) - soc_dims
        self.soc_slices = list(zip(self.soc_starts.tolist(), (self.soc_starts + soc_dims).tolist()))
        # barrier degree: 1 per nonneg component, 1 per second-order block
        self.degree = nnn + soc_dims.size

        self.soc_rows = np.arange(nnn, self.dim)
        # J = diag(1, -I) per second-order block, 0 on nonneg rows
        self.jsign = np.zeros(self.dim)
        self.jsign[nnn:] = -1.0
        self.jsign[self.soc_starts] = 1.0
        self.tail = self.jsign < 0
        self._tailf = self.tail.astype(float)
        # block number of each second-order row (0 on nonneg rows, which
        # every use masks out)
        self.block = np.zeros(self.dim, dtype=int)
        self.block[nnn:] = np.repeat(np.arange(soc_dims.size), soc_dims)
        # -J on second-order rows extended by 1 on nonneg rows, so that
        # w (2 v v'u - J u) with v = 0 there is W u on every row
        self.negj = -self.jsign
        self.negj[:nnn] = 1.0
        # row of each row's block head (nonneg rows point at themselves)
        self._head = np.arange(self.dim)
        self._head[nnn:] = np.repeat(self.soc_starts, soc_dims)

    def blocksum(self, u: np.ndarray) -> np.ndarray:
        """Per second-order block sums of ``u`` over its last axis (the
        nonneg rows, ahead of the first block, are left out)."""
        return np.add.reduceat(u, self.soc_starts, axis=-1)

    def jdot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Per second-order block ``u0 v0 - u1'v1``."""
        return self.blocksum(self.jsign * u * v)

    def tail_dot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Per second-order block ``u1'v1``."""
        return self.blocksum(self._tailf * u * v)

    def identity(self) -> np.ndarray:
        e = np.zeros(self.dim)
        e[self.nn_idx] = 1.0
        e[self.soc_starts] = 1.0
        return e

    def margin(self, u: np.ndarray) -> float:
        """Smallest distance of ``u`` from every block boundary (can be < 0),
        over every row of a stack."""
        m = np.inf
        if self.nn_idx.size:
            m = min(m, float(u[..., self.nn_idx].min()))
        if self.soc_starts.size:
            tails = np.sqrt(self.tail_dot(u, u))
            m = min(m, float((u[..., self.soc_starts] - tails).min()))
        return m

    def prod(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Jordan product u o v, blockwise."""
        out = u * v
        if self.soc_starts.size:
            head = self._head
            out = np.where(self.tail, u[head] * v + v[head] * u, out)
            out[self.soc_starts] += self.tail_dot(u, v)
        return out

    def div(self, lmbda: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Solve lmbda o w = d for w, blockwise."""
        out = np.empty(self.dim)
        out[self.nn_idx] = d[self.nn_idx] / lmbda[self.nn_idx]
        if self.soc_starts.size:
            blk, rows = self.block, self.soc_rows
            w0 = self.jdot(lmbda, d) / self.jdot(lmbda, lmbda)
            l0 = lmbda[self.soc_starts]
            out[rows] = ((d - w0[blk] * lmbda) / l0[blk])[rows]
            out[self.soc_starts] = w0
        return out

    def max_step(self, u: np.ndarray, du: np.ndarray, uu: np.ndarray | None = None) -> float:
        """Largest alpha >= 0 with u + alpha*du in the cone (u interior),
        for every row of a stack at once; ``uu`` is ``jdot(u, u)`` when the
        caller has it already."""
        alpha = np.inf
        if self.nn_idx.size:
            un, dn = u[..., self.nn_idx], du[..., self.nn_idx]
            neg = dn < 0
            if neg.any():
                alpha = min(alpha, float((-un[neg] / dn[neg]).min()))
        if self.soc_starts.size:
            alpha = min(alpha, _soc_max_step(self.jdot(du, du), 2.0 * self.jdot(u, du),
                                             self.jdot(u, u) if uu is None else uu))
        return alpha


def _soc_max_step(a, b, c) -> float:
    # first boundary crossing t > 0, over all blocks of every row, of
    # (u0 + t d0)^2 - ||u1 + t d1||^2 = a t^2 + b t + c for interior u:
    # the smallest positive one of the stable roots q/a and c/q. With
    # c > 0, a negative discriminant needs b > 0 (the line never leaves the
    # cone), where both roots come out negative; a = 0 leaves the linear
    # root c/q = -c/b.
    if (c <= 0).any():  # numerically at/over the boundary already
        return 0.0
    q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0)), b))
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.concatenate([q / a, c / q], axis=None)
    roots = roots[roots > 0]
    return float(roots.min()) if roots.size else np.inf


class NTScaling:
    """Nesterov-Todd scaling point for a pair s, z interior to the cone.

    Defines the symmetric block-diagonal W with W z = W^{-1} s = lmbda.
    NonNeg blocks use w = sqrt(s/z); SecondOrder blocks keep the compact
    (eta, v) representation of W = eta * (2 v v' - J), with v'Jv = 1 and
    J = diag(1, -I). Per-block data is stored stacked so that products
    vectorize across blocks via segmented reductions: ``w`` holds w or eta
    per row, and ``v_all`` is zero on nonneg rows, so each of W, W^-1, W^2
    and W^-2 is one expression over all rows. Since det v = v'Jv = 1, the
    quadratic-representation identity P(v)^2 = P(v o v) gives
    W^2 = eta^2 (2 (v o v)(v o v)' - J) and, with (v o v)^-1 = J(v o v),
    W^-2 = eta^-2 (2 J(v o v) (J(v o v))' - J): the same one-vector form as
    W, from the Jordan square ``vsq`` stored once per scaling.

    ``dets`` holds the block determinants of ``s`` and ``z`` as the two
    rows of ``struct.jdot(sz, sz)`` on their stack ``sz = [s; z]``, the one
    pass that also gives the solver's step lengths.
    """

    def __init__(self, struct: ConeStructure, s: np.ndarray, z: np.ndarray, dets: np.ndarray):
        self.struct = struct
        self.eta = np.zeros(struct.soc_starts.size)
        self.vtv = np.zeros(struct.soc_starts.size)
        self.v_all = np.zeros(struct.dim)  # concatenated v per block, zero elsewhere
        self.vsq = np.zeros(struct.dim)  # the Jordan square v o v, likewise
        if struct.soc_starts.size:
            blk, starts = struct.block, struct.soc_starts
            ds, dz = np.sqrt(dets)
            sb = s / ds[blk]
            zb = z / dz[blk]
            gamma = np.sqrt(0.5 * (1.0 + sb[starts] * zb[starts] + struct.tail_dot(sb, zb)))
            wb = (sb + struct.jsign * zb) / (2.0 * gamma[blk])
            # v is the Jordan square root of the unit-determinant point wb,
            # so that W = eta (2 v v' - J) satisfies W^2 z = s exactly
            v0 = np.sqrt(0.5 * (wb[starts] + 1.0))
            v = np.where(struct.tail, wb / (2.0 * v0[blk]), v0[blk])
            self.v_all[struct.soc_rows] = v[struct.soc_rows]
            self.eta = np.sqrt(ds / dz)
            self.vtv = struct.blocksum(self.v_all * self.v_all)
            # v o v = (v'v, 2 v0 v1) per block
            self.vsq = 2.0 * v0[blk] * self.v_all
            self.vsq[starts] = self.vtv
        nn = struct.nn_idx
        self.w = np.empty(struct.dim)
        self.w[nn] = np.sqrt(s[nn] / z[nn])
        self.w[struct.soc_rows] = self.eta[struct.block[struct.soc_rows]]
        self.w_inv = 1.0 / self.w
        self.w_sq = self.w * self.w
        self.w_inv_sq = 1.0 / self.w_sq
        self._jv_all = struct.jsign * self.v_all
        self._jvsq = struct.jsign * self.vsq
        self.lmbda = self.apply(z)

    def _scale(self, u, vec, factor):
        # factor * (2 vec (vec'u) - J u) per block: W with (v, w), W^-1 with
        # (Jv, 1/w), W^2 with (v o v, w^2) and W^-2 with (J(v o v), 1/w^2);
        # vec vanishes on nonneg rows, leaving factor * u
        st = self.struct
        out = st.negj * u
        if self.eta.size:
            out += vec * (2.0 * st.blocksum(vec * u))[st.block]
        return factor * out

    def apply(self, u: np.ndarray) -> np.ndarray:
        """W u."""
        return self._scale(u, self.v_all, self.w)

    def apply_inv(self, u: np.ndarray) -> np.ndarray:
        """W^{-1} u."""
        return self._scale(u, self._jv_all, self.w_inv)

    def apply_sq(self, u: np.ndarray) -> np.ndarray:
        """W^2 u, as eta^2 (2 (v o v)(v o v)' - J) u."""
        return self._scale(u, self.vsq, self.w_sq)

    def apply_inv_sq(self, u: np.ndarray) -> np.ndarray:
        """W^{-2} u, as eta^-2 (2 J(v o v) (J(v o v))' - J) u."""
        return self._scale(u, self._jvsq, self.w_inv_sq)

    def gram(self, plan: GramPlan) -> tuple[np.ndarray, np.ndarray]:
        """H = G' W^{-2} G for the cone rows G = diag(scale) K[idx], as the
        pair (H on ``plan.kept``, its diagonal on ``plan.elim``).

        W^{-2} is a positive diagonal D plus, per SecondOrder block, the
        rank-two term ``(4 (v'v) Jv (Jv)' - 2 Jv v' - 2 v (Jv)') / eta^2``.
        The diagonal part is ``K' diag(bincount(idx, scale^2 D)) K``, which
        ``plan`` splits into a diagonal from the rows of K with one nonzero
        and a product over the other rows on their column support. The
        rank-two part needs ``a_k = G_k' J v_k`` and ``b_k = G_k' v_k``,
        products of the rows of K that second-order rows copy with
        (those rows) x (blocks) matrices gathered with ``bincount``.
        No matrix with a row per row of G, or over all columns, is formed.
        """
        st = self.struct
        n = plan.kept.size
        weight = np.bincount(plan.idx, plan.scale_sq * self.w_inv_sq, minlength=plan.nrows)
        diag = np.bincount(plan.single_pos, weight[plan.single] * plan.single_sq,
                           minlength=plan.ncols)
        h = np.zeros((n, n))
        h.flat[:: n + 1] = diag[:n]
        # the weights are nonnegative, so the rows with several entries give
        # one symmetric product of those rows scaled by their roots
        root = plan.multi_k * np.sqrt(weight[plan.multi])[:, None]
        h[plan.multi_ix] += root.T @ root
        k = self.eta.size
        if k:
            rows = st.soc_rows
            gathered = np.bincount(plan.cell,
                                   np.concatenate([plan.soc_scale * self._jv_all[rows],
                                                   plan.soc_scale * self.v_all[rows]]),
                                   minlength=plan.soc_k.shape[0] * 2 * k)
            ab = plan.soc_k.T @ gathered.reshape(-1, 2 * k)
            amat, bmat = ab[:, :k], ab[:, k:]
            inv_eta2 = self.w_inv_sq[st.soc_starts]
            cross = (amat * inv_eta2) @ bmat.T
            h[plan.soc_ix] += (amat * (4.0 * self.vtv * inv_eta2)) @ amat.T - 2.0 * (cross + cross.T)
        return 0.5 * (h + h.T), diag[n:]


class GramPlan:
    """The column partition of a solve, and where the Gram ``G' W^-2 G`` of
    cone rows ``G = diag(scale) K[idx]`` has work.

    Built once per solve from ``g`` (a :class:`riskbudget.solver.RowMatrix`
    over the cone rows of ``struct``) and the equality rows ``aeq``; only
    the weights change between iterations. A column that only one-entry
    rows with a nonzero factor reach has a positive Gram diagonal coupled
    to nothing else. If it also meets at most one equality row, the KKT
    solve eliminates it (``elim``) with a diagonal Schur term, from the
    entries ``eq_row``, ``eq_col``, ``eq_sq`` of ``aeq_elim``; the others
    are ``kept``, and ``pos`` maps each column to its place in (kept,
    elim) order. On the allocation program with turnover the 2n turnover
    columns, one turnover row each, are eliminated.

    A row of K that no cone row copies carries no weight. Of the rest, a
    row with one nonzero adds a diagonal entry only, and the rows with
    more add ``K' D K`` on their column support. The rank-two terms reach
    only the rows of K that second-order rows copy, on those rows' column
    support. Both supports lie in the kept columns: for the allocation
    program, the n asset columns and the epigraph column.
    """

    def __init__(self, struct: ConeStructure, g, aeq: np.ndarray):
        kmat, self.idx = g.K, g.idx
        self.nrows, self.ncols = kmat.shape
        self.scale_sq = g.scale * g.scale
        nonzero = kmat != 0
        used = np.bincount(self.idx, minlength=self.nrows) > 0
        count = nonzero.sum(axis=1)
        self.single = np.flatnonzero(used & (count == 1))
        single_col = np.nonzero(nonzero[self.single])[1]
        self.single_sq = kmat[self.single, single_col] ** 2
        self.multi = np.flatnonzero(used & (count > 1))
        multi_cols = np.flatnonzero(nonzero[self.multi].any(axis=0))
        self.multi_k = kmat[np.ix_(self.multi, multi_cols)]
        rows = struct.soc_rows
        soc_k = np.flatnonzero(np.bincount(self.idx[rows], minlength=self.nrows))
        soc_cols = np.flatnonzero(nonzero[soc_k].any(axis=0))
        self.soc_k = kmat[np.ix_(soc_k, soc_cols)]

        carried = np.bincount(self.idx, self.scale_sq, minlength=self.nrows)[self.single] > 0
        elim = np.zeros(self.ncols, dtype=bool)
        elim[single_col[carried]] = True
        elim[multi_cols] = False
        elim[soc_cols] = False
        elim &= np.count_nonzero(aeq, axis=0) <= 1
        self.kept, self.elim = np.flatnonzero(~elim), np.flatnonzero(elim)
        self.pos = np.empty(self.ncols, dtype=np.intp)
        self.pos[np.concatenate([self.kept, self.elim])] = np.arange(self.ncols)
        # ``take`` keeps the blocks row-major: ``aeq[:, cols]`` comes out
        # column-major, whose products go to another BLAS kernel and round
        # differently
        self.aeq_kept, self.aeq_elim = aeq.take(self.kept, axis=1), aeq.take(self.elim, axis=1)
        self.eq_row, self.eq_col = np.nonzero(self.aeq_elim)
        self.eq_sq = self.aeq_elim[self.eq_row, self.eq_col] ** 2

        # Gram work, in (kept, elim) order
        self.single_pos = self.pos[single_col]
        self.multi_ix = np.ix_(self.pos[multi_cols], self.pos[multi_cols])
        self.soc_ix = np.ix_(self.pos[soc_cols], self.pos[soc_cols])
        # rank-two terms: cell (local K row, block) of a_k, then of b_k
        local = np.searchsorted(soc_k, self.idx[rows])
        k = struct.soc_starts.size
        cell = local * (2 * k) + struct.block[rows]
        self.cell = np.concatenate([cell, cell + k])
        self.soc_scale = g.scale[rows]

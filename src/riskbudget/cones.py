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
    rows: the ``nnn`` NonNeg rows are the prefix ``[:nnn]`` of every cone
    vector and the SecondOrder blocks lie contiguous in the suffix
    ``[nnn:]``, starting at ``soc_starts``. The per-row arrays ``jsign``
    and ``block`` cover the suffix only, and per-block quantities are
    segmented sums over it (``np.add.reduceat`` at the block starts),
    so no operation loops over blocks in Python. ``jdot``, ``max_step``
    and ``margin`` reduce over the last axis, so on the stack ``[s; z]`` of
    shape ``(2, dim)`` one pass gives, bit for bit, the per-block values,
    step lengths and margins of ``s`` and ``z`` taken one at a time.
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
        self.nnn = nnn = np.count_nonzero(row_kind == 1)
        soc_dims = dims[kinds == 2]
        # block starts within the suffix, and within the whole cone vector
        self._starts = np.cumsum(soc_dims) - soc_dims
        self.soc_starts = nnn + self._starts
        # barrier degree: 1 per nonneg component, 1 per second-order block
        self.degree = nnn + soc_dims.size

        # J = diag(1, -I) per second-order block
        self.jsign = np.full(self.dim - nnn, -1.0)
        self.jsign[self._starts] = 1.0
        self._tailf = (self.jsign < 0).astype(float)
        # block number, and row of the block head, of each second-order row
        self.block = np.repeat(np.arange(soc_dims.size), soc_dims)
        self._head = self._starts[self.block]
        # 1 on nonneg rows and -J on second-order rows, so that
        # w (2 v v'u - J u) is W u on every row
        self.negj = np.concatenate([np.ones(nnn), -self.jsign])

    def blocksum(self, u: np.ndarray) -> np.ndarray:
        """Per second-order block sums of the suffix ``u`` over its last axis."""
        return np.add.reduceat(u, self._starts, axis=-1)

    def blockmax(self, u: np.ndarray) -> np.ndarray:
        """Per second-order block maxima of the suffix ``u`` over its last axis."""
        return np.maximum.reduceat(u, self._starts, axis=-1)

    def jdot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Per second-order block ``u0 v0 - u1'v1``."""
        return self.blocksum(self.jsign * u[..., self.nnn :] * v[..., self.nnn :])

    def tail_dot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Per second-order block ``u1'v1``."""
        return self.blocksum(self._tailf * u[..., self.nnn :] * v[..., self.nnn :])

    def identity(self) -> np.ndarray:
        """1 on the nonneg rows and the block heads, 0 elsewhere."""
        return np.concatenate([np.ones(self.nnn), self.jsign > 0])

    def margin(self, u: np.ndarray) -> float:
        """Smallest distance of ``u`` from every block boundary (can be < 0),
        over every row of a stack."""
        tails = np.sqrt(self.tail_dot(u, u))
        return float(min(u[..., : self.nnn].min(initial=np.inf),
                         (u[..., self.soc_starts] - tails).min(initial=np.inf)))

    def prod(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Jordan product u o v, blockwise."""
        n, head, starts = self.nnn, self._head, self.soc_starts
        us, vs = u[n:], v[n:]
        out = u * v
        out[n:] = us[head] * vs + vs[head] * us
        out[starts] = u[starts] * v[starts] + self.tail_dot(u, v)
        return out

    def div(self, lmbda: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Solve lmbda o w = d for w, blockwise."""
        n, blk = self.nnn, self.block
        w0 = self.jdot(lmbda, d) / self.jdot(lmbda, lmbda)
        soc = (d[n:] - w0[blk] * lmbda[n:]) / lmbda[self.soc_starts][blk]
        soc[self._starts] = w0
        return np.concatenate([d[:n] / lmbda[:n], soc])

    def max_step(self, u: np.ndarray, du: np.ndarray, uu: np.ndarray | None = None) -> float:
        """Largest alpha >= 0 with u + alpha*du in the cone (u interior),
        for every row of a stack at once; ``uu`` is ``jdot(u, u)`` when the
        caller has it already."""
        alpha = np.inf
        un, dn = u[..., : self.nnn], du[..., : self.nnn]
        neg = dn < 0
        if neg.any():
            alpha = float((-un[neg] / dn[neg]).min())
        return min(alpha, _soc_max_step(self.jdot(du, du), 2.0 * self.jdot(u, du),
                                        self.jdot(u, u) if uu is None else uu))


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
    per row, and ``v`` holds each block's v in turn over the second-order
    suffix, so each of W, W^-1, W^2 and W^-2 is a scaling of every row
    plus one expression over the suffix. Since det v = v'Jv = 1, the
    quadratic-representation identity P(v)^2 = P(v o v) gives
    W^2 = eta^2 (2 (v o v)(v o v)' - J) and, with (v o v)^-1 = J(v o v),
    W^-2 = eta^-2 (2 J(v o v) (J(v o v))' - J): the same one-vector form as
    W, from the Jordan square ``vsq`` stored once per scaling. ``gram``
    builds ``G' W^-2 G`` from that form too.

    ``dets`` holds the block determinants of ``s`` and ``z`` as the two
    rows of ``struct.jdot(sz, sz)`` on their stack ``sz = [s; z]``, the one
    pass that also gives the solver's step lengths.
    """

    def __init__(self, struct: ConeStructure, s: np.ndarray, z: np.ndarray, dets: np.ndarray):
        self.struct = struct
        n, blk, starts = struct.nnn, struct.block, struct._starts
        ds, dz = np.sqrt(dets)
        sb = s[n:] / ds[blk]
        zb = z[n:] / dz[blk]
        gamma = np.sqrt(0.5 * (1.0 + sb[starts] * zb[starts] + struct.blocksum(struct._tailf * sb * zb)))
        wb = (sb + struct.jsign * zb) / (2.0 * gamma[blk])
        # v is the Jordan square root of the unit-determinant point wb, so
        # that W = eta (2 v v' - J) satisfies W^2 z = s exactly
        v0 = np.sqrt(0.5 * (wb[starts] + 1.0))
        self.v = wb / (2.0 * v0[blk])
        self.v[starts] = v0
        self.eta = np.sqrt(ds / dz)
        # v o v = (v'v, 2 v0 v1) per block
        self.vsq = 2.0 * v0[blk] * self.v
        self.vsq[starts] = struct.blocksum(self.v * self.v)
        self.w = np.concatenate([np.sqrt(s[:n] / z[:n]), self.eta[blk]])
        self.w_inv = 1.0 / self.w
        self.w_sq = self.w * self.w
        self.w_inv_sq = 1.0 / self.w_sq
        self._jv, self._jvsq = struct.jsign * self.v, struct.jsign * self.vsq
        self.lmbda = self.apply(z)

    def _scale(self, u, vec, factor):
        # factor * (2 vec (vec'u) - J u) per block: W with (v, w), W^-1 with
        # (Jv, 1/w), W^2 with (v o v, w^2) and W^-2 with (J(v o v), 1/w^2),
        # each vec over the second-order suffix; nonneg rows get factor * u
        st = self.struct
        out = st.negj * u
        out[st.nnn :] += vec * (2.0 * st.blocksum(vec * u[st.nnn :]))[st.block]
        return factor * out

    def apply(self, u: np.ndarray) -> np.ndarray:
        """W u."""
        return self._scale(u, self.v, self.w)

    def apply_inv(self, u: np.ndarray) -> np.ndarray:
        """W^{-1} u."""
        return self._scale(u, self._jv, self.w_inv)

    def apply_sq(self, u: np.ndarray) -> np.ndarray:
        """W^2 u, as eta^2 (2 (v o v)(v o v)' - J) u."""
        return self._scale(u, self.vsq, self.w_sq)

    def apply_inv_sq(self, u: np.ndarray) -> np.ndarray:
        """W^{-2} u, as eta^-2 (2 J(v o v) (J(v o v))' - J) u."""
        return self._scale(u, self._jvsq, self.w_inv_sq)

    def gram(self, plan: GramPlan) -> tuple[np.ndarray, np.ndarray]:
        """H = G' W^{-2} G for the cone rows G = diag(scale) K[idx], as the
        pair (H on the kept columns ``[:plan.k]``, its diagonal on the
        eliminated ones ``[plan.k:]``).

        W^{-2} is taken in the form ``apply_inv_sq`` uses: ``w^-2 * negj``
        on the diagonal (negative on the block heads) plus, per SecondOrder
        block, the rank-one term ``2 q q' / eta^2`` with ``q = J(v o v)``.
        The diagonal part is ``K' diag(bincount(idx, scale^2 w^-2 negj)) K``:
        one weighted product of the plan's kept rows of K on the kept
        columns, and a ``bincount`` of its one-entry rows on the eliminated
        ones. The rank-one part needs ``a_k = G_k' q_k``, a product of the
        rows of K that second-order rows copy with a (those rows) x (blocks)
        matrix gathered with ``bincount``, added to the same kept block.
        No matrix with a row per row of G, or over all columns, is formed.
        """
        st = self.struct
        weight = np.bincount(plan.idx, plan.scale_sq * self.w_inv_sq * st.negj,
                             minlength=plan.nrows)
        h = (plan.kept_k.T * weight[plan.kept_rows]) @ plan.kept_k
        k = self.eta.size
        if k:
            gathered = np.bincount(plan.cell, plan.soc_scale * self._jvsq,
                                   minlength=plan.soc_k.shape[0] * k)
            amat = plan.soc_k.T @ gathered.reshape(-1, k)
            h += (amat * (2.0 * self.w_inv_sq[st.soc_starts])) @ amat.T
        h_elim = np.bincount(plan.elim_col, weight[plan.elim_row] * plan.elim_sq,
                             minlength=plan.ncols - plan.k)
        return h, h_elim


class GramPlan:
    """The column partition of a solve, and the rows of K that the Gram
    ``G' W^-2 G`` of cone rows ``G = diag(scale) K[idx]`` reads.

    Built once per solve from ``g`` (a :class:`riskbudget.solver.RowMatrix`
    over the cone rows of ``struct``) and the equality rows ``aeq``; only
    the weights change between iterations. A cone row with a zero factor
    is a zero row of G and counts as none. A column that one-entry NonNeg
    rows reach, and no other cone row, has a positive Gram diagonal
    coupled to nothing else; if it also meets at most one equality row, it
    is eliminable. The KKT solve eliminates the trailing run of eliminable
    columns ``[k:]`` with a diagonal Schur term, the product of the squares
    ``aeq_elim_sq`` of ``aeq_elim`` with the inverse eliminated diagonal,
    and keeps the columns ``[:k]``: an eliminable column ahead of the last
    column that is not stays in the LU. On the allocation program with
    turnover the 2n turnover columns, last in its column order with one
    turnover row each, are eliminated.

    The Gram reads two sets of the rows of K that cone rows copy: those
    that reach the kept columns, one dense block ``kept_k = K[kept_rows,
    :k]``, and the one-entry rows that reach an eliminated column, held as
    that column ``elim_col`` (counted from ``k``) and their squared entry
    ``elim_sq``. The rank-one terms read ``soc_k``, the rows that
    second-order rows copy, on the kept columns.
    """

    def __init__(self, struct: ConeStructure, g, aeq: np.ndarray):
        kmat, self.idx = g.K, g.idx
        self.nrows, self.ncols = kmat.shape
        self.scale_sq = g.scale * g.scale
        nonzero = kmat != 0
        # the rows of K that cone rows copy with a nonzero factor, and those of
        # them that couple columns: more than one entry, or a second-order copy
        carried = np.bincount(self.idx, self.scale_sq, minlength=self.nrows) > 0
        soc_idx = self.idx[struct.nnn :]
        coupled = carried & (nonzero.sum(axis=1) > 1)
        coupled[soc_idx[g.scale[struct.nnn :] != 0]] = True
        elim = (nonzero[carried].any(axis=0) & ~nonzero[coupled].any(axis=0)
                & (np.count_nonzero(aeq, axis=0) <= 1))
        self.k = k = int(np.flatnonzero(~elim).max(initial=-1)) + 1
        self.aeq_kept, self.aeq_elim = aeq[:, :k], aeq[:, k:]
        self.aeq_elim_sq = self.aeq_elim**2

        self.kept_rows = np.flatnonzero(carried & nonzero[:, :k].any(axis=1))
        self.kept_k = kmat[self.kept_rows, :k]
        self.elim_row, self.elim_col = np.nonzero(carried[:, None] & nonzero[:, k:])
        self.elim_sq = kmat[self.elim_row, k + self.elim_col] ** 2
        # rank-one terms: the K rows of the second-order suffix, and the cell
        # (local K row, block) of a_k
        soc_rows = np.unique(soc_idx)
        self.soc_k = kmat[soc_rows, :k]
        self.cell = np.searchsorted(soc_rows, soc_idx) * struct.soc_starts.size + struct.block
        self.soc_scale = g.scale[struct.nnn :]

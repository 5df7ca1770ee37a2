"""Second-order cone program solver.

Standard form: minimize ``c @ x`` subject to ``b - A @ x`` lying in a
product cone K. The rows of ``A`` are partitioned, in order, by the cone
block list: a ``Zero(d)`` block pins its slack rows to equality
(``A x = b``), a ``NonNeg(d)`` block gives componentwise inequalities
(``A x <= b``), and a ``SecondOrder(d)`` block constrains its slack vector
``s = b - A x`` to ``s[0] >= ||s[1:]||``. Free variables are supported
directly; cone dimensions therefore sum to the number of rows.

The algorithm is a primal-dual interior-point method on the homogeneous
self-dual embedding, with Nesterov-Todd scaling, Mehrotra
predictor-corrector steps and dense normal-equations linear solves. The
embedding yields clean infeasibility/unboundedness certificates instead of
numerical breakdown when the constraints conflict.

``A`` is held as a :class:`RowMatrix`, every row a scaled copy of a row of
a small dense matrix ``K``. The solver splits off the equality rows and
the cone rows ``G``, a :class:`RowMatrix` on the same ``K``, and touches
``G`` only through ``G @ x``, ``G.rmatvec(z)`` and the Gram ``G' W^-2 G``. A
program built from a few row patterns, such as the allocation program
(``n`` cone blocks made of the rows of ``I + C``, ``I - C`` and ``R``),
therefore solves in memory of the size of ``K``.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .cones import ConeBlock, ConeStructure, GramPlan, NonNeg, NTScaling, SecondOrder, Zero

__all__ = [
    "RowMatrix",
    "ConeProgram",
    "ConeSolution",
    "SolverOptions",
    "SolveStatus",
    "ProgramValidationError",
    "solve",
    "dump_program",
]

log = logging.getLogger("riskbudget.solver")

# LAPACK's solve on an LU factor, called directly: ``sla.lu_solve`` checks
# its right-hand side for finiteness and converts it first, which costs
# more than the solve itself on the small KKT systems of a backtest
(_GETRS,) = sla.get_lapack_funcs(("getrs",), dtype=np.float64)

# fraction of the distance to the cone boundary that a step travels
STEP_BACKOFF = 0.99
# iterative-refinement passes per KKT solve once the barrier is small
REFINE_STEPS = 2
# refinement starts once mu falls to this multiple of the tolerance
REFINE_MU = 1e3
# diagonal regularization of the KKT matrix, in units of max(1, mean diagonal of H)
REG = 1e-11
# error below which polish stops even while it still falls: a hundred
# roundoff units, past which an iteration only chases floating-point noise
POLISH_FLOOR = 100 * np.finfo(float).eps


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, as ``np.linalg.norm`` computes it."""
    return math.sqrt(v @ v)


class SolveStatus(Enum):
    Optimal = "optimal"
    Infeasible = "infeasible"
    Unbounded = "unbounded"
    MaxIters = "max_iters"
    NumericalFailure = "numerical_failure"


class ProgramValidationError(ValueError):
    """Structural defects found in a ConeProgram; ``defects`` lists them."""

    def __init__(self, defects):
        self.defects = list(defects)
        super().__init__("; ".join(self.defects))


class RowMatrix:
    """An ``m x n`` matrix whose row ``i`` is ``scale[i] * K[idx[i]]``.

    Storage is ``K`` plus one index and one factor per row, so a matrix
    that repeats a few row patterns under different factors costs the size
    of ``K``, not ``m x n``. A plain matrix is the case ``K = A``,
    ``idx = arange(m)``, ``scale = 1`` (:meth:`dense`). ``np.asarray``
    materializes the full matrix.
    """

    def __init__(self, K, idx, scale):
        self.K = np.ascontiguousarray(K, dtype=float)
        self.idx = np.asarray(idx, dtype=np.intp)
        self.scale = np.asarray(scale, dtype=float)
        if self.K.ndim != 2:
            raise ValueError("A must be a matrix")
        if self.idx.ndim != 1 or self.scale.shape != self.idx.shape:
            raise ValueError("idx and scale must be vectors of equal length")
        if self.idx.size and (self.idx.min() < 0 or self.idx.max() >= self.K.shape[0]):
            raise ValueError(f"row index out of range for K with {self.K.shape[0]} rows")
        self.shape = (self.idx.size, self.K.shape[1])

    @classmethod
    def dense(cls, a) -> RowMatrix:
        a = a.toarray() if hasattr(a, "toarray") else np.asarray(a, dtype=float)
        m = a.shape[0] if a.ndim else 0
        return cls(a, np.arange(m), np.ones(m))

    @property
    def nbytes(self) -> int:
        return self.K.nbytes + self.idx.nbytes + self.scale.nbytes

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.scale * (self.K @ x)[self.idx]

    def rmatvec(self, z: np.ndarray) -> np.ndarray:
        """``A' z``."""
        return self.K.T @ np.bincount(self.idx, self.scale * z, minlength=self.K.shape[0])

    def toarray(self) -> np.ndarray:
        return self.scale[:, None] * self.K[self.idx]

    def __array__(self, dtype=None, copy=None):
        out = self.toarray()
        return out if dtype is None else out.astype(dtype)


@dataclass(frozen=True)
class ConeProgram:
    """A cone program ``min c @ x  s.t.  b - A @ x in K``.

    ``A`` may be a :class:`RowMatrix`, or dense or scipy-sparse, which is
    stored as the dense case of one. ``cones`` lists the row blocks in
    order; their dims must sum to ``len(b)``. Construction raises
    :class:`ProgramValidationError` listing every structural defect, so a
    program that exists is well-formed.
    """

    c: np.ndarray
    A: RowMatrix
    b: np.ndarray
    cones: tuple[ConeBlock, ...]

    def __post_init__(self):
        if not isinstance(self.A, RowMatrix):
            object.__setattr__(self, "A", RowMatrix.dense(self.A))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float).ravel())
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float).ravel())
        object.__setattr__(self, "cones", tuple(self.cones))
        defects = []
        m, n = self.A.shape
        if n != self.c.size:
            defects.append(f"dimension mismatch: A has {n} columns but c has {self.c.size} entries")
        if m != self.b.size:
            defects.append(f"dimension mismatch: A has {m} rows but b has {self.b.size} entries")
        total = 0
        for i, blk in enumerate(self.cones):
            if not isinstance(blk, (Zero, NonNeg, SecondOrder)):
                defects.append(f"cone block {i} has unknown type {type(blk).__name__}")
                continue
            if blk.dim < 1:
                defects.append(f"cone block {i} ({type(blk).__name__}) has dim {blk.dim} < 1")
            if isinstance(blk, SecondOrder) and blk.dim < 2:
                defects.append(f"cone block {i}: SecondOrder dim {blk.dim} < 2")
            total += blk.dim
        if total != self.b.size:
            defects.append(f"cone dims sum to {total} but A has {self.b.size} rows")
        for name, arrs in (("c", [self.c]), ("A", [self.A.K, self.A.scale]), ("b", [self.b])):
            if not all(np.isfinite(arr).all() for arr in arrs):
                defects.append(f"{name} contains non-finite entries")
        if defects:
            raise ProgramValidationError(defects)

    @cached_property
    def structure(self) -> ConeStructure:
        """Row bookkeeping of the cone list, built on first use, since it
        holds several arrays as long as ``b``."""
        return ConeStructure(self.cones)


@dataclass(frozen=True)
class SolverOptions:
    """``tol`` bounds the scaled residuals, the relative gap and the
    certificate tests alike; ``max_iters`` caps the iterations."""

    tol: float = 1e-8
    max_iters: int = 200

    def __post_init__(self):
        if isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real) \
                or not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be a finite number > 0, got {self.tol!r}")
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral) \
                or self.max_iters < 0:
            raise ValueError(f"max_iters must be an integer >= 0, got {self.max_iters!r}")


@dataclass
class ConeSolution:
    """Solver result.

    ``primal`` is x (or the unboundedness ray when status is Unbounded);
    ``dual`` holds one multiplier per row of A (the infeasibility
    certificate when status is Infeasible); ``slack`` is ``b - A x`` on
    cone rows and 0 on Zero rows. Residuals are the scale-normalized
    primal/dual feasibility errors and the relative duality gap, at the
    best point seen. ``iterations`` is the number of interior-point
    iterations performed (Newton systems formed), polish included.
    """

    status: SolveStatus
    primal: np.ndarray
    dual: np.ndarray
    slack: np.ndarray
    objective: float
    iterations: int
    primal_residual: float
    dual_residual: float
    gap: float


class _KKT:
    """Factored reduced KKT system [[H, Aeq'], [Aeq, 0]] with H = G'W^-2 G.

    Solves the 3-block system (dx, dy, dz) of the scaled Newton equations
    by elimination of dz, with iterative refinement carried out in the full
    3-block space (W applied functionally) to recover accuracy lost when
    forming H at extreme scalings.

    The trailing columns D = ``[plan.k:]`` that ``plan`` eliminates have a
    diagonal block ``H_DD`` coupled to nothing else in H, and each meets at
    most one equality row, so they are eliminated as well: LU factors only
    the kept columns K = ``[:plan.k]`` and the equality rows, ``[[H_KK +
    reg, Aeq_K'], [Aeq_K, -reg I - Aeq_D (H_DD + reg)^-1 Aeq_D']]``, whose
    last term is diagonal, the one product ``Aeq_D^2 @ (1 / (H_DD + reg))``
    of the squares the plan keeps, and
    ``dx_D = (gx_D - Aeq_D' dy) / (H_DD + reg)``. For the allocation
    program with turnover the order falls from 4n+2 to 2n+2.
    """

    def __init__(self, plan, aeq, g, scaling, refine_steps):
        h, h_elim = scaling.gram(plan)
        k, p = plan.k, aeq.shape[0]
        trace = h.trace() + h_elim.sum()
        reg = REG * max(1.0, float(trace) / max(plan.ncols, 1))
        self.delta = h_elim + reg
        schur = plan.aeq_elim_sq @ (1.0 / self.delta)
        mreg = np.zeros((k + p, k + p))
        mreg[:k, :k] = h
        mreg[:k, k:] = plan.aeq_kept.T
        mreg[k:, :k] = plan.aeq_kept
        mreg.flat[:: k + p + 1] += np.concatenate([np.full(k, reg), -(schur + reg)])
        self.plan, self.aeq, self.g, self.scaling = plan, aeq, g, scaling
        self.lu, self.piv = sla.lu_factor(mreg)
        self.refine_steps = refine_steps

    def _reduced(self, rho_x, rho_y, rho_3):
        w, plan, k = self.scaling, self.plan, self.plan.k
        gx = rho_x + self.g.rmatvec(w.apply_inv_sq(rho_3))
        gd = gx[k:] / self.delta
        rhs = np.concatenate([gx[:k], rho_y - plan.aeq_elim @ gd])
        # LAPACK rejects an empty system (a program with no variables)
        u = _GETRS(self.lu, self.piv, rhs)[0] if rhs.size else rhs
        dy = u[k:]
        dx = np.concatenate([u[:k], gd - (plan.aeq_elim.T @ dy) / self.delta])
        gdx = self.g @ dx
        dz = w.apply_inv_sq(gdx - rho_3)
        return dx, dy, dz, gdx

    def solve3(self, rho_x, rho_y, rho_3):
        dx, dy, dz, gdx = self._reduced(rho_x, rho_y, rho_3)
        w, aeq = self.scaling, self.aeq
        for step in range(self.refine_steps):
            res_x = rho_x - (aeq.T @ dy + self.g.rmatvec(dz))
            res_y = rho_y - aeq @ dx
            # the first pass's ``dx`` is the one ``_reduced`` multiplied
            res_3 = rho_3 - ((gdx if step == 0 else self.g @ dx) - w.apply_sq(dz))
            ex, ey, ez, _ = self._reduced(res_x, res_y, res_3)
            if not (np.isfinite(ex).all() and np.isfinite(ey).all() and np.isfinite(ez).all()):
                break
            dx, dy, dz = dx + ex, dy + ey, dz + ez
        return dx, dy, dz


def solve(p: ConeProgram, opts: SolverOptions | None = None) -> ConeSolution:
    """Solve a cone program; never raises for solvable-but-degenerate data.

    Every outcome is reported through the status field; a malformed
    program cannot be built, so it never reaches the solver.
    """
    opts = opts or SolverOptions()
    struct = p.structure
    zero_rows, cone_rows = struct.zero_rows, struct.cone_rows
    n = p.c.size
    kmat, idx, scale = p.A.K, p.A.idx, p.A.scale
    aeq, beq = scale[zero_rows, None] * kmat[idx[zero_rows]], p.b[zero_rows]
    m = struct.dim
    c = p.c

    # row equilibration: per-row for equalities (an all-zero row keeps 1),
    # one uniform factor per second-order block (cones are invariant under
    # positive scaling), none for nonneg rows; termination is still
    # measured against the original data
    d_eq = np.linalg.norm(aeq, axis=1)
    d_eq[d_eq <= 1e-300] = 1.0
    # rows negligible against the block's largest (all-zero rows, or
    # floors near 1e-200 on the allocation program) would drag the
    # geometric mean down by as many orders of magnitude; a block with no
    # live row sums no logarithm, so keeps exp(0) = 1
    soc_norms = (np.abs(scale) * np.linalg.norm(kmat, axis=1)[idx])[cone_rows[struct.nnn :]]
    live = soc_norms > np.finfo(float).eps * struct.blockmax(soc_norms)[struct.block]
    log_sum = struct.blocksum(np.log(np.where(live, soc_norms, 1.0)))
    d_cone = np.ones(m)
    d_cone[struct.nnn :] = np.exp(log_sum / np.maximum(struct.blocksum(live), 1))[struct.block]
    aeq = aeq / d_eq[:, None]
    beq = beq / d_eq
    g = RowMatrix(kmat, idx[cone_rows], scale[cone_rows] / d_cone)
    h = p.b[cone_rows] / d_cone
    plan = GramPlan(struct, g, aeq)
    norm_beq_orig = 1.0 + np.linalg.norm(p.b[zero_rows])
    norm_h_orig = 1.0 + np.linalg.norm(p.b[cone_rows])

    e = struct.identity()
    deg = max(struct.degree, 1)
    x = np.zeros(n)
    y = np.zeros(aeq.shape[0])
    # s and z are the two rows of one array, over the program's one cone
    # structure: one segmented pass gives both vectors' block
    # determinants, step lengths and margins
    sz = np.stack([e, e])
    s, z = sz
    tau, kappa = 1.0, 1.0

    norm_c = 1.0 + np.linalg.norm(c)
    debug = log.isEnabledFor(logging.DEBUG)

    def report(status, iters, xr, yr, zr, sr, pres, dres, relgap, obj):
        dual = np.zeros(p.b.size)
        slack = np.zeros(p.b.size)
        dual[zero_rows] = yr / d_eq
        dual[cone_rows] = zr / d_cone
        slack[cone_rows] = sr * d_cone
        return ConeSolution(status, xr, dual, slack, obj, iters, pres, dres, relgap)

    best = None
    best_metric = np.inf
    converged = False
    iterations = 0  # Newton systems formed, polish included
    for it in range(opts.max_iters + 1):
        # residuals of the embedding
        r_d = aeq.T @ y + g.rmatvec(z) + c * tau
        r_p = aeq @ x - beq * tau
        r_c = g @ x + s - h * tau
        r_g = c @ x + beq @ y + h @ z + kappa

        # de-homogenized convergence metrics, measured on the original
        # (unequilibrated) data; dual residual and gap are scale-invariant.
        # The residuals of (x, y, z, s) / tau are those above over tau.
        xt, yt, zt, st = x / tau, y / tau, z / tau, s / tau
        pres = max(_norm(r_p / tau * d_eq) / norm_beq_orig,
                   _norm(r_c / tau * d_cone) / norm_h_orig)
        dres = _norm(r_d / tau) / norm_c
        pobj = c @ xt
        dobj = -(beq @ yt + h @ zt)
        gap_abs = st @ zt
        relgap = gap_abs / max(1.0, abs(pobj), abs(dobj))
        err = max(pres, dres, relgap)
        metric = err / opts.tol
        improved = metric < best_metric
        if improved:
            best_metric = metric
            best = (xt, yt, zt, st, pres, dres, relgap, pobj)
        if debug:
            log.debug("iter %3d pres %.2e dres %.2e relgap %.2e tau %.2e kappa %.2e",
                      it, pres, dres, relgap, tau, kappa)

        converged = converged or metric <= 1.0
        if converged:
            # tolerance already met: polish while the error keeps dropping,
            # down to the roundoff floor
            if not improved or err <= POLISH_FLOOR:
                break
        else:
            # certificate checks on the residuals in hand: A'y + G'z is
            # r_d - c tau, A x is r_p + b tau and G x + s is r_c + h tau
            ip = beq @ y + h @ z
            if ip < -1e-14:
                nu = -1.0 / ip
                if nu * _norm(r_d - c * tau) <= opts.tol * norm_c:
                    return report(SolveStatus.Infeasible, iterations, np.full(n, np.nan),
                                  nu * y, nu * z, np.full(m, np.nan), pres, dres, relgap, np.nan)
            ic = c @ x
            if ic < -1e-14:
                nu = -1.0 / ic
                if (nu * _norm((r_p + beq * tau) * d_eq) <= opts.tol * norm_beq_orig
                        and nu * _norm((r_c + h * tau) * d_cone) <= opts.tol * norm_h_orig):
                    return report(SolveStatus.Unbounded, iterations, nu * x, np.full(aeq.shape[0], np.nan),
                                  np.full(m, np.nan), nu * s, pres, dres, relgap, np.nan)

        if it == opts.max_iters:
            break
        # the iterates have started degrading: stop and report the best seen
        if metric > 1e2 * best_metric:
            break

        mu = (s @ z + tau * kappa) / (deg + 1)
        # refinement earns its cost only near the tolerance: the error of
        # forming H grows as the barrier closes, and until mu is within
        # REFINE_MU of tol the first pass leaves a KKT residual far below it
        refine = REFINE_STEPS if mu <= REFINE_MU * opts.tol else 0
        dets = struct.jdot(sz, sz)
        iterations += 1
        try:
            scaling = NTScaling(struct, s, z, dets)
            kkt = _KKT(plan, aeq, g, scaling, refine)
        except (sla.LinAlgError, FloatingPointError, ValueError):
            break
        lmbda = scaling.lmbda

        u1 = kkt.solve3(-c, beq, h)
        q1 = c @ u1[0] + beq @ u1[1] + h @ u1[2]
        denom = q1 - kappa / tau
        if not np.isfinite(denom) or abs(denom) < 1e-300:
            break

        def direction(d_s, d_kappa):
            dtil = struct.div(lmbda, d_s)
            rho3 = -r_c - scaling.apply(dtil)
            u0 = kkt.solve3(-r_d, -r_p, rho3)
            q0 = c @ u0[0] + beq @ u0[1] + h @ u0[2]
            dtau = -(r_g + q0 + d_kappa / tau) / denom
            dx = u0[0] + dtau * u1[0]
            dy = u0[1] + dtau * u1[1]
            dz = u0[2] + dtau * u1[2]
            # recover ds and dkappa from the linear embedding rows rather
            # than the scaled complementarity: the scaling is singular in
            # the limit and would leak its conditioning into feasibility
            ds = -r_c - g @ dx + h * dtau
            dkappa = -r_g - (c @ dx + beq @ dy + h @ dz)
            # ds and dz as the two rows of one array, as sz holds s and z
            return dx, dy, np.stack([ds, dz]), dtau, dkappa

        def max_step(dsz, dtau, dkappa):
            alpha = struct.max_step(sz, dsz, dets)
            if dtau < 0:
                alpha = min(alpha, -tau / dtau)
            if dkappa < 0:
                alpha = min(alpha, -kappa / dkappa)
            return alpha

        # a Mehrotra predictor sets sigma and the corrector, unless the gap
        # has converged but feasibility lags: then a centering step (sigma 1,
        # no corrector) polishes the residuals without shrinking mu into the
        # region where the scaling turns numerically singular
        lsq = struct.prod(lmbda, lmbda)
        sigma, corr, corr_kappa = 1.0, 0.0, 0.0
        if not (relgap <= 0.9 * opts.tol and (pres > opts.tol or dres > opts.tol)):
            _, _, aff_sz, aff_tau, aff_kappa = direction(-lsq, -tau * kappa)
            alpha_aff = min(1.0, max_step(aff_sz, aff_tau, aff_kappa))
            sigma = (1.0 - alpha_aff) ** 3
            corr = struct.prod(scaling.apply_inv(aff_sz[0]), scaling.apply(aff_sz[1]))
            corr_kappa = aff_tau * aff_kappa
        dx, dy, dsz, dtau, dkappa = direction(-lsq + sigma * mu * e - corr,
                                              -tau * kappa + sigma * mu - corr_kappa)

        if not all(np.isfinite(d).all() for d in (dx, dy, dsz)) or not np.isfinite(dtau + dkappa):
            break
        alpha = min(1.0, STEP_BACKOFF * max_step(dsz, dtau, dkappa))
        if debug:
            log.debug("        alpha %.3e sigma %.3e mu %.3e", alpha, sigma, mu)
        if alpha <= 1e-13:
            break

        x += alpha * dx
        y += alpha * dy
        sz += alpha * dsz
        tau += alpha * dtau
        kappa += alpha * dkappa
        if tau <= 0 or kappa <= 0 or struct.margin(sz) <= 0:
            break

    xt, yt, zt, st, pres, dres, relgap, pobj = best
    if converged:
        status = SolveStatus.Optimal
    elif it == opts.max_iters:
        status = SolveStatus.MaxIters
    else:
        status = SolveStatus.NumericalFailure
    return report(status, iterations, xt, yt, zt, st, pres, dres, relgap, pobj)


def dump_program(p: ConeProgram, path) -> None:
    """Write a plain-text standard-form dump (triplets + cone list).

    Format (0-based indices, full-precision floats, one item per line)::

        conedump v1
        vars <n>
        rows <m>
        c
        <j> <value>           # nonzeros of the objective
        A
        <i> <j> <value>       # nonzeros of the constraint matrix, row-major
        b
        <i> <value>           # nonzeros of the right-hand side
        cones
        zero|nonneg|soc <dim> # blocks in row order
        end
    """
    a = p.A
    m, n = a.shape
    lines = ["conedump v1", f"vars {n}", f"rows {m}", "c"]
    for j in np.flatnonzero(p.c):
        lines.append(f"{j} {float(p.c[j])!r}")
    lines.append("A")
    for i in range(m):
        row = a.scale[i] * a.K[a.idx[i]]
        for j in np.flatnonzero(row):
            lines.append(f"{i} {j} {float(row[j])!r}")
    lines.append("b")
    for i in np.flatnonzero(p.b):
        lines.append(f"{i} {float(p.b[i])!r}")
    lines.append("cones")
    names = {Zero: "zero", NonNeg: "nonneg", SecondOrder: "soc"}
    for blk in p.cones:
        lines.append(f"{names[type(blk)]} {blk.dim}")
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

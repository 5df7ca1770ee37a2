"""Generalized risk-budget allocation as a second-order cone program.

Builds and solves: minimize ``-r'x + lam*||Rx|| + mu*||x - x0||_1`` over
long-only weights on the simplex with bounds ``l <= x <= u``, subject to a
floor on each asset's share of portfolio variance. Each floor becomes one
second-order cone row block ``||(x_i - (Cx)_i, 2 sqrt(b_i) Rx)|| <=
x_i + (Cx)_i`` (hyperbolic constraint in rotated-cone form), with R the
upper Cholesky factor of C. The norm objective term is handled through an
epigraph variable and the turnover term through a positive/negative split.

When the floors sum to exactly 1, every floor binds at the optimum and the
solution coincides with the classical risk-budget weights regardless of
forecasts, which is cross-checked against the log-barrier route in the
test suite.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .budgeting import DegeneratePortfolio, risk_contributions
from .cones import NonNeg, SecondOrder, Zero
from .linalg import cholesky
from .solver import ConeProgram, ConeSolution, RowMatrix, SolveStatus, SolverOptions, solve

__all__ = [
    "AllocationProblem",
    "AllocationResult",
    "AllocationError",
    "InfeasibleAllocation",
    "SolverFailure",
    "build_program",
    "solve_allocation",
    "expected_stats",
    "problem_to_json",
    "problem_from_json",
]

BINDING_TOL = 1e-6


class AllocationError(Exception):
    """Base class for allocation failures."""


class InfeasibleAllocation(AllocationError):
    """The budgets/bounds admit no feasible portfolio; ``report`` lists hints."""

    def __init__(self, report: list[str]):
        self.report = report
        super().__init__("infeasible allocation: " + "; ".join(report))


class SolverFailure(AllocationError):
    """The cone solver stopped without an optimal point or a certificate;
    ``solution`` is the :class:`ConeSolution` it stopped with."""

    def __init__(self, solution: ConeSolution):
        self.solution = solution
        self.status = solution.status
        super().__init__(f"solver stopped with status {solution.status.value} "
                         f"(pres {solution.primal_residual:.1e} dres {solution.dual_residual:.1e} "
                         f"gap {solution.gap:.1e} after {solution.iterations} iterations)")


@dataclass(frozen=True)
class AllocationProblem:
    """One allocation instance.

    ``cov`` is the asset covariance (positive definite), ``forecasts`` the
    expected simple returns per period, ``lam`` the mean-variance
    trade-off, ``mu`` the proportional cost per unit turnover against
    ``prev_weights``, ``lower``/``upper`` the weight bounds (upper may hold
    +inf), ``budgets`` the per-asset floors on the fractional risk
    contribution, summing to at most 1, and ``assets`` distinct, non-empty
    names. Construction raises a ``ValueError`` naming the field on data
    that breaks these rules or, ``upper`` aside, is not finite.
    """

    cov: np.ndarray
    budgets: np.ndarray
    forecasts: np.ndarray | None = None
    lam: float = 1.0
    mu: float = 0.0
    prev_weights: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    assets: tuple[str, ...] | None = None

    def __post_init__(self):
        cov = float_array("cov", self.cov)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "budgets", floor_vector(self.budgets))
        n = self.size

        def vec(name, value, default):
            out = np.full(n, default) if value is None else float_array(name, value).ravel()
            object.__setattr__(self, name, out)

        vec("forecasts", self.forecasts, 0.0)
        vec("prev_weights", self.prev_weights, 0.0)
        vec("lower", self.lower, 0.0)
        vec("upper", self.upper, 1.0)
        if self.assets is not None:
            object.__setattr__(self, "assets", tuple(self.assets))
        if cov.ndim != 2 or cov.shape != (n, n):
            raise ValueError(f"cov shape {cov.shape} does not match {n} budgets")
        for name in ("forecasts", "prev_weights", "lower", "upper"):
            v = getattr(self, name)
            if v.size != n:
                raise ValueError(f"{name} has {v.size} entries, expected {n}")
        if self.assets is not None:
            if len(self.assets) != n:
                raise ValueError(f"assets has {len(self.assets)} names, expected {n}")
            # a repeated name would collapse two weights of the JSON output
            for i, name in enumerate(self.assets):
                if not name or name in self.assets[:i]:
                    raise ValueError(f"assets: name {name!r} is {'repeated' if name else 'empty'}")
        for name in ("cov", "forecasts", "prev_weights", "lower"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} has non-finite entries")
        if np.isnan(self.upper).any():
            raise ValueError("upper has NaN entries")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("cov must be symmetric")
        if np.any(self.lower < 0) or np.any(self.upper < self.lower):
            raise ValueError("bounds must satisfy 0 <= lower <= upper")
        require_number("lambda", self.lam, 0)
        require_number("mu", self.mu, 0)

    @property
    def size(self) -> int:
        return self.budgets.size

    def asset_name(self, i: int) -> str:
        return self.assets[i] if self.assets else f"asset{i}"


def float_array(name: str, value) -> np.ndarray:
    """``value`` as a float array; raise ``ValueError`` naming ``name`` unless each entry is a number."""
    arr = value if isinstance(value, np.ndarray) else np.asarray(value, dtype=object)
    types = set(map(type, arr.flat)) if arr.dtype == object else {arr.dtype.type}
    if not all(issubclass(t, numbers.Real) and not issubclass(t, bool) for t in types):
        raise ValueError(f"{name}: entries must be numbers")
    return np.asarray(arr, dtype=float)


def floor_vector(value) -> np.ndarray:
    """``value`` as a vector of floors; raise ``ValueError`` unless finite, nonnegative, summing to <= 1."""
    budgets = float_array("budgets", value).ravel()
    if not np.isfinite(budgets).all():
        raise ValueError("budgets has non-finite entries")
    if np.any(budgets < 0):
        raise ValueError("budgets must be nonnegative")
    if budgets.sum() > 1.0 + 1e-12:
        raise ValueError(f"budgets sum to {float(budgets.sum())!r} > 1")
    return budgets


def require_number(name: str, value, low: float) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a finite number >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not low <= value < math.inf:
        raise ValueError(f"{name} must be a finite number >= {low}, got {value!r}")


@dataclass
class AllocationResult:
    weights: np.ndarray
    objective: float
    risk_contribs: np.ndarray
    binding_budgets: np.ndarray
    solver_stats: ConeSolution


def build_program(problem: AllocationProblem) -> ConeProgram:
    """Encode the allocation instance in solver standard form.

    Variables are ``(x, t, d+, d-)``: the epigraph scalar ``t`` appears
    only when ``lam > 0``, the turnover split columns only when ``mu > 0``.
    Each asset contributes one second-order block of dimension n+2; the
    intermediate products ``Cx`` and ``Rx`` are substituted directly into
    the cone rows rather than materialized as variables.

    ``A`` is emitted in row form: every row is a signed or scaled copy of
    a row of ``K = [I; budget row; turnover rows; I + C; I - C; R]``
    (about 7n rows), so the program takes O(n^2) memory although ``A``
    has n(n+2) cone rows of 3n+1 columns.
    """
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

    # K rows: unit rows, the budget row, the turnover rows (when mu > 0),
    # then I + C, I - C and R in the first n columns
    unit, budget, turn = 0, nv, nv + 1
    ipc = turn + (n if has_d else 0)
    imc, rrow = ipc + n, ipc + 2 * n
    arange = np.arange(n)
    kmat = np.zeros((rrow + n, nv))
    kmat[np.arange(nv), np.arange(nv)] = 1.0
    kmat[budget, :n] = 1.0
    if has_d:
        kmat[turn + arange, arange] = 1.0
        kmat[turn + arange, d_col + arange] = -1.0
        kmat[turn + arange, d_col + n + arange] = 1.0
    eye = np.eye(n)
    kmat[ipc:imc, :n] = eye + c
    kmat[imc:rrow, :n] = eye - c
    kmat[rrow:, :n] = upper

    idx, scale, rhs, cones = [], [], [], []

    def add(kind, rows, factor, r):
        rows = np.atleast_1d(rows)
        idx.append(rows)
        scale.append(np.full(rows.shape, factor, dtype=float))
        rhs.append(np.full(rows.shape, r, dtype=float))
        cones.append(kind(rows.size))

    add(Zero, budget, 1.0, 1.0)
    if has_d:
        add(Zero, turn + arange, 1.0, problem.prev_weights)
    add(NonNeg, unit + arange, -1.0, -problem.lower)
    finite_u = np.flatnonzero(np.isfinite(problem.upper))
    if finite_u.size:
        add(NonNeg, unit + finite_u, 1.0, problem.upper[finite_u])
    if has_d:
        add(NonNeg, unit + d_col + np.arange(2 * n), -1.0, 0.0)
    if has_t:
        add(SecondOrder, np.concatenate(([unit + t_col], rrow + arange)), -1.0, 0.0)

    # asset i: rows -(e_i + C_i), -(e_i - C_i), -2 sqrt(b_i) R
    idx.append(np.column_stack([ipc + arange, imc + arange,
                                np.tile(rrow + arange, (n, 1))]).ravel())
    factors = np.empty((n, n + 2))
    factors[:, :2] = -1.0
    factors[:, 2:] = (-2.0 * np.sqrt(problem.budgets))[:, None]
    scale.append(factors.ravel())
    rhs.append(np.zeros(n * (n + 2)))
    cones.extend([SecondOrder(n + 2)] * n)

    a = RowMatrix(kmat, np.concatenate(idx), np.concatenate(scale))
    return ConeProgram(c=obj, A=a, b=np.concatenate(rhs), cones=tuple(cones))


def _infeasibility_report(problem: AllocationProblem) -> list[str]:
    # best-effort hints, not a certificate
    report = []
    if problem.lower.sum() > 1.0 + 1e-12:
        report.append(f"lower bounds sum to {problem.lower.sum():.6g} > 1")
    if problem.upper.sum() < 1.0 - 1e-12:
        report.append(f"upper bounds sum to {problem.upper.sum():.6g} < 1")
    for i in range(problem.size):
        if problem.budgets[i] > 0 and problem.upper[i] <= 0:
            report.append(f"{problem.asset_name(i)}: positive budget with zero upper bound")
    cap = np.minimum(problem.upper, 1.0)
    try:
        rc_cap = risk_contributions(problem.cov, np.maximum(cap, 1e-16))
        for i in range(problem.size):
            if problem.budgets[i] > rc_cap[i] + 0.5:
                report.append(
                    f"{problem.asset_name(i)}: budget {problem.budgets[i]:.3g} looks "
                    f"unreachable under the upper bounds"
                )
    except DegeneratePortfolio:
        pass
    if not report:
        report.append("budgets and bounds jointly admit no portfolio")
    return report


def solve_allocation(problem: AllocationProblem,
                     opts: SolverOptions | None = None) -> AllocationResult:
    """Solve one instance; raises on infeasibility or solver failure.

    On success the weights sum to 1 within solver tolerance and every risk
    contribution is at least its budget minus roughly the same tolerance.
    """
    prog = build_program(problem)
    sol = solve(prog, opts)
    if sol.status is SolveStatus.Infeasible:
        raise InfeasibleAllocation(_infeasibility_report(problem))
    if sol.status is not SolveStatus.Optimal:
        raise SolverFailure(sol)
    x = sol.primal[: problem.size]
    rc = risk_contributions(problem.cov, x)
    binding = np.abs(rc - problem.budgets) <= BINDING_TOL
    return AllocationResult(
        weights=x,
        objective=float(sol.objective),
        risk_contribs=rc,
        binding_budgets=binding,
        solver_stats=sol,
    )


def expected_stats(problem: AllocationProblem, weights) -> tuple[float, float]:
    """Ex-ante expected return ``r'w`` and standard deviation ``sqrt(w'Cw)``."""
    w = np.asarray(weights, dtype=float).ravel()
    if w.size != problem.size:
        raise ValueError(f"weights have {w.size} entries, expected {problem.size}")
    return float(problem.forecasts @ w), portfolio_sd(problem.cov, w)


def portfolio_sd(cov: np.ndarray, w: np.ndarray) -> float:
    """Ex-ante standard deviation ``sqrt(w'Cw)``, 0 where roundoff makes ``w'Cw`` negative."""
    return float(np.sqrt(max(w @ cov @ w, 0.0)))


# JSON document schema (all arrays plain lists, cov row-major):
# {
#   "cov": [[...], ...],          required, n x n
#   "budgets": [...],             required, n
#   "forecasts": [...],           optional, default 0
#   "lambda": 1.0,                optional, default 1
#   "mu": 0.0,                    optional, default 0
#   "prev_weights": [...],        optional, default 0
#   "lower": [...],               optional, default 0
#   "upper": [...],               optional, default 1
#   "assets": ["SPY", ...]        optional labels
# }
# Any other key is rejected. The keys and the AllocationProblem fields they set:
PROBLEM_FIELDS = {"cov": "cov", "budgets": "budgets", "forecasts": "forecasts", "lambda": "lam",
                  "mu": "mu", "prev_weights": "prev_weights", "lower": "lower", "upper": "upper",
                  "assets": "assets"}


def problem_to_json(problem: AllocationProblem) -> str:
    doc = {key: getattr(problem, field) for key, field in PROBLEM_FIELDS.items()}
    if problem.assets is None:
        del doc["assets"]
    return json.dumps(doc, indent=2, default=np.ndarray.tolist)


def _field_error(path, message):
    return ValueError(f"{path}: {message}")


def problem_from_json(source: str | dict) -> AllocationProblem:
    """Parse the documented JSON schema; errors name the offending key.

    Only what JSON alone can break is checked here: the document's shape,
    its keys, the rows of ``cov``, lists for the vectors and strings for
    ``assets``. :class:`AllocationProblem` converts and checks the values.
    """
    doc = json.loads(source) if isinstance(source, str) else source
    if not isinstance(doc, dict):
        raise _field_error("problem", "expected a JSON object")
    for key in doc:
        if key not in PROBLEM_FIELDS:
            raise _field_error(key, "unknown key")
    for required in ("cov", "budgets"):
        if required not in doc:
            raise _field_error(required, "missing required field")

    cov = doc["cov"]
    if not isinstance(cov, list) or not cov or not all(isinstance(row, list) for row in cov):
        raise _field_error("cov", "expected a non-empty list of rows")
    n = len(cov)
    for i, row in enumerate(cov):
        if len(row) != n:
            raise _field_error(f"cov[{i}]", f"has {len(row)} entries, expected {n}")
    for name in ("budgets", "forecasts", "prev_weights", "lower", "upper"):
        if name in doc and not isinstance(doc[name], list):
            raise _field_error(name, "expected a list")
    assets = doc.get("assets")
    if assets is not None:
        if not isinstance(assets, list) or len(assets) != n or not all(isinstance(a, str) for a in assets):
            raise _field_error("assets", f"expected a list of {n} strings")
    # absent keys take the defaults of AllocationProblem
    return AllocationProblem(**{field: doc[key] for key, field in PROBLEM_FIELDS.items() if key in doc})

import dataclasses
import itertools
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_cones import nt_scaling, random_interior, split_rows

from riskbudget import solver as solver_module
from riskbudget.allocation import AllocationProblem, build_program, problem_from_json
from riskbudget.backtest import DEFAULT_SOLVER_OPTIONS
from riskbudget.cones import ConeStructure, GramPlan, NonNeg, NTScaling, SecondOrder, Zero
from riskbudget.solver import (
    ConeProgram,
    ProgramValidationError,
    RowMatrix,
    SolverOptions,
    SolveStatus,
    dump_program,
    solve,
)


class Builder:
    """Small row-block assembler for test programs."""

    def __init__(self, nvars):
        self.n = nvars
        self.rows, self.rhs, self.cones = [], [], []

    def _add(self, kind, block, rhs):
        block = np.atleast_2d(np.asarray(block, dtype=float))
        self.rows.append(block)
        self.rhs.extend(np.atleast_1d(np.asarray(rhs, dtype=float)))
        self.cones.append(kind(block.shape[0]))
        return self

    def eq(self, block, rhs):
        return self._add(Zero, block, rhs)

    def leq(self, block, rhs):
        return self._add(NonNeg, block, rhs)

    def soc(self, block, rhs):
        return self._add(SecondOrder, block, rhs)

    def program(self, c):
        return ConeProgram(c=np.asarray(c, dtype=float), A=np.vstack(self.rows),
                           b=np.asarray(self.rhs), cones=tuple(self.cones))


def e(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def soc_epigraph_rows(nvars, t_index, mat_rows, shift=None):
    """Rows for slack (x_t, M x - shift) in a second-order cone."""
    k = len(mat_rows)
    block = np.zeros((k + 1, nvars))
    block[0, t_index] = -1.0
    block[1:, :] = -np.asarray(mat_rows)
    rhs = np.zeros(k + 1)
    if shift is not None:
        rhs[1:] = -np.asarray(shift)
    return block, rhs


def battery():
    """20 cone programs with analytic optimal objectives."""
    probs = []

    # 1. forced equality: min x s.t. x = 5, x >= 0
    b = Builder(1).eq([[1.0]], 5.0).leq([[-1.0]], 0.0)
    probs.append(("forced equality", b.program([1.0]), 5.0))

    # 2. norm of a fixed vector: min t s.t. t >= ||(3,4)||
    b = Builder(1).soc([[-1.0], [0.0], [0.0]], [0, 3, 4])
    probs.append(("fixed norm", b.program([1.0]), 5.0))

    # 3. distance from a point to a hyperplane
    p, a = np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 1.0])
    b = Builder(4).eq([np.append(a, 0.0)], 0.0)
    blk, rhs = soc_epigraph_rows(4, 3, np.hstack([np.eye(3), np.zeros((3, 1))]), shift=p)
    b.soc(blk, rhs)
    probs.append(("point-to-plane", b.program([0, 0, 0, 1.0]), abs(a @ p) / np.linalg.norm(a)))

    # 4. simplex LP
    b = Builder(3).eq([np.ones(3)], 1.0).leq(-np.eye(3), np.zeros(3))
    probs.append(("simplex lp", b.program([3.0, 1.0, 2.0]), 1.0))

    # 5. box LP
    b = Builder(2).leq(np.eye(2), [2.0, 2.0]).leq(-np.eye(2), [1.0, 1.0])
    probs.append(("box lp", b.program([1.0, -2.0]), -5.0))

    # 6. Chebyshev center of the square [-1,1]^2 (radius via -r objective)
    b = Builder(3)
    for i in range(2):
        b.leq([np.append(e(2, i), 1.0)], 1.0)
        b.leq([np.append(-e(2, i), 1.0)], 1.0)
    b.leq([[0.0, 0.0, -1.0]], 0.0)
    probs.append(("chebyshev square", b.program([0.0, 0.0, -1.0]), -1.0))

    # 7. Chebyshev center of the triangle x,y >= 0, x+y <= 1
    b = Builder(3)
    b.leq([[-1.0, 0.0, 1.0]], 0.0)
    b.leq([[0.0, -1.0, 1.0]], 0.0)
    b.leq([[1.0, 1.0, np.sqrt(2.0)]], 1.0)
    probs.append(("chebyshev triangle", b.program([0.0, 0.0, -1.0]), -(2.0 - np.sqrt(2.0)) / 2.0))

    # 8. min ||x|| s.t. a'x = 1
    a = np.array([3.0, 4.0])
    b = Builder(3).eq([np.append(a, 0.0)], 1.0)
    blk, rhs = soc_epigraph_rows(3, 2, np.hstack([np.eye(2), np.zeros((2, 1))]))
    b.soc(blk, rhs)
    probs.append(("min norm on plane", b.program([0, 0, 1.0]), 0.2))

    # 9. linear over the unit ball
    b = Builder(2).soc(np.vstack([np.zeros(2), -np.eye(2)]), [1.0, 0.0, 0.0])
    probs.append(("ball lp", b.program([3.0, -4.0]), -5.0))

    # 10. linear over a shifted ball
    c, p, rho = np.array([1.0, 1.0]), np.array([2.0, 3.0]), 2.0
    b = Builder(2).soc(np.vstack([np.zeros(2), -np.eye(2)]), np.concatenate([[rho], -p]))
    probs.append(("shifted ball lp", b.program(c), c @ p - rho * np.linalg.norm(c)))

    # 11. head of a cone with pinned tail
    b = Builder(3).eq(np.hstack([np.zeros((2, 1)), np.eye(2)]), [1.0, 2.0])
    b.soc(-np.eye(3), np.zeros(3))
    probs.append(("pinned tail", b.program([1.0, 0, 0]), np.sqrt(5.0)))

    # 12. hyperbolic constraint x*y >= 1 at x = 4 via rotated-cone encoding
    b = Builder(2).eq([[1.0, 0.0]], 4.0)
    b.soc([[-1.0, 1.0], [0.0, 0.0]], [0.0, 2.0])  # slack (x+y, x-y, 2) wait: see below
    # slack rows: (x+y) - is head; tail (x-y, 2): ||(x-y, 2)|| <= x+y
    b = Builder(2).eq([[1.0, 0.0]], 4.0)
    b.soc([[-1.0, -1.0], [-1.0, 1.0], [0.0, 0.0]], [0.0, 0.0, 2.0])
    probs.append(("hyperbola", b.program([0.0, 1.0]), 0.25))

    # 13. return maximization under a volatility cap (2 assets, analytic root)
    r = np.array([0.1, 0.02])
    R = np.diag([0.2, 0.1])
    sigma = 0.15
    b = Builder(2).eq([np.ones(2)], 1.0).leq(-np.eye(2), np.zeros(2))
    b.soc(np.vstack([np.zeros(2), -R]), [sigma, 0.0, 0.0])
    w = (0.02 + np.sqrt(0.0029)) / 0.1
    probs.append(("risk cap", b.program(-r), -(0.02 + 0.08 * w)))

    # 14. smallest enclosing radius of two points
    a1, a2 = np.array([0.0, 0.0]), np.array([2.0, 0.0])
    b = Builder(3)
    for pt in (a1, a2):
        blk, rhs = soc_epigraph_rows(3, 2, np.hstack([np.eye(2), np.zeros((2, 1))]), shift=pt)
        b.soc(blk, rhs)
    probs.append(("two-point radius", b.program([0, 0, 1.0]), 1.0))

    # 15. l1 norm via positive/negative split
    v = np.array([1.0, -2.0, 3.0])
    b = Builder(6).eq(np.hstack([np.eye(3), -np.eye(3)]), v).leq(-np.eye(6), np.zeros(6))
    probs.append(("l1 split", b.program(np.ones(6)), 6.0))

    # 16. distance between parallel hyperplanes
    a = np.array([1.0, 1.0])
    b = Builder(5).eq([np.concatenate([a, [0, 0, 0]])], 0.0)
    b.eq([np.concatenate([[0, 0], a, [0]])], 1.0)
    blk = np.zeros((3, 5))
    blk[0, 4] = -1.0
    blk[1:, :2] = -np.eye(2)
    blk[1:, 2:4] = np.eye(2)
    b.soc(blk, np.zeros(3))
    probs.append(("plane gap", b.program([0, 0, 0, 0, 1.0]), 1.0 / np.sqrt(2.0)))

    # 17. projection onto an affine set, expected value from the formula
    A = np.array([[1.0, 2.0, 0.0, -1.0], [0.0, 1.0, 1.0, 1.0]])
    bb = np.array([1.0, 2.0])
    p = np.array([1.0, 1.0, -1.0, 0.5])
    xstar = p - A.T @ np.linalg.solve(A @ A.T, A @ p - bb)
    b = Builder(5).eq(np.hstack([A, np.zeros((2, 1))]), bb)
    blk, rhs = soc_epigraph_rows(5, 4, np.hstack([np.eye(4), np.zeros((4, 1))]), shift=p)
    b.soc(blk, rhs)
    probs.append(("affine projection", b.program([0, 0, 0, 0, 1.0]), np.linalg.norm(xstar - p)))

    # 18. linear over a disk of radius sqrt(2)
    b = Builder(2).soc(np.vstack([np.zeros(2), -np.eye(2)]), [np.sqrt(2.0), 0.0, 0.0])
    probs.append(("disk lp", b.program([1.0, 1.0]), -2.0))

    # 19. scaled objective on a fixed norm
    b = Builder(1).soc([[-1.0], [0.0], [0.0], [0.0]], [0, 1, 2, 2])
    probs.append(("scaled norm", b.program([3.0]), 9.0))

    # 20. redundant equality rows
    b = Builder(2).eq([[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0]).leq(-np.eye(2), np.zeros(2))
    probs.append(("redundant eq", b.program([1.0, 0.0]), 0.0))

    # 21. no variables: a constant slack in the cone
    b = Builder(0).leq(np.zeros((1, 0)), 1.0)
    probs.append(("no variables", b.program([]), 0.0))

    return probs


@pytest.mark.parametrize("name,prog,expected", [(n, p, v) for n, p, v in battery()],
                         ids=[n for n, _, _ in battery()])
def test_battery_analytic_objectives(name, prog, expected):
    sol = solve(prog)
    assert sol.status is SolveStatus.Optimal, f"{name}: {sol.status}"
    assert abs(sol.objective - expected) <= 1e-7, f"{name}: {sol.objective} vs {expected}"


def test_infeasible_status():
    b = Builder(2).eq([np.ones(2)], -1.0).leq(-np.eye(2), np.zeros(2))
    sol = solve(b.program([1.0, 1.0]))
    assert sol.status is SolveStatus.Infeasible


def test_unbounded_status():
    b = Builder(1).leq([[-1.0]], 0.0)
    sol = solve(b.program([-1.0]))
    assert sol.status is SolveStatus.Unbounded


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_singular_kkt_without_regularization_fails_cleanly(monkeypatch):
    # a duplicated equality row makes the unregularized KKT matrix exactly
    # singular: the solve must report the failure, not raise
    b = Builder(2).eq([np.ones(2), np.ones(2)], [1.0, 1.0]).leq(-np.eye(2), np.zeros(2))
    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "REG", 0.0)
        sol = solve(b.program([1.0, 2.0]))
    assert sol.status is SolveStatus.NumericalFailure
    # the default regularization solves the same program
    assert solve(b.program([1.0, 2.0])).status is SolveStatus.Optimal


def test_min_variance_matches_active_set_oracle():
    rng = np.random.default_rng(42)
    n = 5
    a = rng.standard_normal((n, n))
    C = a.T @ a / n + 0.05 * np.eye(n)
    R = np.linalg.cholesky(C).T
    b = Builder(n + 1).eq([np.append(np.ones(n), 0.0)], 1.0)
    b.leq(np.hstack([-np.eye(n), np.zeros((n, 1))]), np.zeros(n))
    blk, rhs = soc_epigraph_rows(n + 1, n, np.hstack([R, np.zeros((n, 1))]))
    b.soc(blk, rhs)
    sol = solve(b.program(np.append(np.zeros(n), 1.0)))
    assert sol.status is SolveStatus.Optimal
    x = sol.primal[:n]

    best_v, best_x = np.inf, None
    for k in range(1, n + 1):
        for support in itertools.combinations(range(n), k):
            idx = list(support)
            try:
                w = np.linalg.solve(C[np.ix_(idx, idx)], np.ones(k))
            except np.linalg.LinAlgError:
                continue
            w = w / w.sum()
            if np.any(w < -1e-12):
                continue
            xf = np.zeros(n)
            xf[idx] = w
            v = xf @ C @ xf
            grad = 2.0 * C @ xf
            if np.all(grad >= 2.0 * v - 1e-10) and v < best_v:
                best_v, best_x = v, xf
    assert np.abs(x - best_x).max() <= 1e-6


def test_weak_duality_on_optimal_exit():
    for _, prog, _ in battery():
        sol = solve(prog)
        if sol.status is not SolveStatus.Optimal:
            continue
        dual_obj = -(prog.b @ sol.dual)
        assert dual_obj <= sol.objective + 1e-6 * max(1.0, abs(sol.objective))


def test_objective_scaling_robustness():
    b = Builder(3).eq([np.ones(3)], 1.0).leq(-np.eye(3), np.zeros(3))
    prog = b.program([3.0, 1.0, 2.0])
    base = solve(prog)
    scaled = solve(ConeProgram(c=prog.c * 1000.0, A=prog.A, b=prog.b, cones=prog.cones))
    assert scaled.status is SolveStatus.Optimal
    assert abs(scaled.objective - 1000.0 * base.objective) <= 1e-4
    assert np.abs(scaled.primal - base.primal).max() <= 1e-6


def test_determinism():
    _, prog, _ = battery()[12]
    s1, s2 = solve(prog), solve(prog)
    assert np.array_equal(s1.primal, s2.primal)
    assert s1.iterations == s2.iterations


def _allocation_program(n, mu, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    cov = (a @ a.T / n + 0.1 * np.eye(n)) * 1e-3
    return build_program(AllocationProblem(cov=cov, budgets=0.5 * rng.dirichlet(np.ones(n)),
                                           forecasts=rng.normal(0.001, 0.002, n), mu=mu,
                                           prev_weights=rng.dirichlet(np.ones(n))))


def _kkt(prog, seed=9):
    """``_KKT`` at a random interior scaling, with the program's cone rows and
    equality rows, and a random right-hand side."""
    struct = prog.structure
    g, aeq = split_rows(prog)
    rng = np.random.default_rng(seed)
    w = nt_scaling(struct, random_interior(struct, rng), random_interior(struct, rng))
    kkt = solver_module._KKT(GramPlan(struct, g, aeq), aeq, g, w, 2)
    rhs = (rng.standard_normal(g.shape[1]), rng.standard_normal(aeq.shape[0]),
           rng.standard_normal(struct.dim))
    return kkt, rhs


def _check_against_dense(prog, order, seed=9):
    # solve3 against numpy.linalg.solve of the full 3-block system
    kkt, rhs = _kkt(prog, seed)
    assert kkt.lu.shape == (order, order)
    struct, w = prog.structure, kkt.scaling
    aeq, gd = kkt.aeq, np.asarray(kkt.g)
    n, p, m = gd.shape[1], aeq.shape[0], struct.dim
    wsq = np.column_stack([w.apply_sq(col) for col in np.eye(m)])
    full = np.block([[np.zeros((n, n)), aeq.T, gd.T],
                     [aeq, np.zeros((p, p)), np.zeros((p, m))],
                     [gd, np.zeros((m, p)), -wsq]])
    got = np.concatenate(kkt.solve3(*rhs))
    want = np.linalg.solve(full, np.concatenate(rhs))
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.parametrize("name,prog,order", [
    ("allocation with turnover", _allocation_program(5, 0.001, 0), 2 * 5 + 2),
    ("allocation without turnover", _allocation_program(5, 0.0, 1), 5 + 1 + 1),
    # every column is eliminated: only the 3 equality rows are factored
    ("l1 split", {n: p for n, p, _ in battery()}["l1 split"], 3),
    # the column that two equality rows share stays in the LU, the two
    # after it are eliminated
    ("shared column", Builder(3).eq([[1.0, 1.0, 0.0], [2.0, 0.0, -1.0]], [1.0, 0.5])
     .leq(-np.eye(3), np.zeros(3)).program([1.0, 2.0, 3.0]), 3),
])
def test_kkt_solve_matches_the_dense_three_block_system(name, prog, order):
    _check_against_dense(prog, order)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.integers(1, 3), st.lists(st.integers(0, 2), min_size=1, max_size=5), st.integers(0, 3),
       st.integers(0, 2**32 - 1))
def test_reduced_kkt_solve_matches_the_dense_system(dense, meets, p, seed):
    # ``dense`` columns that multi-entry and second-order rows reach, and
    # one column per entry of ``meets`` that only one-entry nonneg rows
    # reach, meeting that many of the ``p`` equality rows; every column
    # also has a one-entry row with a zero factor. The columns are shuffled,
    # so eliminable columns can lie ahead of kept ones, which keeps them.
    rng = np.random.default_rng(seed)
    n = dense + len(meets)
    cols = rng.permutation(n)
    dcols, diag = cols[:dense], cols[dense:]
    meets = np.minimum(meets, p)
    # K rows: unit rows, equality rows, dense + 1 nonneg and dense + 1
    # second-order rows on the dense columns
    kmat = np.zeros((n + p + 2 * dense + 2, n))
    kmat[:n] = np.eye(n)
    kmat[n : n + p, dcols] = rng.standard_normal((p, dense))
    for j, k in zip(diag, meets):
        kmat[n + rng.choice(p, k, replace=False), j] = rng.standard_normal(k)
    kmat[n + p :, dcols] = rng.standard_normal((2 * dense + 2, dense))
    assume(np.linalg.matrix_rank(kmat[n : n + p]) == p)
    idx = np.concatenate([n + np.arange(p), diag, np.arange(n), n + p + np.arange(2 * dense + 2)])
    scale = np.concatenate([np.ones(p), rng.uniform(0.5, 2.0, diag.size), np.zeros(n),
                            np.ones(2 * dense + 2)])
    cones = [NonNeg(diag.size + n + dense + 1), SecondOrder(dense + 1)]
    if p:
        cones.insert(0, Zero(p))
    prog = ConeProgram(c=np.zeros(n), A=RowMatrix(kmat, idx, scale), b=np.zeros(idx.size),
                       cones=cones)
    kept = np.concatenate([dcols, diag[meets == 2]])
    _check_against_dense(prog, kept.max() + 1 + p, seed)


def test_an_eliminable_column_ahead_of_a_kept_one_stays_in_the_lu():
    # u (column 0) is eliminable: one equality row and two one-entry
    # nonneg rows, 0 <= u <= 2, reach it. Ahead of the three columns of x,
    # which a second-order block ||x - x0|| <= 1 reaches, it stays in the
    # LU; moved last, the twin program eliminates it. Both solve to the
    # same point.
    rng = np.random.default_rng(12)
    eq = np.r_[0.7, rng.uniform(0.5, 1.5, 3)]
    x0 = rng.normal(0.0, 0.2, 3)
    a = np.zeros((1 + 2 + 4, 4))
    a[0] = eq
    a[1:3, 0] = [-1.0, 1.0]
    a[4:, 1:] = -np.eye(3)
    b = np.r_[1.0, 0.0, 2.0, 1.0, -x0]
    c = rng.standard_normal(4)
    cones = [Zero(1), NonNeg(2), SecondOrder(4)]
    order = [1, 2, 3, 0]
    twin = ConeProgram(c=c[order], A=a[:, order], b=b, cones=cones)
    prog = ConeProgram(c=c, A=a, b=b, cones=cones)
    ks = []
    for p in (prog, twin):
        ks.append(GramPlan(p.structure, *split_rows(p)).k)
    assert ks == [4, 3]
    sol, twin_sol = solve(prog), solve(twin)
    assert sol.status is twin_sol.status is SolveStatus.Optimal
    assert np.abs(sol.primal[order] - twin_sol.primal).max() <= 1e-9
    assert np.abs(sol.dual - twin_sol.dual).max() <= 1e-9


def test_refinement_keeps_the_first_pass_when_a_correction_is_not_finite(monkeypatch):
    kkt, rhs = _kkt(_allocation_program(5, 0.001, 0))
    first = kkt._reduced(*rhs)
    passes = []
    reduced = solver_module._KKT._reduced

    def poisoned(self, *rho):
        out = reduced(self, *rho)
        passes.append(out)
        return out if len(passes) == 1 else (np.full_like(out[0], np.nan), *out[1:])

    monkeypatch.setattr(solver_module._KKT, "_reduced", poisoned)
    got = kkt.solve3(*rhs)
    # the first pass and one correction, which the guard drops
    assert len(passes) == 2
    assert all(np.array_equal(a, b) for a, b in zip(got, first))


# an MRB week of a seeded 16-asset backtest (lambda 1, mu 0.001) whose
# accuracy stalls above the engine's 1e-7 tolerances
DEGRADING_WEEK = os.path.join(os.path.dirname(__file__), "data", "degrading_week.json")


def _degrading_week():
    with open(DEGRADING_WEEK) as fh:
        return build_program(problem_from_json(fh.read()))


def test_degrading_iterates_end_the_solve():
    # the solve stops once its iterates degrade (36 steps); without that
    # test it runs on to 53 steps, until a step fails, for the same status
    sol = solve(_degrading_week(), DEFAULT_SOLVER_OPTIONS)
    assert sol.status is SolveStatus.NumericalFailure
    assert sol.iterations <= 44
    assert max(sol.primal_residual, sol.dual_residual, sol.gap) < 1e-4


def _assert_stopped_at_best(sol, prog, systems):
    """``sol`` stopped after forming ``systems`` Newton systems, reporting the
    best of the points before the failed one: that of the solve capped
    just short of the last system."""
    capped = solve(prog, SolverOptions(max_iters=systems - 1))
    assert sol.status is SolveStatus.NumericalFailure
    assert sol.iterations == systems == capped.iterations + 1
    assert np.array_equal(sol.primal, capped.primal)
    assert np.array_equal(sol.dual, capped.dual)


def test_a_failed_factorization_ends_the_solve(monkeypatch):
    prog = _allocation_program(5, 0.001, 0)
    real, calls = solver_module.sla.lu_factor, []

    def failing_third(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise solver_module.sla.LinAlgError("singular matrix")
        return real(*args, **kwargs)

    monkeypatch.setattr(solver_module.sla, "lu_factor", failing_third)
    sol = solve(prog)
    monkeypatch.undo()
    _assert_stopped_at_best(sol, prog, 3)


def test_a_non_finite_direction_ends_the_solve(monkeypatch):
    # three KKT solves a predictor-corrector iteration: the ninth is the
    # third iteration's corrector, after its u1 and predictor were finite
    prog = _allocation_program(5, 0.001, 0)
    real, calls = solver_module._KKT.solve3, []

    def poisoned_ninth(self, *rho):
        calls.append(None)
        out = real(self, *rho)
        return tuple(np.full_like(v, np.nan) for v in out) if len(calls) == 9 else out

    monkeypatch.setattr(solver_module._KKT, "solve3", poisoned_ninth)
    sol = solve(prog)
    monkeypatch.undo()
    _assert_stopped_at_best(sol, prog, 3)


def test_a_singular_embedding_row_ends_the_solve(monkeypatch):
    # at the start tau = kappa = 1, so a first u1 with c'dx = 1 (c[0] = 1)
    # makes the denominator of dtau exactly 0: no division may follow
    prog = Builder(2).eq([np.ones(2)], 1.0).leq(-np.eye(2), np.zeros(2)).program([1.0, 2.0])
    real, calls = solver_module._KKT.solve3, []

    def singular_first(self, *rho):
        calls.append(None)
        dx, dy, dz = real(self, *rho)
        return (e(2, 0), np.zeros_like(dy), np.zeros_like(dz)) if len(calls) == 1 else (dx, dy, dz)

    monkeypatch.setattr(solver_module._KKT, "solve3", singular_first)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = solve(prog)
    monkeypatch.undo()
    _assert_stopped_at_best(sol, prog, 1)


def test_a_vanishing_step_ends_the_solve(monkeypatch):
    # a zero step leaves the iterate where it was: one Newton system, not
    # max_iters of them
    prog = _allocation_program(5, 0.001, 0)
    monkeypatch.setattr(ConeStructure, "max_step", lambda self, *args: 0.0)
    sol = solve(prog)
    monkeypatch.undo()
    _assert_stopped_at_best(sol, prog, 1)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_iterations_count_every_step(monkeypatch):
    # one Newton system an iteration, polish included, whatever the status
    scalings = []
    real = solver_module.NTScaling

    def counting(*args):
        scalings.append(None)
        return real(*args)

    monkeypatch.setattr(solver_module, "NTScaling", counting)
    singular = Builder(2).eq([np.ones(2), np.ones(2)], [1.0, 1.0]).leq(-np.eye(2), np.zeros(2))
    cases = [(prog, None) for _, prog, _ in battery()] + [
        (_degrading_week(), DEFAULT_SOLVER_OPTIONS),
        (battery()[12][1], SolverOptions(max_iters=3)),
        (Builder(2).eq([np.ones(2)], -1.0).leq(-np.eye(2), np.zeros(2)).program([1.0, 1.0]), None),
        (Builder(1).leq([[-1.0]], 0.0).program([-1.0]), None),
    ]
    statuses = set()

    def check(prog, opts=None):
        scalings.clear()
        sol = solve(prog, opts)
        statuses.add(sol.status)
        assert sol.iterations == len(scalings)

    for prog, opts in cases:
        check(prog, opts)
    monkeypatch.setattr(solver_module, "REG", 0.0)
    check(singular.program([1.0, 2.0]))
    assert statuses == set(SolveStatus)


def test_polish_stops_at_the_roundoff_floor():
    # on this program each polish step cuts the error a hundredfold with no
    # floor of its own; polish ends once the error reaches roundoff
    prog = {name: p for name, p, _ in battery()}["no variables"]
    sol = solve(prog)
    assert sol.status is SolveStatus.Optimal
    assert sol.iterations <= 10


def test_a_zero_equality_row_keeps_a_unit_scale():
    # min x0 + 2 x1 s.t. 0 = 0, x0 + x1 = 1, x >= 0: the all-zero equality
    # row has no norm to divide by and keeps the factor 1
    prog = Builder(2).eq([[0.0, 0.0], [1.0, 1.0]], [0.0, 1.0]).leq(-np.eye(2), np.zeros(2))
    sol = solve(prog.program([1.0, 2.0]))
    assert sol.status is SolveStatus.Optimal
    assert np.abs(sol.primal - [1.0, 0.0]).max() <= 1e-8


def test_a_constant_second_order_block_keeps_a_unit_scale():
    # min x s.t. x >= 1, with the constant slack (2, 1) in a second-order
    # block: a block with no nonzero A row has no norm to average and keeps
    # the factor 1, where a mean over no rows would be nan
    prog = Builder(1).leq([[-1.0]], -1.0).soc(np.zeros((2, 1)), [2.0, 1.0]).program([1.0])
    sol = solve(prog)
    assert sol.status is SolveStatus.Optimal
    assert abs(sol.primal[0] - 1.0) <= 1e-8


def test_any_row_order_solves_as_the_canonical_one():
    # SecondOrder blocks ahead of NonNeg rows, and a Zero row last; the
    # structure solves over NonNeg rows first, then the SecondOrder blocks
    b = Builder(3)
    b.soc([[0.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]], [2.0, 0.0, 0.0])
    b.leq(np.eye(3)[:2], [1.0, 1.0])
    b.soc([[-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]], [1.0, -0.5])
    b.leq([[0.0, 0.0, -1.0]], 0.0)
    b.eq([np.ones(3)], 1.0)
    scrambled = b.program([-1.0, 0.5, 0.3])
    assert [type(blk) for blk in scrambled.cones] == [SecondOrder, NonNeg, SecondOrder, NonNeg, Zero]
    # the Zero row, the NonNeg rows, then the two SecondOrder blocks
    order = np.array([8, 3, 4, 7, 0, 1, 2, 5, 6])
    canonical = ConeProgram(c=scrambled.c, A=np.asarray(scrambled.A)[order], b=scrambled.b[order],
                            cones=(Zero(1), NonNeg(3), SecondOrder(3), SecondOrder(2)))
    one, other = solve(scrambled), solve(canonical)
    assert one.status is other.status is SolveStatus.Optimal
    assert np.abs(one.primal - other.primal).max() <= 1e-9
    for name in ("dual", "slack"):
        mapped = np.empty(order.size)
        mapped[order] = getattr(other, name)
        assert np.abs(getattr(one, name) - mapped).max() <= 1e-9, name


def test_a_solve_builds_no_cone_structure_of_its_own(monkeypatch):
    # the program's one structure serves the scaling and the steps of s
    # and z alike, and a second solve of the program builds none
    built = []
    real = ConeStructure.__init__

    def counting(self, blocks):
        built.append(None)
        real(self, blocks)

    monkeypatch.setattr(ConeStructure, "__init__", counting)
    for _, prog, _ in battery():
        built.clear()
        solve(prog)
        assert len(built) == 1
        solve(prog)
        assert len(built) == 1


class TestValidate:
    """A ConeProgram checks itself when built; a malformed one never exists."""

    def test_well_formed(self):
        b = Builder(2).eq([np.ones(2)], 1.0).leq(-np.eye(2), np.zeros(2))
        prog = b.program([1.0, 1.0])
        assert list(prog.structure.zero_rows) == [0]
        assert list(prog.structure.cone_rows) == [1, 2]

    def test_soc_dim_below_two(self):
        with pytest.raises(ProgramValidationError) as err:
            ConeProgram(c=np.ones(1), A=np.ones((1, 1)), b=np.ones(1), cones=(SecondOrder(1),))
        assert any("SecondOrder dim 1 < 2" in d for d in err.value.defects)

    def test_dimension_mismatch(self):
        with pytest.raises(ProgramValidationError) as err:
            ConeProgram(c=np.ones(3), A=np.ones((2, 2)), b=np.ones(2), cones=(NonNeg(2),))
        assert any("columns" in d for d in err.value.defects)

    def test_solve_rejects_malformed(self):
        # the solver takes only built programs, and a malformed one cannot be built
        with pytest.raises(ProgramValidationError):
            solve(ConeProgram(c=np.ones(3), A=np.ones((2, 2)), b=np.ones(2), cones=(NonNeg(2),)))

    def test_non_matrix_and_non_finite_a(self):
        with pytest.raises(ValueError, match="A must be a matrix"):
            ConeProgram(c=np.ones(2), A=np.ones(2), b=np.ones(1), cones=(NonNeg(1),))
        with pytest.raises(ProgramValidationError) as err:
            ConeProgram(c=np.ones(2), A=np.array([[1.0, np.inf]]), b=np.ones(1), cones=(NonNeg(1),))
        assert err.value.defects == ["A contains non-finite entries"]

    def test_cone_sum_mismatch(self):
        with pytest.raises(ProgramValidationError) as err:
            ConeProgram(c=np.ones(2), A=np.ones((3, 2)), b=np.ones(3), cones=(NonNeg(2),))
        assert any("sum to 2" in d for d in err.value.defects)

    @pytest.mark.parametrize("fields, defect", [
        (dict(c=np.ones(2), A=np.ones((2, 2)), b=np.ones(3), cones=(NonNeg(3),)),
         "dimension mismatch: A has 2 rows but b has 3 entries"),
        (dict(c=np.ones(2), A=np.ones((1, 2)), b=np.ones(1), cones=("nonneg",)),
         "cone block 0 has unknown type str"),
        (dict(c=np.ones(2), A=np.ones((1, 2)), b=np.ones(1), cones=(NonNeg(1), Zero(0))),
         "cone block 1 (Zero) has dim 0 < 1"),
        (dict(c=[1.0, np.nan], A=np.ones((1, 2)), b=np.ones(1), cones=(NonNeg(1),)),
         "c contains non-finite entries"),
        (dict(c=np.ones(2), A=np.ones((1, 2)), b=[np.inf], cones=(NonNeg(1),)),
         "b contains non-finite entries"),
    ], ids=["rows", "unknown cone", "empty block", "c", "b"])
    def test_each_defect_is_reported(self, fields, defect):
        with pytest.raises(ProgramValidationError, match=re.escape(defect)) as err:
            ConeProgram(**fields)
        assert defect in err.value.defects


class TestRowMatrix:
    def test_idx_and_scale_must_match(self):
        with pytest.raises(ValueError, match="equal length"):
            RowMatrix(np.eye(2), [0, 1], [1.0])
        with pytest.raises(ValueError, match="equal length"):
            RowMatrix(np.eye(2), [[0, 1]], [[1.0, 1.0]])

    @pytest.mark.parametrize("idx", [[0, 2], [-1, 0]])
    def test_row_index_out_of_range(self, idx):
        with pytest.raises(ValueError, match="out of range for K with 2 rows"):
            RowMatrix(np.eye(2), idx, [1.0, 1.0])


class TestSolverOptions:
    def test_frozen_with_one_tolerance(self):
        opts = SolverOptions()
        assert [f.name for f in dataclasses.fields(opts)] == ["tol", "max_iters"]
        assert (opts.tol, opts.max_iters) == (1e-8, 200)
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.tol = 1e-6

    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf, "1e-8", None, True])
    def test_rejects_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be a finite number > 0"):
            SolverOptions(tol=tol)

    @pytest.mark.parametrize("max_iters", [-1, 2.5, "3", None, True])
    def test_rejects_max_iters(self, max_iters):
        with pytest.raises(ValueError, match="max_iters must be an integer >= 0"):
            SolverOptions(max_iters=max_iters)

    def test_accepts_numpy_scalars(self):
        opts = SolverOptions(tol=np.float64(1e-7), max_iters=np.int64(0))
        sol = solve(Builder(2).eq([np.ones(2)], 1.0).leq(-np.eye(2), np.zeros(2)).program([1.0, 1.0]),
                    opts)
        assert sol.status is SolveStatus.MaxIters and sol.iterations == 0


def test_sparse_matrix_accepted():
    import scipy.sparse as sp

    A = sp.csr_matrix(np.vstack([np.ones(2), -np.eye(2)]))
    p = ConeProgram(c=np.array([3.0, 1.0]), A=A, b=np.array([1.0, 0, 0]),
                    cones=(Zero(1), NonNeg(2)))
    sol = solve(p)
    assert sol.status is SolveStatus.Optimal
    assert abs(sol.objective - 1.0) <= 1e-7


def test_dump_program_round_trippable_text(tmp_path):
    b = Builder(2).eq([np.ones(2)], 1.0).leq(-np.eye(2), np.zeros(2))
    prog = b.program([3.0, 1.0])
    path = tmp_path / "prog.txt"
    dump_program(prog, path)
    text = path.read_text().splitlines()
    assert text[0] == "conedump v1"
    assert "vars 2" in text[1]
    assert "rows 3" in text[2]
    assert text[-1] == "end"
    # triplets reconstruct A
    a_start = text.index("A") + 1
    b_start = text.index("b")
    rebuilt = np.zeros((3, 2))
    for line in text[a_start:b_start]:
        i, j, v = line.split()
        rebuilt[int(i), int(j)] = float(v)
    assert np.array_equal(rebuilt, prog.A)

"""Property tests of the solve path and of the CSV readers.

Programs are built with a known answer: a planted optimum from a
complementary triple ``(x*, s*, z*)``, an infeasible program from a Farkas
multiplier and an unbounded one from a recession ray. Each example is a
seeded draw, so the whole file runs the same examples every time.
"""

import dataclasses
import io
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_cones import brute_gram, eliminable, full_gram, nt_scaling, random_interior, soc_slices

from riskbudget.allocation import AllocationProblem, build_program, solve_allocation
from riskbudget.backtest import DEFAULT_SOLVER_OPTIONS, BacktestLedger, ledger_from_csv, ledger_to_csv
from riskbudget.data import ParseError, WeeklyPanel, panel_from_csv, panel_to_csv
from riskbudget.cones import ConeStructure, GramPlan, NonNeg, SecondOrder, Zero
from riskbudget.solver import ConeProgram, RowMatrix, SolveStatus, solve

TOL = 1e-8
# headroom over the solver's own test for recomputing a residual from the
# dense matrix in a different summation order
ROUNDING = 1.01

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)

cone_blocks = st.lists(st.one_of(st.builds(NonNeg, st.integers(1, 3)),
                                 st.builds(SecondOrder, st.integers(2, 4))),
                       min_size=1, max_size=4)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def layouts(draw):
    """Cone blocks, with a Zero block at a random place or none."""
    blocks = draw(cone_blocks)
    zero = draw(st.integers(0, 2))
    if zero:
        blocks.insert(draw(st.integers(0, len(blocks))), Zero(zero))
    return blocks


def zero_dims(blocks):
    return sum(blk.dim for blk in blocks if isinstance(blk, Zero))


def norm(v):
    return float(np.linalg.norm(v))


def rows_of(blocks):
    """Row slice of each block."""
    out, row = [], 0
    for blk in blocks:
        out.append(slice(row, row + blk.dim))
        row += blk.dim
    return out


def interior(blocks, rng):
    """A point interior to every cone block, 0 on Zero rows."""
    u = np.zeros(sum(blk.dim for blk in blocks))
    for blk, r in zip(blocks, rows_of(blocks)):
        if isinstance(blk, NonNeg):
            u[r] = rng.uniform(0.5, 2.0, blk.dim)
        elif isinstance(blk, SecondOrder):
            tail = rng.standard_normal(blk.dim - 1)
            u[r] = np.r_[norm(tail) + rng.uniform(0.5, 2.0), tail]
    return u


def margin(blocks, u):
    """Smallest distance of ``u`` inside a cone block (negative outside)."""
    out = np.inf
    for blk, r in zip(blocks, rows_of(blocks)):
        if isinstance(blk, NonNeg):
            out = min(out, float(u[r].min()))
        elif isinstance(blk, SecondOrder):
            out = min(out, float(u[r][0] - norm(u[r][1:])))
    return out


def split(blocks, a, v):
    """``a`` and ``v`` on the Zero rows, then on the cone rows."""
    zero = np.concatenate([np.arange(r.start, r.stop) for blk, r in zip(blocks, rows_of(blocks))
                           if isinstance(blk, Zero)] or [np.zeros(0, dtype=int)])
    cone = np.setdiff1d(np.arange(v.size), zero)
    return a[zero], v[zero], a[cone], v[cone]


def planted(blocks, n, rng):
    """A program whose optimum ``x*`` has slack ``s*`` and multipliers ``z*``
    with ``c = -A' z*`` and ``s* o z* = 0``, strictly complementary: on each
    block either one of the pair is 0 and the other interior, or both lie
    on opposite boundary rays of a second-order block."""
    m = sum(blk.dim for blk in blocks)
    a = rng.standard_normal((m, n))
    x = rng.standard_normal(n)
    s, z = np.zeros(m), np.zeros(m)
    for blk, r in zip(blocks, rows_of(blocks)):
        if isinstance(blk, Zero):
            z[r] = rng.standard_normal(blk.dim)
        elif isinstance(blk, NonNeg):
            active = rng.random(blk.dim) < 0.5
            size = rng.uniform(0.5, 2.0, blk.dim)
            s[r] = np.where(active, 0.0, size)
            z[r] = np.where(active, size, 0.0)
        else:
            kind = rng.integers(3)
            if kind == 0:
                ray = rng.standard_normal(blk.dim - 1)
                ray /= norm(ray)
                s[r] = rng.uniform(0.5, 2.0) * np.r_[1.0, ray]
                z[r] = rng.uniform(0.5, 2.0) * np.r_[1.0, -ray]
            else:
                (s if kind == 1 else z)[r] = interior([blk], rng)
    prog = ConeProgram(c=-a.T @ z, A=a, b=a @ x + s, cones=blocks)
    return prog, float(prog.c @ x)


@PROPERTY
@given(blocks=layouts(), extra=st.integers(0, 2), seed=seeds)
def test_planted_optimum_is_found(blocks, extra, seed):
    check_planted_optimum(blocks, extra, seed)


# two programs found at max_examples=300 that stalled just above the
# tolerance, ending MaxIters with residuals near 1.2e-8, while nonneg rows
# were equilibrated row by row
@pytest.mark.parametrize("blocks, extra, seed", [
    ([NonNeg(2), Zero(1), SecondOrder(4)], 1, 117),
    ([SecondOrder(3), Zero(1), SecondOrder(3), SecondOrder(3), NonNeg(1)], 0, 1336117),
])
def test_planted_optimum_stall(blocks, extra, seed):
    check_planted_optimum(blocks, extra, seed)


# still stalls: MaxIters after 200 iterations with residuals near 1.2e-8
@pytest.mark.xfail(strict=True, reason="stalls above a 1e-8 tolerance: ROADMAP item 3")
def test_planted_optimum_still_stalls():
    check_planted_optimum([Zero(2), SecondOrder(4), NonNeg(1), NonNeg(1), SecondOrder(4)],
                          extra=2, seed=569)


def check_planted_optimum(blocks, extra, seed):
    rng = np.random.default_rng(seed)
    # at least as many variables as any block has rows, and more than the
    # Zero rows, so both the program and its dual keep an interior
    n = max(max(blk.dim for blk in blocks), zero_dims(blocks) + 1) + extra
    prog, optimum = planted(blocks, n, rng)
    sol = solve(prog)
    assert sol.status is SolveStatus.Optimal
    assert abs(sol.objective - optimum) <= 1e-6 * (1.0 + abs(optimum))

    a = np.asarray(prog.A)
    a_eq, b_eq, a_k, b_k = split(blocks, a, prog.b)
    _, _, _, s_k = split(blocks, a, sol.slack)
    assert norm(a_eq @ sol.primal - b_eq) <= ROUNDING * TOL * (1.0 + norm(b_eq))
    assert norm(a_k @ sol.primal + s_k - b_k) <= ROUNDING * TOL * (1.0 + norm(b_k))
    residual, gap, dual_margin = dual_certificate(prog, sol)
    assert residual <= ROUNDING * TOL and gap <= ROUNDING * TOL
    assert margin(blocks, sol.slack) >= 0 and dual_margin >= 0


def dual_certificate(prog, sol):
    """The dual residual ``||A'y + c|| / (1 + ||c||)``, the relative gap
    ``s'y / max(1, |c'x|, |b'y|)`` and the distance of ``y`` inside the
    dual cone, for the dual ``y`` of a solution, on the program's data."""
    y = sol.dual
    residual = norm(np.asarray(prog.A).T @ y + prog.c) / (1.0 + norm(prog.c))
    dobj = -float(prog.b @ y)
    gap = float(sol.slack @ y) / max(1.0, abs(sol.objective), abs(dobj))
    return residual, gap, margin(prog.cones, y)


@PROPERTY
@given(blocks=layouts(), n=st.integers(1, 4), seed=seeds)
def test_infeasible_program_has_a_farkas_certificate(blocks, n, seed):
    rng = np.random.default_rng(seed)
    # a multiplier y0 (free on Zero rows, interior on the cones) with
    # A'y0 = 0 and b'y0 = -1 proves b - A x in K impossible
    y0 = interior(blocks, rng)
    for blk, r in zip(blocks, rows_of(blocks)):
        if isinstance(blk, Zero):
            y0[r] = rng.standard_normal(blk.dim)
    a = rng.standard_normal((y0.size, n))
    a -= np.outer(y0, y0 @ a) / (y0 @ y0)
    b = rng.standard_normal(y0.size)
    b -= (b @ y0 + 1.0) * y0 / (y0 @ y0)
    prog = ConeProgram(c=rng.standard_normal(n), A=a, b=b, cones=blocks)
    sol = solve(prog)
    assert sol.status is SolveStatus.Infeasible
    y = sol.dual
    assert float(prog.b @ y) < 0
    assert norm(a.T @ y) <= ROUNDING * TOL * (1.0 + norm(prog.c))
    assert margin(blocks, y) >= 0


@PROPERTY
@given(blocks=layouts(), extra=st.integers(0, 2), seed=seeds)
def test_unbounded_program_has_a_recession_ray(blocks, extra, seed):
    rng = np.random.default_rng(seed)
    # a ray r with A_eq r = 0, -A_K r interior to the cones and c'r = -1
    # from a feasible point: the objective falls without bound along it
    n = zero_dims(blocks) + 1 + extra
    ray = rng.standard_normal(n)
    push = interior(blocks, rng)
    a = rng.standard_normal((push.size, n))
    a -= np.outer(a @ ray + push, ray) / (ray @ ray)
    c = rng.standard_normal(n)
    c -= (c @ ray + 1.0) * ray / (ray @ ray)
    b = a @ rng.standard_normal(n) + interior(blocks, rng)
    prog = ConeProgram(c=c, A=a, b=b, cones=blocks)
    sol = solve(prog)
    assert sol.status is SolveStatus.Unbounded
    a_eq, b_eq, a_k, b_k = split(blocks, a, b)
    _, _, _, s_k = split(blocks, a, sol.slack)
    assert float(c @ sol.primal) < 0
    assert norm(a_eq @ sol.primal) <= ROUNDING * TOL * (1.0 + norm(b_eq))
    assert norm(a_k @ sol.primal + s_k) <= ROUNDING * TOL * (1.0 + norm(b_k))
    assert margin(blocks, sol.slack) >= 0


@PROPERTY
@given(blocks=layouts())
def test_structure_matches_a_row_walk(blocks):
    # canonical order: every NonNeg row in program order, then every
    # SecondOrder block in program order, contiguous at the end
    struct = ConeStructure(blocks)
    kinds = [type(blk) for blk in blocks for _ in range(blk.dim)]
    assert list(struct.zero_rows) == [i for i, k in enumerate(kinds) if k is Zero]
    nonneg = [i for i, k in enumerate(kinds) if k is NonNeg]
    pos, row, soc, soc_rows = len(nonneg), 0, [], []
    for blk in blocks:
        if isinstance(blk, SecondOrder):
            soc.append((pos, pos + blk.dim))
            soc_rows.extend(range(row, row + blk.dim))
            pos += blk.dim
        row += blk.dim
    assert list(struct.cone_rows) == nonneg + soc_rows
    assert struct.dim == len(nonneg) + len(soc_rows)
    assert struct.nnn == len(nonneg)
    assert soc_slices(struct) == soc
    assert list(struct.soc_starts) == [lo for lo, _ in soc]
    assert struct.degree == len(nonneg) + len(soc)
    for k, (lo, hi) in enumerate(soc):
        assert (struct.block[lo - struct.nnn : hi - struct.nnn] == k).all()



@PROPERTY
@given(blocks=layouts(), n=st.integers(1, 5), seed=seeds)
def test_gram_and_column_partition_match_the_dense_rows(blocks, n, seed):
    # K holds n unit rows, n rows with any number of entries and an
    # all-zero row; cone rows copy unit rows more often than the others,
    # some with a zero factor, and some rows of K no cone row copies
    rng = np.random.default_rng(seed)
    struct = ConeStructure(blocks)
    kmat = np.vstack([np.diag(rng.uniform(0.5, 2.0, n)),
                      rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3),
                      np.zeros((1, n))])
    idx = np.where(rng.random(struct.dim) < 0.6, rng.integers(0, n, struct.dim),
                   rng.integers(0, 2 * n + 1, struct.dim))
    factor = rng.standard_normal(struct.dim) * (rng.random(struct.dim) < 0.7)
    g = RowMatrix(kmat, idx, factor)
    m = zero_dims(blocks)
    aeq = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.4)
    plan = GramPlan(struct, g, aeq)
    w = nt_scaling(struct, random_interior(struct, rng), random_interior(struct, rng))
    brute = brute_gram(w, g)
    assert np.abs(full_gram(w, plan) - brute).max() <= 1e-12 * np.abs(brute).max()
    elim = eliminable(struct, np.asarray(g), aeq)
    assert plan.k == int(np.flatnonzero(~elim).max(initial=-1)) + 1

def floor_residuals(cov, budgets, x):
    """Distance outside its cone of each floor block ``(x_i + (Cx)_i,
    x_i - (Cx)_i, 2 sqrt(b_i) R x)``, using ``||R x||^2 = x'Cx``."""
    cx = cov @ x
    var = max(float(x @ cx), 0.0)
    return np.maximum(np.sqrt((x - cx) ** 2 + 4.0 * budgets * var) - (x + cx), 0.0)


@PROPERTY
@given(n=st.integers(2, 5), floors=st.floats(0.0, 1.0), lam=st.sampled_from([0.0, 0.5, 1.0]),
       mu=st.sampled_from([0.0, 0.001]), seed=seeds)
def test_allocation_is_fully_invested_and_meets_every_floor(n, floors, lam, mu, seed):
    rng = np.random.default_rng(seed)
    loadings = rng.normal(0.0, 0.02, (n, 2))
    cov = loadings @ loadings.T + np.diag(rng.uniform(0.01, 0.03, n) ** 2)
    problem = AllocationProblem(cov=0.5 * (cov + cov.T), budgets=floors * rng.dirichlet(np.ones(n)),
                                forecasts=rng.normal(0.001, 0.002, n), lam=lam, mu=mu,
                                prev_weights=rng.dirichlet(np.ones(n)))
    # at the backtest engine's tolerance, which the benchmark checks gate
    tol = DEFAULT_SOLVER_OPTIONS.tol
    sol = solve_allocation(problem, DEFAULT_SOLVER_OPTIONS).solver_stats
    x = sol.primal[:n]
    # the bounds those checks state for an Optimal allocation: the budget
    # row within tol of 1, each floor cone within sqrt(2) tol
    prev, lower, upper = problem.prev_weights, problem.lower, problem.upper
    assert abs(x.sum() - 1.0) <= tol * (1.0 + np.sqrt(1.0 + prev @ prev))
    cone_scale = tol * (1.0 + np.sqrt(lower @ lower + upper @ upper))
    assert floor_residuals(problem.cov, problem.budgets, x).max() <= np.sqrt(2.0) * cone_scale
    # and an Optimal status holds up against the solve's own dual
    prog = build_program(problem)
    residual, gap, dual_margin = dual_certificate(prog, sol)
    assert residual <= ROUNDING * tol and gap <= ROUNDING * tol and dual_margin >= 0
    # which a dual 0.1% too long fails
    longer = dataclasses.replace(sol, dual=1.001 * sol.dual)
    assert dual_certificate(prog, longer)[0] > ROUNDING * tol


@st.composite
def written(draw):
    """A weekly panel or a ledger, the CSV text its writer makes of it, and
    the reader of that text."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    start = draw(st.dates(date(1900, 1, 1), date(2900, 1, 1)))
    dates = tuple(start + timedelta(weeks=w) for w in range(k))
    tickers = tuple(f"T{i}" for i in range(n))
    buf = io.StringIO()
    if draw(st.booleans()):
        positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
        table = WeeklyPanel(dates, tickers, draw(arrays(float, (k, n), elements=positive)))
        panel_to_csv(table, buf)
        return table, buf.getvalue(), panel_from_csv
    nums = draw(arrays(float, (k, n + 4), elements=st.floats(allow_nan=False, allow_infinity=False)))
    table = BacktestLedger(strategy="", tickers=tickers, dates=dates, weights=nums[:, 1:-3],
                           fill_prices=None, values=nums[:, 0], leverage=nums[:, -3],
                           costs=nums[:, -2], turnover=nums[:, -1], abstained=draw(arrays(bool, k)))
    ledger_to_csv(table, buf)
    return table, buf.getvalue(), ledger_from_csv


def held(table):
    """What a CSV file holds of a panel or a ledger, arrays as raw bytes."""
    if isinstance(table, WeeklyPanel):
        data = [table.prices]
    else:
        data = [table.values, table.weights, table.leverage, table.costs, table.turnover,
                table.abstained]
    return table.dates, table.tickers, [(a.shape, a.tobytes()) for a in data]


@PROPERTY
@given(file=written())
def test_written_file_reads_back_bit_exactly(file):
    table, text, reader = file
    assert held(reader(io.StringIO(text))) == held(table)


@PROPERTY
@given(file=written(), bad=st.sampled_from(["x", "inf", "nan"]), data=st.data())
def test_a_bad_cell_names_its_line_and_column(file, bad, data):
    _, text, reader = file
    lines = text.splitlines()
    header = lines[0].split(",")
    row = data.draw(st.integers(1, len(lines) - 1))
    col = data.draw(st.integers(0, len(header) - 1))
    cells = lines[row].split(",")
    cells[col] = bad
    lines[row] = ",".join(cells)
    with pytest.raises(ParseError) as exc:
        reader(io.StringIO("\n".join(lines) + "\n"))
    assert exc.value.line == row + 1
    message = str(exc.value)
    assert message.startswith(f"line {row + 1}: ") and repr(bad) in message and header[col] in message

"""The allocation program in row form against its dense assembly."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from allocation_oracle import dense_program
from test_cones import full_gram, nt_scaling, random_interior, split_rows
from riskbudget.allocation import AllocationProblem, build_program
from riskbudget.cones import ConeStructure, GramPlan
from riskbudget.solver import RowMatrix

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def problems(draw):
    """Instances with n in 1..12, lam and mu zero or positive, some zero
    budgets and some infinite upper bounds."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = draw(st.sampled_from([0.0, 0.5, 3.0]))
    mu = draw(st.sampled_from([0.0, 1e-3, 0.05]))
    zero_budget = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    inf_upper = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    a = rng.standard_normal((n, n))
    cov = (a @ a.T / n + 0.1 * np.eye(n)) * rng.uniform(0.01, 0.05) ** 2
    budgets = rng.dirichlet(np.ones(n)) * rng.uniform(0.2, 1.0)
    budgets[zero_budget] = 0.0
    upper = rng.uniform(0.3, 1.0, n)
    upper[inf_upper] = np.inf
    return AllocationProblem(cov=0.5 * (cov + cov.T), budgets=budgets,
                             forecasts=rng.normal(0.0, 0.01, n), lam=lam, mu=mu,
                             prev_weights=rng.dirichlet(np.ones(n)),
                             lower=rng.uniform(0.0, 0.2 / n, n), upper=upper)


@PROPERTY
@given(problems())
def test_row_form_materializes_to_the_dense_assembly(problem):
    c, a, b, cones = dense_program(problem)
    prog = build_program(problem)
    assert prog.A.shape == a.shape
    assert np.array_equal(np.asarray(prog.A), a)
    assert np.array_equal(prog.b, b)
    assert np.array_equal(prog.c, c)
    assert prog.cones == cones


@PROPERTY
@given(problems(), st.integers(0, 2**32 - 1))
def test_products_and_row_norms_match_dense(problem, seed):
    rng = np.random.default_rng(seed)
    _, a, _, _ = dense_program(problem)
    rows = build_program(problem).A
    x = rng.standard_normal(a.shape[1])
    z = rng.standard_normal(a.shape[0])
    assert np.abs(rows @ x - a @ x).max() <= 1e-12 * (np.abs(a) @ np.abs(x)).max()
    assert np.abs(rows.rmatvec(z) - a.T @ z).max() <= 1e-12 * (np.abs(a.T) @ np.abs(z)).max()


@PROPERTY
@given(problems(), st.integers(0, 2**32 - 1))
def test_gram_matches_dense(problem, seed):
    rng = np.random.default_rng(seed)
    _, a, _, cones = dense_program(problem)
    struct = ConeStructure(cones)
    keep = struct.cone_rows
    w = nt_scaling(struct, random_interior(struct, rng), random_interior(struct, rng))
    aeq = np.delete(a, keep, axis=0)
    h = full_gram(w, GramPlan(struct, split_rows(build_program(problem))[0], aeq))
    g = a[keep]
    brute = g.T @ np.column_stack([w.apply_inv(w.apply_inv(col)) for col in g.T])
    scale = np.abs(brute).max()
    assert np.abs(h - full_gram(w, GramPlan(struct, RowMatrix.dense(g), aeq))).max() <= 1e-12 * scale
    assert np.abs(h - brute).max() <= 1e-12 * scale


def test_program_at_500_assets_fits_in_64_mb():
    n = 500
    rng = np.random.default_rng(5)
    loadings = rng.normal(0.0, 0.02, (n, 3))
    cov = loadings @ loadings.T + np.diag(rng.uniform(0.01, 0.03, n) ** 2)
    problem = AllocationProblem(cov=0.5 * (cov + cov.T), budgets=np.full(n, 0.6 / n),
                                forecasts=rng.normal(0.001, 0.002, n), mu=0.001,
                                prev_weights=np.full(n, 1.0 / n))
    tracemalloc.start()
    try:
        prog = build_program(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = prog.A.nbytes + prog.b.nbytes + prog.c.nbytes
    m, nv = prog.A.shape
    assert (m, nv) == (1 + n + n + n + 2 * n + (n + 1) + n * (n + 2), 3 * n + 1)
    assert 8 * m * nv > 3e9  # what the dense A would take
    assert held < 64e6
    assert peak < 64e6

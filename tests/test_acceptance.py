"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success (run with ``pytest -s`` to see
them); a failure fails the pytest run in the usual way. Random instances
are seeded and identical across runs.
"""

import time

import numpy as np

from riskbudget.allocation import AllocationProblem, expected_stats, solve_allocation
from riskbudget.analytics import drawdowns, format_drawdown_table, top_drawdowns
from riskbudget.backtest import BacktestConfig, run
from riskbudget.budgeting import risk_contributions, solve_vanilla
from riskbudget.cones import NonNeg, SecondOrder, Zero
from riskbudget.linalg import cholesky, nearest_psd
from riskbudget.solver import ConeProgram, SolveStatus, SolverOptions, solve

from backtest_oracles import fixture_panel, make_panel, oracle_accounting, oracle_decisions
from test_solver import battery


def random_pd(n, rng, scale=0.03, jitter=0.1):
    a = rng.standard_normal((n, n))
    c = (a.T @ a / n + jitter * np.eye(n)) * scale**2
    return 0.5 * (c + c.T)


# The randomized sweeps pin the cone solver at 1e-7 tolerances: the
# interior-point method's last reliable digit sits just above 1e-8 on a
# small fraction of instances (the equal-sum budget geometry has no
# strictly feasible point, so the terminal conditioning is brutal), while
# the solution components converge far faster than the formal residuals.
# Every asserted bound below (1e-5 weights, 1e-6 contributions, 1e-9
# orderings) is checked at its stated value and keeps two or more orders
# of margin over the solve accuracy; the battery and the risk-parity
# criteria still run at the 1e-8 defaults.
SWEEP_OPTS = SolverOptions(tol=1e-7)


def two_asset_cov(s1, s2, rho):
    return np.array([[s1 * s1, rho * s1 * s2], [rho * s1 * s2, s2 * s2]])


def min_variance_long_only(cov):
    """Long-only fully-invested minimum-volatility weights via the cone solver."""
    n = cov.shape[0]
    upper = cholesky(cov)
    nv = n + 1
    c = np.zeros(nv)
    c[n] = 1.0
    rows = [np.append(np.ones(n), 0.0)[None, :],
            np.hstack([-np.eye(n), np.zeros((n, 1))])]
    soc = np.zeros((n + 1, nv))
    soc[0, n] = -1.0
    soc[1:, :n] = -upper
    rows.append(soc)
    prog = ConeProgram(c=c, A=np.vstack(rows),
                       b=np.concatenate([[1.0], np.zeros(n), np.zeros(n + 1)]),
                       cones=(Zero(1), NonNeg(n), SecondOrder(n + 1)))
    sol = solve(prog, SWEEP_OPTS)
    assert sol.status is SolveStatus.Optimal
    return sol.primal[:n]


def test_acceptance_01_vanilla_budget_satisfaction():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for n in (2, 5, 10, 50, 100):
        for _ in range(20):
            c = random_pd(n, rng)
            b = rng.dirichlet(np.ones(n))
            x = solve_vanilla(c, b)
            worst = max(worst, float(np.abs(risk_contributions(c, x) - b).max()))
    elapsed = time.monotonic() - start
    assert worst <= 1e-7
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: vanilla budgets on 100 instances, "
          f"worst gap {worst:.2e}, {elapsed:.2f}s")


def test_acceptance_02_socp_vanilla_equivalence():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 51))
        c = random_pd(n, rng)
        b = rng.dirichlet(np.ones(n))
        res = solve_allocation(AllocationProblem(cov=c, budgets=b), SWEEP_OPTS)
        xv = solve_vanilla(c, b)
        worst = max(worst, float(np.abs(res.weights - xv).max()))
    assert worst <= 1e-5
    print(f"\nACCEPTANCE 2 PASS: cone route matches barrier route on 50 instances, "
          f"worst weight gap {worst:.2e}")


def test_acceptance_03_closed_form_oracles():
    rng = np.random.default_rng(103)
    worst_diag = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 9))
        sig = rng.uniform(0.05, 0.4, size=n)
        b = rng.dirichlet(np.ones(n))
        x = solve_vanilla(np.diag(sig**2), b)
        expected = np.sqrt(b) / sig
        expected /= expected.sum()
        worst_diag = max(worst_diag, float(np.abs(x - expected).max()))
    assert worst_diag <= 1e-8

    worst_two = 0.0
    s1, s2 = 0.2, 0.1
    for rho in (-0.5, 0.0, 0.5, 0.9):
        x = solve_vanilla(two_asset_cov(s1, s2, rho), np.array([0.5, 0.5]))
        expected = np.array([s2, s1]) / (s1 + s2)
        worst_two = max(worst_two, float(np.abs(x - expected).max()))
    assert worst_two <= 1e-8
    print(f"\nACCEPTANCE 3 PASS: diagonal closed form gap {worst_diag:.2e}, "
          f"two-asset equal-budget gap {worst_two:.2e}")


def test_acceptance_04_risk_parity_limit():
    rng = np.random.default_rng(104)
    worst = 0.0
    for n in (3, 10, 64):
        c = random_pd(n, rng)
        res = solve_allocation(AllocationProblem(cov=c, budgets=np.full(n, 1.0 / n)))
        worst = max(worst, float(np.abs(res.risk_contribs - 1.0 / n).max()))
    assert worst <= 1e-6
    print(f"\nACCEPTANCE 4 PASS: equal-budget limit gives equal contributions, "
          f"worst gap {worst:.2e} (n up to 64)")


def test_acceptance_05_min_risk_floors():
    rng = np.random.default_rng(105)
    worst_deficit = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 13))
        c = random_pd(n, rng, scale=rng.uniform(0.01, 0.08))
        b = rng.dirichlet(np.ones(n)) * rng.uniform(0.3, 1.0)
        r = rng.standard_normal(n) * 0.01
        res = solve_allocation(AllocationProblem(cov=c, budgets=b, forecasts=r), SWEEP_OPTS)
        worst_deficit = max(worst_deficit, float(np.max(b - res.risk_contribs)))
    assert worst_deficit <= 1e-6
    print(f"\nACCEPTANCE 5 PASS: contribution floors honored over 30 tilted "
          f"instances, worst deficit {worst_deficit:.2e}")


def test_acceptance_06_variance_sandwich():
    rng = np.random.default_rng(106)
    for _ in range(50):
        n = int(rng.integers(2, 11))
        c = random_pd(n, rng)
        b = rng.dirichlet(np.ones(n))
        x_rb = solve_vanilla(c, b)
        x_mv = min_variance_long_only(c)
        vol = lambda w: float(np.sqrt(w @ c @ w))
        assert vol(x_mv) <= vol(x_rb) + 1e-9
        assert vol(x_rb) <= vol(b) + 1e-9
    print("\nACCEPTANCE 6 PASS: min-variance <= risk-budget <= weight-budget "
          "volatility on 50 instances (tol 1e-9)")


def test_acceptance_07_nearest_psd():
    rng = np.random.default_rng(107)
    count = 0
    worst = 0.0
    while count < 100:
        n = int(rng.integers(2, 10))
        x = rng.standard_normal((n, n)) * rng.uniform(0.5, 3.0)
        b = 0.5 * (x + x.T)
        if np.linalg.eigvalsh(b)[0] >= 0:
            continue
        count += 1
        out = nearest_psd(x, eps=0.0)
        w, v = np.linalg.eigh(b)
        oracle = (v * np.maximum(w, 0.0)) @ v.T
        worst = max(worst, float(np.linalg.norm(out - oracle)))
        again = nearest_psd(out, eps=0.0)
        assert np.linalg.norm(again - out) <= 1e-10 * max(1.0, np.linalg.norm(out))
        lifted = nearest_psd(x, eps=1e-10)
        cholesky(lifted + 1e-10 * np.eye(n))
    assert worst <= 1e-9
    print(f"\nACCEPTANCE 7 PASS: nearest-PSD matches the eigenvalue-clip oracle "
          f"on 100 indefinite matrices (worst {worst:.2e}), idempotent, factorizable after lift")


def test_acceptance_08_solver_battery_and_scale():
    worst = 0.0
    for name, prog, expected in battery():
        sol = solve(prog)
        assert sol.status is SolveStatus.Optimal, name
        worst = max(worst, abs(sol.objective - expected))
    assert worst <= 1e-7

    rng = np.random.default_rng(108)
    n = 100
    c = random_pd(n, rng)
    problem = AllocationProblem(cov=c, budgets=np.full(n, 0.8 / n),
                                forecasts=rng.standard_normal(n) * 0.01)
    start = time.monotonic()
    res = solve_allocation(problem)
    elapsed = time.monotonic() - start
    assert res.solver_stats.status is SolveStatus.Optimal
    assert elapsed < 5.0

    # same scale with 10 bp turnover costs still solves cleanly
    with_costs = AllocationProblem(cov=c, budgets=np.full(n, 0.8 / n),
                                   forecasts=rng.standard_normal(n) * 0.01,
                                   mu=0.001, prev_weights=np.full(n, 1.0 / n))
    res2 = solve_allocation(with_costs)
    assert res2.solver_stats.status is SolveStatus.Optimal
    print(f"\nACCEPTANCE 8 PASS: 20-problem battery worst objective error "
          f"{worst:.2e}; 100-asset allocation optimal in {elapsed:.2f}s")


def test_acceptance_09_backtest_mechanics():
    mu, eps = 0.001, 1e-5
    panel = fixture_panel()
    strategies = ("CRB", "CRB_SMART", "MRB", "MRBA", "MRBAL")
    ledgers = run(panel, [BacktestConfig(strategy=s, budgets=np.array([0.5, 0.5]), mu=mu, psd_eps=eps)
                          for s in strategies])
    assert tuple(ledgers) == strategies
    for strategy, ledger in ledgers.items():
        assert ledger.n_periods == 3
        expected = oracle_decisions(panel, strategy, mu, eps)
        for k, (w_exp, lev_exp, abst_exp) in enumerate(expected):
            assert np.abs(ledger.weights[k] - w_exp).max() <= 1e-6
            assert abs(ledger.leverage[k] - lev_exp) <= 1e-6
            assert bool(ledger.abstained[k]) == abst_exp
        values, costs, turns = oracle_accounting(panel, ledger.weights, mu)
        assert np.abs(ledger.values - values).max() <= 1e-12
        assert np.abs(ledger.costs - costs).max() <= 1e-12
        assert np.abs(ledger.turnover - turns).max() <= 1e-12

    # no look-ahead: truncating the panel reproduces the ledger prefix
    rng = np.random.default_rng(109)
    prices = 100 * np.cumprod(1 + rng.standard_normal((12, 3)) * 0.02, axis=0)
    big = make_panel(prices)
    cfg = BacktestConfig(strategy="MRB", budgets=np.full(3, 1 / 3), mu=mu)
    full = run(big, cfg)
    part = run(make_panel(prices[:9]), cfg)
    k = part.n_periods
    assert np.array_equal(full.values[:k], part.values)
    assert np.array_equal(full.weights[:k], part.weights)

    # leverage cap respected on a volatile panel
    lev_ledger = run(big, BacktestConfig(strategy="MRBAL", budgets=np.full(3, 1 / 3)))
    assert np.all(lev_ledger.leverage >= 0.0)
    assert np.all(lev_ledger.leverage <= 1.5 + 1e-12)

    # 10 bp cost accounting against the independent oracle
    cost_ledger = run(big, BacktestConfig(strategy="MRBAL", budgets=np.full(3, 1 / 3), mu=0.001))
    values, costs, turns = oracle_accounting(big, cost_ledger.weights, 0.001)
    assert np.abs(cost_ledger.costs - costs).max() <= 1e-12
    assert np.abs(cost_ledger.values - values).max() <= 1e-12
    print("\nACCEPTANCE 9 PASS: fixture ledgers, no-look-ahead truncation, "
          "leverage cap, and 10bp cost accounting all verified")


def test_acceptance_10_drawdown_arithmetic():
    eps = drawdowns([100.0, 71.3, 100.1])
    assert len(eps) == 1
    assert abs(eps[0].depth - 0.287) <= 1e-12

    assert drawdowns([1.0, 1.01, 1.02, 1.5]) == []

    curves = {name: np.cumprod(1 + np.random.default_rng(s).standard_normal(80) * 0.02)
              for s, name in enumerate(("CRB", "CRB.SMART", "MRB", "MRBA", "MRBAL"))}
    table = format_drawdown_table({k: drawdowns(v) for k, v in curves.items()}, top=5)
    lines = table.splitlines()
    assert len(lines) == 6  # header + ranks 1..5
    for name in curves:
        assert f"DD.{name}" in lines[0]
    for k, v in curves.items():
        depths = [ep.depth for ep in top_drawdowns(drawdowns(v), 5)]
        assert depths == sorted(depths, reverse=True)
    print("\nACCEPTANCE 10 PASS: fixture depth 0.287, monotone series empty, "
          "top-5 column-per-strategy table shape")


def test_acceptance_11_monotonicity_sweeps():
    rng = np.random.default_rng(111)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        c = random_pd(n, rng)
        b = rng.dirichlet(np.ones(n)) * 0.5
        r = rng.standard_normal(n) * 0.02
        sds = []
        for lam in (0.1, 1.0, 10.0):
            p = AllocationProblem(cov=c, budgets=b, forecasts=r, lam=lam)
            sds.append(expected_stats(p, solve_allocation(p, SWEEP_OPTS).weights)[1])
        assert sds[1] <= sds[0] + 1e-8
        assert sds[2] <= sds[1] + 1e-8

    for _ in range(20):
        n = int(rng.integers(2, 9))
        c = random_pd(n, rng)
        b = rng.dirichlet(np.ones(n)) * 0.4
        r = rng.standard_normal(n) * 0.02
        x0 = rng.dirichlet(np.ones(n))
        turns = []
        for mu in (0.0, 0.002, 0.02):
            p = AllocationProblem(cov=c, budgets=b, forecasts=r, mu=mu, prev_weights=x0)
            turns.append(float(np.abs(solve_allocation(p, SWEEP_OPTS).weights - x0).sum()))
        assert turns[1] <= turns[0] + 1e-7
        assert turns[2] <= turns[1] + 1e-7
    print("\nACCEPTANCE 11 PASS: ex-ante volatility non-increasing in the "
          "trade-off weight; turnover non-increasing in the cost coefficient")

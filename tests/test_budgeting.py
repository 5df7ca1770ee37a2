import json
import os

import numpy as np
import pytest

from riskbudget.backtest import panel_returns, prepare_covariance
from riskbudget.budgeting import (
    DegeneratePortfolio,
    NonConvergence,
    risk_contributions,
    solve_vanilla,
)
from riskbudget.linalg import NotPositiveDefinite

from backtest_oracles import make_panel

# three assets, covariance condition number 9.4e10, one budget of 1.3e-4:
# Newton steps under an Armijo line search stall here once
VANILLA_FALLBACK = os.path.join(os.path.dirname(__file__), "data", "vanilla_fallback.json")


def random_pd(n, rng, scale=0.03):
    a = rng.standard_normal((n, n))
    c = (a.T @ a / n + 0.1 * np.eye(n)) * scale**2
    return 0.5 * (c + c.T)


def ill_conditioned(count):
    """The first ``count`` of a seeded run of problems: eigenvalues spread
    over ten decades on a random basis, budgets down to 1e-9."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        n = int(rng.integers(2, 31))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        c = (q * 10.0 ** rng.uniform(-10, 0, n)) @ q.T
        b = np.maximum(rng.dirichlet(np.ones(n)), 1e-9)
        yield 0.5 * (c + c.T), b / b.sum()


def two_asset_cov(s1, s2, rho):
    return np.array([[s1 * s1, rho * s1 * s2], [rho * s1 * s2, s2 * s2]])


class TestSolveVanilla:
    def test_identity_equal_budgets(self):
        x = solve_vanilla(np.eye(4), np.full(4, 0.25))
        assert np.allclose(x, 0.25, atol=1e-12)

    def test_diagonal_closed_form(self):
        sig = np.array([0.3, 0.1, 0.2, 0.05])
        b = np.array([0.4, 0.3, 0.2, 0.1])
        x = solve_vanilla(np.diag(sig**2), b)
        expected = np.sqrt(b) / sig
        expected /= expected.sum()
        assert np.abs(x - expected).max() <= 1e-10

    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5, 0.9])
    def test_two_asset_erc_closed_form(self, rho):
        s1, s2 = 0.2, 0.1
        x = solve_vanilla(two_asset_cov(s1, s2, rho), np.array([0.5, 0.5]))
        assert np.abs(x - np.array([1.0, 2.0]) / 3.0).max() <= 1e-10

    def test_budget_satisfaction_random(self):
        rng = np.random.default_rng(5)
        for n in (2, 5, 10, 50):
            c = random_pd(n, rng)
            b = rng.dirichlet(np.ones(n))
            x = solve_vanilla(c, b)
            rc = risk_contributions(c, x)
            assert np.abs(rc - b).max() <= 1e-7

    def test_variance_scale_does_not_loosen_the_budgets(self):
        # the Newton arithmetic runs on the covariance over its mean
        # variance; on the raw matrix at this scale the tolerance test,
        # relative to 1 + max|Cx|, stops with shares about 3e-9 off
        rng = np.random.default_rng(0)
        c = random_pd(10, rng) * 1e-8
        b = rng.dirichlet(np.ones(10))
        x = solve_vanilla(c, b)
        assert np.abs(risk_contributions(c, x) - b).max() <= 1e-12

    def test_three_assets_at_condition_number_9e10(self):
        with open(VANILLA_FALLBACK) as fh:
            doc = json.load(fh)
        cov, b = np.array(doc["cov"]), np.array(doc["budgets"])
        x = solve_vanilla(cov, b)
        assert np.abs(risk_contributions(cov, x) - b).max() <= 1e-7

    def test_five_assets_at_condition_number_1e9(self):
        # five assets, covariance condition number 9.7e8: Newton steps
        # under an Armijo line search stall here for good
        rng = np.random.default_rng(1279)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        c = (q * 10.0 ** rng.uniform(-12, 0, 5)) @ q.T
        c = 0.5 * (c + c.T)
        b = rng.dirichlet(np.ones(5))
        x = solve_vanilla(c, b)
        assert np.abs(risk_contributions(c, x) - b).max() <= 1e-7

    @pytest.mark.parametrize("seed, weeks, base, step, t", [
        (21, 10, 100, lambda z: 1.001 + np.abs(z) * 0.02, 4),
        (13, 15, 80, lambda z: 1.0 + z * 0.02, 3),
    ], ids=["lockstep", "leverage"])
    def test_rank_deficient_backtest_week(self, seed, weeks, base, step, t):
        # the week t panels of TestLockstep::test_a_problem_shared_within_a_week_solves_once
        # and TestEngineDiscipline::test_leverage_within_bounds: three
        # returns of three assets, a rank-2 sample repaired at the default floor
        rng = np.random.default_rng(seed)
        prices = base * np.cumprod(step(rng.standard_normal((weeks, 3))), axis=0)
        c = prepare_covariance(panel_returns(make_panel(prices))[: t - 1])
        x = solve_vanilla(c, np.full(3, 1 / 3))
        assert np.all(x > 0)
        assert np.abs(risk_contributions(c, x) - 1 / 3).max() <= 1e-7

    def test_ill_conditioned_problems_converge(self):
        for c, b in ill_conditioned(300):
            x = solve_vanilla(c, b)
            assert np.all(x > 0)
            assert np.abs(risk_contributions(c, x) - b).max() <= 1e-7

    def test_the_step_bound_keeps_hard_draws_within_the_share_bound(self):
        # draws of the same generator where a step with m < 0 taken past the
        # Newton step, without the max(0, .) in m, ends 1.4e-7 to 3.0e-7 off
        # the budgets; with it they end within 2.2e-8
        hard = {1530, 3238, 3254}
        for i, (c, b) in enumerate(ill_conditioned(max(hard) + 1)):
            if i in hard:
                x = solve_vanilla(c, b)
                assert np.abs(risk_contributions(c, x) - b).max() <= 1e-7

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError, match="strictly positive"):
            solve_vanilla(np.eye(2), np.array([1.0, 0.0]))

    def test_rejects_unnormalized_budget(self):
        with pytest.raises(ValueError, match="sum to 1"):
            solve_vanilla(np.eye(2), np.array([0.3, 0.3]))

    @pytest.mark.parametrize("cov, shape", [
        (np.eye(3), (3, 3)),
        (np.ones((2, 3)), (2, 3)),
        (np.ones(2), (2,)),
    ])
    def test_cov_of_another_size_is_named(self, cov, shape):
        with pytest.raises(ValueError) as exc:
            solve_vanilla(cov, np.array([0.5, 0.5]))
        assert str(exc.value) == f"cov shape {shape} does not match 2 budgets"

    def test_propagates_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            solve_vanilla(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([0.5, 0.5]))

    def test_nonconvergence_reports_residual(self):
        c = random_pd(6, np.random.default_rng(0))
        with pytest.raises(NonConvergence) as exc:
            solve_vanilla(c, np.full(6, 1 / 6), tol=1e-10, max_iters=1)
        assert exc.value.iterations == 1
        assert exc.value.residual > 0

    def test_variance_sandwich(self):
        # risk-budget volatility sits between min-variance and
        # weight-budgeting (w = b) volatilities
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            c = random_pd(n, rng)
            b = rng.dirichlet(np.ones(n))
            x = solve_vanilla(c, b)
            vol_rb = np.sqrt(x @ c @ x)
            vol_wb = np.sqrt(b @ c @ b)
            # long-only min variance via projected comparison on a fine set
            # of candidates is overkill; use the unconstrained bound which
            # is itself a lower bound for the long-only problem
            w_mv = np.linalg.solve(c, np.ones(n))
            w_mv /= w_mv.sum()
            vol_mv = np.sqrt(abs(w_mv @ c @ w_mv))
            assert vol_mv <= vol_rb + 1e-9
            assert vol_rb <= vol_wb + 1e-9


class TestRiskContributions:
    def test_identity_proportional_to_squares(self):
        x = np.array([0.1, 0.2, 0.3, 0.4])
        rc = risk_contributions(np.eye(4), x)
        assert np.allclose(rc, x**2 / np.sum(x**2), atol=1e-14)

    def test_single_asset(self):
        assert risk_contributions(np.array([[0.04]]), np.array([1.0])) == pytest.approx(1.0)

    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        c = random_pd(5, rng)
        x = rng.dirichlet(np.ones(5))
        assert risk_contributions(c, x).sum() == pytest.approx(1.0, abs=1e-12)

    def test_solver_output_matches_budgets(self):
        rng = np.random.default_rng(8)
        c = random_pd(7, rng)
        b = rng.dirichlet(np.ones(7))
        rc = risk_contributions(c, solve_vanilla(c, b))
        assert np.abs(rc - b).max() <= 1e-8

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        c = random_pd(4, rng)
        x = rng.dirichlet(np.ones(4))
        base = risk_contributions(c, x)
        for k in (0.1, 1.0, 10.0):
            assert np.abs(risk_contributions(c, k * x) - base).max() <= 1e-12

    def test_degenerate_portfolio(self):
        with pytest.raises(DegeneratePortfolio):
            risk_contributions(np.eye(2), np.zeros(2))

import io
import json
from pathlib import Path

import numpy as np
import pytest

import riskbudget.backtest as bt
import riskbudget.linalg as linalg
from riskbudget.backtest import (
    BacktestConfig,
    EngineState,
    benchmark_crb_smart,
    budget_rule_half_norm,
    ledger_from_csv,
    ledger_to_csv,
    prepare_covariance,
    run,
    strategy_weights,
)
from riskbudget.allocation import AllocationProblem, InfeasibleAllocation
from riskbudget.cli import main
from riskbudget.data import ParseError, load_csv, to_weekly

from backtest_oracles import (
    FIXTURE_PRICES,
    fixture_panel,
    make_panel,
    oracle_accounting,
    oracle_decisions,
)


class TestFixtureLedgers:
    MU = 0.001  # 10 bp
    EPS = 1e-5

    @pytest.mark.parametrize("strategy", ["CRB", "CRB_SMART", "MRB", "MRBA", "MRBAL"])
    def test_three_period_ledger_matches_oracle(self, strategy):
        panel = fixture_panel()
        cfg = BacktestConfig(strategy=strategy, budgets=np.array([0.5, 0.5]),
                             mu=self.MU, psd_eps=self.EPS)
        ledger = run(panel, cfg)
        assert ledger.n_periods == 3
        expected = oracle_decisions(panel, strategy, self.MU, self.EPS)

        for k, (w_exp, lev_exp, abst_exp) in enumerate(expected):
            assert np.abs(ledger.weights[k] - w_exp).max() <= 1e-6, (strategy, k)
            assert abs(ledger.leverage[k] - lev_exp) <= 1e-6
            assert bool(ledger.abstained[k]) == abst_exp

        # accounting columns reproduce to 1e-12 given the recorded weights
        values, costs, turns = oracle_accounting(panel, ledger.weights, self.MU)
        assert np.abs(ledger.values - values).max() <= 1e-12
        assert np.abs(ledger.costs - costs).max() <= 1e-12
        assert np.abs(ledger.turnover - turns).max() <= 1e-12

    def test_mrba_abstains_on_last_period(self):
        panel = fixture_panel()
        cfg = BacktestConfig(strategy="MRBA", budgets=np.array([0.5, 0.5]),
                             mu=self.MU, psd_eps=self.EPS)
        ledger = run(panel, cfg)
        assert list(ledger.abstained) == [False, False, True]
        # liquidation still pays turnover cost
        assert ledger.costs[2] > 0

    def test_fill_prices_recorded(self):
        panel = fixture_panel()
        ledger = run(panel, BacktestConfig(strategy="CRB"))
        assert np.array_equal(ledger.fill_prices, FIXTURE_PRICES[3:])


class TestBenchmarks:
    def test_crb_equal_weights_every_period(self):
        panel = fixture_panel()
        ledger = run(panel, BacktestConfig(strategy="CRB"))
        assert np.allclose(ledger.weights, 0.5, atol=0)

    def test_crb_invariant_to_irrelevant_settings(self):
        panel = fixture_panel()
        base = run(panel, BacktestConfig(strategy="CRB"))
        for cfg in (BacktestConfig(strategy="CRB", budgets=np.array([0.9, 0.05])),
                    BacktestConfig(strategy="CRB", lam=7.0),
                    BacktestConfig(strategy="CRB", psd_eps=1e-3)):
            other = run(panel, cfg)
            assert np.array_equal(other.values, base.values)
            assert np.array_equal(other.weights, base.weights)

    def test_only_solving_strategies_prepare_a_covariance(self, monkeypatch, tmp_path):
        # the CRB benchmarks never read the covariance, so no week builds
        # one, and their ledgers are the committed goldens byte for byte
        calls = []
        real = bt.symmetric_eig

        def counting(a):
            calls.append(None)
            return real(a)

        monkeypatch.setattr(bt, "symmetric_eig", counting)
        data = Path(__file__).parent / "data"
        config = json.loads((data / "fixture_config.json").read_text())
        for strategies, eigs in ((["CRB", "CRB.SMART"], 0), (["MRB"], 3)):
            calls.clear()
            path = tmp_path / "config.json"
            path.write_text(json.dumps({**config, "strategies": strategies}))
            assert main(["backtest", "--prices", str(data / "fixture_daily.csv"),
                         "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 0
            assert len(calls) == eigs
        for name in ("ledger_CRB.csv", "ledger_CRB_SMART.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (data / "golden" / name).read_bytes()

    def test_crb_smart_dot_name_accepted(self):
        cfg = BacktestConfig(strategy="CRB.SMART")
        assert cfg.strategy == "CRB_SMART"


class TestConfigValidation:
    @pytest.mark.parametrize("fields, message", [
        ({"lam": None}, "lambda must be a finite number >= 0, got None"),
        ({"lam": -1.0}, "lambda must be a finite number >= 0"),
        ({"lam": "1"}, "lambda must be a finite number >= 0"),
        ({"mu": np.nan}, "mu must be a finite number >= 0, got nan"),
        ({"mu": True}, "mu must be a finite number >= 0"),
        ({"leverage_cap": np.nan}, "leverage_cap must be a finite number >= 1, got nan"),
        ({"leverage_cap": 0.5}, "leverage_cap must be a finite number >= 1"),
        ({"leverage_cap": np.inf}, "leverage_cap must be a finite number >= 1"),
        ({"psd_eps": np.nan}, "psd_eps must be a finite number >= 0, got nan"),
        ({"psd_eps": -1e-8}, "psd_eps must be a finite number >= 0"),
        ({"budgets": "half_norm"}, "unknown budget rule 'half_norm'"),
        ({"budgets": [0.5, np.nan]}, "budgets has non-finite entries"),
        ({"budgets": [0.5, -0.1]}, "budgets must be nonnegative"),
        ({"budgets": [0.6, 0.5]}, "budgets sum to 1.1 > 1"),
        ({"budgets": None}, "MRB requires budgets"),
    ])
    def test_construction_rejects(self, fields, message):
        with pytest.raises(ValueError, match=message):
            BacktestConfig(**{"strategy": "MRB", "budgets": [0.5, 0.5], **fields})

    @pytest.mark.parametrize("budgets", [[0.5, np.nan], [0.5, -0.1], [0.6, 0.5]])
    def test_floors_are_refused_as_a_problem_refuses_them(self, budgets):
        with pytest.raises(ValueError) as problem:
            AllocationProblem(cov=np.eye(2), budgets=budgets)
        with pytest.raises(ValueError) as config:
            BacktestConfig(strategy="MRB", budgets=budgets)
        assert str(config.value) == str(problem.value)
        assert str(problem.value).startswith("budgets ")

    def test_numbers_of_any_real_type_accepted(self):
        cfg = BacktestConfig(strategy="MRBAL", budgets=[0.5, 0.5], lam=0, mu=np.float64(0.001),
                             leverage_cap=1, psd_eps=0)
        assert cfg.psd_eps == 0 and cfg.budgets.dtype == float


class TestBudgetRules:
    def test_half_norm_example(self):
        assert np.allclose(budget_rule_half_norm([0.3, 0.1]), [0.375, 0.125], atol=1e-15)

    def test_half_norm_all_nonpositive(self):
        assert np.allclose(budget_rule_half_norm([-0.2, -0.1]), [0.25, 0.25], atol=0)

    def test_half_norm_single_asset(self):
        assert np.allclose(budget_rule_half_norm([0.5]), [0.5], atol=0)

    def test_half_norm_sums_to_half(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cum = rng.standard_normal(rng.integers(1, 9))
            b = budget_rule_half_norm(cum)
            assert b.sum() == pytest.approx(0.5, abs=1e-12)
            assert np.all(b >= 0)

    def test_crb_smart_example(self):
        assert np.allclose(benchmark_crb_smart([0.3, 0.1]), [0.75, 0.25], atol=1e-15)

    def test_crb_smart_equal_cum(self):
        assert np.allclose(benchmark_crb_smart([0.2, 0.2, 0.2]), 1 / 3, atol=1e-15)

    def test_crb_smart_all_nonpositive(self):
        assert np.allclose(benchmark_crb_smart([-0.1, -0.3]), [0.5, 0.5], atol=0)


ALL_STRATEGIES = ("CRB", "CRB_SMART", "MRB", "MRBA", "MRBAL")
SAMPLE_PRICES = Path(__file__).parents[1] / "demos" / "data" / "sample_daily.csv"


def recording(monkeypatch, name):
    """Replace ``bt.<name>`` with a wrapper that records its arguments."""
    calls = []
    real = getattr(bt, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bt, name, wrapper)
    return calls


def ledger_text(ledger):
    buf = io.StringIO()
    ledger_to_csv(ledger, buf)
    return buf.getvalue()


def state_with(cov, forecast=None, cum=None, n=2):
    return EngineState(cov=np.asarray(cov, dtype=float),
                       forecast=np.zeros(n) if forecast is None else np.asarray(forecast, dtype=float),
                       cum_returns=np.zeros(n) if cum is None else np.asarray(cum, dtype=float),
                       prev_weights=np.zeros(n), tickers=tuple(f"A{i}" for i in range(n)))


class TestStrategyWeights:
    def test_leverage_cap_binds(self):
        # equal budgets on a low-vol/high-vol pair: benchmark vol is well
        # above the optimized portfolio's, so the 1.5x cap binds
        s1, s2 = 0.24, 0.03
        cov = np.diag([s1**2, s2**2])
        state = state_with(cov)
        cfg = BacktestConfig(strategy="MRBAL", budgets=np.array([0.5, 0.5]))
        w, lev = strategy_weights(3, state, cfg)
        x = np.array([s2, s1]) / (s1 + s2)
        sd_eq = np.sqrt(0.25 * (s1**2 + s2**2))
        assert sd_eq / np.sqrt(x @ cov @ x) > 1.5  # the engineered ratio
        assert lev == pytest.approx(1.5, abs=1e-9)
        assert np.abs(w - 1.5 * x).max() <= 1e-5

    def test_leverage_ratio_passes_through(self):
        # risk concentrated in the high-vol asset: the optimized portfolio
        # is riskier than equal weight, the sub-1 ratio passes uncapped
        s1, s2 = 0.3, 0.05
        b = np.array([0.98, 0.02])
        cov = np.diag([s1**2, s2**2])
        state = state_with(cov)
        cfg = BacktestConfig(strategy="MRBAL", budgets=b)
        w, lev = strategy_weights(3, state, cfg)
        z = np.sqrt(b[0]) / s1 + np.sqrt(b[1]) / s2
        x = np.array([np.sqrt(b[0]) / s1, np.sqrt(b[1]) / s2]) / z
        expected = np.sqrt(0.25 * (s1**2 + s2**2)) * z
        assert expected < 1
        assert lev == pytest.approx(expected, abs=1e-6)
        assert np.abs(w - lev * x).max() <= 1e-5

    def test_mrba_abstains_on_negative_expected_return(self):
        state = state_with(np.eye(2) * 0.01, forecast=[-0.02, -0.01])
        cfg = BacktestConfig(strategy="MRBA", budgets=np.array([0.5, 0.5]))
        w, lev = strategy_weights(3, state, cfg)
        assert np.all(w == 0) and lev == 0.0

    def test_mrba_trades_on_zero_expected_return(self):
        state = state_with(np.eye(2) * 0.01, forecast=[0.0, 0.0])
        cfg = BacktestConfig(strategy="MRBA", budgets=np.array([0.5, 0.5]))
        w, _ = strategy_weights(3, state, cfg)
        assert np.any(w > 0)

    def test_mrb_uses_half_norm_rule(self):
        state = state_with(np.eye(2) * 0.01, cum=[0.3, 0.1])
        cfg = BacktestConfig(strategy="MRB", budgets="half_norm_cum_return")
        w, _ = strategy_weights(3, state, cfg)
        rc = w * (state.cov @ w) / (w @ state.cov @ w)
        assert np.all(rc >= np.array([0.375, 0.125]) - 1e-6)


class TestLockstep:
    """One call runs every strategy, and the MRB strategies walk the weeks
    together: each week prepares a covariance once, solves each distinct
    problem once, and solves nothing whose result the forecasts decide."""

    @pytest.mark.parametrize("source", ["fixture", "sample"])
    def test_one_pass_equals_one_run_per_strategy(self, source):
        if source == "fixture":
            panel = fixture_panel()
            settings = {"budgets": np.array([0.5, 0.5]), "mu": 0.001, "psd_eps": 1e-5}
        else:
            panel = to_weekly(load_csv(SAMPLE_PRICES))
            settings = {"budgets": "half_norm_cum_return", "mu": 0.001}
        configs = [BacktestConfig(strategy=s, **settings) for s in ALL_STRATEGIES]
        together = run(panel, configs)
        assert list(together) == list(ALL_STRATEGIES)
        for cfg in configs:
            alone = run(panel, cfg)
            assert ledger_text(together[cfg.strategy]) == ledger_text(alone), cfg.strategy
            assert together[cfg.strategy].notes == alone.notes

    def test_a_problem_shared_within_a_week_solves_once(self, monkeypatch):
        # prices rise every week, so every forecast is positive: MRBA never
        # liquidates and holds MRB's weights, so the two share every solve;
        # MRBAL shares one whenever it held what MRB held (from cash, say)
        rng = np.random.default_rng(21)
        prices = 100 * np.cumprod(1.001 + np.abs(rng.standard_normal((10, 3))) * 0.02, axis=0)
        calls = recording(monkeypatch, "solve_allocation")
        ledgers = run(make_panel(prices), [BacktestConfig(strategy=s, budgets=np.full(3, 1 / 3))
                                           for s in ("MRB", "MRBA", "MRBAL")])
        mrb, mrbal = ledgers["MRB"].weights, ledgers["MRBAL"].weights
        assert np.array_equal(ledgers["MRBA"].weights, mrb)
        held_apart = (mrb[:-1] != mrbal[:-1]).any(axis=1)
        assert 0 < held_apart.sum() < len(held_apart)
        assert len(calls) == len(mrb) + held_apart.sum()

    def test_a_failed_shared_solve_fails_every_strategy_once(self, monkeypatch):
        calls = []

        def boom(problem, opts=None):
            calls.append(problem)
            raise InfeasibleAllocation(["engineered failure"])

        monkeypatch.setattr(bt, "solve_allocation", boom)
        prices = 100 * np.cumprod(np.full((8, 2), 1.01), axis=0)
        ledgers = run(make_panel(prices), [BacktestConfig(strategy=s, budgets=np.array([0.5, 0.5]))
                                           for s in ("MRB", "MRBA", "MRBAL")])
        # every strategy abstains from cash each week, so the three share one problem
        assert len(calls) == ledgers["MRB"].n_periods
        for ledger in ledgers.values():
            assert ledger.abstained.all()
            assert all("engineered failure" in note for note in ledger.notes)

    def test_all_negative_forecasts_liquidate_without_a_solve(self, monkeypatch):
        steps = np.array([0.97, 0.99, 0.96, 0.98, 0.95, 0.99, 0.97])
        prices = 100 * np.cumprod(np.column_stack([steps, steps * 1.004]), axis=0)
        calls = recording(monkeypatch, "solve_allocation")
        ledgers = run(make_panel(prices), [BacktestConfig(strategy=s, budgets=np.array([0.5, 0.5]))
                                           for s in ("MRB", "MRBA", "MRBAL")])
        assert ledgers["MRBA"].abstained.all() and ledgers["MRBAL"].abstained.all()
        # MRB always solves; MRBA and MRBAL never do
        assert not ledgers["MRB"].abstained.any()
        assert len(calls) == ledgers["MRB"].n_periods

    @pytest.mark.parametrize("fails", [False, True])
    def test_only_a_solve_builds_a_problem(self, monkeypatch, fails):
        # on the fixture panel MRBA and MRBAL reuse MRB's solve in the first
        # week and liquidate on all-negative forecasts in the last; with
        # every solve failing, the three share each week's failure
        built, solved = [], []
        problem, solve = bt.AllocationProblem, bt.solve_allocation

        def solve_or_fail(prob, opts=None):
            solved.append(prob)
            if fails:
                raise InfeasibleAllocation(["engineered failure"])
            return solve(prob, opts)

        monkeypatch.setattr(bt, "AllocationProblem", lambda **kw: built.append(kw) or problem(**kw))
        monkeypatch.setattr(bt, "solve_allocation", solve_or_fail)
        ledgers = run(fixture_panel(), [BacktestConfig(strategy=s, budgets=np.array([0.5, 0.5]),
                                                       mu=0.001, psd_eps=1e-5)
                                        for s in ("MRB", "MRBA", "MRBAL")])
        decisions = sum(ledger.n_periods for ledger in ledgers.values())
        assert len(solved) < decisions - 2  # two liquidations, and a reuse
        assert len(built) == len(solved)

    @pytest.mark.parametrize("strategy", ["MRB", "MRBA", "MRBAL"])
    @pytest.mark.parametrize("forecast", [[-0.02, -0.01], [0.0, -0.01]])
    def test_only_negative_forecasts_skip_the_solve(self, monkeypatch, strategy, forecast):
        calls = recording(monkeypatch, "solve_allocation")
        state = state_with(np.eye(2) * 0.01, forecast=forecast)
        w, lev = strategy_weights(3, state, BacktestConfig(strategy=strategy, budgets=[0.5, 0.5]))
        skipped = strategy != "MRB" and max(forecast) < 0
        assert len(calls) == (0 if skipped else 1)
        if strategy != "MRB":  # forecast @ x < 0 either way
            assert np.all(w == 0) and lev == 0.0

    @pytest.mark.parametrize("eps, week", [
        ((None, None, None), ["prepare", "MRB", "MRBA", "MRBAL"]),
        ((None, None, 1e-5), ["prepare", "MRB", "MRBA", "prepare", "MRBAL"]),
    ])
    def test_covariance_prepared_once_a_week_and_psd_eps(self, monkeypatch, eps, week):
        # the CRB benchmarks walk the weeks apart from the strategies that
        # read a covariance, and each week's covariance comes just before
        # the first strategy that reads it
        events = []
        prepare, decide = bt.prepare_covariance, bt.strategy_weights
        monkeypatch.setattr(bt, "prepare_covariance",
                            lambda history, psd_eps=None: events.append("prepare") or prepare(history, psd_eps))
        monkeypatch.setattr(bt, "strategy_weights",
                            lambda t, state, cfg: events.append(cfg.strategy) or decide(t, state, cfg))
        configs = [BacktestConfig(strategy=s, budgets=np.array([0.5, 0.5]), psd_eps=e)
                   for s, e in zip(ALL_STRATEGIES, (None, None) + eps)]
        weeks = run(fixture_panel(), configs)["CRB"].n_periods
        assert events == ["CRB", "CRB_SMART"] * weeks + week * weeks


class TestEngineDiscipline:
    def test_no_lookahead_truncation(self):
        rng = np.random.default_rng(11)
        prices = 100 * np.cumprod(1 + rng.standard_normal((10, 3)) * 0.02, axis=0)
        panel = make_panel(prices)
        cfg = BacktestConfig(strategy="MRB", budgets=np.full(3, 1 / 3), mu=0.001)
        full = run(panel, cfg)
        shorter = make_panel(prices[:8])
        part = run(shorter, cfg)
        k = part.n_periods
        assert np.array_equal(full.values[:k], part.values)
        assert np.array_equal(full.weights[:k], part.weights)
        assert np.array_equal(full.costs[:k], part.costs)

    def test_abstain_dominates_on_all_negative_returns(self):
        steps = np.array([0.97, 0.99, 0.96, 0.98, 0.95, 0.99, 0.97])
        prices = 100 * np.cumprod(np.column_stack([steps, steps * 1.004]), axis=0)
        panel = make_panel(prices)
        b = np.array([0.5, 0.5])
        ledgers = run(panel, [BacktestConfig(strategy=s, budgets=b) for s in ("MRB", "MRBA")])
        mrb, mrba = ledgers["MRB"], ledgers["MRBA"]
        assert np.all(mrba.abstained)
        assert mrba.values[-1] >= mrb.values[-1]

    def test_cost_accounting_oracle_random_panel(self):
        rng = np.random.default_rng(12)
        prices = 50 * np.cumprod(1 + rng.standard_normal((12, 4)) * 0.015, axis=0)
        panel = make_panel(prices)
        mu = 0.001
        ledger = run(panel, BacktestConfig(strategy="MRB", budgets=np.full(4, 0.2), mu=mu))
        values, costs, turns = oracle_accounting(panel, ledger.weights, mu)
        assert np.abs(ledger.values - values).max() <= 1e-12
        assert np.abs(ledger.costs - costs).max() <= 1e-12
        assert abs(ledger.costs.sum() - mu * np.sum(turns * (values + costs))) <= 1e-12

    def test_leverage_within_bounds(self):
        rng = np.random.default_rng(13)
        prices = 80 * np.cumprod(1 + rng.standard_normal((15, 3)) * 0.02, axis=0)
        panel = make_panel(prices)
        ledger = run(panel, BacktestConfig(strategy="MRBAL", budgets=np.full(3, 1 / 3)))
        assert np.all(ledger.leverage >= 0)
        assert np.all(ledger.leverage <= 1.5 + 1e-12)

    def test_flat_prices_hold_value(self):
        prices = np.tile([100.0, 50.0, 20.0], (7, 1))
        panel = make_panel(prices)
        for strategy in ("CRB", "CRB_SMART", "MRB", "MRBA", "MRBAL"):
            ledger = run(panel, BacktestConfig(strategy=strategy, budgets=np.full(3, 1 / 3)))
            assert np.allclose(ledger.values, 1.0, atol=1e-12), strategy

    def test_flat_prices_cost_only_at_entry(self):
        prices = np.tile([100.0, 50.0], (7, 1))
        panel = make_panel(prices)
        ledger = run(panel, BacktestConfig(strategy="CRB", mu=0.001))
        assert ledger.costs[0] == pytest.approx(0.001, abs=1e-12)
        assert np.all(ledger.costs[1:] == 0.0)
        assert np.allclose(ledger.values[1:], ledger.values[0], atol=1e-15)

    def test_panel_too_short(self):
        panel = make_panel(np.tile([100.0, 50.0], (3, 1)))
        with pytest.raises(ValueError, match="at least"):
            run(panel, BacktestConfig(strategy="CRB"))

    def test_portfolio_values_stay_positive(self):
        rng = np.random.default_rng(14)
        prices = 100 * np.cumprod(1 + rng.standard_normal((20, 2)) * 0.05, axis=0)
        ledger = run(make_panel(prices), BacktestConfig(strategy="MRBAL", budgets=np.array([0.5, 0.5]), mu=0.001))
        assert np.all(ledger.values > 0)

    def test_solver_trouble_becomes_abstention(self, monkeypatch):
        def boom(problem, opts=None):
            raise InfeasibleAllocation(["engineered failure"])

        monkeypatch.setattr(bt, "solve_allocation", boom)
        panel = fixture_panel()
        ledger = run(panel, BacktestConfig(strategy="MRB", budgets=np.array([0.5, 0.5])))
        assert np.all(ledger.abstained)
        assert all("abstained" in note for note in ledger.notes)


class TestPrepareCovariance:
    def test_pd_input_returned_unchanged(self):
        rng = np.random.default_rng(15)
        hist = rng.standard_normal((10, 3)) * 0.02
        cov = prepare_covariance(hist)
        assert np.array_equal(cov, np.cov(hist.T, ddof=1)) or np.allclose(cov, np.cov(hist.T, ddof=1), atol=1e-18)
        # the sample covariance itself: a matrix that clears the floor is not rebuilt
        assert np.array_equal(cov, linalg.covariance(hist))

    def test_rank_deficient_repaired(self):
        hist = np.array([[0.01, 0.02], [0.02, 0.04]])  # 2 obs -> rank 1
        cov = prepare_covariance(hist, psd_eps=1e-6)
        np.linalg.cholesky(cov)  # now factorizable
        assert np.linalg.eigvalsh(cov)[0] >= 1e-6 - 1e-12

    def test_a_zero_floor_still_repairs_to_a_factorizable_matrix(self):
        # psd_eps 0 is raised to 1e-16: lifting the rank-deficient window's
        # roundoff eigenvalues (near +-1e-20) only to 0 leaves it singular
        hist = np.random.default_rng(0).standard_normal((3, 6)) * 0.02  # rank 2
        cov = prepare_covariance(hist, psd_eps=0.0)
        linalg.cholesky(cov)
        assert np.linalg.eigvalsh(cov)[0] > 0

    def test_repair_reuses_the_gate_eigendecomposition(self, monkeypatch):
        hist = np.random.default_rng(16).standard_normal((3, 5)) * 0.02  # rank 2
        s = linalg.covariance(hist)
        expected = linalg.nearest_psd(s, 1e-8 * float(np.mean(np.diag(s))))
        calls = []
        real = linalg.symmetric_eig

        def counting(a):
            calls.append(None)
            return real(a)

        monkeypatch.setattr(linalg, "symmetric_eig", counting)
        monkeypatch.setattr(bt, "symmetric_eig", counting)
        cov = prepare_covariance(hist)
        assert len(calls) == 1
        assert np.array_equal(cov, expected)


class TestLedgerCsv:
    def test_round_trip(self):
        panel = fixture_panel()
        ledger = run(panel, BacktestConfig(strategy="MRBAL", budgets=np.array([0.5, 0.5]), mu=0.001))
        buf = io.StringIO()
        ledger_to_csv(ledger, buf)
        buf.seek(0)
        back = ledger_from_csv(buf, strategy="MRBAL")
        assert back.dates == ledger.dates
        assert back.tickers == ledger.tickers
        assert np.array_equal(back.values, ledger.values)
        assert np.array_equal(back.weights, ledger.weights)
        assert np.array_equal(back.abstained, ledger.abstained)

    @pytest.mark.parametrize("row, message", [
        ("2021-01-15,1.0,0.5,1.0,0.0,0.0,False", "line 3: expected 8 columns, got 7"),
        ("2021-01-15,1.0,0.5,0.5,1.0,0.0,0.0,yes", "line 3: abstained must be True or False"),
        ("2021-01-15,1.0,0.5,x,1.0,0.0,0.0,False", "line 3: w_B must be a finite number, got 'x'"),
        ("2021-01-08,1.0,0.5,0.5,1.0,0.0,0.0,False", "line 3: date 2021-01-08 is not later than 2021-01-08"),
        ("2021-01-01,1.0,0.5,0.5,1.0,0.0,0.0,False", "line 3: date 2021-01-01 is not later than 2021-01-08"),
        ("2021-01-15,1.0,0.5,inf,1.0,0.0,0.0,False", "line 3: w_B must be a finite number, got 'inf'"),
        ("2021-01-15,nan,0.5,0.5,1.0,0.0,0.0,False", "line 3: value must be a finite number, got 'nan'"),
    ])
    def test_malformed_row_names_its_line(self, row, message):
        text = ("date,value,w_A,w_B,leverage,cost,turnover,abstained\n"
                f"2021-01-08,1.0,0.5,0.5,1.0,0.0,0.0,False\n{row}\n")
        with pytest.raises(ParseError, match=message):
            ledger_from_csv(io.StringIO(text))

    def test_ledger_without_rows_says_so(self):
        with pytest.raises(ParseError, match="^ledger has no rows$"):
            ledger_from_csv(io.StringIO("date,value,w_A,w_B,leverage,cost,turnover,abstained\n\n"))

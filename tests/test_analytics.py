from datetime import date, timedelta

import numpy as np
import pytest

from riskbudget.analytics import (
    EmptySeries,
    drawdowns,
    format_drawdown_table,
    format_summary_table,
    summary,
    top_drawdowns,
)
from riskbudget.backtest import BacktestLedger


def ledger_from_values(values, turnover=None, costs=None):
    values = np.asarray(values, dtype=float)
    t = values.size
    days = tuple(date(2022, 1, 7) + timedelta(weeks=k) for k in range(t))
    zeros = np.zeros(t)
    return BacktestLedger(
        strategy="TEST", tickers=("A",), dates=days,
        weights=np.ones((t, 1)), fill_prices=None, values=values,
        leverage=np.ones(t), costs=zeros if costs is None else np.asarray(costs, dtype=float),
        turnover=zeros if turnover is None else np.asarray(turnover, dtype=float),
        abstained=np.zeros(t, dtype=bool),
    )


class TestDrawdowns:
    def test_monotone_series_has_none(self):
        assert drawdowns([1.0, 1.1, 1.25, 1.4]) == []

    def test_single_episode_hand_computed(self):
        eps = drawdowns([100.0, 80.0, 120.0])
        assert len(eps) == 1
        ep = eps[0]
        assert ep.depth == pytest.approx(0.20, abs=1e-15)
        assert (ep.from_date, ep.trough_date, ep.to_date) == (0, 1, 2)

    def test_deep_episode_depth_arithmetic(self):
        eps = drawdowns([100.0, 71.3, 100.1])
        assert len(eps) == 1
        assert eps[0].depth == pytest.approx(0.287, abs=1e-12)

    def test_unrecovered_episode_ends_at_series_end(self):
        days = [date(2022, 1, 7) + timedelta(weeks=k) for k in range(4)]
        eps = drawdowns([100.0, 110.0, 90.0, 95.0], dates=days)
        assert len(eps) == 1
        assert eps[0].from_date == days[1]
        assert eps[0].trough_date == days[2]
        assert eps[0].to_date == days[3]
        assert eps[0].depth == pytest.approx(1 - 90 / 110, abs=1e-15)

    def test_multiple_episodes_non_overlapping(self):
        v = [100, 90, 101, 80, 70, 102, 99]
        eps = drawdowns(v)
        assert len(eps) == 3
        assert eps[0].depth == pytest.approx(0.10, abs=1e-12)
        assert eps[1].depth == pytest.approx(1 - 70 / 101, abs=1e-12)
        # episodes are chronological and windows do not overlap
        assert eps[0].to_date <= eps[1].from_date

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        v = np.cumprod(1 + rng.standard_normal(40) * 0.03) + 0.5
        base = drawdowns(v)
        for k in (0.1, 3.0, 1000.0):
            scaled = drawdowns(k * v)
            assert len(scaled) == len(base)
            for a, b in zip(scaled, base):
                assert (a.from_date, a.trough_date, a.to_date) == (b.from_date, b.trough_date, b.to_date)
                assert a.depth == pytest.approx(b.depth, abs=1e-14)

    def test_new_high_closes_open_episode_without_changing_closed(self):
        v = [100, 90, 150, 140]
        base = drawdowns(v)
        extended = drawdowns(v + [160])
        assert base[0] == extended[0]
        assert len(extended) == 2  # the open 150->140 dip closes at 160
        assert extended[1].depth == pytest.approx(1 - 140 / 150, abs=1e-14)

    def test_depth_bounds(self):
        rng = np.random.default_rng(1)
        v = np.abs(np.cumprod(1 + rng.standard_normal(100) * 0.05)) + 1e-3
        for ep in drawdowns(v):
            assert 0.0 < ep.depth < 1.0

    def test_too_short_raises(self):
        with pytest.raises(EmptySeries):
            drawdowns([1.0])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            drawdowns([1.0, -1.0, 2.0])

    @pytest.mark.parametrize("values, dates, message", [
        ([1.0, -1.0, 2.0], None, "equity curve values must be nonnegative and finite"),
        ([1.0, np.nan, 2.0], None, "equity curve values must be nonnegative and finite"),
        ([1.0, np.inf, 2.0], None, "equity curve values must be nonnegative and finite"),
        ([1.0, 0.9, 1.1], ["a", "b"], "2 labels for 3 values"),
    ])
    def test_malformed_curve_is_named(self, values, dates, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            drawdowns(values, dates=dates)

    def test_ruined_curve_is_one_episode_of_full_depth(self):
        # a curve absorbed at 0 never recovers: one episode, all of the peak lost
        eps = drawdowns([1.0, 1.2, 0.0, 0.0])
        assert [(ep.from_date, ep.trough_date, ep.to_date, ep.depth) for ep in eps] == [(1, 2, 3, 1.0)]

    def test_ties_with_the_peak_close_the_episode(self):
        # a return to the peak's value recovers; the tied point is the next peak
        eps = drawdowns([100.0, 90.0, 100.0, 80.0, 100.0])
        assert [(ep.from_date, ep.trough_date, ep.to_date) for ep in eps] == [(0, 1, 2), (2, 3, 4)]


class TestTopDrawdowns:
    def test_sorted_descending(self):
        eps = drawdowns([100, 90, 101, 80, 70, 102, 99])
        top = top_drawdowns(eps, 5)
        depths = [ep.depth for ep in top]
        assert depths == sorted(depths, reverse=True)

    def test_k_limits(self):
        eps = drawdowns([100, 90, 101, 80, 102])
        assert len(top_drawdowns(eps, 1)) == 1


class TestSummary:
    def test_constant_ledger(self):
        stats = summary(ledger_from_values([1.0, 1.0, 1.0]))
        assert stats.total_return == 0.0
        assert stats.annualized_vol == 0.0
        assert stats.max_drawdown == 0.0

    def test_two_period_up_down(self):
        stats = summary(ledger_from_values([1.1, 0.99]))
        assert stats.total_return == pytest.approx(-0.01, abs=1e-12)
        assert stats.max_drawdown == pytest.approx(0.10, abs=1e-12)

    def test_max_drawdown_equals_deepest_episode(self):
        rng = np.random.default_rng(2)
        values = np.cumprod(1 + rng.standard_normal(60) * 0.02)
        stats = summary(ledger_from_values(values))
        eps = drawdowns(np.concatenate([[1.0], values]))
        assert stats.max_drawdown == top_drawdowns(eps, 1)[0].depth

    def test_turnover_and_cost_totals(self):
        stats = summary(ledger_from_values([1.0, 1.01, 1.02],
                                           turnover=[1.0, 0.1, 0.2],
                                           costs=[0.001, 0.0001, 0.0002]))
        assert stats.total_turnover == pytest.approx(1.3)
        assert stats.total_cost == pytest.approx(0.0013)

    def test_ruined_ledger_loses_everything(self):
        # the week of ruin returns -1, and each week after it 0
        stats = summary(ledger_from_values([1.1, 0.0, 0.0, 0.0]))
        assert stats.total_return == -1.0
        assert stats.max_drawdown == 1.0
        rets = np.array([0.1, -1.0, 0.0, 0.0])
        assert stats.annualized_vol == pytest.approx(np.std(rets, ddof=1) * np.sqrt(52))

    def test_vol_matches_hand_computation(self):
        values = np.array([1.02, 1.01, 1.05])
        stats = summary(ledger_from_values(values))
        curve = np.array([1.0, 1.02, 1.01, 1.05])
        rets = curve[1:] / curve[:-1] - 1
        assert stats.annualized_vol == pytest.approx(np.std(rets, ddof=1) * np.sqrt(52))


class TestTables:
    def test_drawdown_table_shape(self):
        curves = {
            "CRB": [100, 71.3, 100.1, 90, 100.2],
            "MRB": [100, 95, 100.5, 98, 101],
        }
        eps = {k: drawdowns(v) for k, v in curves.items()}
        text = format_drawdown_table(eps, top=5, decimals=2)
        lines = text.splitlines()
        assert len(lines) == 6  # header + 5 ranks
        assert "DD.CRB" in lines[0] and "DD.MRB" in lines[0]
        assert lines[1].split()[0] == "1"
        # deepest CRB episode first
        assert "0.29" in lines[1]

    def test_drawdown_table_pads_missing_ranks(self):
        eps = {"X": drawdowns([100, 90, 101])}
        text = format_drawdown_table(eps, top=5)
        assert len(text.splitlines()) == 6

    def test_summary_table_contains_stats(self):
        stats = {"CRB": summary(ledger_from_values([1.0, 1.1, 1.05]))}
        text = format_summary_table(stats)
        assert "total_return" in text
        assert "max_drawdown" in text

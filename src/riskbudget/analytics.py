"""Performance analytics over equity curves and backtest ledgers.

Drawdown episodes are the runs of an equity curve below its running peak
(:func:`drawdowns`). Summary statistics treat the ledger's value column
as an equity curve starting from 1.0 at inception, with weekly cadence
(52 periods/year) for annualization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backtest import BacktestLedger

__all__ = [
    "EmptySeries",
    "DrawdownEpisode",
    "SummaryStats",
    "drawdowns",
    "top_drawdowns",
    "summary",
    "format_drawdown_table",
    "format_summary_table",
    "drawdown_table_rows",
    "summary_table_rows",
    "align_rows",
]

WEEKS_PER_YEAR = 52


class EmptySeries(Exception):
    """An equity curve needs at least two points."""


@dataclass(frozen=True)
class DrawdownEpisode:
    """One peak-to-recovery window; depth is the fraction of peak lost."""

    from_date: object
    trough_date: object
    to_date: object
    depth: float


@dataclass(frozen=True)
class SummaryStats:
    total_return: float
    annualized_vol: float
    max_drawdown: float
    total_turnover: float
    total_cost: float
    n_periods: int


def _equity_curve(values) -> np.ndarray:
    """``values`` as a float vector, checked to be an equity curve."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size < 2:
        raise EmptySeries(f"need at least 2 points, got {v.size}")
    if np.any(v < 0) or not np.all(np.isfinite(v)):
        raise ValueError("equity curve values must be nonnegative and finite")
    return v


def drawdowns(values, dates: Sequence | None = None) -> list[DrawdownEpisode]:
    """All drawdown episodes of a nonnegative equity curve, in time order.

    An episode is a run of points below the running peak: the point before
    the run is its peak, the run's first minimum its trough, and the first
    point after the run its end (the last point, when never recovered).
    ``dates`` labels the points (indices when omitted). A curve that
    reaches 0 is ruined, and its episode is 1.0 deep.
    """
    v = _equity_curve(values)
    labels = list(dates) if dates is not None else list(range(v.size))
    if len(labels) != v.size:
        raise ValueError(f"{len(labels)} labels for {v.size} values")

    # the runs [lo, hi) under the running peak, from the edges of the mask
    under = np.concatenate([[False], v < np.maximum.accumulate(v), [False]])
    episodes = []
    for lo, hi in np.flatnonzero(np.diff(under)).reshape(-1, 2).tolist():
        trough = lo + int(np.argmin(v[lo:hi]))
        episodes.append(DrawdownEpisode(labels[lo - 1], labels[trough], labels[min(hi, v.size - 1)],
                                        1.0 - v[trough] / v[lo - 1]))
    return episodes


def top_drawdowns(episodes: Sequence[DrawdownEpisode], k: int = 5) -> list[DrawdownEpisode]:
    """The k deepest episodes, depth descending."""
    return sorted(episodes, key=lambda ep: ep.depth, reverse=True)[:k]


def summary(ledger: BacktestLedger) -> SummaryStats:
    """Headline statistics of one ledger; the curve starts at 1.0.

    A ruined curve (value 0) earns 0 in each week after the ruin.
    """
    curve = _equity_curve(np.concatenate([[1.0], ledger.values]))
    rets = np.divide(curve[1:], curve[:-1], out=np.ones(curve.size - 1), where=curve[:-1] > 0) - 1.0
    vol = float(np.std(rets, ddof=1)) * np.sqrt(WEEKS_PER_YEAR) if rets.size >= 2 else 0.0
    return SummaryStats(
        total_return=float(curve[-1] / curve[0] - 1.0),
        annualized_vol=vol,
        max_drawdown=float(np.max(1.0 - curve / np.maximum.accumulate(curve))),
        total_turnover=float(ledger.turnover.sum()),
        total_cost=float(ledger.costs.sum()),
        n_periods=ledger.n_periods,
    )


def drawdown_table_rows(episodes_by_name: dict[str, Sequence[DrawdownEpisode]],
                        top: int = 5, decimals: int = 3) -> list[list[str]]:
    """Rank-by-strategy rows: header then one row per rank (depth text)."""
    depths = [[f"{ep.depth:.{decimals}f}" for ep in top_drawdowns(eps, top)]
              for eps in episodes_by_name.values()]
    return [["rank"] + [f"DD.{name}" for name in episodes_by_name]] + \
        [[str(i + 1)] + [d[i] if i < len(d) else "" for d in depths] for i in range(top)]


def summary_table_rows(stats_by_name: dict[str, SummaryStats]) -> list[list[str]]:
    rows = [["stat"] + list(stats_by_name)]
    fields = [("total_return", "{:.4f}"), ("annualized_vol", "{:.4f}"),
              ("max_drawdown", "{:.4f}"), ("total_turnover", "{:.4f}"),
              ("total_cost", "{:.6f}"), ("n_periods", "{:d}")]
    for field_name, fmt in fields:
        rows.append([field_name] + [fmt.format(getattr(s, field_name))
                                    for s in stats_by_name.values()])
    return rows


def align_rows(rows: list[list[str]]) -> str:
    """Rows of text cells as lines of right-aligned columns, two spaces apart."""
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows)


def format_drawdown_table(episodes_by_name, top: int = 5, decimals: int = 3) -> str:
    """Aligned text table, one column per strategy, depths sorted descending."""
    return align_rows(drawdown_table_rows(episodes_by_name, top, decimals))


def format_summary_table(stats_by_name) -> str:
    return align_rows(summary_table_rows(stats_by_name))

"""Five strategies over the bundled sample prices, side by side.

Loads the committed daily CSV, resamples to weekly medians, runs the
equal-weight benchmark, the cumulative-return-weighted benchmark, and the
three risk-floor strategies (plain, with abstention, with capped
leverage), then prints the comparison tables.
"""

import os

import numpy as np

from riskbudget import (
    BacktestConfig,
    drawdowns,
    format_drawdown_table,
    format_summary_table,
    load_csv,
    run,
    summary,
    to_weekly,
)

here = os.path.dirname(os.path.abspath(__file__))
daily = load_csv(os.path.join(here, "data", "sample_daily.csv"))
panel = to_weekly(daily)
print(f"panel: {panel.n_assets} assets x {panel.n_periods} weeks "
      f"({panel.dates[0]} .. {panel.dates[-1]})\n")

# one call runs all five; MRB, MRBA and MRBAL share each week's covariance and solves
ledgers = run(panel, [BacktestConfig(strategy=strategy, budgets="half_norm_cum_return",
                                     lam=1.0, mu=0.001)
                      for strategy in ("CRB", "CRB_SMART", "MRB", "MRBA", "MRBAL")])

print("final value of 1.0 invested (net of 10bp costs):")
for name, ledger in ledgers.items():
    abstained = int(ledger.abstained.sum())
    print(f"  {name:10s} {ledger.values[-1]:.4f}   "
          f"abstained {abstained}/{ledger.n_periods} weeks, "
          f"max leverage {ledger.leverage.max():.2f}")

print()
print(format_summary_table({k: summary(v) for k, v in ledgers.items()}))
print()
episodes = {k: drawdowns(np.concatenate([[1.0], v.values])) for k, v in ledgers.items()}
print(format_drawdown_table(episodes, top=5, decimals=3))

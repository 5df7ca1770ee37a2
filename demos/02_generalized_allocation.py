"""Risk floors plus forecasts, costs and bounds, as one cone program.

The generalized problem trades expected return against volatility while
guaranteeing each asset a minimum share of the portfolio variance. This
script shows the floors binding and relaxing, the effect of the
trade-off weight, and turnover shrinking as the cost coefficient rises.
"""

import numpy as np

from riskbudget import AllocationProblem, expected_stats, solve_allocation

vols = np.array([0.25, 0.07, 0.16, 0.30])
corr = np.array([
    [1.0, -0.1, 0.4, 0.7],
    [-0.1, 1.0, 0.0, -0.1],
    [0.4, 0.0, 1.0, 0.3],
    [0.7, -0.1, 0.3, 1.0],
])
cov = corr * np.outer(vols, vols)
names = ("EQTY", "BOND", "GOLD", "LEVG")
floors = np.array([0.35, 0.05, 0.05, 0.35])  # sums to 0.8 < 1: slack left for tilts
r_hat = np.array([0.004, 0.0005, 0.001, 0.006])

print("=== floors 35/5/5/35 with a return forecast ===")
res = solve_allocation(AllocationProblem(cov=cov, budgets=floors, forecasts=r_hat,
                                         lam=1.0, assets=names))
for i, n in enumerate(names):
    flag = "binding" if res.binding_budgets[i] else "slack"
    print(f"  {n}: weight {res.weights[i]:.4f}  risk share {res.risk_contribs[i]:.4f} "
          f" floor {floors[i]:.2f} ({flag})")
ret, sd = expected_stats(AllocationProblem(cov=cov, budgets=floors, forecasts=r_hat), res.weights)
print(f"  ex-ante weekly return {ret:.5f}, ex-ante stdev {sd:.5f}\n")

print("=== the trade-off weight controls how much forecast to chase ===")
# weekly forecasts near 1e-3 against a stdev near 0.1 put the trade-off near
# lam = 0.01-0.05; from about lam = 0.03 on, the floors alone set the weights
for lam in (0.0, 0.02, 0.05):
    p = AllocationProblem(cov=cov, budgets=floors, forecasts=r_hat, lam=lam)
    w = solve_allocation(p).weights
    ret, sd = expected_stats(p, w)
    print(f"  lam {lam:4.2f}: ex-ante return {ret:.5f}  stdev {sd:.5f}")
print("  (stdev falls as lam rises)\n")

print("=== transaction costs anchor the portfolio to its previous state ===")
# slacker floors here: with most of the risk preallocated the weights are
# pinned and costs would have nothing to trade off
loose = np.full(4, 0.08)
x0 = np.array([0.25, 0.25, 0.25, 0.25])
for mu in (0.0, 0.001, 0.01):
    p = AllocationProblem(cov=cov, budgets=loose, forecasts=r_hat, mu=mu, prev_weights=x0)
    w = solve_allocation(p).weights
    print(f"  mu {mu:5.3f}: turnover {np.abs(w - x0).sum():.4f}")
print("  (one-way turnover against the starting book shrinks as costs rise)")

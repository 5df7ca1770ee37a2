"""Weekly-rebalance backtest engine.

Five strategies over an aligned weekly panel: CRB (equal-weight constant
rebalance), CRB.SMART (weights proportional to positive cumulative
returns), MRB (risk-budget floors with a one-week momentum forecast),
MRBA (MRB plus liquidation whenever the forecast portfolio return is
negative), and MRBAL (MRBA levered by the ratio of the benchmark's
ex-ante volatility to the optimized portfolio's, capped).

The strategies that read a covariance walk the weeks together: each week
prepares the covariance once, just before the first of them, and those
whose allocation problems coincide share one solve.

Timing discipline: the decision for the fill at week ``t`` sees prices
only through week ``t-1`` - covariance from all weekly returns realized by
then (expanding window), forecast equal to the return over week ``t-1``,
cumulative returns through ``t-1``. Fills happen at week ``t``'s median
price, which is exactly the panel price. Holdings drift with asset
returns between rebalances; turnover and proportional costs are measured
against the drifted weights. Cash earns nothing and leverage is financed
at zero rate (documented simplification). A week's loss takes a value to
0 at most: a ruined strategy then holds nothing and pays no cost.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .allocation import (AllocationError, AllocationProblem, floor_vector, portfolio_sd,
                         require_number, solve_allocation)
from .data import ParseError, WeeklyPanel, _header_tickers, _opened, _read_rows, returns as panel_returns
from .linalg import NotPositiveDefinite, covariance, psd_from_eig, symmetric_eig
from .solver import SolverOptions

__all__ = [
    "STRATEGIES",
    "HALF_NORM_CUM_RETURN",
    "BacktestConfig",
    "BacktestLedger",
    "EngineState",
    "check_panel",
    "run",
    "strategy_weights",
    "budget_rule_half_norm",
    "benchmark_crb_smart",
    "prepare_covariance",
    "ledger_to_csv",
    "ledger_from_csv",
]

STRATEGIES = ("CRB", "CRB_SMART", "MRB", "MRBA", "MRBAL")
# the benchmarks, which read no covariance and solve nothing
BENCHMARKS = ("CRB", "CRB_SMART")
HALF_NORM_CUM_RETURN = "half_norm_cum_return"

# first tradeable index: one week for the momentum forecast plus two
# realized returns for the first covariance estimate
FIRST_DECISION = 3

# engine-level solver default: 1e-7 formal tolerance is far beyond what
# weekly fills resolve, and avoids spurious abstentions from the interior
# point method's last-digit fragility at 1e-8 on point-in-time matrices
DEFAULT_SOLVER_OPTIONS = SolverOptions(tol=1e-7)


def normalize_strategy(name: str) -> str:
    norm = str(name).upper().replace(".", "_").replace("-", "_")
    if norm not in STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}, expected one of {STRATEGIES}")
    return norm


@dataclass
class BacktestConfig:
    """Knobs for one strategy run.

    ``budgets`` is either a fixed per-asset vector (sum <= 1) or the
    string ``"half_norm_cum_return"`` for floors set to half of each
    asset's cross-sectionally normalized positive cumulative return.
    ``psd_eps`` is the eigenvalue floor used when the point-in-time
    covariance needs repair; default scales with the mean variance.
    A value out of range raises a ``ValueError`` naming the setting
    (``lam`` by its config key, ``lambda``).
    """

    strategy: str = "MRB"
    budgets: np.ndarray | str | None = None
    lam: float = 1.0
    mu: float = 0.0
    leverage_cap: float = 1.5
    psd_eps: float | None = None
    solver_options: SolverOptions = DEFAULT_SOLVER_OPTIONS

    def __post_init__(self):
        self.strategy = normalize_strategy(self.strategy)
        require_number("lambda", self.lam, 0)
        require_number("mu", self.mu, 0)
        require_number("leverage_cap", self.leverage_cap, 1)
        if self.psd_eps is not None:
            require_number("psd_eps", self.psd_eps, 0)
        if isinstance(self.budgets, str):
            if self.budgets != HALF_NORM_CUM_RETURN:
                raise ValueError(f"unknown budget rule {self.budgets!r}")
        elif self.budgets is not None:
            self.budgets = floor_vector(self.budgets)
        if self.strategy not in BENCHMARKS and self.budgets is None:
            raise ValueError(f"{self.strategy} requires budgets (vector or "
                             f"{HALF_NORM_CUM_RETURN!r})")


@dataclass
class EngineState:
    """Decision inputs for one rebalance, all measured strictly pre-fill.

    ``cov`` is None for the CRB benchmarks, which do not read it.
    ``solves`` is the week's table of allocation solves, shared by the
    strategies of the week: each problem maps to its weights, or to the
    error its solve raised.
    """

    cov: np.ndarray | None
    forecast: np.ndarray
    cum_returns: np.ndarray
    prev_weights: np.ndarray
    tickers: tuple[str, ...]
    solves: dict = field(default_factory=dict, repr=False)


@dataclass
class BacktestLedger:
    """Per-period record of one strategy run; values start from 1.0."""

    strategy: str
    tickers: tuple[str, ...]
    dates: tuple[date, ...]
    weights: np.ndarray
    fill_prices: np.ndarray | None
    values: np.ndarray
    leverage: np.ndarray
    costs: np.ndarray
    turnover: np.ndarray
    abstained: np.ndarray
    notes: tuple[str, ...] = ()

    @property
    def n_periods(self) -> int:
        return len(self.dates)


def budget_rule_half_norm(cum_returns) -> np.ndarray:
    """Floors = half the normalized positive part of cumulative returns.

    Negative cumulative returns clamp to zero before normalizing; if every
    asset is nonpositive the floors fall back to uniform 1/(2n). The
    output always sums to one half.
    """
    return 0.5 * benchmark_crb_smart(cum_returns)


def benchmark_crb_smart(cum_returns) -> np.ndarray:
    """Weights proportional to positive cumulative returns, summing to 1."""
    cum = np.asarray(cum_returns, dtype=float).ravel()
    pos = np.maximum(cum, 0.0)
    total = pos.sum()
    if total <= 0:
        return np.full(cum.size, 1.0 / cum.size)
    return pos / total


def prepare_covariance(history, psd_eps: float | None = None) -> np.ndarray:
    """Point-in-time sample covariance, repaired to be usable if needed.

    The sample covariance is used as-is when its smallest eigenvalue
    clears the floor (default ``1e-8 *`` mean variance), else the
    eigenvalues below the floor are lifted to it - the nearest positive
    semidefinite matrix under the floor. Rank deficiency is routine while
    the history is shorter than the asset count; gating on the spectrum
    rather than a factorization attempt keeps the decision independent of
    asset ordering and roundoff luck. The repair reuses the gate's
    eigendecomposition, so a repaired week takes one.
    """
    s = covariance(history)
    eps = psd_eps if psd_eps is not None else 1e-8 * float(np.mean(np.diag(s)))
    eps = max(eps, 1e-16)
    w, v = symmetric_eig(s)
    if w[0] >= eps:
        return s
    return psd_from_eig(w, v, eps)


def strategy_weights(t: int, state: EngineState, cfg: BacktestConfig) -> tuple[np.ndarray, float]:
    """Target weights and applied leverage for the fill at index ``t``.

    Abstention is reported as all-zero weights with leverage 0. Solver
    errors propagate; the engine converts them to abstained periods. A
    problem already in ``state.solves`` is not solved again, and MRBA and
    MRBAL liquidate without a solve when every forecast is negative, since
    then ``forecast @ x < 0`` for every x >= 0 with sum(x) = 1. Only a
    decision that solves builds and validates an ``AllocationProblem``:
    one that finds its solve, or its failure, in ``state.solves`` looks it
    up by key, and MRBAL's leverage reads ``state.cov`` directly.
    """
    n = len(state.tickers)
    if cfg.strategy == "CRB":
        return np.full(n, 1.0 / n), 1.0
    if cfg.strategy == "CRB_SMART":
        return benchmark_crb_smart(state.cum_returns), 1.0
    if cfg.strategy != "MRB" and state.forecast.max() < 0.0:
        return np.zeros(n), 0.0

    if isinstance(cfg.budgets, str):
        budgets = budget_rule_half_norm(state.cum_returns)
    else:
        budgets = cfg.budgets
    # the week fixes the covariance (given psd_eps) and the forecasts
    key = (state.prev_weights.tobytes(), budgets.tobytes(), cfg.lam, cfg.mu, cfg.psd_eps,
           cfg.solver_options)
    if key not in state.solves:
        problem = AllocationProblem(
            cov=state.cov,
            budgets=budgets,
            forecasts=state.forecast,
            lam=cfg.lam,
            mu=cfg.mu,
            prev_weights=state.prev_weights,
            assets=state.tickers,
        )
        try:
            state.solves[key] = solve_allocation(problem, cfg.solver_options).weights
        except (AllocationError, NotPositiveDefinite) as exc:
            state.solves[key] = exc
    x = state.solves[key]
    if isinstance(x, Exception):
        raise x
    if cfg.strategy == "MRB":
        return x, 1.0

    if float(state.forecast @ x) < 0.0:
        return np.zeros(n), 0.0
    if cfg.strategy == "MRBA":
        return x, 1.0

    sd_crb = portfolio_sd(state.cov, np.full(n, 1.0 / n))
    sd_mrb = portfolio_sd(state.cov, x)
    lev = min(cfg.leverage_cap, sd_crb / sd_mrb) if sd_mrb > 0 else 1.0
    return lev * x, lev


def check_panel(panel: WeeklyPanel, configs: Sequence[BacktestConfig]) -> None:
    """Raise ``ValueError`` unless ``configs`` run on ``panel``: a first
    decision, one budget per asset, and no strategy listed twice."""
    if panel.n_periods < FIRST_DECISION + 1:
        raise ValueError(f"panel must cover at least {FIRST_DECISION + 1} weekly prices "
                         f"({FIRST_DECISION} return periods), got {panel.n_periods}")
    seen = set()
    for cfg in configs:
        if cfg.strategy in seen:
            raise ValueError(f"strategy {cfg.strategy} is listed twice")
        seen.add(cfg.strategy)
        if isinstance(cfg.budgets, np.ndarray) and cfg.budgets.size != panel.n_assets:
            raise ValueError(f"budgets has {cfg.budgets.size} entries, but the panel has "
                             f"{panel.n_assets} assets")


def run(panel: WeeklyPanel, configs: BacktestConfig | Sequence[BacktestConfig]
        ) -> BacktestLedger | dict[str, BacktestLedger]:
    """Simulate the strategies of ``configs`` over the panel; deterministic.

    Returns their ledgers keyed by strategy, in ``configs`` order, or given
    one config rather than a sequence, its ledger alone. A ledger covers
    fills from the first index with enough history (index 3: one week for
    the momentum forecast, two realized returns for the covariance). Infeasible or failed optimizations abstain for that
    period and carry a diagnostic note.

    The strategies that read a covariance walk the weeks in lockstep and
    share each week's covariance and solves. The CRB benchmarks share
    nothing with them and walk apart: wedged between solves, their
    microsecond decisions would run from cold caches.
    """
    single = isinstance(configs, BacktestConfig)
    if single:
        configs = [configs]
    check_panel(panel, configs)
    rets = panel_returns(panel)
    ledgers = {}
    for group in ([cfg for cfg in configs if cfg.strategy in BENCHMARKS],
                  [cfg for cfg in configs if cfg.strategy not in BENCHMARKS]):
        if group:
            ledgers.update(_walk(panel, rets, group))
    if single:
        return ledgers[configs[0].strategy]
    return {cfg.strategy: ledgers[cfg.strategy] for cfg in configs}


def _walk(panel: WeeklyPanel, rets: np.ndarray,
          configs: list[BacktestConfig]) -> dict[str, BacktestLedger]:
    """One pass over the weeks for ``configs``, in lockstep."""
    n = panel.n_assets
    # per strategy: holdings after the last fill, value, and ledger rows
    # (target, value, leverage, cost, turnover, note)
    prev = [np.zeros(n) for _ in configs]
    value = [1.0] * len(configs)
    rows = [[] for _ in configs]
    solves = {}
    for t in range(FIRST_DECISION, panel.n_periods):
        week_ret = rets[t - 1]
        cum_returns = panel.prices[t - 1] / panel.prices[0] - 1.0
        covs = {}  # psd_eps -> the week's prepared covariance
        for i, cfg in enumerate(configs):
            growth = 1.0 + float(prev[i] @ week_ret)
            # a loss beyond the whole value ruins the strategy: absorbed at 0
            value[i] = max(0.0, value[i] * growth)
            drifted = prev[i] * (1.0 + week_ret) / growth if growth > 0 else np.zeros(n)

            if cfg.strategy not in BENCHMARKS and cfg.psd_eps not in covs:
                covs[cfg.psd_eps] = prepare_covariance(rets[: t - 1], cfg.psd_eps)
            state = EngineState(cov=covs.get(cfg.psd_eps), forecast=rets[t - 2],
                                cum_returns=cum_returns, prev_weights=drifted,
                                tickers=panel.tickers, solves=solves)
            note = ""
            if value[i] == 0.0:
                target, lev, note = np.zeros(n), 0.0, "ruined: the value reached 0"
            else:
                try:
                    target, lev = strategy_weights(t, state, cfg)
                except (AllocationError, NotPositiveDefinite) as exc:
                    target, lev = np.zeros(n), 0.0
                    note = f"abstained: {exc}"

            turnover = float(np.abs(target - drifted).sum())
            cost = cfg.mu * turnover * value[i]
            value[i] -= cost
            rows[i].append((target, value[i], lev, cost, turnover, note))
            prev[i] = target
        solves.clear()

    ledgers = {}
    for cfg, book in zip(configs, rows):
        targets, values, levs, costs, turns, notes = zip(*book)
        ledgers[cfg.strategy] = BacktestLedger(
            strategy=cfg.strategy,
            tickers=panel.tickers,
            dates=tuple(panel.dates[FIRST_DECISION:]),
            weights=np.array(targets),
            fill_prices=panel.prices[FIRST_DECISION:].copy(),
            values=np.array(values),
            leverage=np.array(levs),
            costs=np.array(costs),
            turnover=np.array(turns),
            abstained=np.array([not np.any(w) for w in targets], dtype=bool),
            notes=notes,
        )
    return ledgers


def ledger_to_csv(ledger: BacktestLedger, destination) -> None:
    """Columns: date, value, one weight column per asset, leverage, cost,
    turnover, abstained."""
    with _opened(destination, "w") as fh:
        cols = ["date", "value"] + [f"w_{t}" for t in ledger.tickers] + \
            ["leverage", "cost", "turnover", "abstained"]
        fh.write(",".join(cols) + "\n")
        for i, day in enumerate(ledger.dates):
            row = [day.isoformat(), repr(float(ledger.values[i]))]
            row += [repr(float(w)) for w in ledger.weights[i]]
            row += [repr(float(ledger.leverage[i])), repr(float(ledger.costs[i])),
                    repr(float(ledger.turnover[i])), str(bool(ledger.abstained[i]))]
            fh.write(",".join(row) + "\n")


def ledger_from_csv(source, strategy: str = "") -> BacktestLedger:
    """Rebuild a ledger from :func:`ledger_to_csv` output (prices excluded).

    A weight column not named ``w_<ticker>`` or naming a ticker twice, a
    malformed row, a number that is not finite, or a date not later than
    the row before it, raises :class:`ParseError` with its line number; so
    does a ledger without rows."""
    with _opened(source) as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["date", "value"] or header[-4:] != ["leverage", "cost", "turnover", "abstained"]:
            raise ParseError(f"unrecognized ledger header {header!r}", line=1)
        tickers = _header_tickers(header[2:-4], "w_")
        dates, rows, abst = [], [], []
        for line, cells, day, nums in _read_rows(fh, header, slice(1, -1)):
            if cells[-1] not in ("True", "False"):
                raise ParseError(f"abstained must be True or False, got {cells[-1]!r}", line=line)
            if dates and day <= dates[-1]:
                raise ParseError(f"date {day} is not later than {dates[-1]}", line=line)
            dates.append(day)
            rows.append(nums)
            abst.append(cells[-1] == "True")
    if not dates:
        raise ParseError("ledger has no rows")
    nums = np.array(rows)
    return BacktestLedger(
        strategy=strategy,
        tickers=tickers,
        dates=tuple(dates),
        weights=nums[:, 1:-3],
        fill_prices=None,
        values=nums[:, 0],
        leverage=nums[:, -3],
        costs=nums[:, -2],
        turnover=nums[:, -1],
        abstained=np.array(abst, dtype=bool),
    )

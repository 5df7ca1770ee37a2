"""Risk-budgeting portfolio allocation toolkit.

Solves the classical risk-budget problem (each asset contributes a
prescribed share of portfolio variance) by two independent routes - a
log-barrier formulation and a second-order cone program - and generalizes
the latter with return forecasts, proportional transaction costs, and
weight bounds. A weekly-rebalance backtest engine, drawdown analytics,
CSV data handling, and a command-line interface round out the package.
"""

from .allocation import (
    AllocationError,
    AllocationProblem,
    AllocationResult,
    InfeasibleAllocation,
    SolverFailure,
    build_program,
    expected_stats,
    problem_from_json,
    problem_to_json,
    solve_allocation,
)
from .analytics import (
    DrawdownEpisode,
    EmptySeries,
    SummaryStats,
    drawdowns,
    format_drawdown_table,
    format_summary_table,
    summary,
    top_drawdowns,
)
from .backtest import (
    BacktestConfig,
    BacktestLedger,
    EngineState,
    benchmark_crb_smart,
    budget_rule_half_norm,
    ledger_from_csv,
    ledger_to_csv,
    run,
    strategy_weights,
)
from .budgeting import (
    DegeneratePortfolio,
    NonConvergence,
    risk_contributions,
    solve_vanilla,
)
from .cones import NonNeg, SecondOrder, Zero
from .data import (
    EmptyIntersection,
    ParseError,
    PriceSeries,
    WeeklyPanel,
    load_csv,
    panel_from_csv,
    panel_to_csv,
    returns,
    to_weekly,
)
from .linalg import (
    InsufficientHistory,
    NotPositiveDefinite,
    cholesky,
    covariance,
    nearest_psd,
    symmetric_eig,
)
from .solver import (
    ConeProgram,
    ConeSolution,
    ProgramValidationError,
    RowMatrix,
    SolveStatus,
    SolverOptions,
    dump_program,
    solve,
)

__version__ = "0.1.0"

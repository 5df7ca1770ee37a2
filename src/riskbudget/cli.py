"""Command-line interface: one-shot solves, backtests, and reports.

Subcommands:

``riskbudget solve --config problem.json [--tol T] [--max-iters K]``
    Solve one allocation problem (schema documented in
    :mod:`riskbudget.allocation`); prints one JSON document for every
    outcome of the solve: the result, an infeasibility report, or, when the
    solver stops at ``max_iters`` or ``numerical_failure``, that status with
    the solver statistics. Exit code 0 on an optimal solution, 2 when the
    problem is infeasible, 1 on a solver stop or any other error, such as a
    ``--tol`` not finite and > 0, a negative ``--max-iters``, a bad document
    field or an unknown key.

``riskbudget backtest --prices prices.csv --config config.json --out-dir DIR
[--strategies CRB,MRB,...] [--tol T] [--max-iters K]``
    Run the configured strategies over a daily prices CSV and write one
    ledger CSV per strategy, summary/drawdown tables (CSV and aligned
    text), and a reproducibility manifest with input hashes. The MRB
    strategies walk the weeks together and share each week's covariance
    and solves (:func:`riskbudget.backtest.run`). A config key left out
    takes the :class:`BacktestConfig` default; a bad or unknown one, a
    strategy listed twice (``CRB,crb`` counts, since names are normalized)
    or a negative ``--top`` exits 1 before any week runs or the output
    directory is made.

``riskbudget report LEDGER.csv [LEDGER.csv ...] [--top K] [--out-dir DIR]``
    Print the top-k drawdown table (one column per strategy) and summary
    statistics for previously written ledgers. The strategy is the file
    name without ``ledger_`` and ``.csv``; two ledgers of one strategy, or
    a negative ``--top``, exit 1.

Errors have one path: they leave the command and :func:`main` prints one
``error: <message>`` line to stderr and exits 1. The exceptions a command
catches are ``solve``'s outcomes: an infeasible problem, reported as JSON
with exit 2, and a solver stop, reported as JSON with exit 1. The only
environment variable honored is ``RISKBUDGET_LOG_LEVEL``.
Output files are written atomically (temp file + rename). Identical
inputs give byte-identical outputs; the manifest's timestamp is the one
exception.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import logging
import os
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .allocation import InfeasibleAllocation, SolverFailure, problem_from_json, solve_allocation
from .analytics import (
    align_rows,
    drawdown_table_rows,
    drawdowns,
    summary,
    summary_table_rows,
)
from .backtest import (
    DEFAULT_SOLVER_OPTIONS,
    STRATEGIES,
    BacktestConfig,
    ledger_from_csv,
    ledger_to_csv,
    run,
)
from .data import load_csv, to_weekly
from .solver import SolverOptions

log = logging.getLogger("riskbudget.cli")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            # mkstemp creates the file 0600; give it the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _solver_options(args, default: SolverOptions) -> SolverOptions:
    """``default`` with the fields ``--tol`` and ``--max-iters`` set; out of range raises ``ValueError``."""
    given = {"tol": args.tol, "max_iters": args.max_iters}
    return dataclasses.replace(default, **{k: v for k, v in given.items() if v is not None})


def _check_top(top: int) -> None:
    if top < 0:
        raise ValueError(f"--top must be >= 0, got {top}")


def _write_tables(ledgers, top: int, out_dir: str | None, text_files: bool) -> str:
    """Summary and top-``top`` drawdown tables of ``ledgers``.

    Writes ``summary.csv`` and ``drawdowns.csv`` into ``out_dir`` (when
    given), plus their aligned ``.txt`` forms when ``text_files``, and
    returns the aligned text of both tables for printing.
    """
    stats = {name: summary(led) for name, led in ledgers.items()}
    # the tables print depths only, so the episodes need no date labels
    eps = {name: drawdowns(np.concatenate([[1.0], led.values])) for name, led in ledgers.items()}
    rows = {"drawdowns": drawdown_table_rows(eps, top=top), "summary": summary_table_rows(stats)}
    texts = {name: align_rows(table) for name, table in rows.items()}
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        for name, text in texts.items():
            if text_files:
                _atomic_write(os.path.join(out_dir, f"{name}.txt"), text + "\n")
            _atomic_write(os.path.join(out_dir, f"{name}.csv"),
                          "\n".join(",".join(r) for r in rows[name]) + "\n")
    return texts["summary"] + "\n\n" + texts["drawdowns"]


def cmd_solve(args) -> int:
    opts = _solver_options(args, SolverOptions())
    with open(args.config) as fh:
        problem = problem_from_json(fh.read())
    try:
        result = solve_allocation(problem, opts)
    except InfeasibleAllocation as exc:
        print(json.dumps({"status": "infeasible", "report": exc.report}, indent=2))
        return EXIT_INFEASIBLE
    except SolverFailure as exc:
        print(json.dumps({"status": exc.status.value, "solver": _solver_stats(exc.solution)}, indent=2))
        return EXIT_ERROR

    names = [problem.asset_name(i) for i in range(problem.size)]
    doc = {
        "status": "optimal",
        "objective": result.objective,
        "weights": dict(zip(names, result.weights.tolist())),
        "risk_contributions": dict(zip(names, result.risk_contribs.tolist())),
        "binding_budgets": dict(zip(names, (bool(v) for v in result.binding_budgets))),
        "solver": _solver_stats(result.solver_stats),
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _solver_stats(sol) -> dict:
    """The statistics of the :class:`ConeSolution` ``sol`` as ``solve`` prints them."""
    return {"iterations": sol.iterations, "primal_residual": sol.primal_residual,
            "dual_residual": sol.dual_residual, "relative_gap": sol.gap}


# backtest config keys and the BacktestConfig fields they set
CONFIG_FIELDS = {"budgets": "budgets", "lambda": "lam", "mu": "mu",
                 "leverage_cap": "leverage_cap", "psd_eps": "psd_eps"}


def _parse_backtest_config(path: str):
    """The config document and the BacktestConfig fields it sets."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config: expected a JSON object")
    for key in doc:
        if key != "strategies" and key not in CONFIG_FIELDS:
            raise ValueError(f"config.{key}: unknown key")
    return doc, {field: doc[key] for key, field in CONFIG_FIELDS.items() if key in doc}


def cmd_backtest(args) -> int:
    _check_top(args.top)
    panel = to_weekly(load_csv(args.prices))
    config_doc, cfg_kwargs = _parse_backtest_config(args.config)
    names = args.strategies.split(",") if args.strategies else config_doc.get("strategies", STRATEGIES)
    if not isinstance(names, (list, tuple)) or not names:
        raise ValueError("config.strategies: expected a non-empty list")
    solver_opts = _solver_options(args, DEFAULT_SOLVER_OPTIONS)
    # every config is built, and ``run`` checks them all, before any week runs
    configs = [BacktestConfig(strategy=s, solver_options=solver_opts, **cfg_kwargs) for s in names]
    ledgers = run(panel, configs)

    os.makedirs(args.out_dir, exist_ok=True)
    for strat, ledger in ledgers.items():
        buf = io.StringIO()
        ledger_to_csv(ledger, buf)
        _atomic_write(os.path.join(args.out_dir, f"ledger_{strat}.csv"), buf.getvalue())

    report = _write_tables(ledgers, args.top, args.out_dir, text_files=True)
    manifest = {
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": config_doc,
        "strategies": list(ledgers),
        "inputs": {os.path.basename(args.prices): _sha256(args.prices),
                   os.path.basename(args.config): _sha256(args.config)},
        "panel": {"assets": list(panel.tickers), "weeks": panel.n_periods,
                  "start": panel.dates[0].isoformat(), "end": panel.dates[-1].isoformat()},
    }
    _atomic_write(os.path.join(args.out_dir, "manifest.json"),
                  json.dumps(manifest, indent=2) + "\n")
    print(report)
    return EXIT_OK


def cmd_report(args) -> int:
    _check_top(args.top)
    ledgers = {}
    for path in args.ledgers:
        name = os.path.splitext(os.path.basename(path))[0].removeprefix("ledger_")
        if name in ledgers:
            raise ValueError(f"strategy {name} is listed twice")
        ledgers[name] = ledger_from_csv(path, strategy=name)
    print(_write_tables(ledgers, args.top, args.out_dir, text_files=False))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="riskbudget",
                                     description="Risk-budgeting portfolio toolkit")
    parser.add_argument("--version", action="version", version=f"riskbudget {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one allocation problem from JSON")
    p_solve.add_argument("--config", required=True, help="AllocationProblem JSON document")
    p_solve.add_argument("--tol", type=float, default=None, help="solver tolerance override")
    p_solve.add_argument("--max-iters", type=int, default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_bt = sub.add_parser("backtest", help="run strategies over a daily prices CSV")
    p_bt.add_argument("--prices", required=True, help="daily close prices CSV")
    p_bt.add_argument("--config", required=True, help="backtest config JSON")
    p_bt.add_argument("--out-dir", required=True, help="output directory")
    p_bt.add_argument("--strategies", default=None,
                      help="comma-separated subset, e.g. CRB,MRB,MRBAL")
    p_bt.add_argument("--top", type=int, default=5, help="drawdown ranks to report")
    p_bt.add_argument("--tol", type=float, default=None)
    p_bt.add_argument("--max-iters", type=int, default=None)
    p_bt.set_defaults(func=cmd_backtest)

    p_rep = sub.add_parser("report", help="summaries and drawdowns from ledger CSVs")
    p_rep.add_argument("ledgers", nargs="+", help="ledger CSV files")
    p_rep.add_argument("--top", type=int, default=5)
    p_rep.add_argument("--out-dir", default=None)
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("RISKBUDGET_LOG_LEVEL", "WARNING"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # the one error path: never a traceback for users
        log.debug("unhandled failure", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

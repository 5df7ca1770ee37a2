import json
import os
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from riskbudget import backtest, cli
from riskbudget.backtest import DEFAULT_SOLVER_OPTIONS, BacktestConfig, ledger_from_csv, run
from riskbudget.cli import main
from riskbudget.solver import SolverOptions


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def write_prices_csv(tmp_path, weeks=12, seed=3, tickers=("SPY", "AGG"), vol=0.02):
    rng = np.random.default_rng(seed)
    lines = ["date,ticker,close"]
    start = date(2021, 1, 4)  # a Monday
    prices = {t: 100.0 * (1 + k) for k, t in enumerate(tickers)}
    for w in range(weeks):
        for d in range(5):
            day = start + timedelta(weeks=w, days=d)
            for t in tickers:
                prices[t] *= 1.0 + float(rng.standard_normal()) * vol
                lines.append(f"{day.isoformat()},{t},{prices[t]:.6f}")
    path = tmp_path / "prices.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_config(tmp_path, **overrides):
    doc = {"strategies": ["CRB", "MRB"], "budgets": [0.4, 0.1],
           "lambda": 1.0, "mu": 0.001}
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestSolveCommand:
    def test_two_asset_floors(self, tmp_path, capsys):
        doc = {"cov": [[0.04, 0.001], [0.001, 0.0025]], "budgets": [0.4, 0.1],
               "forecasts": [0.002, 0.0], "lambda": 1.0, "assets": ["SPY", "AGG"]}
        rc = main(["solve", "--config", write_problem(tmp_path, doc)])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert payload["status"] == "optimal"
        assert payload["risk_contributions"]["SPY"] >= 0.4 - 1e-6
        assert payload["risk_contributions"]["AGG"] >= 0.1 - 1e-6
        assert list(payload["binding_budgets"]) == ["SPY", "AGG"]

    def test_identity_erc_uniform(self, tmp_path, capsys):
        doc = {"cov": [[1.0, 0.0], [0.0, 1.0]], "budgets": [0.5, 0.5]}
        rc = main(["solve", "--config", write_problem(tmp_path, doc)])
        assert rc == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        for w in payload["weights"].values():
            assert w == pytest.approx(0.5, abs=1e-6)

    def test_infeasible_exits_2(self, tmp_path, capsys):
        doc = {"cov": [[0.04, 0.0], [0.0, 0.0025]], "budgets": [0.2, 0.2],
               "lower": [0.8, 0.8]}
        rc = main(["solve", "--config", write_problem(tmp_path, doc)])
        assert rc == 2
        assert json.loads(capsys.readouterr().out)["status"] == "infeasible"

    def test_an_unnamed_asset_has_one_name(self, tmp_path, capsys):
        # the weights of an unnamed document and the hints of the same
        # document with the first asset capped at zero name the asset alike
        doc = {"cov": [[0.04, 0.0], [0.0, 0.0025]], "budgets": [0.4, 0.1]}
        assert main(["solve", "--config", write_problem(tmp_path, doc)]) == 0
        out = capsys.readouterr().out
        names = list(json.loads(out)["weights"])
        doc["upper"] = [0.0, 1.0]
        assert main(["solve", "--config", write_problem(tmp_path, doc)]) == 2
        report = json.loads(capsys.readouterr().out)["report"]
        assert names == ["asset0", "asset1"]
        assert f"{names[0]}: positive budget with zero upper bound" in report

    def test_schema_violation_exits_1_with_field(self, tmp_path, capsys):
        doc = {"cov": [[1.0, 0.0], [0.0, 1.0]], "budgets": [0.5]}
        rc = main(["solve", "--config", write_problem(tmp_path, doc)])
        assert rc == 1
        assert "budgets" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        rc = main(["solve", "--config", str(tmp_path / "missing.json")])
        assert rc == 1

    @pytest.mark.parametrize("flags, option", [
        (["--tol", "-1"], "tol"), (["--tol", "0"], "tol"), (["--tol", "nan"], "tol"),
        (["--tol", "inf"], "tol"), (["--max-iters", "-1"], "max_iters"),
    ])
    def test_out_of_range_solver_flag_exits_1(self, tmp_path, capsys, flags, option):
        doc = {"cov": [[1.0, 0.0], [0.0, 1.0]], "budgets": [0.5, 0.5]}
        rc = main(["solve", "--config", write_problem(tmp_path, doc), *flags])
        assert rc == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: {option} must be")

    def test_solver_flags_reach_the_solver(self, tmp_path, capsys, monkeypatch):
        seen = []
        real = cli.solve_allocation

        def recording(problem, opts=None):
            seen.append(opts)
            return real(problem, opts)

        monkeypatch.setattr(cli, "solve_allocation", recording)
        doc = {"cov": [[0.04, 0.001], [0.001, 0.0025]], "budgets": [0.4, 0.1]}
        rc = main(["solve", "--config", write_problem(tmp_path, doc),
                   "--tol", "1e-7", "--max-iters", "3"])
        assert seen == [SolverOptions(tol=1e-7, max_iters=3)]
        # three iterations do not reach 1e-7, and the solve says so in one
        # JSON document on stdout
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["status"] == "max_iters" and report["solver"]["iterations"] == 3
        assert set(report["solver"]) == {"iterations", "primal_residual", "dual_residual", "relative_gap"}

    def test_nan_lambda_exits_1_naming_the_field(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text('{"cov": [[1.0, 0.0], [0.0, 1.0]], "budgets": [0.5, 0.5], "lambda": NaN}')
        rc = main(["solve", "--config", str(path)])
        assert rc == 1
        assert "lambda must be a finite number" in capsys.readouterr().err


class TestBacktestCommand:
    def test_writes_outputs(self, tmp_path, capsys):
        prices = write_prices_csv(tmp_path)
        config = write_config(tmp_path)
        out_dir = str(tmp_path / "out")
        rc = main(["backtest", "--prices", prices, "--config", config,
                   "--out-dir", out_dir])
        assert rc == 0
        for name in ("ledger_CRB.csv", "ledger_MRB.csv", "summary.csv",
                     "summary.txt", "drawdowns.csv", "drawdowns.txt", "manifest.json"):
            assert os.path.exists(os.path.join(out_dir, name)), name
        manifest = json.loads(Path(out_dir, "manifest.json").read_text())
        assert manifest["strategies"] == ["CRB", "MRB"]
        assert len(manifest["inputs"]) == 2
        stdout = capsys.readouterr().out
        assert "total_return" in stdout and "DD.CRB" in stdout

    def test_a_ruined_strategy_stays_at_zero_and_every_table_is_written(self, tmp_path):
        # B crashes 99% on the first day of week 15, while MRBAL holds it at
        # leverage 1.5: that week's loss exceeds the whole value
        rng = np.random.default_rng(0)
        lines, price = ["date,ticker,close"], {"A": 100.0, "B": 100.0}
        for w in range(20):
            for d in range(5):
                day = date(2021, 1, 4) + timedelta(weeks=w, days=d)
                price["A"] *= 1 + 0.03 * rng.standard_normal()
                price["B"] *= (1 + 0.002 * rng.standard_normal()) * (0.01 if (w, d) == (14, 0) else 1)
                lines += [f"{day.isoformat()},{t},{price[t]:.6f}" for t in "AB"]
        prices = _write(tmp_path / "prices.csv", "\n".join(lines) + "\n")
        config = write_config(tmp_path, strategies=["CRB", "MRB", "MRBAL"], budgets=[0.05, 0.05],
                              **{"lambda": 0.0})
        out_dir = tmp_path / "out"
        assert main(["backtest", "--prices", prices, "--config", config, "--out-dir", str(out_dir)]) == 0
        for name in ("summary.csv", "summary.txt", "drawdowns.csv", "drawdowns.txt", "manifest.json"):
            assert (out_dir / name).exists(), name

        ledger = ledger_from_csv(str(out_dir / "ledger_MRBAL.csv"))
        ruin = int(np.flatnonzero(ledger.values == 0.0)[0])
        assert ledger.dates[ruin] == date(2021, 4, 16)
        assert ledger.leverage[ruin - 1] == 1.5 and ledger.values[ruin - 1] > 0
        # from the week of ruin on: no value, no position and no cost
        after = slice(ruin, None)
        assert np.all(ledger.values[after] == 0.0) and np.all(ledger.weights[after] == 0.0)
        assert np.all(ledger.costs[after] == 0.0) and np.all(ledger.leverage[after] == 0.0)
        # nothing to drift at a growth of 0 or below: no turnover either
        assert np.all(ledger.turnover[after] == 0.0)
        assert ledger.abstained[after].all()
        summary = dict(line.split(",", 1) for line in (out_dir / "summary.csv").read_text().splitlines())
        assert summary["total_return"].split(",")[-1] == "-1.0000"
        assert summary["max_drawdown"].split(",")[-1] == "1.0000"

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_outputs_take_the_mode_open_would_give(self, tmp_path, umask, mode):
        prices = write_prices_csv(tmp_path)
        config = write_config(tmp_path, strategies=["CRB"])
        out_dir = tmp_path / "out"
        old = os.umask(umask)
        try:
            assert main(["backtest", "--prices", prices, "--config", config,
                         "--out-dir", str(out_dir)]) == 0
        finally:
            os.umask(old)
        for name in ("ledger_CRB.csv", "summary.csv", "manifest.json"):
            assert (out_dir / name).stat().st_mode & 0o777 == mode, name

    def test_a_failed_write_leaves_no_temporary_file(self, tmp_path, capsys):
        # a directory where summary.csv goes: the rename fails and the
        # temporary file it would have replaced is removed
        prices = write_prices_csv(tmp_path)
        config = write_config(tmp_path, strategies=["CRB"])
        out_dir = tmp_path / "out"
        (out_dir / "summary.csv").mkdir(parents=True)
        assert main(["backtest", "--prices", prices, "--config", config,
                     "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(out_dir.glob(".tmp_*"))

    def test_crb_ledger_equal_weights(self, tmp_path):
        prices = write_prices_csv(tmp_path)
        config = write_config(tmp_path, strategies=["CRB"])
        out_dir = str(tmp_path / "out")
        assert main(["backtest", "--prices", prices, "--config", config,
                     "--out-dir", out_dir]) == 0
        rows = Path(out_dir, "ledger_CRB.csv").read_text().splitlines()
        header = rows[0].split(",")
        w_cols = [i for i, c in enumerate(header) if c.startswith("w_")]
        for row in rows[1:]:
            parts = row.split(",")
            for i in w_cols:
                assert float(parts[i]) == 0.5

    def test_strategy_flag_overrides_config(self, tmp_path):
        prices = write_prices_csv(tmp_path)
        config = write_config(tmp_path)
        out_dir = str(tmp_path / "out")
        rc = main(["backtest", "--prices", prices, "--config", config,
                   "--out-dir", out_dir, "--strategies", "CRB.SMART,MRBAL"])
        assert rc == 0
        assert os.path.exists(os.path.join(out_dir, "ledger_CRB_SMART.csv"))
        assert os.path.exists(os.path.join(out_dir, "ledger_MRBAL.csv"))
        assert not os.path.exists(os.path.join(out_dir, "ledger_CRB.csv"))

    def test_deterministic_outputs(self, tmp_path):
        prices = write_prices_csv(tmp_path)
        config = write_config(tmp_path)
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        main(["backtest", "--prices", prices, "--config", config, "--out-dir", out1])
        main(["backtest", "--prices", prices, "--config", config, "--out-dir", out2])
        for name in ("ledger_CRB.csv", "ledger_MRB.csv", "summary.csv", "drawdowns.csv"):
            a = Path(out1, name).read_bytes()
            b = Path(out2, name).read_bytes()
            assert a == b, name

    def test_empty_prices_exits_1(self, tmp_path, capsys):
        path = tmp_path / "prices.csv"
        path.write_text("")
        config = write_config(tmp_path)
        rc = main(["backtest", "--prices", str(path), "--config", config,
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("psd_eps", float("nan"), "psd_eps must be a finite number >= 0, got nan"),
        ("leverage_cap", float("nan"), "leverage_cap must be a finite number >= 1, got nan"),
        ("lambda", None, "lambda must be a finite number >= 0, got None"),
        ("mu", "0.001", "mu must be a finite number >= 0, got '0.001'"),
        ("lamda", 5.0, "config.lamda: unknown key"),
        ("budgets", {"A": 0.5}, "budgets: entries must be numbers"),
        ("budgets", ["0.4", "0.1"], "budgets: entries must be numbers"),
        ("budgets", [0, True], "budgets: entries must be numbers"),
        ("budgets", [0.3, 0.1, 0.1], "budgets has 3 entries, but the panel has 2 assets"),
        ("strategies", ["CRB", "MRB", "crb"], "strategy CRB is listed twice"),
        ("strategies", ["MRB", "MRB"], "strategy MRB is listed twice"),
        ("strategies", ["CRB.SMART", "crb_smart"], "strategy CRB_SMART is listed twice"),
        ("strategies", [], "config.strategies: expected a non-empty list"),
        # no key: the value is the whole document
        (None, [], "config: expected a JSON object"),
    ])
    def test_bad_setting_exits_1_before_any_week(self, tmp_path, capsys, monkeypatch, key, value,
                                                 message):
        def no_walk(*args):
            raise AssertionError("a week ran")

        monkeypatch.setattr(backtest, "_walk", no_walk)
        prices = write_prices_csv(tmp_path)
        out_dir = tmp_path / "out"
        config = (_write(tmp_path / "config.json", json.dumps(value)) if key is None
                  else write_config(tmp_path, **{key: value}))
        rc = main(["backtest", "--prices", prices, "--config", config, "--out-dir", str(out_dir)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags, options", [
        ([], DEFAULT_SOLVER_OPTIONS),
        (["--max-iters", "100"], SolverOptions(tol=1e-7, max_iters=100)),
        (["--tol", "1e-6"], SolverOptions(tol=1e-6, max_iters=200)),
    ])
    def test_absent_settings_take_config_defaults(self, tmp_path, monkeypatch, flags, options):
        # the engine's 1e-7 tolerance stays unless --tol replaces it
        configs = []
        monkeypatch.setattr(cli, "run", lambda panel, cfgs: configs.extend(cfgs) or run(panel, cfgs))
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"strategies": ["MRBAL"], "budgets": [0.4, 0.1]}))
        rc = main(["backtest", "--prices", write_prices_csv(tmp_path), "--config", str(path),
                   "--out-dir", str(tmp_path / "out"), *flags])
        assert rc == 0
        [cfg] = configs
        default = BacktestConfig(strategy="MRBAL", budgets=[0.4, 0.1])
        assert np.array_equal(cfg.budgets, default.budgets)
        for name in ("lam", "mu", "leverage_cap", "psd_eps"):
            assert getattr(cfg, name) == getattr(default, name), name
        assert cfg.solver_options == options

    def test_bad_strategy_name_exits_1(self, tmp_path, capsys):
        prices = write_prices_csv(tmp_path)
        config = write_config(tmp_path, strategies=["NOPE"])
        rc = main(["backtest", "--prices", prices, "--config", config,
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1


def _write(path, text):
    path.write_text(text)
    return str(path)


# a two-asset ledger with one well-formed row
LEDGER_HEAD = ("date,value,w_A,w_B,leverage,cost,turnover,abstained\n"
               "2021-01-08,1.0,0.5,0.5,1.0,0.0,0.0,False\n")

# each command line fails; the backtest ones before any week runs
FAILURES = {
    "missing prices": lambda tmp: ["backtest", "--prices", str(tmp / "missing.csv"),
                                   "--config", write_config(tmp)],
    "malformed config": lambda tmp: ["backtest", "--prices", write_prices_csv(tmp),
                                     "--config", _write(tmp / "config.json", '{"budgets": ')],
    "empty prices": lambda tmp: ["backtest", "--prices", _write(tmp / "prices.csv", ""),
                                 "--config", write_config(tmp)],
    "no shared week": lambda tmp: ["backtest", "--config", write_config(tmp), "--prices",
                                   _write(tmp / "prices.csv", "date,ticker,close\n"
                                          "2021-01-04,SPY,100\n2021-01-11,AGG,50\n")],
    "bad ledger header": lambda tmp: ["report", _write(tmp / "ledger_X.csv", "not,a,ledger\n1,2,3\n")],
    "short ledger row": lambda tmp: ["report", _write(tmp / "ledger_X.csv", LEDGER_HEAD
                                                      + "2021-01-15,1.0,0.5,1.0,0.0,0.0,False\n")],
    "bad abstained": lambda tmp: ["report", _write(tmp / "ledger_X.csv", LEDGER_HEAD
                                                   + "2021-01-15,1.0,0.5,0.5,1.0,0.0,0.0,yes\n")],
    "repeated ledger date": lambda tmp: ["report", _write(tmp / "ledger_X.csv", LEDGER_HEAD
                                                          + "2021-01-08,1.1,0.5,0.5,1.0,0.0,0.0,False\n")],
    "empty ledger": lambda tmp: ["report", _write(tmp / "ledger_X.csv", LEDGER_HEAD.splitlines()[0] + "\n")],
    "strategy twice": lambda tmp: ["backtest", "--prices", write_prices_csv(tmp), "--config",
                                   write_config(tmp), "--strategies", "CRB,crb"],
    "negative top": lambda tmp: ["backtest", "--prices", write_prices_csv(tmp), "--config",
                                 write_config(tmp), "--top", "-3"],
    "report strategy twice": lambda tmp: ["report", _write(tmp / "ledger_X.csv", LEDGER_HEAD),
                                          _write(tmp / "X.csv", LEDGER_HEAD)],
    "report negative top": lambda tmp: ["report", _write(tmp / "ledger_X.csv", LEDGER_HEAD),
                                        "--top", "-3"],
    "tol 0": lambda tmp: ["solve", "--config", write_problem(tmp, {"cov": [[1.0]], "budgets": [1.0]}),
                          "--tol", "0"],
    "string lambda": lambda tmp: ["solve", "--config", write_problem(
        tmp, {"cov": [[1.0]], "budgets": [1.0], "lambda": "1"})],
    "misspelled key": lambda tmp: ["solve", "--config", write_problem(
        tmp, {"cov": [[1.0]], "budgets": [1.0], "lamda": 5.0})],
}


@pytest.mark.parametrize("failure", list(FAILURES))
def test_every_error_is_one_line_from_main(tmp_path, capsys, failure):
    argv = FAILURES[failure](tmp_path)
    out_dir = tmp_path / "out"
    if argv[0] == "backtest":
        argv += ["--out-dir", str(out_dir)]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and "Traceback" not in line
    assert not out_dir.exists()


@pytest.mark.parametrize("failure, message", [
    ("strategy twice", "error: strategy CRB is listed twice"),
    ("negative top", "error: --top must be >= 0, got -3"),
    ("report strategy twice", "error: strategy X is listed twice"),
    ("report negative top", "error: --top must be >= 0, got -3"),
])
def test_repeats_and_negative_top_are_named(tmp_path, capsys, monkeypatch, failure, message):
    # a negative --top would act as a slice, and a repeated strategy would run
    # twice into one ledger; both stop before any week runs
    monkeypatch.setattr(backtest, "_walk", lambda *args: pytest.fail("a week ran"))
    argv = FAILURES[failure](tmp_path)
    if argv[0] == "backtest":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == message + "\n"


class TestGoldenLedgers:
    def test_fixture_backtest_reproduces_committed_goldens(self, tmp_path):
        out_dir = str(tmp_path / "out")
        rc = main(["backtest", "--prices", "tests/data/fixture_daily.csv",
                   "--config", "tests/data/fixture_config.json",
                   "--out-dir", out_dir])
        assert rc == 0
        names = [f"ledger_{s}.csv" for s in ("CRB", "CRB_SMART", "MRB", "MRBA", "MRBAL")]
        names += ["summary.csv", "drawdowns.csv", "summary.txt", "drawdowns.txt"]
        for name in names:
            produced = Path(out_dir, name).read_bytes()
            golden = Path("tests/data/golden", name).read_bytes()
            assert produced == golden, name


class TestReportCommand:
    def test_report_from_ledgers(self, tmp_path, capsys):
        prices = write_prices_csv(tmp_path)
        config = write_config(tmp_path, strategies=["CRB", "MRB", "MRBA"])
        out_dir = str(tmp_path / "out")
        main(["backtest", "--prices", prices, "--config", config, "--out-dir", out_dir])
        capsys.readouterr()
        ledgers = [os.path.join(out_dir, f"ledger_{s}.csv") for s in ("CRB", "MRB", "MRBA")]
        rc = main(["report", *ledgers, "--top", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "DD.CRB" in out and "DD.MRBA" in out
        assert len([ln for ln in out.splitlines() if ln.strip().startswith(("1", "2", "3"))]) >= 3

    def test_report_writes_csv_when_requested(self, tmp_path, capsys):
        prices = write_prices_csv(tmp_path)
        config = write_config(tmp_path, strategies=["CRB"])
        out_dir = str(tmp_path / "out")
        main(["backtest", "--prices", prices, "--config", config, "--out-dir", out_dir])
        rep_dir = str(tmp_path / "rep")
        rc = main(["report", os.path.join(out_dir, "ledger_CRB.csv"), "--out-dir", rep_dir])
        assert rc == 0
        assert os.path.exists(os.path.join(rep_dir, "drawdowns.csv"))
        assert os.path.exists(os.path.join(rep_dir, "summary.csv"))

    def test_malformed_ledger_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "ledger_X.csv"
        bad.write_text("not,a,ledger\n1,2,3\n")
        rc = main(["report", str(bad)])
        assert rc == 1

import io
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from riskbudget.backtest import ledger_from_csv
from riskbudget.data import (
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


def long_csv(rows):
    return io.StringIO("date,ticker,close\n" + "\n".join(rows) + "\n")


class TestLoadCsv:
    def test_two_row_file(self):
        out = load_csv(long_csv(["2020-01-02,SPY,100.5", "2020-01-03,SPY,101.0"]))
        assert list(out) == ["SPY"]
        assert len(out["SPY"].dates) == 2
        assert np.array_equal(out["SPY"].closes, [100.5, 101.0])

    def test_shuffled_dates_sorted(self):
        out = load_csv(long_csv(["2020-01-03,A,2", "2020-01-01,A,1", "2020-01-02,A,3"]))
        assert out["A"].dates == (date(2020, 1, 1), date(2020, 1, 2), date(2020, 1, 3))
        assert np.array_equal(out["A"].closes, [1.0, 3.0, 2.0])

    def test_duplicate_row_names_line(self):
        with pytest.raises(ParseError) as exc:
            load_csv(long_csv(["2020-01-02,A,1", "2020-01-02,A,2"]))
        assert exc.value.line == 3
        assert "duplicate" in str(exc.value)

    def test_non_positive_price_names_line(self):
        with pytest.raises(ParseError) as exc:
            load_csv(long_csv(["2020-01-02,A,1", "2020-01-03,A,-4"]))
        assert exc.value.line == 3

    def test_bad_date_names_line(self):
        with pytest.raises(ParseError) as exc:
            load_csv(long_csv(["02/01/2020,A,1"]))
        assert exc.value.line == 2

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            load_csv(io.StringIO("time,px\n2020-01-02,1\n"))

    def test_single_asset_format_with_ticker(self):
        out = load_csv(io.StringIO("date,close\n2020-01-02,5\n"), ticker="AGG")
        assert list(out) == ["AGG"]

    def test_single_asset_ticker_from_filename(self, tmp_path):
        f = tmp_path / "GLD.csv"
        f.write_text("date,close\n2020-01-02,171.5\n")
        out = load_csv(f)
        assert list(out) == ["GLD"]

    def test_single_asset_stream_without_name_rejected(self):
        with pytest.raises(ParseError, match="ticker"):
            load_csv(io.StringIO("date,close\n2020-01-02,5\n"))

    def test_empty_file(self):
        with pytest.raises(ParseError):
            load_csv(io.StringIO(""))

    def test_empty_ticker_names_line(self):
        with pytest.raises(ParseError, match="^line 3: empty ticker$"):
            load_csv(long_csv(["2020-01-02,A,1.0", "2020-01-02,,1.0"]))


def series(ticker, pairs):
    return PriceSeries(ticker=ticker,
                       dates=tuple(d for d, _ in pairs),
                       closes=np.array([p for _, p in pairs], dtype=float))


class TestToWeekly:
    def test_odd_count_median(self):
        s = series("A", [(date(2020, 1, 6), 1.0), (date(2020, 1, 7), 2.0),
                         (date(2020, 1, 8), 3.0)])
        panel = to_weekly({"A": s})
        assert panel.prices[0, 0] == 2.0
        # label is that ISO week's Friday
        assert panel.dates[0] == date(2020, 1, 10)

    def test_even_count_lower_median(self):
        s = series("A", [(date(2020, 1, 6), 1.0), (date(2020, 1, 7), 2.0),
                         (date(2020, 1, 8), 3.0), (date(2020, 1, 9), 4.0)])
        panel = to_weekly({"A": s})
        assert panel.prices[0, 0] == 2.0

    def test_median_permutation_invariant(self):
        days = [date(2020, 1, 6), date(2020, 1, 7), date(2020, 1, 8), date(2020, 1, 9)]
        vals = [4.0, 1.0, 3.0, 2.0]
        p1 = to_weekly({"A": series("A", list(zip(days, vals)))})
        p2 = to_weekly({"A": series("A", list(zip(days, sorted(vals))))})
        assert p1.prices[0, 0] == p2.prices[0, 0]

    def test_disjoint_ranges_raise(self):
        a = series("A", [(date(2020, 1, 6), 1.0)])
        b = series("B", [(date(2021, 1, 6), 1.0)])
        with pytest.raises(EmptyIntersection):
            to_weekly({"A": a, "B": b})

    def test_weeks_missing_for_one_asset_dropped_for_all(self):
        a = series("A", [(date(2020, 1, 6), 1.0), (date(2020, 1, 13), 2.0),
                         (date(2020, 1, 20), 3.0)])
        b = series("B", [(date(2020, 1, 7), 5.0), (date(2020, 1, 21), 6.0)])
        panel = to_weekly({"A": a, "B": b})
        assert panel.n_periods == 2
        assert panel.dates == (date(2020, 1, 10), date(2020, 1, 24))
        assert np.array_equal(panel.prices, [[1.0, 5.0], [3.0, 6.0]])

    def test_alignment_invariant(self):
        rng = np.random.default_rng(0)
        daily = {}
        base = date(2021, 3, 1)
        from datetime import timedelta
        for name in ("X", "Y", "Z"):
            pairs = [(base + timedelta(days=k), float(rng.uniform(10, 20)))
                     for k in range(30) if (base + timedelta(days=k)).weekday() < 5]
            daily[name] = series(name, pairs)
        panel = to_weekly(daily)
        assert panel.prices.shape == (panel.n_periods, 3)
        assert panel.tickers == ("X", "Y", "Z")


class TestReturns:
    def test_single_step(self):
        panel = WeeklyPanel(dates=(date(2020, 1, 10), date(2020, 1, 17)),
                            tickers=("A",), prices=np.array([[10.0], [11.0]]))
        assert np.allclose(returns(panel), [[0.10]])

    def test_constant_prices(self):
        panel = WeeklyPanel(dates=(date(2020, 1, 10), date(2020, 1, 17), date(2020, 1, 24)),
                            tickers=("A",), prices=np.full((3, 1), 7.0))
        assert np.array_equal(returns(panel), np.zeros((2, 1)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        prices = rng.uniform(50, 150, size=(6, 3))
        from datetime import timedelta
        dates = tuple(date(2020, 1, 10) + timedelta(weeks=k) for k in range(6))
        panel = WeeklyPanel(dates=dates, tickers=("A", "B", "C"), prices=prices)
        r = returns(panel)
        for t in range(1, 6):
            for j in range(3):
                assert r[t - 1, j] == pytest.approx(prices[t, j] / prices[t - 1, j] - 1, abs=1e-15)


class TestPanelCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        from datetime import timedelta
        dates = tuple(date(2020, 1, 10) + timedelta(weeks=k) for k in range(5))
        panel = WeeklyPanel(dates=dates, tickers=("SPY", "AGG"),
                            prices=rng.uniform(10, 400, size=(5, 2)))
        path = tmp_path / "panel.csv"
        panel_to_csv(panel, path)
        back = panel_from_csv(path)
        assert back.dates == panel.dates
        assert back.tickers == panel.tickers
        assert np.array_equal(back.prices, panel.prices)

    def test_infinite_price_rejected(self):
        panel = io.StringIO("date,SPY,AGG\n2020-01-10,300.5,110.25\n2020-01-17,inf,110.5\n")
        with pytest.raises(ParseError, match="^line 3: SPY must be a finite number, got 'inf'$"):
            panel_from_csv(panel)

    def test_matches_golden_file(self):
        golden = "tests/data/golden_panel.csv"
        panel = panel_from_csv(golden)
        assert panel.tickers == ("AGG", "SPY")
        assert panel.n_periods == 4
        buf = io.StringIO()
        panel_to_csv(panel, buf)
        assert buf.getvalue() == Path(golden).read_text()


# each reader's header and one valid row; a blank line follows it, so the
# malformed row under test is line 4
PRICES = (load_csv, "date,ticker,close", "2020-01-03,A,1.5")
PANEL = (panel_from_csv, "date,A,B", "2020-01-10,1.5,2.5")
LEDGER = (ledger_from_csv, "date,value,w_A,w_B,leverage,cost,turnover,abstained",
          "2021-01-08,1.0,0.5,0.5,1.0,0.0,0.0,False")


@pytest.mark.parametrize("reader, header, good, row, message", [
    pytest.param(*PRICES, "2020/01/06,A,1.5", "bad date '2020/01/06'", id="prices-date"),
    pytest.param(*PRICES, "2020-01-06,A,1.5.0", "close must be a finite number, got '1.5.0'",
                 id="prices-number"),
    pytest.param(*PRICES, "2020-01-06,A,inf", "close must be a finite number, got 'inf'",
                 id="prices-inf"),
    pytest.param(*PRICES, "2020-01-06,A,nan", "close must be a finite number, got 'nan'",
                 id="prices-nan"),
    pytest.param(*PRICES, "2020-01-06,A", "expected 3 columns, got 2", id="prices-short"),
    pytest.param(*PANEL, "2020-13-17,1.5,2.5", "bad date '2020-13-17'", id="panel-date"),
    pytest.param(*PANEL, "2020-01-17,1.5,x", "B must be a finite number, got 'x'", id="panel-number"),
    pytest.param(*PANEL, "2020-01-17,inf,2.5", "A must be a finite number, got 'inf'", id="panel-inf"),
    pytest.param(*PANEL, "2020-01-17,1.5,nan", "B must be a finite number, got 'nan'", id="panel-nan"),
    pytest.param(*PANEL, "2020-01-17,1.5", "expected 3 columns, got 2", id="panel-short"),
    pytest.param(*PANEL, "2020-01-17,1.5,-1", "non-positive price '-1' for B", id="panel-negative"),
    pytest.param(*PANEL, "2020-01-17,0,2.5", "non-positive price '0' for A", id="panel-zero"),
    pytest.param(*PANEL, "2020-01-03,1.5,2.5", "date 2020-01-03 is not later than 2020-01-10",
                 id="panel-order"),
    pytest.param(*LEDGER, "2021-1-15,1.0,0.5,0.5,1.0,0.0,0.0,False", "bad date '2021-1-15'",
                 id="ledger-date"),
    pytest.param(*LEDGER, "2021-01-15,1.0,0.5,0.5,one,0.0,0.0,False",
                 "leverage must be a finite number, got 'one'", id="ledger-number"),
    pytest.param(*LEDGER, "2021-01-15,1.0,0.5,0.5,1.0,-inf,0.0,False",
                 "cost must be a finite number, got '-inf'", id="ledger-inf"),
    pytest.param(*LEDGER, "2021-01-15,1.0,0.5,0.5,1.0,0.0,nan,False",
                 "turnover must be a finite number, got 'nan'", id="ledger-nan"),
    pytest.param(*LEDGER, "2021-01-15,1.0,0.5,0.5,1.0,0.0,0.0", "expected 8 columns, got 7",
                 id="ledger-short"),
])
def test_malformed_row_names_line_and_value(reader, header, good, row, message):
    with pytest.raises(ParseError) as exc:
        reader(io.StringIO(f"{header}\n{good}\n\n{row}\n"))
    assert exc.value.line == 4
    assert str(exc.value) == f"line 4: {message}"
    # a caller that caught the panel's ValueError still catches every row defect
    assert isinstance(exc.value, ValueError)


# a header must open with its fixed columns and name each ticker once,
# non-empty: the weekly panel and the ledger's w_ columns hold one column per
# asset
@pytest.mark.parametrize("reader, header, row, message", [
    pytest.param(panel_from_csv, "date,A,A", "2020-01-10,1.5,2.5",
                 "header cell 'A' repeats ticker 'A'", id="panel-repeat"),
    pytest.param(panel_from_csv, "date,,B", "2020-01-10,1.5,2.5",
                 "header cell '' names no ticker", id="panel-empty"),
    pytest.param(panel_from_csv, "day,A", "2020-01-10,1.5",
                 "unrecognized panel header 'day,A'", id="panel-no-date"),
    pytest.param(ledger_from_csv, "date,value,qqA,leverage,cost,turnover,abstained",
                 "2021-01-08,1.0,1.0,1.0,0.0,0.0,False",
                 "header cell 'qqA' names no ticker, expected w_<ticker>", id="ledger-prefix"),
    pytest.param(ledger_from_csv, "date,value,w_,leverage,cost,turnover,abstained",
                 "2021-01-08,1.0,1.0,1.0,0.0,0.0,False",
                 "header cell 'w_' names no ticker, expected w_<ticker>", id="ledger-empty"),
    pytest.param(ledger_from_csv, "date,value,w_A,w_A,leverage,cost,turnover,abstained",
                 "2021-01-08,1.0,0.5,0.5,1.0,0.0,0.0,False",
                 "header cell 'w_A' repeats ticker 'A'", id="ledger-repeat"),
])
def test_header_names_each_ticker_once(reader, header, row, message):
    with pytest.raises(ParseError) as exc:
        reader(io.StringIO(f"{header}\n{row}\n"))
    assert exc.value.line == 1
    assert str(exc.value) == f"line 1: {message}"


@pytest.mark.parametrize("read, error, message", [
    pytest.param(lambda: load_csv(io.StringIO("date,ticker,close\n")), ParseError,
                 "no data rows found", id="prices-header-only"),
    pytest.param(lambda: panel_from_csv(io.StringIO("date,A\n")), ParseError,
                 "no data rows found", id="panel-header-only"),
    pytest.param(lambda: to_weekly({}), EmptyIntersection, "no assets supplied", id="weekly-empty"),
])
def test_input_without_prices_is_rejected(read, error, message):
    with pytest.raises(error) as exc:
        read()
    assert str(exc.value) == message


class TestWeeklyPanelInvariants:
    def test_rejects_nonincreasing_dates(self):
        with pytest.raises(ValueError, match="increasing"):
            WeeklyPanel(dates=(date(2020, 1, 17), date(2020, 1, 10)),
                        tickers=("A",), prices=np.ones((2, 1)))

    def test_rejects_nonpositive_prices(self):
        with pytest.raises(ValueError, match="positive"):
            WeeklyPanel(dates=(date(2020, 1, 10),), tickers=("A",),
                        prices=np.array([[0.0]]))

    def test_rejects_infinite_prices(self):
        with pytest.raises(ValueError, match="finite"):
            WeeklyPanel(dates=(date(2020, 1, 10),), tickers=("A",),
                        prices=np.array([[np.inf]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            WeeklyPanel(dates=(date(2020, 1, 10),), tickers=("A", "B"),
                        prices=np.ones((1, 1)))

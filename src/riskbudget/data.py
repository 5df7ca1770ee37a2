"""Price data ingestion and weekly resampling.

Daily close prices come in as CSV (either a long file with header
``date,ticker,close`` or one file per ticker with header ``date,close``)
and leave as an aligned weekly panel: one price per ISO week per asset,
the week's lower median close, labeled by that week's Friday. Weeks
missing for any asset are dropped for all assets, so the panel has no
holes. Simple returns feed the covariance and momentum machinery.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from datetime import date
from statistics import median_low

import numpy as np

__all__ = [
    "ParseError",
    "EmptyIntersection",
    "PriceSeries",
    "WeeklyPanel",
    "load_csv",
    "to_weekly",
    "returns",
    "panel_to_csv",
    "panel_from_csv",
]


class ParseError(ValueError):
    """CSV defect; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class EmptyIntersection(Exception):
    """No ISO week is covered by every asset."""


@dataclass(frozen=True)
class PriceSeries:
    ticker: str
    dates: tuple[date, ...]
    closes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "closes", np.asarray(self.closes, dtype=float))


@dataclass(frozen=True)
class WeeklyPanel:
    """Aligned weekly median prices: ``prices[t, i]`` for week t, asset i."""

    dates: tuple[date, ...]
    tickers: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "prices", p)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "tickers", tuple(self.tickers))
        if p.shape != (len(self.dates), len(self.tickers)):
            raise ValueError(f"prices shape {p.shape} does not match "
                             f"{len(self.dates)} weeks x {len(self.tickers)} assets")
        if any(b >= a for a, b in zip(self.dates[1:], self.dates)):
            raise ValueError("dates must be strictly increasing")
        if not np.all(np.isfinite(p) & (p > 0)):
            raise ValueError("all prices must be finite and positive")

    @property
    def n_periods(self) -> int:
        return len(self.dates)

    @property
    def n_assets(self) -> int:
        return len(self.tickers)


@contextlib.contextmanager
def _opened(target, mode: str = "r"):
    """``target`` itself when it is a file object, else the file at that
    path, opened in text ``mode`` and closed on exit."""
    if hasattr(target, "write" if "w" in mode else "read"):
        yield target
    else:
        with open(target, mode, newline="") as fh:
            yield fh


def _read_rows(fh, columns: list[str], numeric: slice):
    """Yield ``(line, cells, day, numbers)`` for each non-blank row left in
    ``fh`` (the header already read, so rows start at line 2): the stripped
    cells, the first cell as an ISO date, and the cells at ``numeric`` as
    floats. A row whose width is not ``len(columns)``, a bad date, or a
    number that does not parse or is not finite raises :class:`ParseError`
    with its line, naming the value (and, for a number, its column)."""
    names = columns[numeric]
    for line, raw in enumerate(fh, start=2):
        if not raw.strip():
            continue
        cells = [c.strip() for c in raw.split(",")]
        if len(cells) != len(columns):
            raise ParseError(f"expected {len(columns)} columns, got {len(cells)}", line=line)
        try:
            day = date.fromisoformat(cells[0])
        except ValueError:
            raise ParseError(f"bad date {cells[0]!r}", line=line) from None
        numbers = []
        for name, cell in zip(names, cells[numeric]):
            try:
                x = float(cell)
            except ValueError:
                x = math.nan
            if not math.isfinite(x):
                raise ParseError(f"{name} must be a finite number, got {cell!r}", line=line)
            numbers.append(x)
        yield line, cells, day, numbers


def _header_tickers(cells: list[str], prefix: str = "") -> tuple[str, ...]:
    """The tickers that the header ``cells`` name, each after ``prefix``.
    A cell without the prefix, or whose name is empty or repeats an earlier
    one, raises :class:`ParseError` on line 1 naming the cell."""
    tickers = []
    for cell in cells:
        name = cell[len(prefix) :]
        if not cell.startswith(prefix) or not name:
            raise ParseError(f"header cell {cell!r} names no ticker"
                             + (f", expected {prefix}<ticker>" if prefix else ""), line=1)
        if name in tickers:
            raise ParseError(f"header cell {cell!r} repeats ticker {name!r}", line=1)
        tickers.append(name)
    return tuple(tickers)


def load_csv(source, ticker: str | None = None) -> dict[str, PriceSeries]:
    """Parse daily close prices from CSV.

    Accepts the long format (header ``date,ticker,close``) or the
    single-asset format (header ``date,close``); for the latter the asset
    name comes from ``ticker`` or, for file paths, the file stem. Dates
    are ISO-8601. Rows are sorted by date per ticker; an empty ticker,
    duplicate (date, ticker) pairs and non-positive prices are rejected
    with the offending line number.
    """
    with _opened(source) as fh:
        header = fh.readline()
        if not header.strip():
            raise ParseError("empty input, expected a header row", line=1)
        cols = [c.strip().lower() for c in header.strip().split(",")]
        if cols == ["date", "ticker", "close"]:
            long_format = True
        elif cols == ["date", "close"]:
            long_format = False
            if not ticker and fh is not source:
                ticker = os.path.splitext(os.path.basename(str(source)))[0]
            if not ticker:
                raise ParseError("single-asset format needs a ticker name "
                                 "(pass ticker= or load from a named file)", line=1)
        else:
            raise ParseError(f"unrecognized header {header.strip()!r}, expected "
                             "'date,ticker,close' or 'date,close'", line=1)

        rows: dict[str, list[tuple[date, float]]] = {}
        seen: set[tuple[str, date]] = set()
        for line, cells, day, (close,) in _read_rows(fh, cols, slice(-1, None)):
            name = cells[1] if long_format else ticker
            if not name:
                raise ParseError("empty ticker", line=line)
            if close <= 0:
                raise ParseError(f"non-positive price {cells[-1]!r} for {name}", line=line)
            if (name, day) in seen:
                raise ParseError(f"duplicate row for {name} on {day.isoformat()}", line=line)
            seen.add((name, day))
            rows.setdefault(name, []).append((day, close))

    if not rows:
        raise ParseError("no data rows found")
    out = {}
    for name, pairs in rows.items():
        pairs.sort(key=lambda dp: dp[0])
        out[name] = PriceSeries(ticker=name,
                                dates=tuple(d for d, _ in pairs),
                                closes=np.array([p for _, p in pairs]))
    return out


def to_weekly(daily: dict[str, PriceSeries]) -> WeeklyPanel:
    """Resample daily closes to one lower-median price per ISO week.

    The panel is restricted to ISO weeks covered by every asset; the week
    label is that ISO week's Friday. Raises :class:`EmptyIntersection`
    when no common week exists.
    """
    if not daily:
        raise EmptyIntersection("no assets supplied")
    per_asset: dict[str, dict[tuple[int, int], float]] = {}
    for name, series in daily.items():
        buckets: dict[tuple[int, int], list[float]] = {}
        for day, close in zip(series.dates, series.closes):
            iso = day.isocalendar()
            buckets.setdefault((iso[0], iso[1]), []).append(float(close))
        per_asset[name] = {week: median_low(vals) for week, vals in buckets.items()}

    tickers = sorted(per_asset)
    common = set.intersection(*(set(w) for w in per_asset.values()))
    if not common:
        raise EmptyIntersection("assets share no ISO week")
    weeks = sorted(common)
    labels = tuple(date.fromisocalendar(y, w, 5) for y, w in weeks)
    prices = np.array([[per_asset[t][wk] for t in tickers] for wk in weeks])
    return WeeklyPanel(dates=labels, tickers=tuple(tickers), prices=prices)


def returns(panel: WeeklyPanel) -> np.ndarray:
    """Simple week-over-week returns, shape ``(n_periods - 1, n_assets)``."""
    p = panel.prices
    return p[1:] / p[:-1] - 1.0


def panel_to_csv(panel: WeeklyPanel, destination) -> None:
    """Write the wide format ``date,T1,...,TN``; floats keep full precision."""
    with _opened(destination, "w") as fh:
        fh.write("date," + ",".join(panel.tickers) + "\n")
        for day, row in zip(panel.dates, panel.prices):
            fh.write(day.isoformat() + "," + ",".join(repr(float(v)) for v in row) + "\n")


def panel_from_csv(source) -> WeeklyPanel:
    """Read the wide format written by :func:`panel_to_csv` (bit-exact).

    Besides the row checks of the other readers, a header that does not
    name each ticker once, a price that is not positive or a date not later
    than the row before it raises :class:`ParseError` with its line."""
    with _opened(source) as fh:
        header = fh.readline().strip()
        cols = [c.strip() for c in header.split(",")]
        if len(cols) < 2 or cols[0].lower() != "date":
            raise ParseError(f"unrecognized panel header {header!r}", line=1)
        tickers = _header_tickers(cols[1:])
        dates, rows = [], []
        for line, cells, day, prices in _read_rows(fh, cols, slice(1, None)):
            for ticker, cell, price in zip(tickers, cells[1:], prices):
                if price <= 0:
                    raise ParseError(f"non-positive price {cell!r} for {ticker}", line=line)
            if dates and day <= dates[-1]:
                raise ParseError(f"date {day} is not later than {dates[-1]}", line=line)
            dates.append(day)
            rows.append(prices)
    if not rows:
        raise ParseError("no data rows found")
    return WeeklyPanel(dates=tuple(dates), tickers=tickers, prices=np.array(rows))

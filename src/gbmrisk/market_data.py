"""Historical price ingestion: wide-CSV loading and log-returns.

The canonical input format is a wide CSV: UTF-8, comma-separated, first
header cell ``date``, remaining header cells are tickers, each data row an
ISO-8601 date followed by decimal prices. Dates are treated as opaque
sortable strings; no calendar arithmetic happens anywhere in the package.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "PriceDataError",
    "PriceSeries",
    "ReturnMatrix",
    "load_prices",
    "save_prices",
    "log_returns",
]


class PriceDataError(ValueError):
    """Raised when price data violates the input contract."""


@dataclass(frozen=True)
class PriceSeries:
    """Aligned per-asset daily close prices indexed by date.

    ``prices`` has shape (n_dates, n_assets); the last row holds the most
    recent prices (the simulation's starting point). All prices must be
    strictly positive and dates strictly increasing.
    """

    tickers: tuple[str, ...]
    dates: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "dates", tuple(self.dates))
        prices = np.asarray(self.prices, dtype=np.float64)
        if prices.ndim != 2:
            raise PriceDataError("prices must be a 2-D matrix")
        object.__setattr__(self, "prices", prices)
        if len(self.dates) == 0 or len(self.tickers) == 0:
            raise PriceDataError("empty price series")
        if prices.shape != (len(self.dates), len(self.tickers)):
            raise PriceDataError(
                f"prices shape {prices.shape} does not match "
                f"{len(self.dates)} dates x {len(self.tickers)} tickers"
            )
        if len(set(self.tickers)) != len(self.tickers):
            raise PriceDataError("duplicate ticker")
        if not np.all(np.isfinite(prices)):
            raise PriceDataError("non-finite price")
        if np.any(prices <= 0.0):
            raise PriceDataError("non-positive price")
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise PriceDataError(f"dates not strictly increasing at {b!r}")

    @property
    def n_assets(self) -> int:
        return len(self.tickers)

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    def select(self, tickers: Sequence[str]) -> "PriceSeries":
        """Return the sub-series holding ``tickers`` in the given order."""
        idx = []
        for t in tickers:
            if t not in self.tickers:
                raise PriceDataError(f"unknown ticker {t!r}")
            idx.append(self.tickers.index(t))
        return PriceSeries(tuple(tickers), self.dates, self.prices[:, idx])


@dataclass(frozen=True)
class ReturnMatrix:
    """Daily log-returns; row t is ln(prices[t+1] / prices[t])."""

    tickers: tuple[str, ...]
    returns: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tickers", tuple(self.tickers))
        returns = np.asarray(self.returns, dtype=np.float64)
        if returns.ndim != 2 or returns.shape[1] != len(self.tickers):
            raise PriceDataError("returns must be (n_rows, n_assets)")
        if not np.all(np.isfinite(returns)):
            raise PriceDataError("non-finite return")
        object.__setattr__(self, "returns", returns)

    @property
    def n_assets(self) -> int:
        return len(self.tickers)


def load_prices(path: str | Path) -> PriceSeries:
    """Parse a wide CSV into a validated PriceSeries, rows sorted by date."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PriceDataError(f"{path}: empty file") from None
        if not header or header[0] != "date":
            raise PriceDataError(f"{path}: first header cell must be 'date'")
        tickers = tuple(header[1:])
        if not tickers:
            raise PriceDataError(f"{path}: no ticker columns")
        rows: dict[str, list[float]] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(tickers) + 1:
                raise PriceDataError(f"{path}:{lineno}: ragged row")
            date = row[0]
            if date in rows:
                raise PriceDataError(f"{path}:{lineno}: duplicate date {date!r}")
            try:
                values = [float(cell) for cell in row[1:]]
            except ValueError:
                raise PriceDataError(
                    f"{path}:{lineno}: non-numeric price"
                ) from None
            rows[date] = values
    if not rows:
        raise PriceDataError(f"{path}: no data rows")
    dates = tuple(sorted(rows))
    prices = np.array([rows[d] for d in dates], dtype=np.float64)
    return PriceSeries(tickers, dates, prices)


def save_prices(series: PriceSeries, path: str | Path) -> None:
    """Write the canonical wide CSV; floats round-trip exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *series.tickers])
        for i, date in enumerate(series.dates):
            writer.writerow([date, *(repr(float(p)) for p in series.prices[i])])


def log_returns(series: PriceSeries) -> ReturnMatrix:
    """Daily log-returns: entry [t][i] = ln(prices[t+1][i] / prices[t][i])."""
    if series.n_dates < 2:
        raise PriceDataError("need at least 2 price rows for returns")
    rets = np.log(series.prices[1:] / series.prices[:-1])
    return ReturnMatrix(series.tickers, rets)

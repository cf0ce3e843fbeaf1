#!/usr/bin/env python3
"""Seeded synthetic price universes for the wide_universe benchmark workload.

Each universe is one year of daily closes (253 price rows) for N tickers,
drawn from a market-plus-sector factor model:

  sectors      ceil(N / 20); each ticker belongs to one, drawn at random
  correlation  market loading U(0.3, 0.8), sector loading U(0.1, 0.5), the
               rest idiosyncratic, so every ticker's daily shock has unit
               variance before it is scaled by its volatility
  volatility   annualized U(0.05, 1.0): from bond-like to crypto-like, a
               range that spans both bundled fixtures in data/
  drift        annualized U(0.0, 0.25)
  start price  U(5, 500)

Daily log-increments are (mu - sigma^2/2)/252 + sigma/sqrt(252) * shock,
the same lognormal model scripts/make_fixtures.py uses for the fixtures.

A universe is named by (seed, index): numpy's default_rng is seeded with
the pair, so one seed names a family of universes and the index picks one.
Files are written with gbmrisk.market_data.save_prices, whose float repr
round-trips exactly, so a (seed, index, assets) triple gives the same bytes
on every run and machine with the same numpy.

Usage: PYTHONPATH=src python3 perfbench/universe.py --seed 7 --index 1
       --assets 10 --out u.csv
"""

from __future__ import annotations

import argparse
import datetime as dt
from pathlib import Path

import numpy as np

from gbmrisk.market_data import PriceSeries, save_prices

TRADING_DAYS = 252
START_DATE = dt.date(2024, 1, 2)
TICKERS_PER_SECTOR = 20


def trading_dates(start: dt.date, count: int) -> tuple[str, ...]:
    """ISO dates skipping weekends, `count` of them from `start`."""
    dates = []
    day = start
    while len(dates) < count:
        if day.weekday() < 5:
            dates.append(day.isoformat())
        day += dt.timedelta(days=1)
    return tuple(dates)


def generate_universe(seed: int, index: int, n_assets: int) -> PriceSeries:
    """Sample one year of daily prices for universe (seed, index)."""
    rng = np.random.default_rng([seed, index])
    n_sectors = -(-n_assets // TICKERS_PER_SECTOR)
    sector = rng.integers(0, n_sectors, n_assets)
    loadings = np.zeros((n_assets, 1 + n_sectors))
    loadings[:, 0] = rng.uniform(0.3, 0.8, n_assets)
    loadings[np.arange(n_assets), 1 + sector] = rng.uniform(0.1, 0.5, n_assets)
    idio = np.sqrt(1.0 - (loadings**2).sum(axis=1))
    sigma = rng.uniform(0.05, 1.0, n_assets)
    mu = rng.uniform(0.0, 0.25, n_assets)
    s0 = rng.uniform(5.0, 500.0, n_assets)

    factors = rng.standard_normal((TRADING_DAYS, 1 + n_sectors))
    idio_draws = rng.standard_normal((TRADING_DAYS, n_assets))
    shocks = factors @ loadings.T + idio_draws * idio
    log_increments = (mu - sigma**2 / 2.0) / TRADING_DAYS + shocks * (
        sigma / np.sqrt(TRADING_DAYS)
    )
    log_prices = np.log(s0) + np.vstack(
        [np.zeros(n_assets), np.cumsum(log_increments, axis=0)]
    )
    prices = np.exp(log_prices)
    prices[0] = s0  # exact round-trip of the drawn start prices
    return PriceSeries(
        tickers=tuple(f"U{index:02d}A{i:03d}" for i in range(n_assets)),
        dates=trading_dates(START_DATE, TRADING_DAYS + 1),
        prices=prices,
    )


def write_universe(seed: int, index: int, n_assets: int, path: Path) -> Path:
    """Generate universe (seed, index) and save it as a wide CSV at `path`."""
    path.parent.mkdir(parents=True, exist_ok=True)
    save_prices(generate_universe(seed, index, n_assets), path)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--assets", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    path = write_universe(args.seed, args.index, args.assets, Path(args.out))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Annualized drift/volatility/covariance estimation from daily log-returns.

Conventions, fixed so results are deterministic and testable:

* MLE denominators: sample mean and covariance both divide by n (not n-1).
* Annualization multiplies the daily mean and covariance by the trading-day
  count (default 252).
* Drift is reconstructed so the simulated log-return mean (mu - sigma^2/2)*dt
  matches the historical daily mean exactly:
  mu_i = daily_mean_i * trading_days + cov_ii / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market_data import ReturnMatrix

__all__ = ["EstimationError", "MarketParams", "estimate_params"]

DEFAULT_TRADING_DAYS = 252


class EstimationError(ValueError):
    """Raised on invalid estimation inputs or broken parameter invariants."""


@dataclass(frozen=True)
class MarketParams:
    """Annualized GBM parameter set for N assets.

    ``mu`` is annualized drift (per year), ``sigma`` annualized volatility
    (per sqrt-year), ``cov`` the annualized covariance of log-returns.
    """

    tickers: tuple[str, ...]
    mu: np.ndarray
    sigma: np.ndarray
    cov: np.ndarray
    trading_days: int

    def __post_init__(self):
        object.__setattr__(self, "tickers", tuple(self.tickers))
        mu = np.asarray(self.mu, dtype=np.float64)
        sigma = np.asarray(self.sigma, dtype=np.float64)
        cov = np.asarray(self.cov, dtype=np.float64)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "cov", cov)
        n = len(self.tickers)
        if mu.shape != (n,) or sigma.shape != (n,) or cov.shape != (n, n):
            raise EstimationError("parameter dimensions do not agree")
        for arr in (mu, sigma, cov):
            if not np.all(np.isfinite(arr)):
                raise EstimationError("non-finite parameter")
        if np.any(sigma < 0.0):
            raise EstimationError("negative volatility")
        if np.max(np.abs(cov - cov.T), initial=0.0) > 1e-12:
            raise EstimationError("covariance not symmetric")
        if np.max(np.abs(np.diag(cov) - sigma**2), initial=0.0) > 1e-12:
            raise EstimationError("covariance diagonal inconsistent with sigma")
        if self.trading_days < 1:
            raise EstimationError("trading_days must be >= 1")

    @property
    def n_assets(self) -> int:
        return len(self.tickers)


def estimate_params(
    returns: ReturnMatrix, trading_days: int = DEFAULT_TRADING_DAYS
) -> MarketParams:
    """MLE parameter estimation from daily log-returns, then annualization."""
    if trading_days < 1:
        raise EstimationError("trading_days must be >= 1")
    r = returns.returns
    n = r.shape[0]
    if n < 2:
        raise EstimationError("need at least 2 return rows")
    if not np.all(np.isfinite(r)):
        raise EstimationError("non-finite return entry")
    daily_mean = r.mean(axis=0)
    centered = r - daily_mean
    daily_cov = centered.T @ centered / n
    daily_cov = (daily_cov + daily_cov.T) / 2.0  # exact symmetry
    cov = daily_cov * trading_days
    sigma = np.sqrt(np.diag(cov))
    mu = daily_mean * trading_days + np.diag(cov) / 2.0
    return MarketParams(returns.tickers, mu, sigma, cov, trading_days)

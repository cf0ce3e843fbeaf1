"""Risk metrics over simulated terminal portfolio values.

Value-at-risk is reported as a value level: the alpha-quantile of terminal
portfolio value. The dollar loss relative to the starting value is the
separate potential_loss field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .simulation import SimulationResult

__all__ = [
    "RiskError",
    "RiskReport",
    "BacktestResult",
    "quantile",
    "chance_of_loss",
    "analytic_var_single_asset",
    "rolling_var_backtest",
    "build_report",
]

DEFAULT_PERCENTILES = (0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99)
DEFAULT_BACKTEST_WINDOW = 252


class RiskError(ValueError):
    """Raised on invalid risk-metric inputs."""


@dataclass(frozen=True)
class RiskReport:
    """Risk summary for one simulated portfolio."""

    var_level: float
    var_value: float
    potential_loss: float
    chance_of_loss: float
    percentiles: dict[float, float]
    initial_value: float
    n_paths: int
    seed: int


@dataclass(frozen=True)
class BacktestResult:
    """Rolling-origin VaR backtest outcome.

    thresholds[k] is the VaR value level forecast for test period k and
    violations[k] whether the realized value fell strictly below it.
    """

    alpha: float
    window: int
    n_tests: int
    n_violations: int
    violation_rate: float
    thresholds: np.ndarray = field(repr=False)
    violations: np.ndarray = field(repr=False)


def quantile(values: np.ndarray, alpha: float) -> float:
    """Linear-interpolation quantile: sort ascending, index h = alpha*(n-1)."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise RiskError("quantile of empty sample")
    if not np.all(np.isfinite(values)):
        raise RiskError("non-finite sample value")
    if not 0.0 <= alpha <= 1.0:
        raise RiskError(f"quantile level {alpha!r} outside [0, 1]")
    s = np.sort(values)
    h = alpha * (s.size - 1)
    lo = math.floor(h)
    hi = math.ceil(h)
    return float(s[lo] + (h - lo) * (s[hi] - s[lo]))


def chance_of_loss(values: np.ndarray, initial_value: float) -> float:
    """Fraction of outcomes strictly below the starting value."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise RiskError("chance of loss of empty sample")
    return float(np.count_nonzero(values < initial_value)) / values.size


def analytic_var_single_asset(
    s0: float, mu: float, sigma: float, horizon_years: float, alpha: float
) -> float:
    """Exact alpha-quantile of terminal price for one GBM asset.

    S_T is lognormal, so the quantile is
    s0 * exp((mu - sigma^2/2) * T + sigma * sqrt(T) * z_alpha).
    Degenerate cases: zero diffusion gives the deterministic s0*exp(mu*T);
    alpha <= 0 gives 0.0 and alpha >= 1 gives inf (lognormal support edges).
    """
    if s0 <= 0.0:
        raise RiskError("s0 must be > 0")
    if sigma < 0.0:
        raise RiskError("sigma must be >= 0")
    if horizon_years < 0.0:
        raise RiskError("horizon_years must be >= 0")
    if alpha <= 0.0:
        return 0.0
    if alpha >= 1.0:
        return math.inf
    scale = sigma * math.sqrt(horizon_years)
    if scale == 0.0:
        return s0 * math.exp(mu * horizon_years)
    z = NormalDist().inv_cdf(alpha)
    return s0 * math.exp((mu - sigma**2 / 2.0) * horizon_years + scale * z)


def rolling_var_backtest(
    values: np.ndarray,
    alpha: float = 0.05,
    window: int = DEFAULT_BACKTEST_WINDOW,
) -> BacktestResult:
    """Walk-forward one-step VaR test on a portfolio value series.

    At each test time t the trailing ``window`` log-returns give normal
    parameter estimates (same n-denominator convention as the market
    estimator); the forecast value floor is v_{t-1} * exp(m + s*z_alpha)
    and a violation is a realized v_t strictly below it. Only data before
    t enters the forecast.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if window < 2:
        raise RiskError("window must be >= 2")
    if not 0.0 < alpha < 1.0:
        raise RiskError(f"alpha {alpha!r} outside (0, 1)")
    if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
        raise RiskError("values must be positive and finite")
    returns = np.log(values[1:] / values[:-1])
    n_tests = returns.size - window
    if n_tests < 1:
        raise RiskError(
            f"need more than window + 1 = {window + 1} values, got {values.size}"
        )
    z = NormalDist().inv_cdf(alpha)
    thresholds = np.empty(n_tests)
    for k in range(n_tests):
        trailing = returns[k : k + window]
        m = float(trailing.mean())
        s = float(trailing.std())  # population denominator
        thresholds[k] = values[window + k] * math.exp(m + s * z)
    realized = values[window + 1 :]
    violations = realized < thresholds
    n_violations = int(np.count_nonzero(violations))
    return BacktestResult(
        alpha=alpha,
        window=window,
        n_tests=n_tests,
        n_violations=n_violations,
        violation_rate=n_violations / n_tests,
        thresholds=thresholds,
        violations=violations,
    )


def build_report(result: SimulationResult, alpha: float = 0.05) -> RiskReport:
    """Assemble the standard risk summary from a simulation result."""
    if not 0.0 < alpha < 1.0:
        raise RiskError(f"alpha {alpha!r} outside (0, 1)")
    values = result.terminal_portfolio_values
    initial_value = result.config_echo.initial_value
    levels = sorted(set(DEFAULT_PERCENTILES) | {alpha})
    var_value = quantile(values, alpha)
    return RiskReport(
        var_level=alpha,
        var_value=var_value,
        potential_loss=initial_value - var_value,
        chance_of_loss=chance_of_loss(values, initial_value),
        percentiles={level: quantile(values, level) for level in levels},
        initial_value=initial_value,
        n_paths=values.size,
        seed=result.config_echo.seed,
    )

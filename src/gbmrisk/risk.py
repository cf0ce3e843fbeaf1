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
from numpy.lib.stride_tricks import sliding_window_view

from .rules import check, shown
from .simulation import SimulationResult

__all__ = [
    "RiskError",
    "RiskReport",
    "BacktestResult",
    "quantile",
    "chance_of_loss",
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


@dataclass(frozen=True)
class BacktestResult:
    """Rolling-origin VaR backtest outcome.

    thresholds[k] is the VaR value level forecast for test period k and
    violations[k] whether the realized value fell strictly below it;
    means[k] and stds[k] are the mean and population std of the trailing
    window's log-returns that forecast it.
    """

    alpha: float
    window: int
    n_tests: int
    n_violations: int
    violation_rate: float
    thresholds: np.ndarray = field(repr=False)
    violations: np.ndarray = field(repr=False)
    means: np.ndarray = field(repr=False)
    stds: np.ndarray = field(repr=False)


def quantile(values: np.ndarray, alpha: float) -> float:
    """Linear-interpolation quantile: sort ascending, index h = alpha*(n-1)."""
    return _interpolate(_sorted_sample(values), alpha)


def _sorted_sample(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise RiskError("quantile of empty sample")
    if not np.all(np.isfinite(values)):
        raise RiskError("non-finite sample value")
    return np.sort(values)


def _interpolate(s: np.ndarray, alpha: float) -> float:
    # the alpha-quantile of an ascending sample, as quantile defines it
    if not 0.0 <= alpha <= 1.0:
        raise RiskError(f"quantile level {alpha!r} outside [0, 1]")
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
    check("window", window, RiskError)
    check("alpha", alpha, RiskError)
    if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
        raise RiskError("values must be positive and finite")
    returns = np.log(values[1:] / values[:-1])
    n_tests = returns.size - window
    if n_tests < 1:
        raise RiskError(
            f"need more than window + 1 = {shown(window + 1)} values, "
            f"got {values.size}"
        )
    z = NormalDist().inv_cdf(alpha)
    # every window at once, with the sums numpy takes over each one alone
    trailing = sliding_window_view(returns, window)[:n_tests]
    m = trailing.mean(axis=1)
    s = trailing.std(axis=1)  # population denominator
    # math.exp, not np.exp, whose bits differ on most of these
    thresholds = values[window:-1] * np.array(
        [math.exp(x) for x in (m + s * z).tolist()])
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
        means=m,
        stds=s,
    )


def build_report(result: SimulationResult, alpha: float = 0.05) -> RiskReport:
    """Assemble the standard risk summary from a simulation result."""
    check("alpha", alpha, RiskError)
    values = result.terminal_portfolio_values
    initial_value = result.config_echo.initial_value
    levels = sorted(set(DEFAULT_PERCENTILES) | {alpha})
    ordered = _sorted_sample(values)  # one sort serves every level
    var_value = _interpolate(ordered, alpha)
    return RiskReport(
        var_level=alpha,
        var_value=var_value,
        potential_loss=initial_value - var_value,
        chance_of_loss=chance_of_loss(values, initial_value),
        percentiles={level: _interpolate(ordered, level) for level in levels},
    )

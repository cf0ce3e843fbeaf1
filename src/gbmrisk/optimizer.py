"""Simplex-constrained portfolio optimization.

Solves the minimum-variance and maximum-Sharpe portfolios over the long-only
full-investment simplex {w : w_i >= 0, sum w_i = 1}. Both run in volatility
units x = sigma * w, where the quadratic is the correlation matrix, as one
convex problem min x'Corr x over {x >= 0, e.x = 1}: e = 1/sigma for the
minimum variance, the assets' Sharpe ratios for max-Sharpe (Cornuejols &
Tutuncu, Optimization Methods in Finance, ch. 8). The one solver is a
primal active-set method that ends, in finitely many steps, at the exact KKT
point: each step is one bordered linear solve on the current support, with
no step size or stopping tolerance to tune. Correctness is anchored by an
exhaustive lattice oracle, closed forms and the KKT conditions in the tests,
not by the solver choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import MarketParams

__all__ = [
    "OptimizerError",
    "WeightVector",
    "PortfolioStats",
    "OptimizerOutput",
    "portfolio_stats",
    "min_variance",
    "max_sharpe",
]

WEIGHT_CLAMP = 1e-12


class OptimizerError(ValueError):
    """Raised on invalid optimizer inputs or non-convergence."""


@dataclass(frozen=True)
class WeightVector:
    """Portfolio weights on the simplex (nonnegative, sum 1).

    Weights with |w_i| < 1e-12 are reported as exactly 0.0.
    """

    tickers: tuple[str, ...]
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tickers", tuple(self.tickers))
        w = np.array(self.w, dtype=np.float64)
        if w.shape != (len(self.tickers),):
            raise OptimizerError("weights shape does not match tickers")
        if not np.all(np.isfinite(w)):
            raise OptimizerError("non-finite weight")
        if np.any(w < -WEIGHT_CLAMP):
            raise OptimizerError(f"negative weight {float(w.min())!r}")
        w[np.abs(w) < WEIGHT_CLAMP] = 0.0
        if abs(w.sum() - 1.0) > 1e-9:
            raise OptimizerError(f"weights sum to {float(w.sum())!r}, not 1")
        object.__setattr__(self, "w", w)

    def as_dict(self) -> dict[str, float]:
        return {t: float(x) for t, x in zip(self.tickers, self.w)}


@dataclass(frozen=True)
class PortfolioStats:
    """Annualized portfolio statistics; sharpe is NaN when volatility is 0."""

    expected_return: float
    variance: float
    volatility: float
    sharpe: float


@dataclass(frozen=True)
class OptimizerOutput:
    weights: WeightVector
    stats: PortfolioStats
    warning: str | None = None


def _check_dims(w: WeightVector, params: MarketParams) -> None:
    if w.tickers != params.tickers:
        raise OptimizerError(
            f"weight tickers {w.tickers} do not match params {params.tickers}"
        )


def portfolio_stats(
    w: WeightVector, params: MarketParams, risk_free: float = 0.0
) -> PortfolioStats:
    """Expected return w.mu, variance w'Cov w, volatility, Sharpe ratio."""
    _check_dims(w, params)
    ret = float(w.w @ params.mu)
    var = max(float(w.w @ params.cov @ w.w), 0.0)
    vol = math.sqrt(var)
    sharpe = (ret - risk_free) / vol if vol > 0.0 else math.nan
    return PortfolioStats(ret, var, vol, sharpe)


def _vol_units(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-asset volatility (1 where it is 0) and Cov / outer(scale, scale)."""
    vols = np.sqrt(np.diag(cov))
    scale = np.where(vols > 0.0, vols, 1.0)
    return scale, cov / np.outer(scale, scale)


def _active_set(q: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Minimize x'q x over {x >= 0, e.x = 1} exactly; q PSD, max e > 0.

    Primal active-set method (Nocedal & Wright, Numerical Optimization, 2nd
    ed., Alg. 16.3) from the vertex of largest e_i. Each step solves the
    equality-constrained problem on the support S, the bordered system
    [[q_SS, e_S], [e_S', 0]] [x_S; nu] = [0; 1]. A nonnegative solution is
    taken, and the asset at zero with the most negative multiplier
    g_i - lambda e_i (g = q x, lambda = x'q x) joins S; with none below
    -(1e-14 lambda + max |multiplier on S|) x is the KKT point. Otherwise x
    steps toward the solution until the first asset reaches zero and leaves
    S. The system stays nonsingular for any PSD q, since an asset joins only
    on a strict descent direction (so a duplicate of a held asset never
    does). Reaching 10n + 10 steps can only mean cycling and raises.
    """
    if not np.all(np.isfinite(q)):
        raise OptimizerError("non-finite covariance")
    n = len(e)
    free = np.zeros(n, dtype=bool)
    free[np.argmax(e)] = True
    x = np.zeros(n)
    for _ in range(10 * n + 10):
        idx = np.flatnonzero(free)
        k = len(idx)
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = q[np.ix_(idx, idx)]
        kkt[:k, k] = kkt[k, :k] = e[idx]
        rhs = np.zeros(k + 1)
        rhs[k] = 1.0
        target = np.linalg.solve(kkt, rhs)[:k]
        if np.all(target >= 0.0):
            x[idx] = target
            g = q @ x
            lam = float(g @ x)
            mult = g - lam * e
            # the support's own multipliers, zero in exact arithmetic, are
            # the rounding floor an entering multiplier must clear
            floor = 1e-14 * lam + float(np.abs(mult[idx]).max())
            mult[idx] = np.inf
            j = int(np.argmin(mult))
            if not mult[j] < -floor:
                return x
            free[j] = True
        else:
            # ratio test: only assets whose target is negative can block
            now = x[idx]
            ratios = np.full(k, np.inf)
            neg = target < 0.0
            ratios[neg] = now[neg] / (now[neg] - target[neg])
            out = int(np.argmin(ratios))
            x[idx] = np.maximum(now + ratios[out] * (target - now), 0.0)
            x[idx[out]] = 0.0
            free[idx[out]] = False
    raise OptimizerError(f"active-set solve did not finish in {10 * n + 10} "
                         "steps (cycling)")


def min_variance(params: MarketParams) -> OptimizerOutput:
    """Minimum Variance Portfolio over the simplex.

    Solves min x'Corr x over {x >= 0, (1/sigma).x = 1}, x = sigma * w (so
    x'Corr x = w'Cov w), from the lowest-volatility asset.
    """
    scale, corr = _vol_units(params.cov)
    x = _active_set(corr, 1.0 / scale)
    weights = WeightVector(params.tickers, x / scale / np.sum(x / scale))
    return OptimizerOutput(weights, portfolio_stats(weights, params))


def max_sharpe(params: MarketParams, risk_free: float = 0.0) -> OptimizerOutput:
    """Maximum Sharpe Ratio Portfolio over the simplex.

    With e = mu - r_f and max e > 0: the convex form min y'Cov y s.t. e.y = 1,
    y >= 0, w = y / sum(y) (Cornuejols & Tutuncu, Optimization Methods in
    Finance, ch. 8); assets with e_i <= 0 may enter as hedges. With max e <= 0
    the ratio is minus nonnegative-linear over convex, so the best vertex is
    optimal: argmax e_i/sigma_i, ties to lower volatility. Zero covariance
    gives equal weights. The warning flags both cases.
    """
    n = params.n_assets
    excess = params.mu - risk_free
    scale, corr = _vol_units(params.cov)
    sharpes = excess / scale
    beaten = excess.max() > 0.0
    warning = None if beaten else (
        "no asset has expected return above the risk-free rate; "
        "the maximum-Sharpe portfolio is not meaningful"
    )
    # a PSD matrix with a zero diagonal is zero
    if not np.any(np.diag(params.cov) > 0.0):
        w = np.full(n, 1.0 / n)
        warning = warning or "covariance is zero; Sharpe ratio undefined everywhere"
    elif not beaten:
        live = np.diag(params.cov) > 0.0
        ranked = np.lexsort((scale, -np.where(live, sharpes, -math.inf)))
        w = np.eye(n)[ranked[0]]
    else:
        # In volatility units x = sigma * y: min x'Corr x, s.x = 1, x >= 0,
        # s the assets' own Sharpe ratios.
        x = _active_set(corr, sharpes)
        w = x / scale / np.sum(x / scale)
    weights = WeightVector(params.tickers, w)
    return OptimizerOutput(weights, portfolio_stats(weights, params, risk_free),
                           warning)

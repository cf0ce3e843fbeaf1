"""Simplex-constrained portfolio optimization.

Solves the minimum-variance and maximum-Sharpe portfolios over the long-only
full-investment simplex {w : w_i >= 0, sum w_i = 1}. Both run in volatility
units x = sigma * w, where the quadratic is the correlation matrix, as one
convex problem min x'Corr x over {x >= 0, e.x = 1}: e = 1/sigma for the
minimum variance, the assets' Sharpe ratios for max-Sharpe (Cornuejols &
Tutuncu, Optimization Methods in Finance, ch. 8). The one solver is projected
gradient descent with the exact sort-based projection onto that set
(Condat, Math. Prog. 2016), fixed step 1/(2*lambda_max), cap MAX_ITER =
10,000 steps (hitting it sets the output's warning) and stop when the
objective change drops below 1e-12. Correctness is anchored by an
exhaustive lattice oracle in the tests, not by the solver choice.
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
    "project_hyperplane",
]

MAX_ITER = 10_000
OBJ_TOL = 1e-12
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


def project_hyperplane(v: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {y : y >= 0, e.y = 1}; needs some e_i > 0.

    y = max(v - tau*e, 0), where g(tau) = e.max(v - tau*e, 0) is nonincreasing
    and piecewise linear with breakpoints v_i/e_i; tau solves g(tau) = 1 on
    the piece located by the sorted breakpoints. e_i may be <= 0.
    """
    return _hyperplane_projection(e)(np.asarray(v, dtype=np.float64))


def _hyperplane_projection(e: np.ndarray):
    """``project(v)``, ``project_hyperplane(v, e)`` for this ``e``, with the
    work that depends on ``e`` alone done once: a solver projects onto one
    set at every step."""
    e = np.asarray(e, dtype=np.float64)
    idx = np.flatnonzero(e)
    e_nz = e[idx]
    e_sq = e_nz * e_nz
    pos = e_nz > 0.0
    mixed = not pos.all()

    def project(v: np.ndarray) -> np.ndarray:
        v_nz = v[idx]
        b = v_nz / e_nz
        order = np.argsort(b)
        b = b[order]
        # on piece k, between sorted breakpoints k-1 and k, g = sums[0] - tau
        # * sums[1], summed over e_i > 0 at index >= k and e_i < 0 at index
        # < k; with no e_i < 0 the second sum is all zeros and is skipped
        terms = np.stack(((e_nz * v_nz)[order], e_sq[order]))
        sums = np.zeros((2, len(idx) + 1))
        if mixed:
            side = pos[order]
            sums[:, 1:] = np.where(side, 0.0, terms).cumsum(axis=1)
            terms = np.where(side, terms, 0.0)
        sums[:, :-1] += terms[:, ::-1].cumsum(axis=1)[:, ::-1]
        k = int(np.count_nonzero(sums[0, :-1] - b * sums[1, :-1] >= 1.0))
        return np.maximum(v - (sums[0, k] - 1.0) / sums[1, k] * e, 0.0)

    return project


def _vol_units(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-asset volatility (1 where it is 0) and Cov / outer(scale, scale)."""
    vols = np.sqrt(np.diag(cov))
    scale = np.where(vols > 0.0, vols, 1.0)
    return scale, cov / np.outer(scale, scale)


def _pgd_quadratic(
    q: np.ndarray, e: np.ndarray, x0: np.ndarray
) -> tuple[np.ndarray, bool]:
    """Minimize x'q x over {x >= 0, e.x = 1}, starting at ``x0``.

    Fixed step 1/(2*lambda_max). Returns the point and whether the objective
    change fell below OBJ_TOL within MAX_ITER steps.
    """
    if not np.all(np.isfinite(q)):
        raise OptimizerError("non-finite covariance")
    x = np.array(x0, dtype=np.float64)
    lam_max = float(np.linalg.eigvalsh(q)[-1])
    if lam_max <= 0.0:
        return x, True  # zero quadratic: any point is optimal
    step = 1.0 / (2.0 * lam_max)
    project = _hyperplane_projection(e)
    prev = float(x @ q @ x)
    for _ in range(MAX_ITER):
        x = project(x - step * (2.0 * (q @ x)))
        cur = float(x @ q @ x)
        if abs(prev - cur) < OBJ_TOL:
            return x, True
        prev = cur
    return x, False


_UNCONVERGED = f"solver stopped at MAX_ITER={MAX_ITER} before converging"


def min_variance(params: MarketParams) -> OptimizerOutput:
    """Minimum Variance Portfolio over the simplex; warns at MAX_ITER.

    Solves min x'Corr x over {x >= 0, (1/sigma).x = 1}, x = sigma * w (so
    x'Corr x = w'Cov w), from equal weights: Corr is far better conditioned
    than Cov, so far fewer fixed steps reach the stop rule.
    """
    scale, corr = _vol_units(params.cov)
    x, converged = _pgd_quadratic(corr, 1.0 / scale, scale / params.n_assets)
    weights = WeightVector(params.tickers, x / scale / np.sum(x / scale))
    return OptimizerOutput(weights, portfolio_stats(weights, params),
                           None if converged else _UNCONVERGED)


def max_sharpe(params: MarketParams, risk_free: float = 0.0) -> OptimizerOutput:
    """Maximum Sharpe Ratio Portfolio over the simplex.

    With e = mu - r_f and max e > 0: the convex form min y'Cov y s.t. e.y = 1,
    y >= 0, w = y / sum(y) (Cornuejols & Tutuncu, Optimization Methods in
    Finance, ch. 8); assets with e_i <= 0 may enter as hedges. With max e <= 0
    the ratio is minus nonnegative-linear over convex, so the best vertex is
    optimal: argmax e_i/sigma_i, ties to lower volatility. Zero covariance
    gives equal weights. The warning flags both cases and a MAX_ITER stop.
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
    if float(np.linalg.eigvalsh(params.cov)[-1]) <= 0.0:
        w = np.full(n, 1.0 / n)
        warning = warning or "covariance is zero; Sharpe ratio undefined everywhere"
    elif not beaten:
        live = np.diag(params.cov) > 0.0
        ranked = np.lexsort((scale, -np.where(live, sharpes, -math.inf)))
        w = np.eye(n)[ranked[0]]
    else:
        # In volatility units x = sigma * y: min x'Corr x, s.x = 1, x >= 0,
        # s the assets' own Sharpe ratios. Start at the best vertex.
        x = np.eye(n)[np.argmax(sharpes)] / sharpes.max()
        x, converged = _pgd_quadratic(corr, sharpes, x)
        # On s.x = 1 the Sharpe ratio is S = 1/sqrt(x'Corr x), so the stop
        # rule's absolute OBJ_TOL reaches S magnified by S^3/2. A second pass
        # on Corr scaled by S^3/2 takes the same steps but stops on S itself.
        var = float(x @ corr @ x)
        if converged and var > 0.0:
            x, converged = _pgd_quadratic(corr * (0.5 * var**-1.5), sharpes, x)
        w = x / scale / np.sum(x / scale)
        if not converged:
            warning = _UNCONVERGED
    weights = WeightVector(params.tickers, w)
    return OptimizerOutput(weights, portfolio_stats(weights, params, risk_free),
                           warning)

"""Simplex-constrained portfolio optimization.

Solves the minimum-variance and maximum-Sharpe portfolios over the long-only
full-investment simplex {w : w_i >= 0, sum w_i = 1} and traces the efficient
frontier. The one solver is projected gradient descent on a quadratic with
an exact sort-based projection (onto the simplex, or onto {y >= 0, e.y = 1}
for max-Sharpe's convex form), fixed step 1/(2*lambda_max), cap MAX_ITER =
10,000 steps (hitting it sets the output's warning) and stop when the
objective change drops below 1e-12. Correctness is anchored by an
exhaustive lattice oracle, not by the solver choice.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .estimation import MarketParams

__all__ = [
    "OptimizerError",
    "WeightVector",
    "PortfolioStats",
    "OptimizerOutput",
    "FrontierPoint",
    "portfolio_stats",
    "quad_form_double_sum",
    "min_variance",
    "max_sharpe",
    "efficient_frontier",
    "grid_oracle_min_variance",
    "simplex_lattice",
    "project_simplex",
    "project_hyperplane",
]

MAX_ITER = 10_000
OBJ_TOL = 1e-12
WEIGHT_CLAMP = 1e-12
GRID_MAX_ASSETS = 4


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


@dataclass(frozen=True)
class FrontierPoint:
    target_return: float
    weights: WeightVector
    stats: PortfolioStats


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


def quad_form_double_sum(w: WeightVector, params: MarketParams) -> float:
    """Portfolio variance as the explicit double sum.

    sum_i w_i^2 var_i + sum_i sum_{j != i} w_i w_j cov_ij. Exists solely as a
    cross-check oracle for the matrix quadratic form.
    """
    _check_dims(w, params)
    n = len(w.w)
    total = 0.0
    for i in range(n):
        total += w.w[i] * w.w[i] * params.cov[i, i]
    for i in range(n):
        for j in range(n):
            if i != j:
                total += w.w[i] * w.w[j] * params.cov[i, j]
    return total


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, len(v) + 1)
    rho = np.nonzero(u - css / ks > 0)[0][-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def project_hyperplane(v: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {y : y >= 0, e.y = 1}; needs some e_i > 0.

    y = max(v - tau*e, 0), where g(tau) = e.max(v - tau*e, 0) is nonincreasing
    and piecewise linear with breakpoints v_i/e_i; tau solves g(tau) = 1 on
    the piece located by the sorted breakpoints. e_i may be <= 0.
    """
    v = np.asarray(v, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    idx = np.flatnonzero(e)
    idx = idx[np.argsort(v[idx] / e[idx])]
    ez = e[idx]
    b = v[idx] / ez
    # on piece k, between sorted breakpoints k-1 and k, g = sums[0] - tau *
    # sums[1], summed over e_i > 0 at index >= k and e_i < 0 at index < k
    terms = np.stack((ez * v[idx], ez * ez))
    pos = ez > 0.0
    sums = np.zeros((2, len(idx) + 1))
    sums[:, :-1] = np.where(pos, terms, 0.0)[:, ::-1].cumsum(axis=1)[:, ::-1]
    sums[:, 1:] += np.where(pos, 0.0, terms).cumsum(axis=1)
    k = int(np.count_nonzero(sums[0, :-1] - b * sums[1, :-1] >= 1.0))
    return np.maximum(v - (sums[0, k] - 1.0) / sums[1, k] * e, 0.0)


def _pgd_quadratic(
    cov: np.ndarray,
    linear: np.ndarray | None = None,
    w0: np.ndarray | None = None,
    project: Callable[[np.ndarray], np.ndarray] = project_simplex,
) -> tuple[np.ndarray, bool]:
    """Minimize w'cov w + linear.w over the set ``project`` maps onto.

    Starts at ``w0`` or equal weights; fixed step 1/(2*lambda_max), which
    the linear term does not change. Returns the point and whether the
    objective change fell below OBJ_TOL within MAX_ITER steps.
    """
    n = cov.shape[0]
    if not np.all(np.isfinite(cov)):
        raise OptimizerError("non-finite covariance")
    w = np.full(n, 1.0 / n) if w0 is None else np.array(w0, dtype=np.float64)
    lam_max = float(np.linalg.eigvalsh(cov)[-1])
    if lam_max <= 0.0:
        # zero quadratic: any point is optimal unless a linear term tilts it
        if linear is None:
            return w, True
        out = np.zeros(n)
        out[int(np.argmin(linear))] = 1.0
        return out, True
    step = 1.0 / (2.0 * lam_max)

    def obj(x: np.ndarray) -> float:
        val = float(x @ cov @ x)
        if linear is not None:
            val += float(linear @ x)
        return val

    prev = obj(w)
    for _ in range(MAX_ITER):
        grad = 2.0 * (cov @ w)
        if linear is not None:
            grad = grad + linear
        w = project(w - step * grad)
        cur = obj(w)
        if abs(prev - cur) < OBJ_TOL:
            return w, True
        prev = cur
    return w, False


_UNCONVERGED = f"solver stopped at MAX_ITER={MAX_ITER} before converging"


def min_variance(params: MarketParams) -> OptimizerOutput:
    """Minimum Variance Portfolio over the simplex; warns at MAX_ITER."""
    w, converged = _pgd_quadratic(params.cov)
    weights = WeightVector(params.tickers, w)
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
    vols = np.sqrt(np.diag(params.cov))
    scale = np.where(vols > 0.0, vols, 1.0)
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
        ranked = np.lexsort((vols, -np.where(vols > 0.0, sharpes, -math.inf)))
        w = np.eye(n)[ranked[0]]
    else:
        # In volatility units x = sigma * y: min x'Corr x, s.x = 1, x >= 0,
        # s the assets' own Sharpe ratios. Corr is far better conditioned
        # than Cov, so far fewer fixed steps. Start at the best vertex.
        corr = params.cov / np.outer(scale, scale)
        x = np.eye(n)[np.argmax(sharpes)] / sharpes.max()
        project = partial(project_hyperplane, e=sharpes)
        x, converged = _pgd_quadratic(corr, w0=x, project=project)
        # On s.x = 1 the Sharpe ratio is S = 1/sqrt(x'Corr x), so the stop
        # rule's absolute OBJ_TOL reaches S magnified by S^3/2. A second pass
        # on Corr scaled by S^3/2 takes the same steps but stops on S itself.
        var = float(x @ corr @ x)
        if converged and var > 0.0:
            x, converged = _pgd_quadratic(corr * (0.5 * var**-1.5), w0=x,
                                          project=project)
        w = x / scale / np.sum(x / scale)
        if not converged:
            warning = _UNCONVERGED
    weights = WeightVector(params.tickers, w)
    return OptimizerOutput(weights, portfolio_stats(weights, params, risk_free),
                           warning)


def _min_variance_at_return(
    params: MarketParams, target: float, w_init: np.ndarray | None
) -> np.ndarray | None:
    """Minimum-variance weights with expected return pinned to ``target``.

    Solved through the Lagrangian dual: for multiplier g, the inner problem
    min w'Cov w - g mu.w over the simplex reuses the quadratic machinery, and
    the achieved return mu.w(g) is nondecreasing in g, so g is found by
    bisection. Returns None when the target cannot be met.
    """
    mu = params.mu
    cov = params.cov
    spread = float(mu.max() - mu.min())
    ret_tol = 1e-9 * max(1.0, abs(target)) + 1e-12

    def solve(g: float, w0: np.ndarray | None) -> np.ndarray:
        return _pgd_quadratic(cov, linear=-g * mu, w0=w0)[0]

    w = solve(0.0, w_init)
    if abs(float(mu @ w) - target) <= ret_tol or spread == 0.0:
        if abs(float(mu @ w) - target) <= ret_tol:
            return w
        return None

    lo, hi = 0.0, 0.0
    w_lo, w_hi = w, w
    if float(mu @ w) < target:
        hi = max(1.0, 2.0 * float(np.abs(cov).max()))
        w_hi = solve(hi, w)
        while float(mu @ w_hi) < target - ret_tol and hi < 1e12:
            hi *= 4.0
            w_hi = solve(hi, w_hi)
    else:
        lo = -max(1.0, 2.0 * float(np.abs(cov).max()))
        w_lo = solve(lo, w)
        while float(mu @ w_lo) > target + ret_tol and lo > -1e12:
            lo *= 4.0
            w_lo = solve(lo, w_lo)

    w_best = w_hi if abs(float(mu @ w_hi) - target) < abs(float(mu @ w_lo) - target) else w_lo
    for _ in range(200):
        mid = (lo + hi) / 2.0
        w_mid = solve(mid, w_best)
        achieved = float(mu @ w_mid)
        if abs(achieved - target) < abs(float(mu @ w_best) - target):
            w_best = w_mid
        if abs(achieved - target) <= ret_tol:
            return w_mid
        if achieved < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * max(1.0, abs(hi)):
            break
    if abs(float(mu @ w_best) - target) <= 1e-6 * max(1.0, abs(target)):
        return w_best
    return None


def efficient_frontier(
    params: MarketParams, n_points: int, risk_free: float = 0.0
) -> list[FrontierPoint]:
    """Minimum-variance portfolios for target returns spaced over [min mu, max mu].

    Infeasible targets are excluded. Volatility is non-decreasing in the
    target above the MVP return.
    """
    if n_points < 2:
        raise OptimizerError("n_points must be >= 2")
    targets = np.linspace(float(params.mu.min()), float(params.mu.max()), n_points)
    points: list[FrontierPoint] = []
    w_prev: np.ndarray | None = None
    for target in targets:
        w = _min_variance_at_return(params, float(target), w_prev)
        if w is None:
            continue
        w_prev = w
        weights = WeightVector(params.tickers, w)
        points.append(
            FrontierPoint(float(target), weights, portfolio_stats(weights, params, risk_free))
        )
    return points


def simplex_lattice(n_assets: int, resolution: float) -> np.ndarray:
    """All simplex lattice points with spacing ``resolution`` (rows sum to 1)."""
    k = round(1.0 / resolution)
    if abs(k * resolution - 1.0) > 1e-9:
        raise OptimizerError(f"resolution {resolution!r} does not divide 1")

    def counts(parts: int, total: int) -> np.ndarray:
        if parts == 1:
            return np.array([[total]], dtype=np.int64)
        blocks = []
        for first in range(total + 1):
            rest = counts(parts - 1, total - first)
            blocks.append(
                np.column_stack([np.full(len(rest), first, dtype=np.int64), rest])
            )
        return np.vstack(blocks)

    return counts(n_assets, k) / float(k)


def grid_oracle_min_variance(
    params: MarketParams, resolution: float
) -> WeightVector:
    """Exhaustive lattice search for the minimum-variance weights.

    Independent verification oracle; guarded to N <= 4 assets because the
    lattice grows combinatorially.
    """
    n = params.n_assets
    if n > GRID_MAX_ASSETS:
        raise OptimizerError(f"grid oracle limited to {GRID_MAX_ASSETS} assets")
    lattice = simplex_lattice(n, resolution)
    objectives = np.einsum("pi,ij,pj->p", lattice, params.cov, lattice)
    return WeightVector(params.tickers, lattice[int(np.argmin(objectives))])

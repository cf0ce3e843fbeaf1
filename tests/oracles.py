"""Independent reference implementations the tests compare the package
against: the explicit double-sum variance and an exhaustive simplex-lattice
search for the minimum-variance weights, the per-path normal stream that
simulate must reproduce, every recorded path rebuilt in one kernel call,
the all-rows paths.csv formatter whose bytes the streaming writer must
reproduce, and the closed-form lognormal VaR of a single GBM asset that
the simulated VaR must approach."""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from gbmrisk.estimation import MarketParams
from gbmrisk.optimizer import OptimizerError, WeightVector, _check_dims
from gbmrisk.risk import RiskError
from gbmrisk.simulation import SimConfig, _path_kernel

GRID_MAX_ASSETS = 4


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


def draw_standard_normals(seed: int, path_index: int, count: int) -> np.ndarray:
    """Standard normals from a fresh Philox keyed by (seed, path_index): the
    per-path stream that simulate's re-keyed generator must reproduce."""
    key = np.array(
        [seed & 0xFFFFFFFFFFFFFFFF, path_index & 0xFFFFFFFFFFFFFFFF],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(count)


def rebuilt_paths(params: MarketParams, config: SimConfig) -> np.ndarray:
    """Every path of a run, (n_paths, n_steps + 1, n_assets), from one kernel
    call over all of them, step 0 being the initial prices."""
    cum_log = _path_kernel(params, config).cum_log
    s0 = config.initial_prices
    prices = cum_log(0, config.n_paths)
    np.exp(prices, out=prices)
    prices *= s0
    start = np.broadcast_to(s0, (config.n_paths, 1, len(s0)))
    return np.concatenate([start, prices], axis=1)


def reference_paths_csv(paths: np.ndarray, tickers: tuple[str, ...]) -> bytes:
    """paths.csv built the direct way: every row string in one list, joined
    and encoded once. Costs memory in proportion to the whole file."""
    rows = ["path,step,ticker,price"]
    for p in range(paths.shape[0]):
        for step, prices in enumerate(paths[p].tolist()):
            for ticker, price in zip(tickers, prices):
                rows.append(f"{p},{step},{ticker},{price!r}")
    return ("\n".join(rows) + "\n").encode("utf-8")


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

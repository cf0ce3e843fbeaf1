"""Independent reference implementations the tests compare the package
against: the explicit double-sum variance and an exhaustive simplex-lattice
search for the minimum-variance weights, a path's step and terminal
normals, which simulate and paths.csv must reproduce, by a scalar
transcription of the standard library's AS241, every recorded
path rebuilt in one bridge call, the all-rows paths.csv formatter whose
bytes the streaming writer must reproduce, the window-by-window loop whose
VaR thresholds the vector backtest must reproduce, the closed-form
lognormal VaR of a single GBM asset that the simulated VaR must approach,
the plain CSV reader whose results and errors the price loader must
reproduce, and the cell-by-cell CSV writer whose bytes and errors the
price writer must reproduce; and, for tests that gate a rate across seeds,
a generator of iid-normal and GARCH(1,1)-t log-returns and a seed-rate
helper that bounds a rejection rate with an exact binomial interval."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np
from scipy import stats

from gbmrisk.estimation import MarketParams
from gbmrisk.market_data import PriceDataError, PriceSeries
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


def np_log(x: float) -> float:
    """numpy's log of one double, taken as an array of them takes it."""
    return float(np.log(np.array([x]))[0])


def inv_cdf(p: float, log=math.log) -> float:
    """statistics.NormalDist().inv_cdf(p), Wichura's AS241, transcribed
    from the standard library's pure-Python _normal_dist_inv_cdf with mean
    0 and standard deviation 1, but with ``log`` in the tails."""
    q = p - 0.5
    if math.fabs(q) <= 0.425:
        r = 0.180625 - q * q
        num = (((((((2.50908_09287_30122_6727e+3 * r +
                     3.34305_75583_58812_8105e+4) * r +
                     6.72657_70927_00870_0853e+4) * r +
                     4.59219_53931_54987_1457e+4) * r +
                     1.37316_93765_50946_1125e+4) * r +
                     1.97159_09503_06551_4427e+3) * r +
                     1.33141_66789_17843_7745e+2) * r +
                     3.38713_28727_96366_6080e+0) * q
        den = (((((((5.22649_52788_52854_5610e+3 * r +
                     2.87290_85735_72194_2674e+4) * r +
                     3.93078_95800_09271_0610e+4) * r +
                     2.12137_94301_58659_5867e+4) * r +
                     5.39419_60214_24751_1077e+3) * r +
                     6.87187_00749_20579_0830e+2) * r +
                     4.23133_30701_60091_1252e+1) * r +
                     1.0)
        return num / den
    r = p if q <= 0.0 else 1.0 - p
    r = math.sqrt(-log(r))
    if r <= 5.0:
        r = r - 1.6
        num = (((((((7.74545_01427_83414_07640e-4 * r +
                     2.27238_44989_26918_45833e-2) * r +
                     2.41780_72517_74506_11770e-1) * r +
                     1.27045_82524_52368_38258e+0) * r +
                     3.64784_83247_63204_60504e+0) * r +
                     5.76949_72214_60691_40550e+0) * r +
                     4.63033_78461_56545_29590e+0) * r +
                     1.42343_71107_49683_57734e+0)
        den = (((((((1.05075_00716_44416_84324e-9 * r +
                     5.47593_80849_95344_94600e-4) * r +
                     1.51986_66563_61645_71966e-2) * r +
                     1.48103_97642_74800_74590e-1) * r +
                     6.89767_33498_51000_04550e-1) * r +
                     1.67638_48301_83803_84940e+0) * r +
                     2.05319_16266_37758_82187e+0) * r +
                     1.0)
    else:
        r = r - 5.0
        num = (((((((2.01033_43992_92288_13265e-7 * r +
                     2.71155_55687_43487_57815e-5) * r +
                     1.24266_09473_88078_43860e-3) * r +
                     2.65321_89526_57612_30930e-2) * r +
                     2.96560_57182_85048_91230e-1) * r +
                     1.78482_65399_17291_33580e+0) * r +
                     5.46378_49111_64114_36990e+0) * r +
                     6.65790_46435_01103_77720e+0)
        den = (((((((2.04426_31033_89939_78564e-15 * r +
                     1.42151_17583_16445_88870e-7) * r +
                     1.84631_83175_10054_68180e-5) * r +
                     7.86869_13114_56132_59100e-4) * r +
                     1.48753_61290_85061_48525e-2) * r +
                     1.36929_88092_27358_05310e-1) * r +
                     5.99832_20655_58879_37690e-1) * r +
                     1.0)
    x = num / den
    return -x if q < 0.0 else x


def word_uniform(word: int) -> float:
    """The terminal draw's u of a 64-bit word: ((w >> 12) + 0.5) 2**-52,
    exact."""
    return ((word >> 12) + 0.5) * 2.0**-52


def normals(seed: int, path_index: int, count: int, top: int) -> np.ndarray:
    """A path's first ``count`` normals at top counter word ``top``: AS241,
    with numpy's log, of each of the first ``count`` words that numpy's own
    Philox keyed (seed, 0) yields after the counter p b + top 2**192, p
    being ``path_index`` and b = ceil(count / 4). The key and counter go in
    as Python ints: a list of ints above 2**63 reaches numpy's Philox
    through float64."""
    blocks = -(-count // 4)
    words = np.random.Philox(
        key=seed, counter=path_index * blocks + top * 2**192,
    ).random_raw(4 * blocks)[:count]
    return np.array([inv_cdf(word_uniform(w), np_log)
                     for w in words.tolist()])


def rebuilt_paths(params: MarketParams, config: SimConfig) -> np.ndarray:
    """Every path of a run, (n_paths, n_steps + 1, n_assets), from one
    Brownian-bridge rebuild of all of them, step 0 being the initial
    prices."""
    kernel = _path_kernel(params, config)
    s0 = config.initial_prices
    prices = kernel.log_paths(0, kernel.normals(0, config.n_paths),
                              config.n_steps)
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


def rolling_var_thresholds(values: np.ndarray, alpha: float,
                           window: int) -> np.ndarray:
    """The backtest's VaR thresholds, one window at a time: each trailing
    window's mean and population std, and values[t - 1] exp(m + s z)."""
    returns = np.log(values[1:] / values[:-1])
    z = NormalDist().inv_cdf(alpha)
    thresholds = np.empty(returns.size - window)
    for k in range(thresholds.size):
        trailing = returns[k : k + window]
        m = float(trailing.mean())
        s = float(trailing.std())
        thresholds[k] = values[window + k] * math.exp(m + s * z)
    return thresholds


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


def reference_load_prices(path: str | Path) -> PriceSeries:
    """``load_prices`` the plain way: ``csv.reader`` over the decoded text
    and ``float`` a cell, with the loader's checks and messages."""
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
                    f"{path}:{lineno}: non-numeric price") from None
            rows[date] = values
    if not rows:
        raise PriceDataError(f"{path}: no data rows")
    dates = tuple(sorted(rows))
    prices = np.array([rows[d] for d in dates], dtype=np.float64)
    return PriceSeries(tickers, dates, prices)


def reference_save_prices(series: PriceSeries, path: str | Path) -> None:
    """``save_prices`` the plain way: ``csv.writer`` over a UTF-8 text file,
    a row at a time, each price as ``repr(float(p))``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *series.tickers])
        for i, date in enumerate(series.dates):
            writer.writerow([date, *(repr(float(p))
                                     for p in series.prices[i])])


# ROADMAP's heavy-tailed series: GARCH(1,1)-t(3) of daily vol 0.05, the
# long-run variance omega / (1 - a - b), with a = 0.10 and b = 0.85
GARCH_T3 = {"omega": 0.05**2 * (1 - 0.10 - 0.85), "a": 0.10, "b": 0.85,
            "nu": 3.0}


def generated_log_returns(seed: int, n_days: int, omega: float,
                          a: float = 0.0, b: float = 0.0,
                          nu: float | None = None) -> np.ndarray:
    """``n_days`` daily log-returns r_t = sigma_t e_t of a GARCH(1,1)
    process (Bollerslev, 1986), sigma_t^2 = omega + a r_{t-1}^2
    + b sigma_{t-1}^2, started at its long-run variance omega / (1 - a - b).
    The e_t are iid standard normal, or, given ``nu`` > 2, Student-t(nu)
    scaled to unit variance by sqrt((nu - 2) / nu). a = b = 0 gives iid
    returns of variance omega. One seed gives one series."""
    if not (omega > 0 and a >= 0 and b >= 0 and a + b < 1):
        raise ValueError("need omega > 0, a, b >= 0 and a + b < 1")
    if nu is not None and not nu > 2:
        raise ValueError("a unit-variance t needs nu > 2")
    rng = np.random.default_rng(seed)
    if nu is None:
        shocks = rng.standard_normal(n_days)
    else:
        shocks = rng.standard_t(nu, n_days) * math.sqrt((nu - 2) / nu)
    returns = np.empty(n_days)
    var = omega / (1 - a - b)
    for t, e in enumerate(shocks.tolist()):
        r = math.sqrt(var) * e
        returns[t] = r
        var = omega + a * r * r + b * var
    return returns


# each tail of a 95% interval
_TAIL = 0.025


def clopper_pearson(k: int, n: int) -> tuple[float, float]:
    """The exact (Clopper-Pearson, 1934) two-sided 95% interval for a
    binomial rate from ``k`` successes in ``n`` trials, by the beta
    quantiles."""
    low = 0.0 if k == 0 else float(stats.beta.ppf(_TAIL, k, n - k + 1))
    high = 1.0 if k == n else float(stats.beta.ppf(1 - _TAIL, k + 1, n - k))
    return low, high


@dataclass(frozen=True)
class SeedRate:
    """How often a test rejected over generated seeds: ``rejections`` of
    ``n_seeds``, and the exact interval [low, high] for its rate."""

    rejections: int
    n_seeds: int
    low: float
    high: float


def seed_rate(rejects, seeds) -> SeedRate:
    """Run ``rejects(seed)``, true where the test rejects the series that
    seed generates, over every one of ``seeds``; count the rejections and
    bound their rate with ``clopper_pearson``."""
    seeds = list(seeds)
    k = sum(bool(rejects(seed)) for seed in seeds)
    return SeedRate(k, len(seeds), *clopper_pearson(k, len(seeds)))

"""Independent reference implementations the tests compare the package
against: the explicit double-sum variance and an exhaustive simplex-lattice
search for the minimum-variance weights, the per-path normal stream that
simulate must reproduce and whether it leaves numpy's ziggurat fast path,
a probe of numpy's ziggurat tables, every recorded path rebuilt in one
bridge call, the all-rows paths.csv formatter whose bytes the streaming
writer must reproduce, the window-by-window loop whose VaR thresholds
the vector backtest must reproduce, the closed-form lognormal VaR of a
single GBM asset that the simulated VaR must approach, the plain CSV
reader whose results and errors the price loader must reproduce, and the
cell-by-cell CSV writer whose bytes and errors the price writer must
reproduce; and, for tests that gate a rate across seeds, a generator of
iid-normal and GARCH(1,1)-t log-returns and a seed-rate helper that bounds
a rejection rate with an exact binomial interval."""

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


def philox(seed: int, path_index: int, counter: int = 0,
           block: int = 0) -> np.random.Philox:
    """A fresh Philox keyed by (seed, path_index) whose counter is (block, 0,
    0, counter), so that its first words are the stream's block ``block``.
    The key and counter go in as uint64 arrays: a list of Python ints above
    2**63 reaches numpy's Philox through float64."""
    key = np.array(
        [seed & 0xFFFFFFFFFFFFFFFF, path_index & 0xFFFFFFFFFFFFFFFF],
        dtype=np.uint64,
    )
    return np.random.Philox(key=key, counter=np.array(
        [block, 0, 0, counter], dtype=np.uint64))


def draw_standard_normals(seed: int, path_index: int, count: int,
                          counter: int = 0) -> np.ndarray:
    """Standard normals from a fresh Philox keyed by (seed, path_index) whose
    counter's top word is ``counter`` (2**63 for the terminal draw): the
    per-path stream that simulate's draw must reproduce."""
    return np.random.Generator(philox(seed, path_index, counter)
                               ).standard_normal(count)


def leaves_fast_path(seed: int, path_index: int, count: int,
                     counter: int = 0) -> bool:
    """Whether any of the first ``count`` normals of that stream leaves
    numpy's ziggurat fast path, which takes exactly one word a normal: the
    draw then takes more than ``count`` words of the Philox, whose state
    counts them."""
    bit_gen = philox(seed, path_index, counter)
    np.random.Generator(bit_gen).standard_normal(count)
    state = bit_gen.state
    words = 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"]
    return words > count


def _untemper(y: int) -> int:
    """The MT19937 state word that its tempering maps to the 32-bit y."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(4):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x & 0xFFFFFFFF
    return y ^ (y >> 11) ^ (y >> 22)


def ziggurat_draw(words: list[int]) -> tuple[float, int]:
    """numpy's own Generator.standard_normal on a generator whose next
    64-bit words are ``words`` (then MT19937's stream of seed 0): the
    normal and the number of 64-bit words it took. MT19937 takes any key
    as its state and reads two tempered 32-bit key words a 64-bit word,
    the high word first, so untempered words give exactly ``words``."""
    bit_gen = np.random.MT19937(0)
    state = bit_gen.state
    key = state["state"]["key"]
    for i, word in enumerate(words):
        key[2 * i] = _untemper(word >> 32)
        key[2 * i + 1] = _untemper(word & 0xFFFFFFFF)
    state["state"] = {"key": key, "pos": 0}
    bit_gen.state = state
    normal = np.random.Generator(bit_gen).standard_normal()
    return normal, bit_gen.state["state"]["pos"] // 2


def ziggurat_layer(layer: int) -> tuple[int, float]:
    """numpy's (ki_double, wi_double) at ``layer``, from its draws alone.

    wi is the normal drawn from rabs = 1, sign 0, the next word 0, so that
    layer 1's slow path accepts. ki is the least rabs whose draw takes more
    than one word, found by bisection: the fast path is rabs < ki."""
    wi = ziggurat_draw([(1 << 9) | layer, 0])[0]
    lo, hi = 0, 1 << 52
    while lo < hi:
        mid = (lo + hi) // 2
        if ziggurat_draw([(mid << 9) | layer, 2**64 - 1])[1] == 1:
            lo = mid + 1
        else:
            hi = mid
    return lo, wi


def rebuilt_paths(params: MarketParams, config: SimConfig) -> np.ndarray:
    """Every path of a run, (n_paths, n_steps + 1, n_assets), from one
    Brownian-bridge rebuild of all of them, step 0 being the initial
    prices."""
    kernel = _path_kernel(params, config)
    s0 = config.initial_prices
    prices = kernel.log_paths(0, config.n_paths, config.n_steps)
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

"""Correlated geometric Brownian motion simulation.

Per-asset log-increments over a step of size dt = T / n_steps are
(mu_i - sigma_i^2/2)*dt + sqrt(dt) * (correlated shock)_i, where the shock
row is z L' for independent standard normals z and the lower-triangular
Cholesky factor L of the annualized covariance.

Randomness contract: each path's normals come from the Philox stream keyed
by (master seed, path index) with a zero counter, consumed step-major; the
seed lies in [0, 2**64). One kernel serves ``simulate``, which keeps each
path's last step, and ``_path_prices``, which rebuilds whole paths for
``price_paths`` and for ``gbmrisk.paths_csv``: it builds one Philox per
call and re-keys it for every path, which yields exactly the stream a
fresh ``Philox(key=(seed, path))`` gives, and computes each path's shock
rows apart from every other path's. Results are therefore bitwise
identical for any chunk size, execution order or worker count.

A chunk is as many whole paths as fit in ``_CHUNK_NORMALS`` normals, and
at least one: 1,024 paths at 252 steps x 3 assets, fewer with more assets or
steps. Per-thread memory thus stays bounded, and a wide run of few paths
still splits into several chunks.
Chunks run on ``workers`` threads; by default one per CPU this process may
run on, never more than there are chunks. ``workers=1`` forces a serial
run.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .estimation import MarketParams
from .optimizer import WeightVector
from .rules import RULES, check, step_count

__all__ = [
    "SimulationError",
    "CholeskyError",
    "SimConfig",
    "SimulationResult",
    "cholesky",
    "price_paths",
    "repair_psd",
    "simulate",
]

PSD_JITTERS = (0.0, 1e-12, 1e-10, 1e-8)
_PIVOT_TOL = 1e-10
# Normals per vectorized block, the unit of work a thread takes: a chunk is
# max(1, _CHUNK_NORMALS // (n_steps * n_assets)) whole paths. Results do not
# depend on it; it sets load balance across threads and per-thread memory:
# two arrays of at most _CHUNK_NORMALS floats (~6.2 MB each), unless a single
# path draws more.
_CHUNK_NORMALS = 1024 * 252 * 3
# Prices per rebuild block, the unit in which whole paths are rebuilt from
# their keys: a block is max(1, _REBUILD_CELLS // ((n_steps + 1) * n_assets))
# whole paths, 12 at 252 steps x 3 assets (~270 KB as paths.csv rows).
# Results do not depend on it; it trades a block's memory against the fixed
# cost of a kernel call, one Philox build.
_REBUILD_CELLS = 12 * 253 * 3


class SimulationError(ValueError):
    """Raised on invalid simulation inputs."""


class CholeskyError(SimulationError):
    """Raised when a matrix is not decomposable; carries the failing pivot."""

    def __init__(self, message: str, pivot_index: int):
        super().__init__(message)
        self.pivot_index = pivot_index


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run configuration.

    Defaults mirror the benchmark setup: 10,000 paths over one year in
    252 steps from a $100,000 start. ``initial_prices`` holds per-asset
    starting prices (all 1.0 when omitted, i.e. prices are gross returns).
    A scalar field, or ``n_steps``, that breaks its ``gbmrisk.rules.RULES``
    entry raises a SimulationError naming it.
    """

    weights: WeightVector
    n_paths: int = 10_000
    horizon_years: float = 1.0
    steps_per_year: int = 252
    seed: int = 42
    initial_value: float = 100_000.0
    initial_prices: np.ndarray | None = None

    def __post_init__(self):
        for f in fields(self):
            if f.name in RULES:
                check(f.name, getattr(self, f.name), SimulationError)
        step_count(self.horizon_years, self.steps_per_year, SimulationError)
        s0 = self.initial_prices
        s0 = np.ones(len(self.weights.w)) if s0 is None else np.asarray(s0, float)
        if s0.shape != (len(self.weights.w),):
            raise SimulationError("initial_prices shape mismatch")
        if np.any(s0 <= 0.0) or not np.all(np.isfinite(s0)):
            raise SimulationError("initial_prices must be positive")
        object.__setattr__(self, "initial_prices", s0)

    @property
    def n_steps(self) -> int:
        return step_count(self.horizon_years, self.steps_per_year, SimulationError)

    @property
    def dt(self) -> float:
        return self.horizon_years / self.n_steps


@dataclass(frozen=True)
class SimulationResult:
    """Terminal prices and portfolio values for every path; ``price_paths``
    rebuilds whole paths from the same kernel. ``jitter`` echoes the PSD
    repair applied to the covariance before decomposition."""

    terminal_asset_prices: np.ndarray
    terminal_portfolio_values: np.ndarray
    config_echo: SimConfig
    jitter: float = 0.0
    paths: None = None  # always None; the benchmark's tracer still reads it


def cholesky(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor L, with L L' = cov, of a symmetric
    PSD matrix.

    A pivot below -1e-10 (or an inconsistent zero pivot) raises CholeskyError
    naming the failing index; pivots in [-1e-10, 0] are clamped to zero so
    rank-deficient but PSD inputs decompose.
    """
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise SimulationError("matrix must be square")
    if not np.all(np.isfinite(cov)):
        raise SimulationError("non-finite matrix entry")
    if np.max(np.abs(cov - cov.T), initial=0.0) > _PIVOT_TOL:
        raise SimulationError("matrix not symmetric")
    n = cov.shape[0]
    l = np.zeros((n, n))
    for j in range(n):
        s = cov[j, j] - float(l[j, :j] @ l[j, :j])
        if s < -_PIVOT_TOL:
            raise CholeskyError(
                f"matrix not positive semidefinite: pivot {j} = {s:.3e}",
                pivot_index=j,
            )
        l[j, j] = math.sqrt(max(s, 0.0))
        below = cov[j + 1:, j] - l[j + 1:, :j] @ l[j, :j]
        if l[j, j] > 0.0:
            l[j + 1:, j] = below / l[j, j]
            continue
        residual = below[np.abs(below) > _PIVOT_TOL]
        if residual.size:
            raise CholeskyError(
                f"matrix not positive semidefinite: zero pivot {j} with "
                f"nonzero off-diagonal residual {residual[0]:.3e}",
                pivot_index=j,
            )
    return l


def repair_psd(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Make a sample covariance decomposable by adding the smallest jitter.

    Tries cov + jitter*I over the jitter ladder and returns the first
    decomposable matrix together with the jitter used. Indefinite input that
    survives no jitter is a hard error.
    """
    repaired, jitter, _ = _repair_and_factor(cov)
    return repaired, jitter


def _repair_and_factor(cov: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    # repair_psd plus the factor its successful rung computed
    cov = np.asarray(cov, dtype=np.float64)
    last_error: CholeskyError | None = None
    for jitter in PSD_JITTERS:
        candidate = cov + jitter * np.eye(cov.shape[0])
        try:
            factor = cholesky(candidate)
        except CholeskyError as err:
            last_error = err
            continue
        return candidate, jitter, factor
    raise CholeskyError(
        f"matrix not positive semidefinite even with jitter {PSD_JITTERS[-1]!r}: "
        f"{last_error}",
        pivot_index=last_error.pivot_index,
    )


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where supported)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _path_kernel(params: MarketParams, config: SimConfig):
    """The covariance jitter and ``cum_log(start, stop)``, the cumulative
    log-increments of paths [start, stop), shape (stop - start, n_steps, n_assets)."""
    if config.weights.tickers != params.tickers:
        raise SimulationError("weights do not match params tickers")
    _, jitter, factor = _repair_and_factor(params.cov)
    l_t = factor.T.copy()
    n_steps, n_assets = config.n_steps, params.n_assets
    sqrt_dt = math.sqrt(config.dt)
    drift = (params.mu - params.sigma**2 / 2.0) * config.dt

    def cum_log(start: int, stop: int) -> np.ndarray:
        z = np.empty((stop - start, n_steps, n_assets))
        # One bit generator per call, so threads never share one. Assigning
        # this state before each path re-keys it to (seed, p) with a zero
        # counter and an empty buffer, the state Philox(key=(seed, p)) starts
        # in. Lists of Python ints assign faster than uint64 arrays.
        key = [config.seed, 0]
        fresh = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        bit_gen = np.random.Philox()
        gen = np.random.Generator(bit_gen)
        for p in range(start, stop):
            key[1] = p
            bit_gen.state = fresh
            gen.standard_normal(out=z[p - start])
        out = z @ l_t
        out *= sqrt_dt
        out += drift
        np.cumsum(out, axis=1, out=out)
        return out

    return jitter, cum_log


def simulate(
    params: MarketParams, config: SimConfig, workers: int | None = None
) -> SimulationResult:
    """Generate correlated GBM paths and assemble terminal portfolio values.

    Deterministic given (params, config): the per-path streams make the
    output independent of chunking and of ``workers``: an int >= 1, or None
    for one thread per CPU this process may run on.
    """
    if workers is None:
        workers = _available_cpus()
    else:
        check("workers", workers, SimulationError)
    jitter, cum_log = _path_kernel(params, config)
    n_paths = config.n_paths
    s0 = config.initial_prices
    terminal_prices = np.empty((n_paths, params.n_assets))
    chunk = max(1, _CHUNK_NORMALS // (config.n_steps * params.n_assets))

    def run_chunk(start: int) -> None:
        stop = min(start + chunk, n_paths)
        terminal_prices[start:stop] = s0 * np.exp(cum_log(start, stop)[:, -1, :])

    chunk_starts = range(0, n_paths, chunk)
    workers = min(workers, len(chunk_starts))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_chunk, chunk_starts))
    else:
        for start in chunk_starts:
            run_chunk(start)

    if not np.all(terminal_prices > 0.0):
        raise SimulationError("simulated price not strictly positive")
    gross = terminal_prices / s0
    portfolio_values = config.initial_value * (gross @ config.weights.w)
    return SimulationResult(
        terminal_asset_prices=terminal_prices,
        terminal_portfolio_values=portfolio_values,
        config_echo=config,
        jitter=jitter,
    )


def _path_prices(params: MarketParams, config: SimConfig):
    """``prices(start, stop)``: paths [start, stop) rebuilt from their keys,
    shape (stop - start, n_steps + 1, n_assets), step 0 being the initial
    prices. The kernel is built once, here, for every later call."""
    _, cum_log = _path_kernel(params, config)
    s0 = config.initial_prices

    def prices(start: int, stop: int) -> np.ndarray:
        cum = cum_log(start, stop)
        out = np.empty((stop - start, config.n_steps + 1, params.n_assets))
        out[:, 0, :] = s0
        np.exp(cum, out=out[:, 1:, :])
        out[:, 1:, :] *= s0
        return out

    return prices


def _rebuild_paths(config: SimConfig, n_assets: int) -> int:
    """Paths per rebuild block."""
    return max(1, _REBUILD_CELLS // ((config.n_steps + 1) * n_assets))


def price_paths(params: MarketParams, config: SimConfig) -> Iterator[np.ndarray]:
    """Yield each path's (n_steps + 1, n_assets) prices in path order, step 0
    being the initial prices, rebuilt from its key a block at a time; the
    last step equals ``simulate``'s ``terminal_asset_prices`` bitwise."""
    prices = _path_prices(params, config)
    block = _rebuild_paths(config, params.n_assets)
    for start in range(0, config.n_paths, block):
        yield from prices(start, min(start + block, config.n_paths))

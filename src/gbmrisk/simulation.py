"""Correlated geometric Brownian motion simulation.

Per-asset log-increments over a step of size dt = T / n_steps are
(mu_i - sigma_i^2/2)*dt + sqrt(dt) * (correlated shock)_i, where the shock
row is z L' for independent standard normals z and the lower-triangular
Cholesky factor L of the annualized covariance.

Randomness contract: each path's normals come from the Philox stream keyed
by (master seed, path index) with a zero counter, consumed step-major; the
seed lies in [0, 2**64). ``simulate`` builds one Philox per chunk and
re-keys it for every path, which yields exactly the stream a fresh
``Philox(key=(seed, path))`` gives, and each path's shock rows are computed
apart from every other path's. Results are therefore bitwise identical for
any chunk size, execution order or worker count.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .estimation import MarketParams
from .optimizer import WeightVector
from .rules import RULES, check

__all__ = [
    "SimulationError",
    "CholeskyError",
    "SimConfig",
    "SimulationResult",
    "cholesky",
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

DEFAULT_N_PATHS = 10_000
DEFAULT_STEPS_PER_YEAR = 252
DEFAULT_INITIAL_VALUE = 100_000.0


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
    A scalar field that breaks its ``gbmrisk.rules.RULES`` entry raises a
    SimulationError naming the field.
    """

    weights: WeightVector
    n_paths: int = DEFAULT_N_PATHS
    horizon_years: float = 1.0
    steps_per_year: int = DEFAULT_STEPS_PER_YEAR
    seed: int = 42
    initial_value: float = DEFAULT_INITIAL_VALUE
    initial_prices: np.ndarray | None = None
    record_paths: bool = False

    def __post_init__(self):
        for f in fields(self):
            if f.name in RULES:
                check(f.name, getattr(self, f.name), SimulationError)
        if self.initial_prices is not None:
            s0 = np.asarray(self.initial_prices, dtype=np.float64)
            if s0.shape != (len(self.weights.w),):
                raise SimulationError("initial_prices shape mismatch")
            if np.any(s0 <= 0.0) or not np.all(np.isfinite(s0)):
                raise SimulationError("initial_prices must be positive")
            object.__setattr__(self, "initial_prices", s0)

    @property
    def n_steps(self) -> int:
        return max(1, round(self.horizon_years * self.steps_per_year))

    @property
    def dt(self) -> float:
        return self.horizon_years / self.n_steps


@dataclass(frozen=True)
class SimulationResult:
    """Terminal prices and portfolio values for every path.

    ``paths`` is populated (n_paths, n_steps+1, n_assets) only when the
    config sets record_paths; each chunk's slice is filled in place, and
    ``write_report_files`` streams it to ``paths.csv`` one path at a time.
    ``jitter`` echoes the PSD repair applied to the covariance before
    decomposition.
    """

    terminal_asset_prices: np.ndarray
    terminal_portfolio_values: np.ndarray
    config_echo: SimConfig
    jitter: float = 0.0
    paths: np.ndarray | None = None


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


def repair_psd(
    cov: np.ndarray, jitters: tuple[float, ...] = PSD_JITTERS
) -> tuple[np.ndarray, float]:
    """Make a sample covariance decomposable by adding the smallest jitter.

    Tries cov + jitter*I over the jitter ladder and returns the first
    decomposable matrix together with the jitter used. Indefinite input that
    survives no jitter is a hard error.
    """
    repaired, jitter, _ = _repair_and_factor(cov, jitters)
    return repaired, jitter


def _repair_and_factor(
    cov: np.ndarray, jitters: tuple[float, ...] = PSD_JITTERS
) -> tuple[np.ndarray, float, np.ndarray]:
    # repair_psd plus the factor its successful rung computed
    cov = np.asarray(cov, dtype=np.float64)
    last_error: CholeskyError | None = None
    for jitter in jitters:
        candidate = cov + jitter * np.eye(cov.shape[0])
        try:
            factor = cholesky(candidate)
        except CholeskyError as err:
            last_error = err
            continue
        return candidate, jitter, factor
    raise CholeskyError(
        f"matrix not positive semidefinite even with jitter {jitters[-1]!r}: "
        f"{last_error}",
        pivot_index=last_error.pivot_index,
    )


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where supported)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    n_assets = params.n_assets
    if config.weights.tickers != params.tickers:
        raise SimulationError("weights do not match params tickers")
    _, jitter, factor = _repair_and_factor(params.cov)
    l_t = factor.T.copy()

    n_paths = config.n_paths
    n_steps = config.n_steps
    dt = config.dt
    sqrt_dt = math.sqrt(dt)
    drift = (params.mu - params.sigma**2 / 2.0) * dt
    s0 = (
        np.ones(n_assets)
        if config.initial_prices is None
        else config.initial_prices
    )

    terminal_prices = np.empty((n_paths, n_assets))
    paths = (
        np.empty((n_paths, n_steps + 1, n_assets)) if config.record_paths else None
    )

    chunk = max(1, _CHUNK_NORMALS // (n_steps * n_assets))

    def run_chunk(start: int) -> None:
        stop = min(start + chunk, n_paths)
        z = np.empty((stop - start, n_steps, n_assets))
        # One bit generator per chunk, so threads never share one. Assigning
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
        cum_log = z @ l_t
        cum_log *= sqrt_dt
        cum_log += drift
        np.cumsum(cum_log, axis=1, out=cum_log)
        terminal_prices[start:stop] = s0 * np.exp(cum_log[:, -1, :])
        if paths is not None:
            # filled in place: no chunk-sized temporaries beside ``paths``
            block = paths[start:stop]
            block[:, 0, :] = s0
            np.exp(cum_log, out=block[:, 1:, :])
            block[:, 1:, :] *= s0

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
        paths=paths,
    )

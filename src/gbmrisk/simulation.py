"""Correlated geometric Brownian motion simulation.

Per-asset log-increments over a step of size dt = T / n_steps are
(mu_i - sigma_i^2/2)*dt + sqrt(dt) * (correlated shock)_i, where the shock
row is z L' for independent standard normals z and the lower-triangular
Cholesky factor L of the annualized covariance.

Randomness contract: each path's normals come from the Philox stream keyed
by (master seed, path index) with a zero counter, consumed step-major; the
seed lies in [0, 2**64). One draw, ``_path_normals``, serves both
``simulate``, which keeps each path's last step, and ``_PathKernel.cum_log``,
through which ``gbmrisk.paths_csv`` rebuilds whole paths. A draw builds one
Philox and re-keys it for every path, which yields exactly the stream a
fresh ``Philox(key=(seed, path))`` gives; each path's shock rows are
computed apart from every other path's, and ``simulate`` sums a path's
steps in step order, as the cumsum does. Results are therefore bitwise
identical for any chunk size, execution order or worker count.

``simulate`` splits the paths into ``workers`` contiguous ranges, by
default one per CPU this process may run on, never more than there are
chunks; ``workers=1`` forces a serial run. The calling process works
through the first range itself and forks one process for each other range
(``gbmrisk.forking.run_forked``), which sends its paths' summed
log-increments back down a pipe; every process is reaped before ``simulate``
returns or raises. Each process draws on its own interpreter, so the
per-path re-keying does not queue on one lock. Off Linux, where fork
without exec is unsafe, the run is serial.

A path's shock product, (n_steps x n_assets) @ (n_assets x n_assets), is
computed in near-equal consecutive step slices, planned once per run, of
at most max(2, ``_BLAS_THREADED_MACS`` // n_assets**2) rows each: a single
product wherever the whole path fits (n_steps x n_assets**2 <= 1e6, the
fixtures among them). numpy's OpenBLAS runs a product that small on one
thread, so a wide run forks like a narrow one, and its bits do not depend
on the CPU count. Only past 707 assets, where even two rows cross the
bound, is the default one range.

Each range is worked through in chunks of as many whole paths as fit in
``_CHUNK_NORMALS`` normals, and at least one: 256 paths at 252 steps x 3
assets, fewer with more assets or steps. One pair of chunk-sized arrays,
allocated before the fork, serves every chunk of a range, each process
writing its own copy-on-write copy, so a process's memory stays bounded
and within a 2 MiB cache, and a wide run of few paths still splits into
several chunks.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np

from . import forking
from .estimation import MarketParams
from .optimizer import WeightVector
from .rules import RULES, check, step_count

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
# Normals per vectorized block: a chunk is max(1, _CHUNK_NORMALS //
# (n_steps * n_assets)) whole paths. Results do not depend on it; it sets
# per-process memory, two reused arrays of at most _CHUNK_NORMALS floats
# (~1.5 MB each, so a chunk's shocks stay in a 2 MiB L2 cache) unless a
# single path draws more, and how finely a wide run splits across processes.
_CHUNK_NORMALS = 256 * 252 * 3
# OpenBLAS (0.3.31, as numpy 2.4 bundles it) threads a matrix product of
# more multiply-adds than this, and its bits then depend on the CPU count;
# a product at most this size runs on one thread. A path's shock product is
# cut into step slices under it, so the run splits across processes instead.
_BLAS_THREADED_MACS = 1_000_000


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
    """Terminal prices and portfolio values for every path; ``jitter``
    echoes the PSD repair applied to the covariance before decomposition."""

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


def _step_slices(n_steps: int, n_assets: int) -> tuple[slice, ...]:
    """Near-equal consecutive slices of a path's steps, each of at most
    max(2, ``_BLAS_THREADED_MACS`` // n_assets**2) rows; one slice, the
    whole path, wherever it fits."""
    rows = max(2, _BLAS_THREADED_MACS // n_assets**2)
    k = -(-n_steps // rows)
    bounds = [n_steps * i // k for i in range(k + 1)]
    return tuple(slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]))


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where supported)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _path_normals(seed: int):
    """``fill(start, z)``: z[i] gets the normals of path start + i, step-major.

    One bit generator serves every call; a forked process re-keys its own
    copy. Assigning this state before each path re-keys it to (seed, p)
    with a zero counter and an empty buffer, the state Philox(key=(seed, p))
    starts in. Lists of Python ints assign faster than uint64 arrays.
    """
    key = [seed, 0]
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

    def fill(start: int, z: np.ndarray) -> None:
        for p, row in enumerate(z, start):
            key[1] = p
            bit_gen.state = fresh
            gen.standard_normal(out=row)

    return fill


@dataclass(frozen=True)
class _PathKernel:
    """One run's log-increments: step k of path p is ``drift + sqrt_dt *
    (z_k @ l_t)``, z_k being the k-th row of path p's normals; ``slices``
    are the step slices the shock product is computed in."""

    jitter: float
    l_t: np.ndarray
    sqrt_dt: float
    drift: np.ndarray
    seed: int
    n_steps: int
    slices: tuple[slice, ...]

    def shock_product(self, z: np.ndarray, out: np.ndarray) -> None:
        """``out`` = ``z @ l_t`` for normals z of shape (paths, n_steps,
        n_assets), one product per step slice."""
        for s in self.slices:
            np.matmul(z[:, s], self.l_t, out=out[:, s])

    def cum_log(self, start: int, stop: int) -> np.ndarray:
        """Cumulative log-increments of paths [start, stop), shape
        (stop - start, n_steps, n_assets)."""
        z = np.empty((stop - start, self.n_steps, len(self.drift)))
        _path_normals(self.seed)(start, z)
        out = np.empty_like(z)
        self.shock_product(z, out)
        out *= self.sqrt_dt
        out += self.drift
        np.cumsum(out, axis=1, out=out)
        return out


def _path_kernel(params: MarketParams, config: SimConfig) -> _PathKernel:
    """The kernel of a run of ``config`` on ``params``."""
    if config.weights.tickers != params.tickers:
        raise SimulationError("weights do not match params tickers")
    _, jitter, factor = _repair_and_factor(params.cov)
    return _PathKernel(
        jitter=jitter,
        l_t=factor.T.copy(),
        sqrt_dt=math.sqrt(config.dt),
        drift=(params.mu - params.sigma**2 / 2.0) * config.dt,
        seed=config.seed,
        n_steps=config.n_steps,
        slices=_step_slices(config.n_steps, params.n_assets),
    )


def _fold_steps(rows: np.ndarray, out: np.ndarray) -> None:
    """``out`` = the sum of ``rows`` over steps, added in step order: bitwise
    the last row of their cumsum."""
    if rows.shape[1] == 1:
        # add.reduce sums a lone column pairwise, not in step order
        out[:] = np.cumsum(rows, axis=0)[-1]
    else:
        np.add.reduce(rows, axis=0, out=out)


def simulate(
    params: MarketParams, config: SimConfig, workers: int | None = None
) -> SimulationResult:
    """Generate correlated GBM paths and assemble terminal portfolio values.

    Deterministic given (params, config): the per-path streams make the
    output independent of chunking and of ``workers``: an int >= 1, or None
    for one process per CPU this process may run on, or one process in all
    past 707 assets, where even a two-step slice of the shock product takes
    more than ``_BLAS_THREADED_MACS`` multiply-adds, which BLAS threads. The
    calling process works the first range and forks one process per other
    range, on Linux only; what a forked range raises is raised here.
    """
    n_paths, n_steps, n_assets = config.n_paths, config.n_steps, params.n_assets
    if workers is None:
        blas_threaded = 2 * n_assets**2 > _BLAS_THREADED_MACS
        workers = 1 if blas_threaded else _available_cpus()
    else:
        check("workers", workers, SimulationError)
    kernel = _path_kernel(params, config)
    s0 = config.initial_prices
    chunk = max(1, _CHUNK_NORMALS // (n_steps * n_assets))
    workers = forking.process_count(min(workers, -(-n_paths // chunk)))
    bounds = [n_paths * w // workers for w in range(workers + 1)]
    ranges = list(zip(bounds[:-1], bounds[1:]))
    chunk = min(chunk, -(-n_paths // workers))  # no range holds more paths
    # The result comes first and is finished in place, so nothing that
    # outlives this call sits above the chunk arrays on the heap.
    terminal = np.empty((n_paths, n_assets))
    size = chunk * n_steps * n_assets
    normals, steps = np.empty(size), np.empty(size)
    drift = np.tile(kernel.drift, chunk)
    fill = _path_normals(config.seed)

    def run_range(start: int, stop: int) -> None:
        for lo in range(start, stop, chunk):
            n = min(chunk, stop - lo)
            z = normals[:n * n_steps * n_assets].reshape(n, n_steps, n_assets)
            fill(lo, z)
            shocks = steps[:z.size].reshape(n_steps, n, n_assets)
            # step-major, so each step's shocks are one contiguous row
            kernel.shock_product(z, shocks.transpose(1, 0, 2))
            rows = shocks.reshape(n_steps, n * n_assets)
            rows *= kernel.sqrt_dt
            rows += drift[:n * n_assets]
            _fold_steps(rows, terminal[lo:lo + n].reshape(-1))

    def forked_range(paths: tuple[int, int]) -> np.ndarray:
        run_range(*paths)
        return terminal[slice(*paths)]

    def receive(paths: tuple[int, int], size: int, read) -> None:
        terminal[slice(*paths)].reshape(-1)[:] = np.frombuffer(read(size))

    if workers > 1:
        forking.run_forked(forked_range, ranges[1:], workers - 1, receive,
                           local=lambda: run_range(*ranges[0]))
    else:
        run_range(0, n_paths)

    np.exp(terminal, out=terminal)
    terminal *= s0
    if not np.all(terminal > 0.0):
        raise SimulationError("simulated price not strictly positive")
    gross = terminal / s0
    portfolio_values = config.initial_value * (gross @ config.weights.w)
    return SimulationResult(
        terminal_asset_prices=terminal,
        terminal_portfolio_values=portfolio_values,
        config_echo=config,
        jitter=kernel.jitter,
    )

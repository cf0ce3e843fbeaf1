"""Correlated geometric Brownian motion simulation.

The portfolio is bought and held, so a run needs only the prices at the
horizon T, and these have exactly the law of the step walk's endpoint:
log S_T = log S_0 + (mu - sigma^2/2) T + sqrt(T) z L', for A independent
standard normals z (A assets) and the Cholesky factor L of the annualized
covariance (Glasserman, Monte Carlo Methods in Financial Engineering,
2003, 3.2). ``simulate`` draws those A normals a path; the paths.csv
writer rebuilds a path's steps by a Brownian bridge pinned to them.

Randomness contract: path p's terminal normals come from the Philox stream
keyed (seed, p) whose counter starts at (0, 0, 0, 2**63), the seed in
[0, 2**64); its step normals from the same key at counter 0, a range the
terminal draw never reaches (Salmon et al., Random123, SC'11).

z L' is a fixed-order elementwise sum, not a BLAS product, whose rounding
varies with the row and thread counts. So a path's prices depend on its key
alone: a run's first k paths equal a k-path run bitwise, on any CPU count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .estimation import MarketParams
from .optimizer import WeightVector
from .rules import RULES, check, step_count

__all__ = ["SimulationError", "CholeskyError", "SimConfig", "SimulationResult",
           "cholesky", "repair_psd", "simulate"]

PSD_JITTERS = (0.0, 1e-12, 1e-10, 1e-8)
_PIVOT_TOL = 1e-10
_TERMINAL_COUNTER = 2**63  # the top counter word the terminal streams start at


class SimulationError(ValueError):
    """Raised on invalid simulation inputs."""


class CholeskyError(SimulationError):
    """Raised when a matrix is not decomposable; carries the failing pivot."""

    def __init__(self, message: str, pivot_index: int):
        super().__init__(message)
        self.pivot_index = pivot_index


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run configuration: by default 10,000 paths over one year
    in 252 steps from a $100,000 start. ``initial_prices`` are per-asset
    starting prices (all 1.0 when omitted: prices are gross returns). A
    scalar field, or ``n_steps``, that breaks its ``gbmrisk.rules.RULES``
    entry raises a SimulationError naming it."""

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
    # always None, as no run holds its paths; kept for perfbench/spans.py
    paths: None = None


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
                f"matrix not positive semidefinite: pivot {j} = {s:.3e}", j)
        l[j, j] = math.sqrt(max(s, 0.0))
        below = cov[j + 1:, j] - l[j + 1:, :j] @ l[j, :j]
        if l[j, j] > 0.0:
            l[j + 1:, j] = below / l[j, j]
            continue
        residual = below[np.abs(below) > _PIVOT_TOL]
        if residual.size:
            raise CholeskyError(
                f"matrix not positive semidefinite: zero pivot {j} with "
                f"nonzero off-diagonal residual {residual[0]:.3e}", j)
    return l


def repair_psd(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """The first cov + jitter*I over the jitter ladder that decomposes, and
    the jitter used; indefinite input that no jitter repairs is an error."""
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
        f"{last_error}", last_error.pivot_index)


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where supported)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill_normals(z: np.ndarray, seed: int, start: int, counter: int = 0):
    """z[i] = the normals of path start + i, keyed (seed, start + i) with
    the counter's top word ``counter``; a 3-d z fills step-major. One
    Philox serves every path: assigning it this state re-keys it with a
    fresh counter and an empty buffer, the state a new Philox starts in;
    lists of Python ints assign faster than uint64 arrays."""
    key = [seed, 0]
    fresh = {"bit_generator": "Philox", "buffer": [0, 0, 0, 0],
             "state": {"counter": [0, 0, 0, counter], "key": key},
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    bit_gen = np.random.Philox()
    gen = np.random.Generator(bit_gen)
    for p, row in enumerate(z, start):
        key[1] = p
        bit_gen.state = fresh
        gen.standard_normal(out=row)


def _correlate(z: np.ndarray, l: np.ndarray) -> np.ndarray:
    """L z over z's first axis (assets), for the lower-triangular ``l``:
    row c adds L[c, j] * z[j] for j = 0..c in order, elementwise, so each
    element's bits depend on its own column of z alone, and every
    operation runs along a row, not across a few assets."""
    column = (slice(None),) + (None,) * (z.ndim - 1)
    out = l[:, 0][column] * z[0]
    for j in range(1, len(l)):
        out[j:] += l[j:, j][column] * z[j]
    return out


@dataclass(frozen=True)
class _PathKernel:
    """One run's draw; ``drift`` is mu - sigma^2/2 and ``l`` the Cholesky
    factor of the repaired covariance."""

    jitter: float
    l: np.ndarray
    drift: np.ndarray
    horizon: float
    seed: int

    def terminal(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Paths [start, stop)'s terminal normals and log(S_T / S_0), each
        (paths, assets)."""
        z = np.empty((stop - start, len(self.drift)))
        _fill_normals(z, self.seed, start, _TERMINAL_COUNTER)
        log_t = _correlate(z.T, self.l)
        log_t *= math.sqrt(self.horizon)
        log_t += (self.drift * self.horizon)[:, None]
        return z, np.ascontiguousarray(log_t.T)


def _path_kernel(params: MarketParams, config: SimConfig) -> _PathKernel:
    """The kernel of a run of ``config`` on ``params``."""
    if config.weights.tickers != params.tickers:
        raise SimulationError("weights do not match params tickers")
    _, jitter, factor = _repair_and_factor(params.cov)
    return _PathKernel(jitter, factor, params.mu - params.sigma**2 / 2.0,
                       config.horizon_years, config.seed)


def simulate(
    params: MarketParams, config: SimConfig, workers: int | None = None
) -> SimulationResult:
    """Draw every path's terminal prices and assemble portfolio values.

    Deterministic given (params, config), path by path. ``workers`` is
    checked by its rule and otherwise has no effect, the run being serial;
    it stays because perfbench/run.py passes it.
    """
    if workers is not None:
        check("workers", workers, SimulationError)
    kernel = _path_kernel(params, config)
    s0 = config.initial_prices
    _, terminal = kernel.terminal(0, config.n_paths)
    np.exp(terminal, out=terminal)
    terminal *= s0
    if not np.all(terminal > 0.0):
        raise SimulationError("simulated price not strictly positive")
    values = config.initial_value * ((terminal / s0) @ config.weights.w)
    return SimulationResult(terminal, values, config, kernel.jitter)

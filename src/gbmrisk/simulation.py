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

Philox is counter-based, so ``simulate`` computes the words of thousands
of paths at once in uint64 arithmetic, and turns each into a normal by
numpy's ziggurat fast path (Marsaglia & Tsang, 2000), one exact multiply
by an entry of numpy's own tables. A path where some word leaves the fast
path, ~4% at 3 assets, is drawn by numpy's generator re-keyed for it, as
the paths.csv writer draws every path. Past 23 assets, where more than
30% of paths would leave the pass, ``simulate`` draws every path that way.
Both give the bits of a Philox built for the path.

z L' is a fixed-order elementwise sum, not a BLAS product, whose rounding
varies with the row and thread counts. So a path's prices depend on its key
alone: a run's first k paths equal a k-path run bitwise, on any CPU count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import _ziggurat
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


def _fill_normals(z: np.ndarray, seed: int, paths, counter: int = 0):
    """z[i] = the normals of path paths[i], keyed (seed, paths[i]) with
    the counter's top word ``counter``; a 3-d z fills step-major. One
    Philox serves every path: assigning it this state re-keys it with a
    fresh counter and an empty buffer, the state a new Philox starts in,
    so it is built from a constant seed, not from OS entropy; lists of
    Python ints assign faster than uint64 arrays."""
    key = [seed, 0]
    fresh = {"bit_generator": "Philox", "buffer": [0, 0, 0, 0],
             "state": {"counter": [0, 0, 0, counter], "key": key},
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    bit_gen = np.random.Philox(0)
    gen = np.random.Generator(bit_gen)
    for p, row in zip(paths, z):
        key[1] = p
        bit_gen.state = fresh
        gen.standard_normal(out=row)


# Philox4x64-10 (Salmon et al., SC'11), as numpy's Philox computes it: its
# round multipliers, each with its 32-bit halves, and key increments
_PHILOX_M = tuple((np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32))
                  for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32, _BITS32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# numpy's ziggurat tables indexed by a word's low 9 bits, layer and sign:
# the sign folds into WI, as rabs * -w is -(rabs * w) bit for bit
_KI = np.tile(np.array(_ziggurat.KI, dtype=np.uint64), 2)
_WI = np.concatenate([_ziggurat.WI, np.negative(_ziggurat.WI)])
_LAYER_SIGN, _RABS = np.uint64(0x1FF), np.uint64(2**52 - 1)
# The vector pass draws every path's words, then redraws by _fill_normals
# each path where some normal leaves the ziggurat's fast path, which one
# normal takes with probability _FAST_NORMAL. A path of A normals stays in
# the pass with probability _FAST_NORMAL**A, and below _VECTOR_SHARE of such
# paths drawing every path by _fill_normals alone is faster. In-process
# medians of _PathKernel.terminal put the crossover near 20 assets at 1e3
# paths and near 30 at 1e4, shares of 0.74 and 0.62: at 1e3 paths the pass
# took 1.4 ms against 2.4 ms at 10 assets, and 7.6 ms against 6.2 ms at 50.
_FAST_NORMAL = 0.9851
_VECTOR_SHARE = 0.7
# (path, block) pairs per vector pass: a pass holds a few dozen arrays of
# that many words, so this bounds its memory; the bits do not depend on it.
_DRAW_BLOCKS = 16384


def _mulhilo(multiplier: tuple,
             x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of the 128-bit products m * x, for an entry
    (m, m_lo, m_hi) of _PHILOX_M, from 32-bit halves; no partial sum passes
    2**64 - 1. In place where it can be: a fresh array costs more than the
    arithmetic on it."""
    m, m_lo, m_hi = multiplier
    lo = x * m
    hi = x >> _BITS32
    x_lo = x & _LOW32
    carry = hi * m_lo
    part = x_lo * m_lo
    part >>= _BITS32
    carry += part
    x_lo *= m_hi
    np.bitwise_and(carry, _LOW32, out=part)
    x_lo += part
    carry >>= _BITS32
    x_lo >>= _BITS32
    hi *= m_hi
    hi += carry
    hi += x_lo
    return hi, lo


def _philox_words(seed: int, paths: np.ndarray, blocks: int) -> np.ndarray:
    """The first 4 * blocks words of the terminal streams keyed (seed, p)
    for p in the uint64 array ``paths``, one column a path: block b is
    Philox4x64-10 of the counter (b + 1, 0, 0, 2**63), the block numpy's
    Philox yields b-th after a re-key."""
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[:, None]
    c1 = c2 = np.zeros((1, 1), np.uint64)
    c3 = np.full((1, 1), _TERMINAL_COUNTER, np.uint64)
    k0, k1 = seed, paths[None, :].copy()
    for r in range(10):
        if r:
            k0 = (k0 + _PHILOX_W[0]) % 2**64
            k1 += np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=1)
    return words.reshape(4 * blocks, len(paths))


def _terminal_normals(z: np.ndarray, seed: int, start: int):
    """z[:, i] = the first len(z) terminal normals of path start + i, as
    ``_fill_normals`` draws them, bit for bit; z is (normals, paths).

    The Philox words of many paths at once go through numpy's ziggurat
    fast path, an exact multiply rabs * WI[idx], a pass per _DRAW_BLOCKS
    (path, block) pairs; the paths where some word leaves it, ~1.5% of
    words, are redrawn by ``_fill_normals``."""
    count = len(z)
    blocks = -(-count // 4)
    step = max(1, _DRAW_BLOCKS // blocks)
    for lo in range(0, z.shape[1], step):
        cols = z[:, lo:lo + step]
        paths = np.arange(start + lo, start + lo + cols.shape[1],
                          dtype=np.uint64)
        words = _philox_words(seed, paths, blocks)[:count]
        layer_sign = (words & _LAYER_SIGN).astype(np.intp)
        rabs = words >> np.uint64(9)
        rabs &= _RABS
        np.multiply(rabs, _WI[layer_sign], out=cols)
        slow = np.flatnonzero(np.logical_or.reduce(rabs >= _KI[layer_sign]))
        if slow.size:
            redrawn = np.empty((slow.size, count))
            _fill_normals(redrawn, seed, paths[slow].tolist(),
                          _TERMINAL_COUNTER)
            cols[:, slow] = redrawn.T


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

    def terminal(self, start: int, stop: int) -> np.ndarray:
        """Paths [start, stop)'s log(S_T / S_0), (paths, assets), from
        their terminal normals: drawn by the vector pass where it pays,
        path by path through ``_fill_normals`` elsewhere, the same bits
        either way."""
        n_assets = len(self.drift)
        if _FAST_NORMAL**n_assets >= _VECTOR_SHARE:
            z = np.empty((n_assets, stop - start))
            _terminal_normals(z, self.seed, start)
        else:
            z = np.empty((stop - start, n_assets))
            _fill_normals(z, self.seed, range(start, stop), _TERMINAL_COUNTER)
            # asset-major, as _correlate works along an asset's paths
            z = np.ascontiguousarray(z.T)
        return self.log_terminal(z.T)

    def log_terminal(self, z: np.ndarray) -> np.ndarray:
        """log(S_T / S_0) of the paths whose terminal normals are z's rows,
        (paths, assets)."""
        log_t = _correlate(z.T, self.l)
        log_t *= math.sqrt(self.horizon)
        log_t += (self.drift * self.horizon)[:, None]
        return np.ascontiguousarray(log_t.T)


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
    terminal = kernel.terminal(0, config.n_paths)
    np.exp(terminal, out=terminal)
    terminal *= s0
    if not np.all(terminal > 0.0):
        raise SimulationError("simulated price not strictly positive")
    values = config.initial_value * ((terminal / s0) @ config.weights.w)
    return SimulationResult(terminal, values, config, kernel.jitter)

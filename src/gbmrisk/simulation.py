"""Correlated geometric Brownian motion simulation.

The portfolio is bought and held, so a run needs only the prices at the
horizon T, and these have exactly the law of the step walk's endpoint:
log S_T = log S_0 + (mu - sigma^2/2) T + sqrt(T) z L', for A independent
standard normals z (A assets) and the Cholesky factor L of the annualized
covariance (Glasserman, Monte Carlo Methods in Financial Engineering,
2003, 3.2). ``simulate`` draws those A normals a path.

Randomness contract: every normal of a run comes from one Philox4x64-10
stream (Salmon et al., Random123, SC'11), numpy's ``Philox`` keyed
(seed, 0), the seed in [0, 2**64), and each path owns a range of its
counter. Path p's first ``count`` normals of a kind take the
b = ceil(count / 4) blocks after the counter p b + top 2**192, the top word
being 2**63 for its A terminal normals and 0 for its n_steps A step
normals, so the two ranges never meet. A path's normals are thus a pure
function of (seed, p, count), and those of paths [start, stop) are one run
of the stream, which ``random_raw`` draws in C; NEP 19 keeps a
bit generator's stream stable across numpy versions.

A normal is Phi^-1(u) for its word w, u = ((w >> 12) + 0.5) 2**-52: every
u is exact, in [2**-53, 1 - 2**-53], and the word ~w draws -z. Phi^-1 is
Wichura's AS241 (Applied Statistics 37(3), 1988) with the coefficients and
evaluation order of the standard library's ``statistics.NormalDist()
.inv_cdf``. There is no rejection, so a path takes exactly 4 b words. The
central polynomial runs on every u by IEEE +, -, * and /, each its own
numpy call, whose bits depend on no CPU feature. The ~15% of u with
|u - 1/2| > 0.425 then take the tail polynomials after ``np.log`` and
``np.sqrt``: ``np.log`` keeps them in the numpy dispatch domain that
``log_returns`` already puts every VaR in.

``_PathKernel.log_paths`` rebuilds a path's steps for paths.csv by a
Brownian bridge (Glasserman, 2003, 3.1): walks B_k of the path's step
normals are pinned to its terminal normals z_T by
W_k = B_k + (k/n) (sqrt(T) z_T - B_n), then take L' and k steps of drift.
Both take z_T to log prices by ``log_terminal``: its last step equals
``simulate``'s bitwise.

z L' is a fixed-order elementwise sum, not a BLAS product, whose rounding
varies with the row and thread counts. So a path's prices depend on
(seed, p) alone: a run's first k paths equal a k-path run bitwise, on any
CPU count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .estimation import MarketParams
from .optimizer import WeightVector
from .rules import RULES, check, step_count

__all__ = ["SimulationError", "CholeskyError", "SimConfig", "SimulationResult",
           "cholesky", "repair_psd", "simulate"]

PSD_JITTERS = (0.0, 1e-12, 1e-10, 1e-8)
_PIVOT_TOL = 1e-10
_TERMINAL_TOP = 2**63  # the top counter word of the terminal normals


class SimulationError(ValueError):
    """Raised on invalid simulation inputs."""


class CholeskyError(SimulationError):
    """Raised when a matrix is not decomposable; carries the failing pivot."""

    def __init__(self, message: str, pivot_index: int):
        super().__init__(message)
        self.pivot_index = pivot_index

    def __reduce__(self):  # pickle calls __init__ with these arguments
        return type(self), (self.args[0], self.pivot_index), self.__dict__


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


# AS241's (numerator, denominator) coefficients, highest power first, as
# statistics._normal_dist_inv_cdf writes them: in r = 0.180625 - q**2 for
# |q| = |u - 1/2| <= 0.425, and beyond in r = sqrt(-log(min(u, 1 - u)))
# less 1.6 up to r = 5 and less 5 past it
_CENTRAL = ((2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4,
             6.72657_70927_00870_0853e+4, 4.59219_53931_54987_1457e+4,
             1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
             1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0),
            (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4,
             3.93078_95800_09271_0610e+4, 2.12137_94301_58659_5867e+4,
             5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
             4.23133_30701_60091_1252e+1, 1.0))
_NEAR = ((7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2,
          2.41780_72517_74506_11770e-1, 1.27045_82524_52368_38258e+0,
          3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
          4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0),
         (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4,
          1.51986_66563_61645_71966e-2, 1.48103_97642_74800_74590e-1,
          6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
          2.05319_16266_37758_82187e+0, 1.0))
_FAR = ((2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5,
         1.24266_09473_88078_43860e-3, 2.65321_89526_57612_30930e-2,
         2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
         5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0),
        (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7,
         1.84631_83175_10054_68180e-5, 7.86869_13114_56132_59100e-4,
         1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
         5.99832_20655_58879_37690e-1, 1.0))
# Philox blocks per vector pass, in whole paths and at least one: a pass
# holds a few dozen arrays of 4 words a block, so this bounds its memory;
# the bits do not depend on it.
_DRAW_BLOCKS = 16384


def _polynomial(coefficients: tuple, r: np.ndarray) -> np.ndarray:
    """(...(c[0] r + c[1]) r + ...) r + c[-1], each + and * its own numpy
    call, in the order the standard library evaluates it."""
    out = r * coefficients[0]
    for c in coefficients[1:-1]:
        out += c
        out *= r
    out += coefficients[-1]
    return out


def _ratio(pair: tuple, r: np.ndarray) -> np.ndarray:
    """A (numerator, denominator) pair of AS241 polynomials at r."""
    out = _polynomial(pair[0], r)
    out /= _polynomial(pair[1], r)
    return out


def _inverse_normal(words: np.ndarray) -> np.ndarray:
    """Phi^-1(u), u = ((w >> 12) + 0.5) 2**-52, of each word w, as
    ``statistics.NormalDist().inv_cdf`` evaluates it but with ``np.log``:
    the central branch on every u, then the tails patched in."""
    u = (words >> np.uint64(12)).astype(np.float64).reshape(-1)
    u += 0.5
    u *= 2.0**-52
    q = u - 0.5
    r = q * q
    np.subtract(0.180625, r, out=r)
    z = _polynomial(_CENTRAL[0], r)
    z *= q
    z /= _polynomial(_CENTRAL[1], r)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    q, r = q[tail], u[tail]
    np.subtract(1.0, r, out=r, where=q > 0.0)
    np.log(r, out=r)
    np.negative(r, out=r)
    np.sqrt(r, out=r)
    far = np.flatnonzero(r > 5.0)
    x = _ratio(_NEAR, r - 1.6)
    if far.size:
        x[far] = _ratio(_FAR, r[far] - 5.0)
    np.negative(x, out=x, where=q < 0.0)
    z[tail] = x
    return z.reshape(words.shape)


def _normals(seed: int, top: int, start: int, stop: int,
             count: int) -> np.ndarray:
    """The first ``count`` normals of each path in [start, stop) at top
    counter word ``top``, (paths, count): one Philox, built at path start's
    counter, draws each pass of _DRAW_BLOCKS blocks by one ``random_raw``."""
    blocks = -(-count // 4)
    bit_gen = np.random.Philox(key=seed, counter=start * blocks + top * 2**192)
    z = np.empty((stop - start, count))
    step = max(1, _DRAW_BLOCKS // blocks)
    for lo in range(0, len(z), step):
        rows = z[lo:lo + step]
        words = bit_gen.random_raw(4 * blocks * len(rows))
        rows[:] = _inverse_normal(words.reshape(len(rows), -1)[:, :count])
    return z


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

    def normals(self, start: int, stop: int) -> np.ndarray:
        """Paths [start, stop)'s terminal normals, (assets, paths)."""
        return _normals(self.seed, _TERMINAL_TOP, start, stop,
                        len(self.drift)).T

    def terminal(self, start: int, stop: int) -> np.ndarray:
        """Paths [start, stop)'s log(S_T / S_0), (paths, assets)."""
        return self.log_terminal(self.normals(start, stop))

    def log_terminal(self, z: np.ndarray) -> np.ndarray:
        """log(S_T / S_0), (paths, assets), of the paths whose terminal
        normals are z's columns, (assets, paths)."""
        log_t = _correlate(z, self.l)
        log_t *= math.sqrt(self.horizon)
        log_t += (self.drift * self.horizon)[:, None]
        return np.ascontiguousarray(log_t.T)

    def log_paths(self, start: int, z_t: np.ndarray,
                  n_steps: int) -> np.ndarray:
        """log(S_k / S_0) at steps 1..n_steps, (paths, steps, assets), of
        the paths start, start + 1, ... whose terminal normals are z_t's
        columns, (assets, paths), by the Brownian bridge above, worked
        asset-major so that every operation runs along a path's steps."""
        n_assets, count = z_t.shape
        log_t = self.log_terminal(z_t)
        z = _normals(self.seed, 0, start, start + count, n_steps * n_assets)
        dt = self.horizon / n_steps
        walk = np.ascontiguousarray(
            z.reshape(count, n_steps, n_assets).transpose(2, 0, 1))
        walk *= math.sqrt(dt)
        np.cumsum(walk, axis=2, out=walk)
        k = np.arange(1, n_steps + 1)
        pin = math.sqrt(self.horizon) * z_t - walk[..., -1]
        walk += k / n_steps * pin[..., None]
        log = _correlate(walk, self.l)
        log += (self.drift * dt)[:, None, None] * k
        log = np.ascontiguousarray(log.transpose(1, 2, 0))
        log[:, -1] = log_t
        return log


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

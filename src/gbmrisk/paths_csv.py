"""paths.csv: the prices of every recorded path, one row per price.

Rows are ``path,step,ticker,price`` with floats as ``repr``, in path, step
and ticker order, step 0 being the initial prices. The paths are not
stored: each is a pure function of its key (seed, path index), so they are
rebuilt a block at a time (12 whole paths at 252 steps x 3 assets), and
each block is formatted apart from every other, so the bytes are the same
for any block size or number of processes.

A block is formatted in one vectorized pass (``gbmrisk._shortest``): each
price's shortest round-trip digits, the ones ``repr`` prints, come from one
error-free product and integer arithmetic, and ``repr`` itself formats
only the ~0.7% of prices the pass cannot certify. The rows are laid out
as fixed-width fields in one byte buffer, "{path}," | "{step}," |
"{ticker}," | price | newline, the prices written straight into it, each
field padded to the widest of its kind in the block with a byte UTF-8
never holds; deleting that byte leaves the block's rows. A price field
keeps only the point and leading-zero columns some price of its block
uses: ~24 bytes of the 36 a price may need, for crypto_like's prices.

A path is rebuilt by a Brownian bridge (Glasserman, Monte Carlo Methods in
Financial Engineering, 2003, 3.1): independent walks B_k from the path's
step normals are pinned to its terminal normals z_T, the draw ``simulate``
makes, by W_k = B_k + (k/n) (sqrt(T) z_T - B_n); then L' and k steps of
drift apply. The last step is set to ``simulate``'s terminal prices: the
writer draws z_T path by path, where ``simulate`` draws it for thousands of
paths at once, with the same bits, and both take it to log prices by the
kernel's ``log_terminal``, so it equals them bitwise.

On Linux, with more than one CPU and more than one block, the blocks are
formatted in forked processes through ``gbmrisk.forking.run_forked``, one
process per CPU this process may run on and at most one per block, each
started on a CPU of its own. Each process writes its own blocks into the
file with ``os.pwrite``; the writing process writes the header, and sends
each block its offset, which it sums from the lengths of the blocks before
it. A formatting process formats its next block while its last one waits
for that offset, so it holds at most two blocks; the writing process holds
none and copies no byte of one, whatever the process count. Elsewhere, or
on one CPU or with one block, the writing process formats the blocks
itself, one at a time, and writes each in turn.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import _shortest, forking
from .estimation import MarketParams
from .simulation import (_TERMINAL_COUNTER, SimConfig, _correlate,
                         _fill_normals, _path_kernel, _PathKernel)

__all__ = ["write_paths_csv"]

# Prices per block, the unit in which whole paths are rebuilt and formatted:
# 12 paths at 252 steps x 3 assets (~270 KB of rows), and at least one. The
# bytes do not depend on it; it trades a block's memory against the fixed
# cost of a rebuild, two Philox builds, and of the ~100 numpy calls that
# format it. Larger blocks would be faster on two CPUs: at 24 paths the
# benchmark's record_paths op took 0.138 s against 0.158 s (medians, lower
# in 5 of 5 pairs), and 48 paths were slower than 24. The serial write's
# 1 MB memory bound holds the block at 12 paths: its traced peak is 884 KB
# there, 1,162 KB at 16 paths, and Reprs of one block peaks at 786 KB.
_REBUILD_CELLS = 12 * 253 * 3


def _block_paths(sim_config: SimConfig, n_assets: int) -> int:
    """Paths per block."""
    return max(1, _REBUILD_CELLS // ((sim_config.n_steps + 1) * n_assets))


def _log_paths(kernel: _PathKernel, n_steps: int, start: int,
               stop: int) -> np.ndarray:
    """log(S_k / S_0) of paths [start, stop) at steps 1..n_steps, shape
    (stop - start, n_steps, n_assets), by the Brownian bridge above, worked
    asset-major so that every operation runs along a path's steps."""
    paths = range(start, stop)
    z_t = np.empty((stop - start, len(kernel.drift)))
    _fill_normals(z_t, kernel.seed, paths, _TERMINAL_COUNTER)
    log_t = kernel.log_terminal(z_t)
    z = np.empty((stop - start, n_steps, z_t.shape[1]))
    _fill_normals(z, kernel.seed, paths)
    dt = kernel.horizon / n_steps
    walk = np.ascontiguousarray(z.transpose(2, 0, 1))
    walk *= math.sqrt(dt)
    np.cumsum(walk, axis=2, out=walk)
    k = np.arange(1, n_steps + 1)
    pin = math.sqrt(kernel.horizon) * z_t.T - walk[..., -1]
    walk += k / n_steps * pin[..., None]
    log = _correlate(walk, kernel.l)
    log += (kernel.drift * dt)[:, None, None] * k
    log = np.ascontiguousarray(log.transpose(1, 2, 0))
    log[:, -1] = log_t
    return log


def _prices(kernel: _PathKernel, sim_config: SimConfig, start: int,
            stop: int) -> np.ndarray:
    """The prices of paths [start, stop), every step of each path and
    every asset of each step in turn, step 0 being the initial prices."""
    s0 = sim_config.initial_prices
    prices = np.empty((stop - start, sim_config.n_steps + 1, len(s0)))
    prices[:, 0, :] = s0
    np.exp(_log_paths(kernel, sim_config.n_steps, start, stop),
           out=prices[:, 1:, :])
    prices[:, 1:, :] *= s0
    return prices.reshape(-1)


def _block_formatter(params: MarketParams, sim_config: SimConfig, block: int):
    """``format_block(start)``: the paths.csv rows of paths [start,
    start + block) as bytes. The kernel and the rows' step and ticker
    cells are built once, here."""
    kernel = _path_kernel(params, sim_config)
    n_paths = sim_config.n_paths
    # "{step}," | "{ticker}," in the order of a path's prices
    steps = _shortest.padded(f"{step},"
                             for step in range(sim_config.n_steps + 1))
    tickers = _shortest.padded(f"{ticker}," for ticker in params.tickers)
    cells = np.empty((len(steps), len(tickers),
                      steps.shape[1] + tickers.shape[1]), np.uint8)
    cells[..., :steps.shape[1]] = steps[:, None]
    cells[..., steps.shape[1]:] = tickers
    cells = cells.reshape(-1, cells.shape[-1])

    def format_block(start: int) -> bytearray:
        stop = min(start + block, n_paths)
        reprs = _shortest.Reprs(_prices(kernel, sim_config, start, stop))
        # a row: "{path}," | cell | price | newline, each field PAD-filled
        # to the widest of its kind in this block; one path's rows are
        # laid out once and copied to every path
        paths = _shortest.padded(f"{p}," for p in range(start, stop))
        lead = paths.shape[1]
        price = lead + cells.shape[1]
        path = np.empty((len(cells), price + reprs.width + 1), np.uint8)
        path[:, lead:price] = cells
        path[:, -1] = ord("\n")
        data = bytearray((stop - start) * path.nbytes)
        rows = np.frombuffer(data, np.uint8).reshape((-1,) + path.shape)
        rows[:] = path
        rows[:, :, :lead] = paths[:, None]
        reprs.lay(rows.reshape(-1, path.shape[1])[:, price:-1])
        del reprs  # before the rows are compacted
        return data.translate(None, _shortest.PAD)

    return format_block


_HEADER = b"path,step,ticker,price\n"


def write_paths_csv(params: MarketParams, sim_config: SimConfig,
                    path: Path) -> None:
    """Write paths.csv for a run of ``sim_config`` on ``params``, rebuilding
    its paths from their keys, on one process per CPU this process may run
    on."""
    block = _block_paths(sim_config, params.n_assets)
    starts = range(0, sim_config.n_paths, block)
    format_block = _block_formatter(params, sim_config, block)
    workers = forking.process_count(
        min(forking.available_cpus(), len(starts)))
    with open(path, "wb") as handle:
        handle.write(_HEADER)
        if workers == 1:
            for start in starts:
                handle.write(format_block(start))
        else:
            handle.flush()
            forking.run_forked(handle.fileno(), len(_HEADER), format_block,
                               starts, workers)

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
as fixed-width fields in one byte buffer, "{path}," | "{step},{ticker}," |
price | newline, padded with a byte UTF-8 never holds, and deleting that
byte leaves the block's rows.

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
process per CPU this process may run on and at most one per block; the
writing process copies their rows to the file in order, 64 KiB at a time,
and holds no block, whatever the process count. Elsewhere, or on one CPU
or with one block, the writing process formats the blocks itself, one at
a time.
"""

from __future__ import annotations

import math
from functools import partial
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
# format it. Writing 1,000 crypto_like paths on two CPUs took 0.175 / 0.149
# / 0.150 s (medians of 11) at 6 / 12 / 24 paths a block.
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
    start + block) as bytes. The kernel and the rows' cells are built
    once, here."""
    kernel = _path_kernel(params, sim_config)
    n_paths = sim_config.n_paths
    # "{step},{ticker}," in the order of a path's prices
    cells = [
        f"{step},{ticker},".encode("utf-8")
        for step in range(sim_config.n_steps + 1)
        for ticker in params.tickers
    ]
    # the fields every block shares, a cell and a newline a row, with PAD
    # where the path and the price go
    lead = len(f"{n_paths - 1},")
    price = lead + max(map(len, cells))
    fields = np.full((len(cells), price + _shortest.WIDTH + 1),
                     ord(_shortest.PAD), np.uint8)
    for row, cell in zip(fields, cells):
        row[lead:lead + len(cell)] = np.frombuffer(cell, np.uint8)
    fields[:, -1] = ord("\n")

    def format_block(start: int) -> bytearray:
        stop = min(start + block, n_paths)
        chars = _shortest.reprs(_prices(kernel, sim_config, start, stop))[0]
        data = bytearray((stop - start) * fields.nbytes)
        rows = np.frombuffer(data, np.uint8).reshape((-1,) + fields.shape)
        rows[:] = fields
        rows[:, :, :lead] = np.frombuffer(b"".join(
            f"{p},".encode().ljust(lead, _shortest.PAD)
            for p in range(start, stop)
        ), np.uint8).reshape(-1, 1, lead)
        rows[:, :, price:-1] = chars.reshape(stop - start, len(cells), -1)
        del chars  # before the rows are compacted
        return data.translate(None, _shortest.PAD)

    return format_block


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
        handle.write(b"path,step,ticker,price\n")
        if workers == 1:
            for start in starts:
                handle.write(format_block(start))
        else:
            forking.run_forked(format_block, starts, workers,
                               partial(_copy_block, handle))


_COPY_BYTES = 1 << 16  # the most of a block this process holds at a time


def _copy_block(handle, start: int, size: int, read) -> None:
    """Copy the ``size`` bytes of the block at ``start``, which ``read``
    returns, to ``handle``."""
    while size:
        chunk = read(min(size, _COPY_BYTES))
        handle.write(chunk)
        size -= len(chunk)

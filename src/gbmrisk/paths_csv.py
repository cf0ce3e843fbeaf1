"""paths.csv: the prices of every recorded path, one row per price.

Rows are ``path,step,ticker,price`` with floats as ``repr``, in path, step
and ticker order, step 0 being the initial prices. The paths are not
stored: each is a pure function of its key, so they are rebuilt through
``simulation._path_kernel`` a block at a time (12 whole paths at 252 steps
x 3 assets), and each block is formatted apart from every other, so the
bytes are the same for any block size or number of processes. A rebuilt
path's last step equals ``simulate``'s terminal prices bitwise.

On Linux, with more than one CPU and more than one block, the blocks are
formatted in forked processes through ``gbmrisk.forking.run_forked``, the
routine ``simulate`` shares, one process per CPU this process may run on
and at most one per block; the writing process copies their rows to the
file in order, 64 KiB at a time, and holds no block, whatever the process
count. Elsewhere, or on one CPU or with one block, the writing process
formats the blocks itself, one at a time.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

import numpy as np

from . import forking
from .estimation import MarketParams
from .simulation import SimConfig, _available_cpus, _path_kernel

__all__ = ["write_paths_csv"]

# Prices per block, the unit in which whole paths are rebuilt and formatted:
# 12 paths at 252 steps x 3 assets (~270 KB of rows), and at least one. The
# bytes do not depend on it; it trades a block's memory against the fixed
# cost of a kernel call, one Philox build.
_REBUILD_CELLS = 12 * 253 * 3


def _block_paths(sim_config: SimConfig, n_assets: int) -> int:
    """Paths per block."""
    return max(1, _REBUILD_CELLS // ((sim_config.n_steps + 1) * n_assets))


def _block_formatter(params: MarketParams, sim_config: SimConfig, block: int):
    """``format_block(start)``: the paths.csv rows of paths [start,
    start + block) as bytes. The kernel is built once, here."""
    cum_log = _path_kernel(params, sim_config).cum_log
    s0 = sim_config.initial_prices
    n_paths = sim_config.n_paths
    # "{step},{ticker}," in the order a path's ravel() yields prices
    cells = [
        f"{step},{ticker},"
        for step in range(sim_config.n_steps + 1)
        for ticker in params.tickers
    ]

    def format_block(start: int) -> bytes:
        stop = min(start + block, n_paths)
        prices = np.empty((stop - start, sim_config.n_steps + 1, len(s0)))
        prices[:, 0, :] = s0
        np.exp(cum_log(start, stop), out=prices[:, 1:, :])
        prices[:, 1:, :] *= s0
        rows = []
        for p, path in enumerate(prices, start):
            lead = f"{p},"
            rows.append("".join([
                f"{lead}{cell}{price!r}\n"
                for cell, price in zip(cells, path.ravel().tolist())
            ]).encode("utf-8"))
        return b"".join(rows)

    return format_block


def write_paths_csv(params: MarketParams, sim_config: SimConfig,
                    path: Path) -> None:
    """Write paths.csv for a run of ``sim_config`` on ``params``, rebuilding
    its paths from their keys, on one process per CPU this process may run
    on."""
    block = _block_paths(sim_config, params.n_assets)
    starts = range(0, sim_config.n_paths, block)
    format_block = _block_formatter(params, sim_config, block)
    workers = forking.process_count(min(_available_cpus(), len(starts)))
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

"""paths.csv: the prices of every recorded path, one row per price.

Rows are ``path,step,ticker,price`` with floats as ``repr``, in path, step
and ticker order, step 0 being the initial prices. The paths are not
stored: each is a pure function of (seed, path index), so they are
rebuilt a block of whole paths at a time, by the Brownian bridge of
``gbmrisk.simulation``, pinned to terminal normals drawn for every path
before the first block, and each block is formatted apart from every
other, so the bytes are the same for any block size or number of
processes.

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

On Linux, with more than one CPU and more than one forked block, the
blocks are formatted in forked processes through
``gbmrisk.forking.run_forked``, one process per CPU this process may run on
and at most one per block, each started on a CPU of its own. Each process
writes its own blocks into the file with ``os.pwrite``; the writing process
writes the header, and sends each block its offset, which it sums from the
lengths of the blocks before it. A formatting process formats its next
block while its last one waits for that offset, so it holds at most two
blocks; the writing process holds none and copies no byte of one, whatever
the process count. Elsewhere, or on one CPU or with one forked block, the
writing process formats the blocks itself, one at a time, and writes each
in turn.

A block's size depends on the process that holds it. A formatting process
takes 24 paths at 252 steps x 3 assets, and fewer with more assets or
steps: it is a process of its own, and larger blocks pay the fixed cost of
a block less often. The writing process, when it formats, takes 12 paths,
so that its peak stays under 1 MB: at 24 paths the padded rows alone take
~656 KB (36 bytes x 18,216 rows), and their compact copy, ~526 KB, is made
while they exist, 1.18 MB before the prices' digits count at all.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import _shortest, forking
from .estimation import MarketParams
from .simulation import SimConfig, _path_kernel

__all__ = ["write_paths_csv"]

# Prices per block, the unit in which whole paths are rebuilt and formatted,
# and at least one path: 12 paths at 252 steps x 3 assets (~270 KB of rows)
# in the writing process, 24 in a formatting process (see above). The bytes
# do not depend on it; it trades a block's memory against the fixed cost of
# a rebuild, a Philox build, and of the ~100 numpy calls that format it.
# On two CPUs, 24-path blocks took the benchmark's record_paths op to
# 0.150 s from 0.167 s (medians of 10 pairs, lower in 10), and 48 paths were
# slower than 24. The writing process's traced peak, under its 1 MB bound,
# is 887 KB at 12 paths, 1,163 KB at 16 and 1,735 KB at 24.
_REBUILD_CELLS = 12 * 253 * 3
_FORKED_CELLS = 24 * 253 * 3


def _block_paths(sim_config: SimConfig, n_assets: int, cells: int) -> int:
    """Paths per block of at most ``cells`` prices, and at least one."""
    return max(1, cells // ((sim_config.n_steps + 1) * n_assets))


def _prices(kernel, z_t: np.ndarray, sim_config: SimConfig, start: int,
            stop: int) -> np.ndarray:
    """The prices of paths [start, stop), every step of each path and
    every asset of each step in turn, step 0 being the initial prices;
    z_t holds the terminal normals of every path of the run."""
    s0 = sim_config.initial_prices
    prices = np.empty((stop - start, sim_config.n_steps + 1, len(s0)))
    prices[:, 0, :] = s0
    np.exp(kernel.log_paths(start, z_t[:, start:stop], sim_config.n_steps),
           out=prices[:, 1:, :])
    prices[:, 1:, :] *= s0
    return prices.reshape(-1)


def _block_formatter(params: MarketParams, sim_config: SimConfig, block: int):
    """``format_block(start)``: the paths.csv rows of paths [start,
    start + block) as bytes. The kernel, the run's terminal normals, as
    many as the run's terminal prices, and the rows' step and ticker cells
    are built once, here: a draw per block would take a vector pass each."""
    kernel = _path_kernel(params, sim_config)
    n_paths = sim_config.n_paths
    z_t = kernel.normals(0, n_paths)
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
        reprs = _shortest.Reprs(
            _prices(kernel, z_t, sim_config, start, stop))
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
    its paths from (seed, path index), on one process per CPU this process
    may run on."""
    block = _block_paths(sim_config, params.n_assets, _FORKED_CELLS)
    forked_blocks = -(-sim_config.n_paths // block)  # rounded up
    processes = forking.process_count(
        min(forking.available_cpus(), forked_blocks))
    if processes == 1:
        block = _block_paths(sim_config, params.n_assets, _REBUILD_CELLS)
    starts = range(0, sim_config.n_paths, block)
    format_block = _block_formatter(params, sim_config, block)
    with open(path, "wb") as handle:
        handle.write(_HEADER)
        if processes == 1:
            for start in starts:
                handle.write(format_block(start))
        else:
            handle.flush()
            forking.run_forked(handle.fileno(), len(_HEADER), format_block,
                               starts, processes)

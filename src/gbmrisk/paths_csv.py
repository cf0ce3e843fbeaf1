"""paths.csv: the prices of every recorded path, one row per price.

Rows are ``path,step,ticker,price`` with floats as ``repr``, in path, step
and ticker order. The paths are rebuilt from their keys a block at a time
(``simulation._rebuild_paths`` whole paths, 12 at 252 steps x 3 assets), and
each block is formatted apart from every other, so the bytes are the same
for any number of processes.

On Linux, with more than one worker and more than one block, the blocks are
formatted in forked processes, one per worker and at most one per block,
and the writing process copies their rows to the file in order, 64 KiB at
a time; it holds no block, whatever the process count. Elsewhere, or with
one worker or one block, the writing process formats the blocks itself,
one at a time.
"""

from __future__ import annotations

import os
import pickle
import sys
import traceback
from pathlib import Path

from .estimation import MarketParams
from .simulation import SimConfig, _path_prices, _rebuild_paths

__all__ = ["write_paths_csv"]


def _block_formatter(params: MarketParams, sim_config: SimConfig, block: int):
    """``format_block(start)``: the paths.csv rows of paths [start,
    start + block) as bytes."""
    prices = _path_prices(params, sim_config)
    n_paths = sim_config.n_paths
    # "{step},{ticker}," in the order a path's ravel() yields prices
    cells = [
        f"{step},{ticker},"
        for step in range(sim_config.n_steps + 1)
        for ticker in params.tickers
    ]

    def format_block(start: int) -> bytes:
        rows = []
        for p, path in enumerate(prices(start, min(start + block, n_paths)), start):
            lead = f"{p},"
            rows.append("".join([
                f"{lead}{cell}{price!r}\n"
                for cell, price in zip(cells, path.ravel().tolist())
            ]).encode("utf-8"))
        return b"".join(rows)

    return format_block


def write_paths_csv(params: MarketParams, sim_config: SimConfig, path: Path,
                    workers: int) -> None:
    """Write paths.csv for a run of ``sim_config`` on ``params``, rebuilding
    its paths from their keys, on ``workers`` (an int >= 1) processes."""
    block = _rebuild_paths(sim_config, params.n_assets)
    starts = range(0, sim_config.n_paths, block)
    format_block = _block_formatter(params, sim_config, block)
    workers = min(workers, len(starts))
    with open(path, "wb") as handle:
        handle.write(b"path,step,ticker,price\n")
        # fork hands the kernel over without re-importing numpy per write;
        # it is the safe default start method on Linux only
        if workers == 1 or sys.platform != "linux":
            for start in starts:
                handle.write(format_block(start))
        else:
            _write_forked(handle, format_block, starts, workers)


# Bytes before each block a formatting process sends: the block's length,
# or minus the length of the pickled (exception, traceback) it raised.
_HEADER = 8
_COPY_BYTES = 1 << 16  # the most of a block this process holds at a time


def _write_forked(handle, format_block, starts: range, workers: int) -> None:
    """Write the blocks at ``starts`` to ``handle`` in order, formatted in
    ``workers`` forked processes: process w formats blocks w, w + workers,
    ... and sends each down its own pipe, where it waits until this process
    has copied the blocks before it. Every process is reaped before this
    returns or raises."""
    pids, pipes = [], []
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    try:
                        # holding no read end, it gets EPIPE if this dies
                        for pipe in pipes:
                            pipe.close()
                        _send_blocks(write_fd, format_block, starts[w::workers])
                    finally:
                        os._exit(1)  # never return into the caller's stack
            finally:
                os.close(write_fd)
            pids.append(pid)
        for i in range(len(starts)):
            _copy_block(pipes[i % workers], handle, pids[i % workers])
    finally:
        # after a failure, a process still sending gets EPIPE and exits
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _send_blocks(fd: int, format_block, starts: range) -> None:
    """In a formatting process: send each block's rows, or what it raised,
    down pipe ``fd``, then exit."""
    with open(fd, "wb") as pipe:
        try:
            for start in starts:
                rows = format_block(start)
                pipe.write(len(rows).to_bytes(_HEADER, "little", signed=True))
                pipe.write(rows)
        except Exception as exc:
            error = pickle.dumps((exc, traceback.format_exc()))
            pipe.write((-len(error)).to_bytes(_HEADER, "little", signed=True))
            pipe.write(error)
    os._exit(0)


def _copy_block(pipe, handle, pid: int) -> None:
    """Copy the next block from formatting process ``pid``'s ``pipe`` to
    ``handle``; raise what the process raised, or ChildProcessError when it
    ended early."""
    size = int.from_bytes(_read(pipe, _HEADER, pid), "little", signed=True)
    if size < 0:
        error, trace = pickle.loads(_read(pipe, -size, pid))
        raise error from ChildProcessError(
            f"in paths.csv formatting process {pid}:\n{trace}")
    while size:
        chunk = _read(pipe, min(size, _COPY_BYTES), pid)
        handle.write(chunk)
        size -= len(chunk)


def _read(pipe, size: int, pid: int) -> bytes:
    """Exactly ``size`` bytes from ``pipe``."""
    data = pipe.read(size)
    if len(data) < size:
        raise ChildProcessError(
            f"paths.csv formatting process {pid} ended before its block")
    return data

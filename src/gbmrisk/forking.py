"""Work split over forked processes, its results handed back down pipes.

The paths.csv writer splits its blocks this way. A forked process
inherits everything the work needs (the kernel, numpy already imported)
without pickling it, and runs its own interpreter: the per-path re-keying
and the row formatting hold the GIL, and threads would queue on it. Fork
without exec is the safe default start method on Linux only, so elsewhere
the work runs in the calling process.
"""

from __future__ import annotations

import os
import pickle
import sys
import traceback

__all__ = ["process_count", "run_forked"]

# Bytes before each part's result a process sends: its length, or minus
# the length of the pickled (exception, traceback) the part raised.
_HEADER = 8


def process_count(workers: int) -> int:
    """``workers`` on Linux; 1, the calling process alone, elsewhere."""
    return workers if sys.platform == "linux" else 1


def run_forked(produce, parts, processes: int, consume) -> None:
    """Call ``produce(part)`` for every one of ``parts`` in ``processes``
    forked processes, process w taking parts w, w + processes, ..., and
    hand the bytes each call returns back here in order of ``parts``:
    ``consume(part, size, read)`` gets their length and ``read(n)``, which
    returns the next n of them, and must read all ``size``.

    What a part raised is raised here, from a ChildProcessError carrying
    its traceback; a process that ends before a part's bytes raises
    ChildProcessError. Every process is reaped before this returns or
    raises.
    """
    pids, pipes = [], []
    try:
        for w in range(processes):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    try:
                        # holding no read end, it gets EPIPE if this dies
                        for pipe in pipes:
                            pipe.close()
                        _send(write_fd, produce, parts[w::processes])
                    finally:
                        os._exit(1)  # never return into the caller's stack
            finally:
                os.close(write_fd)
            pids.append(pid)
        for i, part in enumerate(parts):
            pipe, pid = pipes[i % processes], pids[i % processes]
            consume(part, _receive(pipe, pid), lambda n: _read(pipe, n, pid))
    finally:
        # after a failure, a process still sending gets EPIPE and exits
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _send(fd: int, produce, parts) -> None:
    """In a forked process: send each part's result, or what it raised,
    down pipe ``fd``, then exit."""
    with open(fd, "wb") as pipe:
        try:
            for part in parts:
                data = memoryview(produce(part)).cast("B")
                pipe.write(len(data).to_bytes(_HEADER, "little", signed=True))
                pipe.write(data)
        except Exception as exc:
            error = pickle.dumps((exc, traceback.format_exc()))
            pipe.write((-len(error)).to_bytes(_HEADER, "little", signed=True))
            pipe.write(error)
    os._exit(0)


def _receive(pipe, pid: int) -> int:
    """The length of process ``pid``'s next result; raise what it raised
    instead."""
    size = int.from_bytes(_read(pipe, _HEADER, pid), "little", signed=True)
    if size < 0:
        error, trace = pickle.loads(_read(pipe, -size, pid))
        raise error from ChildProcessError(
            f"in forked process {pid}:\n{trace}")
    return size


def _read(pipe, size: int, pid: int) -> bytes:
    """Exactly ``size`` bytes from ``pipe``."""
    data = pipe.read(size)
    if len(data) < size:
        raise ChildProcessError(
            f"forked process {pid} ended before its block")
    return data

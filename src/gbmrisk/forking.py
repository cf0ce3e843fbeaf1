"""Work split over forked processes, each writing its own bytes to a file.

The paths.csv writer splits its blocks this way. A forked process
inherits everything the work needs (the kernel, numpy already imported,
the open file) without pickling it, and runs its own interpreter: the
per-path re-keying and the row formatting hold the GIL, and threads would
queue on it. Each process writes its own bytes with ``os.pwrite``, at an
offset the calling process derives from the lengths it is sent, so no
byte of the file passes through a pipe or through the calling process.
A process formats its next part while its last one waits for that
offset, so it holds at most two parts, and the calling process none.
Fork without exec is the safe default start method on Linux only, so
elsewhere the work runs in the calling process.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import sys
import traceback

__all__ = ["available_cpus", "process_count", "run_forked"]

# Bytes of each number sent down a pipe: a part's length, or minus the
# length of the pickled (exception, traceback) it raised, one way; a
# part's file offset the other.
_HEADER = 8


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where supported)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def process_count(workers: int) -> int:
    """``workers`` on Linux; 1, the calling process alone, elsewhere."""
    return workers if sys.platform == "linux" else 1


def run_forked(fd: int, offset: int, produce, parts,
               processes: int) -> None:
    """Write the bytes ``produce(part)`` returns for every one of ``parts``
    to file descriptor ``fd``, back to back in order of ``parts`` from
    ``offset`` on, in ``processes`` forked processes, process w taking
    parts w, w + processes, ....

    A process sends each part's length here as soon as it has produced
    the part; only then does it read the offset of its previous part,
    which this process gives once it has every earlier part's length, and
    write that part there itself. So a process produces its next part
    while its last one waits for its offset, and holds at most two parts;
    this process holds none. Process w starts on CPU w of this process's
    affinity mask, cycling through it, and may then run on any of them.

    What a part raised, in ``produce`` or in its write, is raised here,
    from a ChildProcessError carrying its traceback, also when its process
    ended before it read an earlier part's offset; a process that ends
    before a part's length or offset, or with a non-zero status, raises
    ChildProcessError. Every process is reaped before this returns or
    raises, and on return every part is written.
    """
    pids, lengths, offsets = [], [], []
    mask = sorted(os.sched_getaffinity(0))
    try:
        for w in range(processes):
            length_r, length_w = os.pipe()
            offset_r, offset_w = os.pipe()
            lengths.append(open(length_r, "rb"))
            offsets.append(open(offset_w, "wb", buffering=0))
            try:
                pid = os.fork()
                if pid == 0:
                    try:
                        # holding none of this process's ends, it gets
                        # EPIPE or EOF if this fails
                        for pipe in lengths + offsets:
                            pipe.close()
                        with contextlib.suppress(OSError):
                            # start on a CPU of its own, then may move:
                            # left alone, processes forked together can
                            # share one CPU for a whole write
                            os.sched_setaffinity(0, {mask[w % len(mask)]})
                            os.sched_setaffinity(0, mask)
                        _write(fd, length_w, offset_r, produce,
                               parts[w::processes])
                    finally:
                        os._exit(1)  # never return into the caller's stack
            finally:
                os.close(length_w)
                os.close(offset_r)
            pids.append(pid)
        for i in range(len(parts)):
            w = i % processes
            size = _receive(lengths[w], pids[w])
            try:
                offsets[w].write(offset.to_bytes(_HEADER, "little"))
            except BrokenPipeError:
                # the process ended before it read this offset: raise
                # what it raised after this part's length, or that it
                # ended
                _receive(lengths[w], pids[w])
                raise ChildProcessError(
                    f"forked process {pids[w]} ended before its offset")
            offset += size
        for pipe, pid in zip(lengths, pids):
            if pipe.peek(1):  # at EOF once the process has exited
                _receive(pipe, pid)  # what its last write raised
    finally:
        # a process waiting for an offset reads EOF, and one still
        # formatting gets EPIPE; either exits
        for pipe in lengths + offsets:
            pipe.close()
        statuses = [(pid, os.waitpid(pid, 0)[1]) for pid in pids]
    for pid, status in statuses:
        if status:
            raise ChildProcessError(
                f"forked process {pid} exited with status {status}")


def _write(fd: int, length_fd: int, offset_fd: int, produce, parts) -> None:
    """In a forked process: for each part, send its bytes' length down pipe
    ``length_fd``; then read the offset of the part before it from pipe
    ``offset_fd`` and write that part's bytes to ``fd`` there. So a process
    formats its next part while its last one waits for its offset, holds
    at most two, and writes its last part once that part's offset comes.
    Send what a part raised instead; then exit."""
    with open(length_fd, "wb") as lengths, open(offset_fd, "rb") as offsets:
        try:
            held = None  # the last part, its length sent, not yet written
            for part in parts:
                data = memoryview(produce(part)).cast("B")
                lengths.write(len(data).to_bytes(_HEADER, "little",
                                                 signed=True))
                lengths.flush()
                if held is not None:
                    _place(fd, held, offsets)
                held = data
            if held is not None:
                _place(fd, held, offsets)
        except Exception as exc:
            error = pickle.dumps((exc, traceback.format_exc()))
            lengths.write((-len(error)).to_bytes(_HEADER, "little",
                                                 signed=True))
            lengths.write(error)
    os._exit(0)


def _place(fd: int, data: memoryview, offsets) -> None:
    """Read ``data``'s offset from pipe ``offsets`` and write it to ``fd``
    there."""
    at = offsets.read(_HEADER)
    if len(at) < _HEADER:
        os._exit(1)  # the calling process failed
    at = int.from_bytes(at, "little")
    while data:
        written = os.pwrite(fd, data, at)
        data, at = data[written:], at + written


def _receive(pipe, pid: int) -> int:
    """The length of process ``pid``'s next part; raise what it raised
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

"""In-memory spans around the layer functions the pipeline calls.

The benchmark traces from outside the program: it swaps the layer
functions that gbmrisk.cli looks up at call time for wrappers that record
a span (name, start, end, parent, op identifier) and counts taken from the
call's arguments and result or, for simulate, from numpy's random module
during the call. Nothing under src/ knows about tracing.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gbmrisk import cli

FLOAT_BYTES = 8


class RandomProbe:
    """Counts what simulate asks of numpy's random module while installed.

    ``streams`` holds one entry per np.random.Philox bit generator built and
    ``draws`` the size of every standard_normal draw made through an
    np.random.Generator built while installed, so the counts follow the
    program, not its config. Appends are atomic, so threads may share it.
    """

    def __init__(self):
        self.streams: list[int] = []
        self.draws: list[int] = []

    @contextmanager
    def installed(self):
        real_philox, real_generator = np.random.Philox, np.random.Generator
        streams, draws = self.streams, self.draws

        def philox(*args, **kwargs):
            streams.append(1)
            return real_philox(*args, **kwargs)

        class Generator(real_generator):
            def standard_normal(self, size=None, dtype=np.float64, out=None):
                drawn = super().standard_normal(size, dtype, out)
                draws.append(np.size(drawn))
                return drawn

        np.random.Philox, np.random.Generator = philox, Generator
        try:
            yield self
        finally:
            np.random.Philox, np.random.Generator = real_philox, real_generator


def _load_counts(args, kwargs, result, probe) -> dict:
    return {"csv_bytes": os.path.getsize(args[0])}


def _solver_counts(args, kwargs, result, probe) -> dict:
    return {"assets": args[0].n_assets}


def _simulate_counts(args, kwargs, result, probe) -> dict:
    normals = sum(probe.draws)
    # computed, not allocated: z, shocks and cum_log hold one float per
    # normal drawn, plus the recorded paths array when there is one
    paths_bytes = 0 if result.paths is None else result.paths.nbytes
    return {
        "normals": normals,
        "path_streams": len(probe.streams),
        "bytes_computed": 3 * normals * FLOAT_BYTES + paths_bytes,
    }


def write_counts(args, kwargs, result, probe) -> dict:
    return {"bytes_written": sum(Path(p).stat().st_size for p in result)}


# The layer functions gbmrisk.cli calls, with the counts each span carries;
# simulate's counts come from a RandomProbe installed for the call.
CLI_LAYERS = {
    "load_prices": _load_counts,
    "log_returns": None,
    "estimate_params": None,
    "min_variance": _solver_counts,
    "max_sharpe": _solver_counts,
    "simulate": _simulate_counts,
    "build_report": None,
}
PROBED = {"simulate"}


@dataclass
class Span:
    op: int
    name: str
    parent: int | None
    start_ns: int
    end_ns: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Collects spans in memory; one op span is the root of each operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, op: int, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(op, name, parent, time.perf_counter_ns())
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, op: int, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            probe = RandomProbe() if name in PROBED else None
            with self.span(op, name) as record, (
                    probe.installed() if probe else nullcontext()):
                result = fn(*args, **kwargs)
            if counter is not None:
                record.counts = counter(args, kwargs, result, probe)
            return result

        return traced

    @contextmanager
    def installed(self, op: int):
        """Route gbmrisk.cli's layer calls through spans for operation `op`."""
        originals = {name: getattr(cli, name) for name in CLI_LAYERS}
        for name, counter in CLI_LAYERS.items():
            setattr(cli, name, self.wrap(op, name, originals[name], counter))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(cli, name, fn)

    def self_seconds(self, op: int) -> dict[str, float]:
        """Per span name, the op's summed self time: duration minus children."""
        indexed = [(i, s) for i, s in enumerate(self.spans) if s.op == op]
        child_ns = {i: 0 for i, _ in indexed}
        for _, s in indexed:
            if s.parent is not None:
                child_ns[s.parent] += s.end_ns - s.start_ns
        out: dict[str, float] = {}
        for i, s in indexed:
            own = (s.end_ns - s.start_ns - child_ns[i]) / 1e9
            out[s.name] = out.get(s.name, 0.0) + own
        return out

    def counts(self, op: int) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.spans:
            if s.op == op:
                for key, value in s.counts.items():
                    out[key] = out.get(key, 0) + value
        return out

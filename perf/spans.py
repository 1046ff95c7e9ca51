"""In-memory spans around calls into the program's public functions.

A traced process (``perf.traced_solve`` or a traced ``perf.api_worker``)
patches the entry points the program looks them up by -- module
attributes and class methods, never subclasses, because the engine
tests ``type(expander) is BatchExpander`` -- so every call records a
span: name, start, end, parent span and solve id.  Spans stay in memory;
at exit the process writes one summary per span name (calls, inclusive
and self seconds) plus the counters read from return values.

Only the process that installed the hooks records.  Worker processes
forked by the throughput pool inherit the patched classes but stop
recording at fork, so their spans are out of reach (documented in the
README).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

__all__ = [
    "SpanRecorder",
    "self_times",
    "summarize",
    "instrument_library",
    "instrument_cli",
]


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its children's.

    ``spans`` is a sequence of ``(name, start, end, parent)`` where
    ``parent`` is the index of the enclosing span or -1.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per-name totals: ``{name: {"calls", "total_s", "self_s"}}``."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for (name, start, end, _), own in zip(spans, selfs):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    return table


class SpanRecorder:
    """Records spans of the calling thread; disabled in forked children."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.solve_ids: list[str] = []
        self.solve_id = ""
        self.counters: dict[str, float] = {}
        self.results: list[dict] = []
        self.parallel: list[dict] = []
        self.enabled = True
        self._stack: list[int] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller (e.g. an import)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, start, end, parent))
        self.solve_ids.append(self.solve_id)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def span(self, name: str):
        index = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, name, start)

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self.solve_ids.append(self.solve_id)
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent)

    def wrap(self, name: str, fn, after=None):
        """``fn`` with a span per call; ``after(args, result)`` may count."""
        rec = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            index = rec._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(index, name, start)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        done = [s for s in self.spans if s is not None]
        return {
            "spans": summarize(done),
            "counters": dict(self.counters),
            "results": list(self.results),
            "parallel": list(self.parallel),
        }


def _patch(owner, attr: str, rec: SpanRecorder, name: str, after=None) -> None:
    setattr(owner, attr, rec.wrap(name, getattr(owner, attr), after))


def instrument_library(rec: SpanRecorder) -> None:
    """Wrap the engine-side entry points shared by every solve path."""
    from repro.core import _native
    from repro.core.checkpoint import Checkpointer
    from repro.core.engine import BnBResult, BranchAndBound
    from repro.core.expand import BatchExpander, FusedExpander
    from repro.core.upper import EDFUpperBound
    from repro.obs.live import LiveMonitor
    from repro.obs.serve import MonitorServer

    def on_result(args, _schedule) -> None:
        result = args[0]
        stats = result.stats
        rec.results.append(
            {
                "solve": rec.solve_id,
                "status": result.status.value,
                "generated": stats.generated,
                "explored": stats.explored,
                "peak_active": stats.peak_active,
            }
        )

    def on_write(_args, path) -> None:
        rec.count("checkpoint.bytes", os.path.getsize(path))

    def on_sample(_args, taken) -> None:
        if taken:
            rec.count("live.samples")

    _patch(BranchAndBound, "solve", rec, "engine.solve")
    _patch(EDFUpperBound, "initial", rec, "upper.edf")
    _patch(FusedExpander, "expand", rec, "expand.fused")
    _patch(BatchExpander, "expand", rec, "expand.batch")
    _patch(_native.NativeDriver, "__init__", rec, "native.init")
    _patch(_native.NativeDriver, "step", rec, "native.step")
    _patch(_native, "load_native", rec, "native.load")
    _patch(Checkpointer, "write", rec, "checkpoint.write", on_write)
    _patch(LiveMonitor, "on_sample", rec, "live.on_sample", on_sample)
    _patch(MonitorServer, "stop", rec, "serve.stop")
    _patch(BnBResult, "schedule", rec, "result.schedule", on_result)


def instrument_cli(rec: SpanRecorder, *, parallel: bool) -> None:
    """Wrap the names ``repro.cli`` looks up, plus the library layers."""
    import repro.cli as cli

    _patch(cli, "load_graph", rec, "io.load_graph")
    _patch(cli, "compile_problem", rec, "model.compile")
    instrument_library(rec)
    if parallel:
        from repro.core.parallel import ParallelBnB

        def on_parallel(args, _result) -> None:
            report = args[0].last_report
            if report is not None:
                rec.parallel.append(
                    {
                        "shards": report.shards,
                        "shards_stale": report.shards_stale,
                        "worker_restarts": report.worker_restarts,
                        "shard_retries": report.shard_retries,
                    }
                )

        _patch(ParallelBnB, "solve_graph", rec, "parallel.solve_graph", on_parallel)

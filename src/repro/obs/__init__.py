"""repro.obs — structured telemetry for the branch-and-bound engine.

Four orthogonal facilities, each off by default and individually
attachable to a solve via the :class:`Observability` bundle:

* :mod:`repro.obs.events` — structured event stream (``EventSink``
  protocol, buffered :class:`JsonlSink` for on-disk traces);
* :mod:`repro.obs.profile` — per-phase wall-clock profiler for the
  engine inner loop;
* :mod:`repro.obs.metrics` — counter/gauge/histogram registry with
  Prometheus-textfile and JSON exporters;
* :mod:`repro.obs.progress` — heartbeat progress lines for long solves;
* :mod:`repro.obs.live` — in-process telemetry bus for live monitoring
  (sampled solve snapshots, per-worker gauges, the crash flight
  recorder);
* :mod:`repro.obs.serve` — stdlib HTTP/SSE server over the bus
  (``/status``, ``/metrics``, ``/events``, and an HTML dashboard);
* :mod:`repro.obs.report` — offline rendering of JSONL traces
  (the ``repro report`` subcommand).

Use::

    from repro.obs import Observability, JsonlSink, PhaseProfiler

    obs = Observability(sink=JsonlSink("trace.jsonl"),
                        profiler=PhaseProfiler())
    result = BranchAndBound(params, obs=obs).solve(problem)
    obs.close()
"""

from __future__ import annotations

from dataclasses import dataclass

from .events import (
    SAMPLED_KINDS,
    BaseSink,
    CallbackSink,
    EventSink,
    JsonlSink,
    MemorySink,
    MultiSink,
)
from .live import LiveMonitor, TelemetryBus, WorkerStats, write_flight_dump
from .metrics import (
    DEFAULT_GAP_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .profile import PHASES, PhaseBreakdown, PhaseProfiler
from .progress import ProgressReporter, format_progress_line
from .report import TraceReport, load_trace, render_trace_report
from .serve import MonitorServer

__all__ = [
    "Observability",
    # events
    "SAMPLED_KINDS",
    "EventSink",
    "BaseSink",
    "JsonlSink",
    "MemorySink",
    "CallbackSink",
    "MultiSink",
    # profile
    "PHASES",
    "PhaseProfiler",
    "PhaseBreakdown",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_GAP_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    # progress
    "ProgressReporter",
    "format_progress_line",
    # live monitoring
    "LiveMonitor",
    "TelemetryBus",
    "WorkerStats",
    "MonitorServer",
    "write_flight_dump",
    # report
    "TraceReport",
    "load_trace",
    "render_trace_report",
]


@dataclass
class Observability:
    """Everything the engine may report to, bundled.

    All fields default to ``None`` (off); the engine pays one ``is not
    None`` check per hook for absent components.  The bundle does not
    own the sink's file handle lifecycle beyond :meth:`close`, which
    closes the sink if present (profiler/metrics/progress have no
    resources to release).
    """

    sink: EventSink | None = None
    profiler: PhaseProfiler | None = None
    metrics: MetricsRegistry | None = None
    progress: ProgressReporter | None = None
    live: LiveMonitor | None = None

    @property
    def enabled(self) -> bool:
        return (
            self.sink is not None
            or self.profiler is not None
            or self.metrics is not None
            or self.progress is not None
            or self.live is not None
        )

    def event_sink(self) -> EventSink | None:
        """Where a solve's events go: the user's sink plus the monitor's.

        The engine still picks its tier from the user's sink alone, so
        attaching a monitor never changes the search's performance class.
        """
        if self.live is None:
            return self.sink
        if self.sink is None:
            return self.live.event_sink
        return MultiSink(self.sink, self.live.event_sink)

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()

    def __enter__(self) -> Observability:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""Structured search events and pluggable sinks.

The engine narrates a solve as a stream of typed events — ``start``,
``explore``, ``incumbent``, ``goal``, ``prune``, ``resource`` and a
final ``summary`` — each a flat JSON-serializable mapping.  The event
sink is the engine's only per-vertex observer: anything implementing
the :class:`EventSink` protocol can receive the stream; the stock sinks
are

* :class:`JsonlSink` — buffered JSON-lines writer for on-disk traces of
  arbitrarily long runs (bounded overhead via an event sampling rate and
  a buffer flush size); with ``sample_every=1`` it is the search's
  explore log, one ``explore`` event per explored vertex;
* :class:`MemorySink` — keeps events in a list (tests, notebooks);
* :class:`CallbackSink` — forwards every event to a callable;
* :class:`MultiSink` — fans one stream out to several sinks.

High-frequency kinds (:data:`SAMPLED_KINDS`: explore / prune / goal) are
*sampled*: the engine asks :meth:`EventSink.accepts` before it even
builds the payload dict, so a sink recording every 1000th explore event
costs 999 cheap counter bumps and one dict per thousand vertices.
Low-frequency kinds (start, incumbent, resource, summary) are always
delivered — they are the events analyses cannot afford to lose.

A sink whose class sets ``rejects_sampled_kinds = True`` promises that
:meth:`EventSink.accepts` is false for every sampled kind regardless of
state (:class:`~repro.core.trace.TraceRecorder`, the live monitor's
sink).  The engine then never offers it per-vertex events and keeps
its fast tiers: the fused expander and the native driver.
"""

from __future__ import annotations

import json
import time
from typing import IO, Any, Callable, Protocol, runtime_checkable

__all__ = [
    "SAMPLED_KINDS",
    "EventSink",
    "BaseSink",
    "JsonlSink",
    "MemorySink",
    "CallbackSink",
    "MultiSink",
]

#: Event kinds subject to sampling (one per explored/generated vertex).
SAMPLED_KINDS = frozenset({"explore", "prune", "goal"})


@runtime_checkable
class EventSink(Protocol):
    """What the engine needs from an event consumer."""

    def accepts(self, kind: str) -> bool:
        """Whether the next event of ``kind`` should be built and emitted.

        Called *before* the payload dict is constructed, so sinks can
        implement sampling at near-zero cost for skipped events.  Must
        be called exactly once per candidate event of a sampled kind.
        """
        ...

    def emit(self, kind: str, payload: dict[str, Any]) -> None:
        """Receive one event.  ``payload`` must be JSON-serializable."""
        ...

    def close(self) -> None:
        """Flush buffered events and release resources."""
        ...


class BaseSink:
    """Accept-everything base: subclasses override :meth:`emit`."""

    def accepts(self, kind: str) -> bool:  # noqa: ARG002 - protocol
        return True

    def emit(self, kind: str, payload: dict[str, Any]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    # Sinks are context managers so CLI code can ``with`` them.
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class JsonlSink(BaseSink):
    """Buffered JSON-lines event writer.

    Each line is one event: ``{"t": <seconds since sink creation>,
    "ev": <kind>, ...payload}``.  Overhead is bounded two ways:

    * ``sample_every`` — record only every Nth event of each sampled
      kind (explore/prune/goal); unsampled kinds are always recorded.
      Skipped events cost one integer increment, no allocation.
    * ``buffer_events`` — lines are buffered and written in batches of
      this size (and on :meth:`close`), so a million-event trace does a
      few thousand writes, not a million.

    ``path_or_file`` may be a path (opened and owned by the sink) or an
    open text file (borrowed; ``close()`` flushes but does not close it).
    """

    def __init__(
        self,
        path_or_file: str | IO[str],
        *,
        sample_every: int = 1,
        buffer_events: int = 1024,
    ) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        if buffer_events < 1:
            raise ValueError(f"buffer_events must be >= 1, got {buffer_events}")
        if isinstance(path_or_file, (str, bytes)) or hasattr(
            path_or_file, "__fspath__"
        ):
            self._fh: IO[str] = open(path_or_file, "w")
            self._owns_fh = True
        else:
            self._fh = path_or_file
            self._owns_fh = False
        self.sample_every = sample_every
        self.buffer_events = buffer_events
        self._buffer: list[str] = []
        self._seen: dict[str, int] = {}
        self._t0 = time.perf_counter()
        #: Events actually written (post-sampling).
        self.events_written = 0
        #: Events offered (pre-sampling), per kind.
        self.events_seen = 0
        self._closed = False

    def accepts(self, kind: str) -> bool:
        self.events_seen += 1
        if kind not in SAMPLED_KINDS or self.sample_every == 1:
            return True
        n = self._seen.get(kind, 0)
        self._seen[kind] = n + 1
        return n % self.sample_every == 0

    def emit(self, kind: str, payload: dict[str, Any]) -> None:
        record = {"t": round(time.perf_counter() - self._t0, 6), "ev": kind}
        record.update(payload)
        self._buffer.append(json.dumps(record, separators=(",", ":")))
        self.events_written += 1
        if len(self._buffer) >= self.buffer_events:
            self.flush()

    def flush(self) -> None:
        if self._buffer:
            self._fh.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()
        self._fh.flush()

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        if self._owns_fh:
            self._fh.close()
        self._closed = True


class MemorySink(BaseSink):
    """Collects ``(kind, payload)`` pairs in memory; sampling optional."""

    def __init__(self, *, sample_every: int = 1) -> None:
        self.events: list[tuple[str, dict[str, Any]]] = []
        self.sample_every = sample_every
        self._seen: dict[str, int] = {}

    def accepts(self, kind: str) -> bool:
        if kind not in SAMPLED_KINDS or self.sample_every == 1:
            return True
        n = self._seen.get(kind, 0)
        self._seen[kind] = n + 1
        return n % self.sample_every == 0

    def emit(self, kind: str, payload: dict[str, Any]) -> None:
        self.events.append((kind, dict(payload)))

    def of_kind(self, kind: str) -> list[dict[str, Any]]:
        return [p for k, p in self.events if k == kind]

    def __len__(self) -> int:
        return len(self.events)


class CallbackSink(BaseSink):
    """Forwards every event to ``fn(kind, payload)``."""

    def __init__(self, fn: Callable[[str, dict[str, Any]], None]) -> None:
        self.fn = fn

    def emit(self, kind: str, payload: dict[str, Any]) -> None:
        self.fn(kind, payload)


class MultiSink(BaseSink):
    """Fans events out to several sinks (an event goes to every sink
    that accepts it)."""

    def __init__(self, *sinks: EventSink) -> None:
        self.sinks = tuple(sinks)
        self._pending: tuple[EventSink, ...] = ()

    def accepts(self, kind: str) -> bool:
        self._pending = tuple(s for s in self.sinks if s.accepts(kind))
        return bool(self._pending)

    def emit(self, kind: str, payload: dict[str, Any]) -> None:
        for sink in self._pending:
            sink.emit(kind, payload)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

"""Counters, gauges, histograms and a Prometheus-style exporter.

A :class:`MetricsRegistry` holds named instruments:

* :class:`Counter` — monotone totals (generated vertices, prunes);
* :class:`Gauge` — last-value signals (active-set size, incumbent cost);
* :class:`Histogram` — bucketed distributions (lower-bound gap,
  active-set size over the run).

Two export formats, both dependency-free:

* :meth:`MetricsRegistry.to_prometheus` — the Prometheus *textfile
  collector* format, suitable for a node-exporter textfile directory;
* :meth:`MetricsRegistry.snapshot` / :meth:`write_json` — a plain JSON
  snapshot for experiment reports and ad-hoc analysis.

The engine populates a standard instrument set (``bnb_*``) when a
registry is attached via
:class:`~repro.obs.Observability`; see `docs/API.md`.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from typing import Any, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_GAP_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
]

#: Default buckets for lower-bound-gap histograms (lateness units).
DEFAULT_GAP_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)

#: Default buckets for active-set-size histograms (vertex counts).
DEFAULT_SIZE_BUCKETS = (1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0)


def _valid_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("name", "help", "value")
    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _valid_name(name)
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def snapshot(self) -> dict[str, Any]:
        return {"type": self.kind, "value": self.value}

    def lines(self) -> Iterable[str]:
        yield f"{self.name} {_fmt(self.value)}"


class Gauge:
    """Last-observed value (may go up or down), optionally labelled."""

    __slots__ = ("name", "help", "value", "labels")
    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _valid_name(name)
        self.help = help
        self.value = 0.0
        self.labels: dict[str, str] = {}

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def label(self, **labels: Any) -> "Gauge":
        """Replace the label set (an info-style gauge); returns self."""
        self.labels = {_valid_name(k): str(v) for k, v in labels.items()}
        return self

    def snapshot(self) -> dict[str, Any]:
        snap = {"type": self.kind, "value": self.value}
        if self.labels:
            snap["labels"] = dict(self.labels)
        return snap

    def lines(self) -> Iterable[str]:
        if self.labels:
            body = ",".join(
                f'{k}="{_escape_label(v)}"' for k, v in self.labels.items()
            )
            yield f"{self.name}{{{body}}} {_fmt(self.value)}"
        else:
            yield f"{self.name} {_fmt(self.value)}"


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


class Histogram:
    """Fixed-bucket histogram with Prometheus cumulative semantics."""

    __slots__ = ("name", "help", "buckets", "bucket_counts", "sum", "count")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_GAP_BUCKETS,
    ) -> None:
        self.name = _valid_name(name)
        self.help = help
        bs = tuple(sorted(buckets))
        if not bs:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bs
        # One slot per finite bucket plus the +Inf overflow slot.
        self.bucket_counts = [0] * (len(bs) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": self.kind,
            "buckets": {
                **{
                    _fmt(b): n
                    for b, n in zip(self.buckets, self.bucket_counts)
                },
                "+Inf": self.bucket_counts[-1],
            },
            "sum": self.sum,
            "count": self.count,
        }

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def lines(self) -> Iterable[str]:
        cumulative = 0
        for bound, n in zip(self.buckets, self.bucket_counts):
            cumulative += n
            yield f'{self.name}_bucket{{le="{_fmt(bound)}"}} {cumulative}'
        cumulative += self.bucket_counts[-1]
        yield f'{self.name}_bucket{{le="+Inf"}} {cumulative}'
        yield f"{self.name}_sum {_fmt(self.sum)}"
        yield f"{self.name}_count {self.count}"


def _fmt(v: float) -> str:
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


class MetricsRegistry:
    """Name → instrument map with get-or-create accessors.

    Accessors are idempotent: asking twice for the same name returns the
    same instrument (and raises if the kinds conflict), so the engine
    and user code can share a registry without coordination.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, cls, name: str, **kwargs):
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name, **kwargs)
            self._instruments[name] = inst
        elif not isinstance(inst, cls):
            raise ValueError(
                f"metric {name!r} already registered as {inst.kind}"
            )
        return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help=help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_GAP_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help=help, buckets=buckets)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __getitem__(self, name: str) -> Counter | Gauge | Histogram:
        return self._instruments[name]

    def __iter__(self):
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    # -- export ---------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """JSON-ready ``{name: {type, value|buckets/sum/count}}`` map."""
        return {
            name: inst.snapshot()
            for name, inst in sorted(self._instruments.items())
        }

    def to_prometheus(self) -> str:
        """Prometheus textfile-collector exposition of every instrument."""
        out: list[str] = []
        for name, inst in sorted(self._instruments.items()):
            if inst.help:
                out.append(f"# HELP {name} {inst.help}")
            out.append(f"# TYPE {name} {inst.kind}")
            out.extend(inst.lines())
        return "\n".join(out) + "\n" if out else ""

    def write_textfile(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_prometheus())

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write(self, path: str) -> None:
        """Write by extension: ``.json`` → snapshot, else Prometheus text."""
        if str(path).endswith(".json"):
            self.write_json(path)
        else:
            self.write_textfile(path)

"""Resource bounds ``RB = <TIMELIMIT, MAXSZAS, MAXSZDB>`` (Section 3).

The paper's semantics:

* **TIMELIMIT** — maximum wall-clock time to find a solution.  On
  expiry the algorithm "either fails or terminates with the best
  solution found so far"; we do the latter: the result carries the best
  schedule (or ``FAILED`` when there is none) and a status naming the
  bound that stopped it.
* **MAXSZAS** — maximum size of the active set.  On overflow "the
  algorithm must dispose of one or more of the active intermediate
  solutions, thereby running the risk of missing the optimal solution";
  we drop the worst-bound vertices and mark the result as truncated.
* **MAXSZDB** — maximum number of child vertices per branching; excess
  children (worst bounds first) are discarded, likewise truncating.

``max_vertices`` is our addition: a hard cap on generated vertices so
benchmark instances cannot run away (pure-Python searches are slower
than the paper's C milieu).  ``max_memory_bytes`` is likewise ours: a
resident-set ceiling (MEMLIMIT) checked on the same cadence as
TIMELIMIT, so a search that would otherwise be OOM-killed instead stops
cooperatively with its incumbent and a final checkpoint.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = ["ResourceBounds", "UNBOUNDED", "current_rss_bytes"]

#: Convenience alias for "no limit".
UNBOUNDED = math.inf

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def current_rss_bytes() -> int:
    """Resident-set size of this process, in bytes (0 if unknowable).

    Reads ``/proc/self/statm`` where available (Linux — one syscall, no
    allocation churn); falls back to ``resource.getrusage``, whose
    ``ru_maxrss`` is a high-water mark rather than the current value —
    still the right side to err on for a *limit* check.
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:  # pragma: no cover - platform without getrusage
        return 0


@dataclass(frozen=True)
class ResourceBounds:
    """The RB triple plus a generated-vertex cap.

    All limits default to unbounded.  ``time_limit`` is in seconds.
    """

    time_limit: float = UNBOUNDED
    max_active: float = UNBOUNDED
    max_children: float = UNBOUNDED
    max_vertices: float = UNBOUNDED
    max_memory_bytes: float = UNBOUNDED

    def __post_init__(self) -> None:
        for field_name in (
            "time_limit",
            "max_active",
            "max_children",
            "max_vertices",
            "max_memory_bytes",
        ):
            value = getattr(self, field_name)
            if not value > 0:
                raise ConfigurationError(
                    f"resource bound {field_name} must be positive, got {value}"
                )

    @property
    def bounded(self) -> bool:
        """Whether any limit is finite."""
        return any(
            not math.isinf(v)
            for v in (
                self.time_limit,
                self.max_active,
                self.max_children,
                self.max_vertices,
                self.max_memory_bytes,
            )
        )

    def describe(self) -> str:
        def fmt(v: float) -> str:
            return "inf" if math.isinf(v) else f"{v:g}"

        desc = (
            f"RB<TIMELIMIT={fmt(self.time_limit)}s, "
            f"MAXSZAS={fmt(self.max_active)}, "
            f"MAXSZDB={fmt(self.max_children)}, "
            f"MAXVERT={fmt(self.max_vertices)}"
        )
        if not math.isinf(self.max_memory_bytes):
            desc += f", MEMLIMIT={fmt(self.max_memory_bytes)}B"
        return desc + ">"

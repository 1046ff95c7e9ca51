"""Anytime convergence profiles: the incumbent series of one solve.

A :class:`TraceRecorder` is an event sink (attach it via
``Observability(sink=TraceRecorder())``) that keeps the two things the
anytime analysis needs: the initial bound from the ``start`` event and
one :class:`IncumbentEvent` per ``incumbent`` event (cost and the
generated-vertex count at which it happened).

The incumbent series is the search's *anytime profile* — how quickly the
B&B converges toward the optimum — which is what distinguishes LIFO's
dive-then-prune behaviour from LLB's breadth-first wade even when both
eventually explore similar vertex counts.

The recorder rejects every per-vertex kind statically, so attaching it
keeps the fused and native tiers.  For a per-vertex explore log, stream
events with :class:`repro.obs.JsonlSink` and read them back with
``repro report``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from ..obs.events import SAMPLED_KINDS, BaseSink

__all__ = ["IncumbentEvent", "TraceRecorder"]


@dataclass(frozen=True, slots=True)
class IncumbentEvent:
    """The incumbent improved."""

    #: Generated-vertex count at the moment of improvement.
    generated: int
    cost: float


class TraceRecorder(BaseSink):
    """Records the initial bound and every incumbent improvement."""

    #: No per-event state backs the rejection, so the engine never
    #: offers this sink explore/prune/goal events.
    rejects_sampled_kinds = True

    def __init__(self) -> None:
        self.incumbents: list[IncumbentEvent] = []
        self.initial_bound: float | None = None

    def accepts(self, kind: str) -> bool:
        return kind not in SAMPLED_KINDS

    def emit(self, kind: str, payload: dict[str, Any]) -> None:
        if kind == "incumbent":
            self.incumbents.append(
                IncumbentEvent(payload["generated"], payload["cost"])
            )
        elif kind == "start":
            # Events carry None for an infinite bound (JSON has no inf).
            bound = payload["initial_bound"]
            self.initial_bound = math.inf if bound is None else bound

    # -- analysis --------------------------------------------------------

    def anytime_profile(self) -> list[tuple[int, float]]:
        """(generated vertices, best cost so far) steps, starting at U."""
        profile: list[tuple[int, float]] = []
        if self.initial_bound is not None:
            profile.append((0, self.initial_bound))
        profile.extend((e.generated, e.cost) for e in self.incumbents)
        return profile

    def cost_at(self, generated: int) -> float:
        """Best incumbent cost once `generated` vertices had been created."""
        best = math.inf if self.initial_bound is None else self.initial_bound
        for e in self.incumbents:
            if e.generated <= generated:
                best = e.cost
            else:
                break
        return best

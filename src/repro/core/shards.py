"""Shard bookkeeping for the shard supervisor.

The coordinator in :mod:`repro.cluster` (which also runs ``repro
solve --workers`` solves) decomposes a solve this way: a shallow sequential pass collects the depth-d frontier as
:class:`Shard` roots, and a dispatch loop hands shards to workers,
re-queues the ones whose worker died, and quarantines shards that keep
killing workers.  This module holds that machinery:

* :class:`Shard` — one frontier root, frozen with the incumbent and
  budget it entered with.
* :class:`FrontierCollector` — the engine hook that records the
  depth-d frontier instead of searching it.
* :class:`BackoffPolicy` — capped exponential retry backoff with
  *decorrelated jitter*.  Shards orphaned by one dead worker must not
  retry in lockstep (they would all land on the replacement worker in
  the same instant, and a poison shard would re-kill it on a fixed
  cadence); jitter decorrelates them while the exponential envelope
  still bounds every delay.
* :class:`RetryQueue` — the pending-shard queue: eligibility-delayed
  retries, bounded attempts, and the quarantine list that forces a
  TRUNCATED (never falsely OPTIMAL) result.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from .expand import PendingChild

__all__ = [
    "BackoffPolicy",
    "FrontierCollector",
    "RetryQueue",
    "Shard",
    "shard_state",
]


def shard_state(vertex):
    """Materialize a frontier vertex's state for shipping."""
    state = vertex.state
    if type(state) is PendingChild:
        state = state.materialize()
        vertex.state = state
    return state


@dataclass(frozen=True)
class Shard:
    """One depth-d frontier root, ready to ship to a worker."""

    index: int
    state: object  # SearchState; untyped to avoid a hot-path import
    lower_bound: float
    #: Incumbent at collect time (dispatchers may substitute a fresher one).
    incumbent_cost: float
    #: Remaining generated-vertex budget at collect time.
    budget: float


class FrontierCollector:
    """Records the depth-d frontier instead of searching it.

    Passed as ``dispatcher=`` to :meth:`BranchAndBound.solve`, it makes
    the loop a pure shallow expansion: every popped vertex at ``depth``
    or deeper is handed to :meth:`record` and left unexplored, so the
    loop terminates once all vertices above ``depth`` are expanded,
    leaving the would-be shard roots here in exact pop order with their
    entering incumbents and budgets.
    """

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self.shards: list[Shard] = []

    def record(self, vertex, incumbent_cost: float, budget: float) -> None:
        self.shards.append(
            Shard(
                len(self.shards),
                shard_state(vertex),
                vertex.lower_bound,
                incumbent_cost,
                budget,
            )
        )


@dataclass
class BackoffPolicy:
    """Capped exponential backoff with decorrelated jitter.

    The deterministic envelope for the retry after failure ``attempt``
    (1-based) is ``min(cap, base * 2**(attempt-1))`` — the classic
    capped exponential.  With an RNG attached the actual delay is drawn
    uniformly from ``[base, min(envelope, 3 * previous_delay)]``
    (previous defaulting to ``base``), the *decorrelated jitter* scheme:
    consecutive retries of the same shard spread apart, and shards
    orphaned together never share a retry instant.  Every draw is
    bounded by ``base <= delay <= min(cap, base * 2**(attempt-1))``,
    which the unit tests pin with a seeded RNG.

    ``rng=None`` disables jitter (pure exponential) — used by callers
    that need exact, reproducible delays.
    """

    base: float = 0.05
    cap: float = 30.0
    rng: random.Random | None = None

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ConfigurationError(f"backoff base must be >= 0, got {self.base}")
        if self.cap < self.base:
            raise ConfigurationError(
                f"backoff cap must be >= base ({self.base}), got {self.cap}"
            )

    def envelope(self, attempt: int) -> float:
        """The deterministic upper bound for this attempt's delay."""
        return min(self.cap, self.base * (2.0 ** max(0, attempt - 1)))

    def next_delay(self, attempt: int, previous: float | None = None) -> float:
        """Delay before retry number ``attempt`` (1-based, the retry
        that follows the ``attempt``-th failure)."""
        ceiling = self.envelope(attempt)
        if self.rng is None or self.base == 0:
            return ceiling
        prev = previous if previous is not None else self.base
        hi = min(ceiling, max(self.base, 3.0 * prev))
        return self.rng.uniform(self.base, hi)


@dataclass
class _PendingEntry:
    shard: Shard
    attempt: int
    eligible_at: float
    prev_delay: float | None = None


@dataclass
class RetryQueue:
    """Pending shards with backoff-delayed retries and quarantine.

    Retries never block healthy dispatch: a shard backing off simply is
    not *eligible* until its delay elapses, and callers poll with
    :meth:`pop_eligible`.  After ``max_attempts`` failures a shard is
    quarantined — the run completes without it and must report itself
    TRUNCATED, never OPTIMAL.
    """

    max_attempts: int = 3
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    _pending: deque = field(default_factory=deque)
    quarantined: list[int] = field(default_factory=list)
    retries: int = 0

    def add(self, shard: Shard, attempt: int = 1, eligible_at: float = 0.0) -> None:
        self._pending.append(_PendingEntry(shard, attempt, eligible_at))

    def pop_eligible(self, now: float) -> tuple[Shard, int] | None:
        """The next shard whose backoff has elapsed, or None."""
        for _ in range(len(self._pending)):
            entry = self._pending.popleft()
            if entry.eligible_at <= now:
                return entry.shard, entry.attempt
            self._pending.append(entry)
        return None

    def requeue(self, shard: Shard, attempt: int, now: float) -> float | None:
        """A worker failed on ``attempt``; back off or quarantine.

        Returns the retry delay, or None when the shard was quarantined
        (attempt budget exhausted).
        """
        if attempt >= self.max_attempts:
            self.quarantined.append(shard.index)
            return None
        prev = self._prev_delay.get(shard.index)
        delay = self.backoff.next_delay(attempt, prev)
        self._prev_delay[shard.index] = delay
        self._pending.append(
            _PendingEntry(shard, attempt + 1, now + delay, delay)
        )
        self.retries += 1
        return delay

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        self._prev_delay: dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)

    def __iter__(self):
        """Pending entries (shard, attempt, eligible_at), queue order."""
        for entry in self._pending:
            yield entry.shard, entry.attempt, entry.eligible_at

    def min_lower_bound(self) -> float | None:
        """Smallest bound over pending shards (open-gap accounting)."""
        lb = None
        for entry in self._pending:
            if lb is None or entry.shard.lower_bound < lb:
                lb = entry.shard.lower_bound
        return lb

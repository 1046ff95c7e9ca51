"""Lease-based cluster membership, owned by the coordinator.

A worker is a member from the moment its handshake completes until its
lease expires or its connection drops.  The lease is renewed by *any*
frame the worker sends (results and bound publishes prove liveness as
well as heartbeats do), always against the monotonic clock — wall-time
jumps must never expire a healthy worker.  Expiry is the cluster
generalization of the PR 5 heartbeat watchdog: the member's in-flight
and backlog shards go back to the retry queue, and the member is gone;
a hung worker that later wakes finds its connection closed and its
results deduplicated away.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["Member", "MembershipTable"]


@dataclass
class Member:
    """One registered worker and everything dispatched to it."""

    worker_id: str
    conn: object
    joined_at: float
    lease_renewed: float
    #: Telemetry slot (monotone join ordinal) — keys the live monitor's
    #: per-worker row; never reused, so a rejoining worker gets a fresh row.
    slot: int = -1
    #: ``shard_index -> (Shard, attempt)`` in dispatch order; the first
    #: entry is presumed running, the rest are prefetch backlog (and
    #: therefore stealable).
    assigned: dict = field(default_factory=dict)
    #: Shard the worker last reported actively searching (-1: idle).
    running: int = -1
    done: int = 0
    stale: int = 0
    #: Shards handed to this member as a retry (attempt > 1); a stolen
    #: retry counts for the thief, so the rows sum to the shard retries.
    retried: int = 0
    stolen_from: int = 0
    explored: int = 0
    vps: float = 0.0

    def renew(self, now: float | None = None) -> None:
        self.lease_renewed = now if now is not None else time.monotonic()

    def lease_age(self, now: float | None = None) -> float:
        now = now if now is not None else time.monotonic()
        return now - self.lease_renewed


class MembershipTable:
    """The coordinator's view of who is alive and what they hold."""

    def __init__(self) -> None:
        self._members: dict[str, Member] = {}
        self.joins = 0
        self.leaves = 0
        self.lease_expiries = 0

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(list(self._members.values()))

    def __contains__(self, worker_id: str) -> bool:
        return worker_id in self._members

    def get(self, worker_id: str) -> Member | None:
        return self._members.get(worker_id)

    def add(self, worker_id: str, conn, now: float | None = None) -> Member:
        now = now if now is not None else time.monotonic()
        member = Member(
            worker_id=worker_id, conn=conn, joined_at=now, lease_renewed=now
        )
        self._members[worker_id] = member
        self.joins += 1
        return member

    def remove(self, worker_id: str, *, expired: bool = False) -> Member | None:
        member = self._members.pop(worker_id, None)
        if member is not None:
            self.leaves += 1
            if expired:
                self.lease_expiries += 1
        return member

    def expired(self, lease: float, now: float | None = None) -> list[Member]:
        now = now if now is not None else time.monotonic()
        return [m for m in self._members.values() if m.lease_age(now) > lease]

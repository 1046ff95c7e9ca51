"""Wire protocol for the coordinator/worker cluster.

Everything on the wire is a *frame*: a plain dict with a ``"t"`` key
naming its type, pickled and length-prefixed (``!I`` big-endian byte
count) by the TCP transport.  The in-memory transport ships the same
dicts through a pickle round-trip, so the fake-network test suite
exercises exactly the serialization the real sockets do.

Two invariants keep a worker from ever computing against the wrong
instance:

* the **handshake** (``hello``/``welcome``) carries the protocol
  version and the coordinator's :func:`~repro.core.checkpoint.problem_fingerprint`;
  the worker recompiles the shipped problem and refuses to proceed when
  its own fingerprint disagrees (corrupted transfer, version skew);
* every ``shard``/``result``/``stale`` frame repeats the fingerprint,
  so a straggler frame from a previous solve on a reused address is
  discarded instead of polluting the current one.

Incumbent ``bound`` frames additionally carry an **epoch**: the
coordinator bumps it when a worker dies with published-but-unacked
improvements (the only time the safe broadcast bound can move *up*),
and a worker ignores bound frames older than the epoch its current
shard was dispatched under — a duplicated or delayed stale frame can
therefore never re-prune the very cost a retry exists to re-find.
"""

from __future__ import annotations

from ..errors import ClusterError

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "check_hello",
    "frame_type",
    "hello",
    "welcome",
    "reject",
    "shard_frame",
    "result_frame",
    "stale_frame",
    "bound_frame",
    "heartbeat",
    "revoke",
    "stop_frame",
    "bye",
]

MAGIC = "repro-cluster"
PROTOCOL_VERSION = 4


def frame_type(frame) -> str:
    """The frame's type tag, raising :class:`ClusterError` on junk."""
    if not isinstance(frame, dict) or "t" not in frame:
        raise ClusterError(f"malformed frame: {type(frame).__name__}")
    return frame["t"]


# -- handshake --------------------------------------------------------------


def hello(worker_id: str) -> dict:
    return {
        "t": "hello",
        "magic": MAGIC,
        "proto": PROTOCOL_VERSION,
        "worker": worker_id,
    }


def welcome(fingerprint: str, problem, params, lease: float) -> dict:
    return {
        "t": "welcome",
        "proto": PROTOCOL_VERSION,
        "fingerprint": fingerprint,
        "problem": problem,
        "params": params,
        "lease": lease,
    }


def reject(reason: str) -> dict:
    return {"t": "reject", "reason": reason}


def check_hello(frame) -> str:
    """Validate a worker's hello; returns its id or raises ClusterError."""
    if frame.get("magic") != MAGIC:
        raise ClusterError(f"not a cluster worker: magic={frame.get('magic')!r}")
    if frame.get("proto") != PROTOCOL_VERSION:
        raise ClusterError(
            f"protocol version mismatch: worker speaks "
            f"{frame.get('proto')!r}, coordinator speaks {PROTOCOL_VERSION}"
        )
    worker = frame.get("worker")
    if not isinstance(worker, str) or not worker:
        raise ClusterError("hello frame carries no worker id")
    return worker


# -- work -------------------------------------------------------------------


def shard_frame(
    shard, attempt: int, budget: float, incumbent: float, epoch: int,
    fingerprint: str,
) -> dict:
    return {
        "t": "shard",
        "shard": shard.index,
        "state": shard.state,
        "lb": shard.lower_bound,
        "attempt": attempt,
        "budget": budget,
        "incumbent": incumbent,
        "epoch": epoch,
        "fingerprint": fingerprint,
    }


def result_frame(
    shard_index: int, attempt: int, stats, cost: float, proc, start,
    target: bool, fingerprint: str,
) -> dict:
    return {
        "t": "result",
        "shard": shard_index,
        "attempt": attempt,
        "stats": stats,
        "cost": cost,
        "proc": proc,
        "start": start,
        "target": target,
        "fingerprint": fingerprint,
    }


def stale_frame(shard_index: int, fingerprint: str) -> dict:
    return {"t": "stale", "shard": shard_index, "fingerprint": fingerprint}


def bound_frame(cost: float, epoch: int, shard_index: int = -1) -> dict:
    """``shard_index`` is the publisher's running shard (worker→coordinator
    provenance); coordinator→worker broadcasts leave it at -1."""
    return {"t": "bound", "cost": cost, "epoch": epoch, "shard": shard_index}


def heartbeat(shard_index: int = -1, explored: int = 0, vps: float = 0.0) -> dict:
    return {"t": "hb", "shard": shard_index, "explored": explored, "vps": vps}


def revoke(shard_index: int) -> dict:
    return {"t": "revoke", "shard": shard_index}


def stop_frame() -> dict:
    return {"t": "stop"}


def bye() -> dict:
    return {"t": "bye"}

"""Duplicate-state detection: canonical signatures + transposition tables.

The paper's B&B explores one vertex per distinct placement *sequence*,
so the same partial schedule reached through different append orders —
or through processor relabelings on a uniform interconnect — is
re-expanded from scratch.  Duplicate-free search (Orr & Sinnen, arXiv
1901.06899) removes exactly that redundancy, and a memory-bounded,
well-engineered duplicate store is what lets it scale (Akram, Maas &
Sanders, arXiv 2405.15371).  This module supplies both halves:

Canonical identity
    Two states are *equivalent* when they schedule the same task set
    with the same per-task start times and the same task-to-processor
    assignment, compared up to processor relabeling when the
    interconnect is uniform (``problem.uniform_delay is not None``) and
    exactly otherwise.  Equivalent states admit identical futures under
    the append-only scheduling operation, and their lower bounds agree,
    so only the first may ever be expanded.  Identity is carried two
    ways: a 64-bit Zobrist-style signature maintained incrementally on
    every :meth:`~repro.core.state.SearchState.child_placed` (the
    candidate filter) and a fixed-size packed payload
    (:class:`PayloadCodec`) used for exact verification — equal hashes
    alone never justify a prune.

Soundness of duplicate pruning
    When a probe reports "seen before", the earlier instance was either
    expanded, recorded in the active set, or pruned by a rule that is
    itself sound at a threshold no looser than the current one (the
    elimination threshold only tightens as the search proceeds, and
    equivalent states have equal bounds).  In every case the duplicate's
    subtree is already covered, so discarding it cannot change the
    optimal cost — only the number of searched vertices.  Eviction
    merely *forgets* states (a re-encountered forgotten state is
    re-explored, never wrongly pruned), so the memory bound is safe at
    any size.

Table engineering
    :class:`TranspositionTable` is an 8-way set-associative,
    open-addressing store sized from a byte budget.  Entries are
    two-level — a 64-bit hash word plus the packed payload slot — and a
    full bucket is resolved by depth-preferred replacement: keep shallow
    entries, whose subtrees are larger, evicting the deepest resident
    entry for a newcomer no deeper than it and rejecting a newcomer
    deeper than everything resident.

One table per search
    Every solve builds its own table and frees it with the solve; a
    cluster worker searches each shard that way too.  No entry outlives
    the search that inserted it, so a shard retried after its worker
    died starts from an empty table and cannot prune its own subtree
    as "seen before".
"""

from __future__ import annotations

import struct
from array import array

from ..errors import ConfigurationError
from .dominance import DominanceChecker, DominanceRule
from .state import (
    UNIFORM_SALT,
    SearchState,
    mix64,
    placement_key,
    proc_salt,
)

__all__ = [
    "PayloadCodec",
    "TranspositionTable",
    "TranspositionDominance",
    "child_signature",
    "find_transposition",
]

_MASK64 = (1 << 64) - 1

#: Bucket width of the set-associative tables (a power of two).
WAYS = 8


def child_signature(parent: SearchState, task: int, proc: int, s: float) -> int:
    """Signature of ``parent + (task on proc at s)`` without the child.

    Performs the same O(1) accumulator update
    :meth:`SearchState.child_placed` would, so the result is bit-equal
    to ``parent.child_placed(task, proc, s, f).signature()``.
    """
    psig = parent.psig
    if psig is None:
        parent.signature()  # rebuilds and caches the accumulators
        psig = parent.psig
    p = parent.problem
    old = psig[proc]
    new = (old + placement_key(task, s)) & _MASK64
    salt = UNIFORM_SALT if p.uniform_delay is not None else proc_salt(proc)
    return (
        parent.sigacc - mix64((old + salt) & _MASK64) + mix64((new + salt) & _MASK64)
    ) & _MASK64


class PayloadCodec:
    """Fixed-size exact encoding of a state's canonical identity.

    Layout: ``scheduled_mask`` (little-endian, ``ceil(n/8)`` bytes) +
    one byte per task (canonical processor + 1; 0 = unscheduled) + the
    full per-task start tuple (``n`` little-endian doubles; unscheduled
    tasks hold 0.0 by construction, so equal states always encode
    byte-equal).  On uniform interconnects processors are relabeled in
    order of first use by task index — the same normalization as
    :meth:`SearchState.canonical_key` — making relabel-equivalent states
    encode identically.
    """

    __slots__ = ("n", "m", "uniform", "mask_bytes", "payload_len", "_dpack")

    def __init__(self, n: int, m: int, uniform: bool) -> None:
        if m > 254:
            raise ConfigurationError(
                "transposition payloads encode processors in one byte "
                f"(m <= 254); got m={m}"
            )
        self.n = n
        self.m = m
        self.uniform = uniform
        self.mask_bytes = (n + 7) // 8
        self._dpack = struct.Struct(f"<{n}d")
        self.payload_len = self.mask_bytes + n + 8 * n

    @classmethod
    def for_problem(cls, problem) -> "PayloadCodec":
        return cls(problem.n, problem.m, problem.uniform_delay is not None)

    def pack(
        self,
        scheduled_mask: int,
        proc_of: tuple[int, ...] | list[int],
        start: tuple[float, ...] | list[float],
    ) -> bytes:
        if self.uniform:
            relabel: dict[int, int] = {}
            procs = bytearray(self.n)
            for i, q in enumerate(proc_of):
                if q >= 0:
                    r = relabel.get(q)
                    if r is None:
                        r = relabel[q] = len(relabel)
                    procs[i] = r + 1
        else:
            procs = bytes((q + 1 if q >= 0 else 0) for q in proc_of)
        return (
            scheduled_mask.to_bytes(self.mask_bytes, "little")
            + bytes(procs)
            + self._dpack.pack(*start)
        )

    def pack_state(self, state: SearchState) -> bytes:
        return self.pack(state.scheduled_mask, state.proc_of, state.start)

    def pack_child(
        self, parent: SearchState, task: int, proc: int, s: float
    ) -> bytes:
        """Payload of ``parent + (task on proc at s)`` without the child.

        Byte-equal to ``pack_state(parent.child_placed(task, proc, s,
        f))`` — the appended placement is the only difference between
        the two states' mask/assignment/start tuples.
        """
        proc_of = list(parent.proc_of)
        start = list(parent.start)
        proc_of[task] = proc
        start[task] = s
        return self.pack(parent.scheduled_mask | (1 << task), proc_of, start)


def _geometry(table_bytes: int, entry_cost: int) -> int:
    """Number of buckets (a power of two) fitting the byte budget.

    At least one bucket is always allocated — the table is usable at any
    budget, just tiny — so the true floor is ``WAYS * entry_cost`` bytes.
    """
    slots_budget = max(WAYS, table_bytes // max(1, entry_cost))
    nbuckets = 1
    while nbuckets * 2 * WAYS <= slots_budget:
        nbuckets *= 2
    return nbuckets


class TranspositionTable:
    """Memory-bounded duplicate store (8-way set-associative).

    ``probe(h, depth, payload)`` answers "was an exactly-equal state
    seen before?" and records the state when not.  ``payload`` is a
    zero-argument callable building the packed canonical payload; it is
    invoked at most once, and only when a hash matched (verification) or
    an insert happens.
    """

    #: Per-entry byte estimate for capacity sizing: hash word (array
    #: slot) + depth byte + payload-list pointer + CPython bytes-object
    #: header + the payload itself.
    _PTR_AND_HEADER = 8 + 33

    def __init__(self, table_bytes: int, codec: PayloadCodec) -> None:
        self.codec = codec
        self.table_bytes = table_bytes
        self.entry_cost = 8 + 1 + self._PTR_AND_HEADER + codec.payload_len
        self.nbuckets = _geometry(table_bytes, self.entry_cost)
        self.slots = self.nbuckets * WAYS
        self._hash = array("Q", bytes(8 * self.slots))
        self._depth = bytearray(self.slots)
        self._payload: list[bytes | None] = [None] * self.slots
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.evictions = 0
        self.rejects = 0
        self.collisions = 0
        self.filled = 0

    @property
    def bytes_estimate(self) -> int:
        """Upper estimate of the fully-filled table's memory footprint."""
        return self.slots * self.entry_cost

    def probe(self, h: int, depth: int, payload) -> bool:
        h &= _MASK64
        if h == 0:
            h = 1  # 0 is the empty-slot sentinel
        base = (h & (self.nbuckets - 1)) * WAYS
        harr = self._hash
        pays = self._payload
        pay = None
        empty = -1
        for i in range(base, base + WAYS):
            eh = harr[i]
            if eh == 0:
                empty = i
                break
            if eh == h:
                if pay is None:
                    pay = payload()
                if pays[i] == pay:
                    self.hits += 1
                    return True
                self.collisions += 1
        self.misses += 1
        if pay is None:
            pay = payload()
        if depth > 255:
            depth = 255
        if empty >= 0:
            harr[empty] = h
            pays[empty] = pay
            self._depth[empty] = depth
            self.filled += 1
            self.inserts += 1
            return False
        # Keep shallow entries (bigger subtrees behind them): evict the
        # deepest resident, unless the newcomer is deeper still.
        darr = self._depth
        victim = base
        worst_depth = darr[base]
        for i in range(base + 1, base + WAYS):
            if darr[i] > worst_depth:
                worst_depth = darr[i]
                victim = i
        if depth > worst_depth:
            self.rejects += 1
            return False
        harr[victim] = h
        pays[victim] = pay
        darr[victim] = depth
        self.inserts += 1
        self.evictions += 1
        return False


# ---------------------------------------------------------------------------
# Dominance-seam integration
# ---------------------------------------------------------------------------


class _TranspositionChecker(DominanceChecker):
    """Per-solve checker over its own transposition table.

    The table lives exactly as long as its checker, i.e. one solve, so
    :meth:`telemetry` reports the table's counters as they stand, plus
    its ``tt_capacity``.

    Honours the replay-consistent observation contract:
    :meth:`probe_placement` performs bit-for-bit the same signature
    arithmetic, payload packing and table mutation as materializing the
    child and calling :meth:`is_dominated` — so the fused expansion path
    and the reference loop drive the table identically.
    """

    supports_probe = True

    def __init__(self, rule: "TranspositionDominance") -> None:
        self.rule = rule
        self.duplicate_pruned = 0
        self._table = None
        self._codec = None

    def _bind(self, problem):
        table = self.rule.table_for(problem)
        self._table = table
        self._codec = table.codec
        return table

    def is_dominated(self, state: SearchState) -> bool:
        table = self._table
        if table is None:
            table = self._bind(state.problem)
        codec = self._codec
        dup = table.probe(
            state.signature(),
            state.level,
            lambda: codec.pack_state(state),
        )
        if dup:
            self.duplicate_pruned += 1
        return dup

    def probe_placement(
        self, parent: SearchState, task: int, proc: int, s: float, f: float
    ) -> bool:
        table = self._table
        if table is None:
            table = self._bind(parent.problem)
        codec = self._codec
        dup = table.probe(
            child_signature(parent, task, proc, s),
            parent.level + 1,
            lambda: codec.pack_child(parent, task, proc, s),
        )
        if dup:
            self.duplicate_pruned += 1
        return dup

    def telemetry(self) -> dict[str, int]:
        table = self._table
        if table is None:
            return {}
        return {
            "tt_hits": table.hits,
            "tt_misses": table.misses,
            "tt_inserts": table.inserts,
            "tt_evictions": table.evictions,
            "tt_rejects": table.rejects,
            "tt_collisions": table.collisions,
            "tt_filled": table.filled,
            "tt_capacity": table.slots,
        }


class TranspositionDominance(DominanceRule):
    """Dominance rule wrapping the transposition layer.

    Plugs into ``BnBParameters.dominance`` (alone, or composed with
    :class:`~repro.core.dominance.StateDominance` via
    :class:`~repro.core.dominance.ChainedDominance`).  Each solve gets a
    fresh :class:`TranspositionTable` sized by ``table_bytes``, freed
    with the solve; a cluster worker's shard is one such solve.  A
    solve's table counters arrive on its ``SearchStats`` (``tt_*``), not
    on the rule, which holds nothing but ``table_bytes``.
    """

    name = "transposition"

    def __init__(self, table_bytes: int = 16 << 20) -> None:
        if table_bytes < 1:
            raise ConfigurationError("table_bytes must be positive")
        self.table_bytes = table_bytes

    def fresh(self) -> DominanceChecker:
        return _TranspositionChecker(self)

    def table_for(self, problem) -> TranspositionTable:
        return TranspositionTable(
            self.table_bytes, PayloadCodec.for_problem(problem)
        )

    def __repr__(self) -> str:
        return f"TranspositionDominance(table_bytes={self.table_bytes})"


def find_transposition(rule: DominanceRule) -> TranspositionDominance | None:
    """The transposition member of a (possibly chained) dominance rule."""
    if isinstance(rule, TranspositionDominance):
        return rule
    for sub in getattr(rule, "rules", ()):  # ChainedDominance
        found = find_transposition(sub)
        if found is not None:
            return found
    return None

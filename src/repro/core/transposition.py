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

Sharing across processes
    :class:`SharedTranspositionTable` keeps the same geometry in a
    ``multiprocessing.shared_memory`` segment so the shards of a
    parallel solve stop re-exploring each other's states.  Writers serialize on
    a striped lock (one per bucket); readers are lock-free under a
    per-record seqlock.  **Racy-read / safe-prune contract**: a prune is
    issued only from a payload read whose seqlock version was even and
    unchanged across the read (a consistent snapshot) and whose bytes
    equal the probe's exact payload; any torn or ambiguous read falls
    back to the striped lock, where a consistent re-scan decides.  A
    racing insert can thus at worst be *missed* (the state is explored
    twice — wasteful, never wrong).
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
    "SharedTranspositionTable",
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

    def matches_problem(self, problem) -> bool:
        return (
            self.n == problem.n
            and self.m == problem.m
            and self.uniform == (problem.uniform_delay is not None)
        )

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


class _CountersMixin:
    """Process-local probe counters shared by both table variants."""

    def _init_counters(self) -> None:
        # ``filled`` counts this process's fills of empty slots, so on a
        # shared table the processes' counts sum to the table's fill.
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.evictions = 0
        self.rejects = 0
        self.collisions = 0
        self.filled = 0

    def counters_dict(self) -> dict[str, int]:
        return {
            "tt_hits": self.hits,
            "tt_misses": self.misses,
            "tt_inserts": self.inserts,
            "tt_evictions": self.evictions,
            "tt_rejects": self.rejects,
            "tt_collisions": self.collisions,
            "tt_filled": self.filled,
        }


class TranspositionTable(_CountersMixin):
    """In-process memory-bounded duplicate store (8-way set-associative).

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
        self._init_counters()

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
# Shared-memory variant
# ---------------------------------------------------------------------------

#: Segment header: magic, n, m, uniform flag, bucket count, payload length.
_HEADER = struct.Struct("<8sIIIQI")
_MAGIC = b"RPTTBL01"


class SharedTranspositionTable(_CountersMixin):
    """The set-associative store in a ``multiprocessing.shared_memory``
    segment, shared by every shard of a parallel solve.

    Record layout per slot: ``hash`` (8 bytes, 0 = empty), ``version``
    (4-byte seqlock word: odd while a writer is mid-update), ``depth``
    (1), 3 padding bytes, then the fixed-size payload.  All writes
    happen under the bucket's stripe lock and bump the version to odd
    first and back to even last; the lock-free read path re-checks the
    version around its hash + payload read and accepts only an even,
    unchanged version.  See the module docstring
    for the racy-read/safe-prune contract.

    Probe counters are process-local (each worker reports its own view);
    only the slot contents are shared.
    """

    _META = 16  # hash + version + depth + padding

    def __init__(self, shm, locks, codec: PayloadCodec) -> None:
        self.shm = shm
        self.locks = locks
        self.codec = codec
        self.record = self._META + codec.payload_len
        buf = shm.buf
        magic, n, m, uniform, nbuckets, plen = _HEADER.unpack_from(buf, 0)
        if magic != _MAGIC:
            raise ConfigurationError(
                "shared transposition segment has an unrecognized header"
            )
        if (n, m, bool(uniform), plen) != (
            codec.n,
            codec.m,
            codec.uniform,
            codec.payload_len,
        ):
            raise ConfigurationError(
                "shared transposition segment geometry does not match the "
                "problem being solved"
            )
        self.nbuckets = nbuckets
        self.slots = nbuckets * WAYS
        self._buf = buf
        self._init_counters()

    # -- lifecycle ------------------------------------------------------

    @classmethod
    def create(
        cls,
        table_bytes: int,
        codec: PayloadCodec,
        ctx=None,
    ) -> "SharedTranspositionTable":
        from multiprocessing import get_context, shared_memory

        record = cls._META + codec.payload_len
        nbuckets = _geometry(table_bytes, record)
        size = _HEADER.size + nbuckets * WAYS * record
        shm = shared_memory.SharedMemory(create=True, size=size)
        # POSIX shared memory is zero-initialized: every hash word reads
        # 0 (empty) and every seqlock version reads 0 (even/stable).
        _HEADER.pack_into(
            shm.buf,
            0,
            _MAGIC,
            codec.n,
            codec.m,
            int(codec.uniform),
            nbuckets,
            codec.payload_len,
        )
        ctx = ctx or get_context()
        locks = tuple(ctx.Lock() for _ in range(min(64, nbuckets)))
        table = cls(shm, locks, codec)
        table._owner = True
        return table

    @classmethod
    def attach(
        cls, name: str, locks, codec: PayloadCodec
    ) -> "SharedTranspositionTable":
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=name)
        table = cls(shm, locks, codec)
        table._owner = False
        return table

    def close(self, *, unlink: bool | None = None) -> None:
        # memoryview slices must be released before the segment closes.
        self._buf = None
        if unlink is None:
            unlink = getattr(self, "_owner", False)
        try:
            self.shm.close()
            if unlink:
                self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    @property
    def bytes_estimate(self) -> int:
        return _HEADER.size + self.slots * self.record

    # -- probing --------------------------------------------------------

    def probe(self, h: int, depth: int, payload) -> bool:
        h &= _MASK64
        if h == 0:
            h = 1
        bucket = h & (self.nbuckets - 1)
        base = _HEADER.size + bucket * WAYS * self.record
        buf = self._buf
        rec = self.record
        plen = self.codec.payload_len
        pay = None

        # Lock-free fast path: prune only from a seqlock-consistent
        # snapshot whose payload bytes match exactly.
        for w in range(WAYS):
            off = base + w * rec
            eh = int.from_bytes(buf[off : off + 8], "little")
            if eh == 0:
                break
            if eh != h:
                continue
            v1 = int.from_bytes(buf[off + 8 : off + 12], "little")
            if v1 & 1:
                continue  # writer mid-update; the locked path decides
            if pay is None:
                pay = payload()
            stored = bytes(buf[off + self._META : off + self._META + plen])
            v2 = int.from_bytes(buf[off + 8 : off + 12], "little")
            if v1 == v2 and stored == pay:
                self.hits += 1
                return True

        if pay is None:
            pay = payload()
        if depth > 255:
            depth = 255
        lock = self.locks[bucket % len(self.locks)]
        with lock:
            empty = -1
            for w in range(WAYS):
                off = base + w * rec
                eh = int.from_bytes(buf[off : off + 8], "little")
                if eh == 0:
                    empty = w
                    break
                if eh == h:
                    stored = bytes(
                        buf[off + self._META : off + self._META + plen]
                    )
                    if stored == pay:
                        self.hits += 1
                        return True
                    self.collisions += 1
            self.misses += 1
            if empty >= 0:
                self._write_slot(base + empty * rec, h, depth, pay)
                self.filled += 1
                self.inserts += 1
                return False
            # Depth-preferred replacement, as in TranspositionTable.
            victim = 0
            worst_depth = buf[base + 12]
            for w in range(1, WAYS):
                d = buf[base + w * rec + 12]
                if d > worst_depth:
                    worst_depth = d
                    victim = w
            if depth > worst_depth:
                self.rejects += 1
                return False
            self._write_slot(base + victim * rec, h, depth, pay)
            self.inserts += 1
            self.evictions += 1
            return False

    def _write_slot(self, off: int, h: int, depth: int, pay: bytes) -> None:
        buf = self._buf
        ver = int.from_bytes(buf[off + 8 : off + 12], "little")
        buf[off + 8 : off + 12] = ((ver + 1) & 0xFFFFFFFF).to_bytes(4, "little")
        buf[off : off + 8] = h.to_bytes(8, "little")
        buf[off + 12] = depth
        buf[off + self._META : off + self._META + len(pay)] = pay
        buf[off + 8 : off + 12] = ((ver + 2) & 0xFFFFFFFF).to_bytes(4, "little")

    # -- worker plumbing ------------------------------------------------

    def handle(self) -> tuple:
        """Picklable (name, locks, codec params) for a worker process."""
        return (
            self.shm.name,
            self.locks,
            (self.codec.n, self.codec.m, self.codec.uniform),
        )

    @classmethod
    def from_handle(cls, handle: tuple) -> "SharedTranspositionTable":
        name, locks, (n, m, uniform) = handle
        return cls.attach(name, locks, PayloadCodec(n, m, uniform))


# ---------------------------------------------------------------------------
# Dominance-seam integration
# ---------------------------------------------------------------------------


class _TranspositionChecker(DominanceChecker):
    """Per-solve checker over a (local or shared) transposition table.

    A local table lives exactly as long as its checker, i.e. one solve.
    :meth:`telemetry` reports this solve's counters: deltas against the
    table's state at bind time (a shared table outlives solves), plus
    the table's ``tt_capacity``.

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
        self._base: dict[str, int] = {}

    def _bind(self, problem):
        table = self.rule.table_for(problem)
        self._table = table
        self._codec = table.codec
        self._base = dict(table.counters_dict())
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
        out: dict[str, int] = {}
        table = self._table
        if table is not None:
            base = self._base
            for key, value in table.counters_dict().items():
                out[key] = value - base[key]
            out["tt_capacity"] = table.slots
        return out


class TranspositionDominance(DominanceRule):
    """Dominance rule wrapping the transposition layer.

    Plugs into ``BnBParameters.dominance`` (alone, or composed with
    :class:`~repro.core.dominance.StateDominance` via
    :class:`~repro.core.dominance.ChainedDominance`).  Each solve gets a
    fresh local :class:`TranspositionTable` sized by ``table_bytes``,
    freed with the solve; the parallel driver instead binds one
    :class:`SharedTranspositionTable` via :meth:`bind_shared` so all
    shards prune against the same store.  A solve's table counters
    arrive on its ``SearchStats`` (``tt_*``), not on the rule.

    The bound shared table does not survive pickling — workers re-bind
    after transport.
    """

    name = "transposition"

    def __init__(self, table_bytes: int = 16 << 20) -> None:
        if table_bytes < 1:
            raise ConfigurationError("table_bytes must be positive")
        self.table_bytes = table_bytes
        self._shared: SharedTranspositionTable | None = None

    def fresh(self) -> DominanceChecker:
        return _TranspositionChecker(self)

    def bind_shared(self, table: SharedTranspositionTable | None) -> None:
        self._shared = table

    def table_for(self, problem):
        shared = self._shared
        if shared is not None:
            if not shared.codec.matches_problem(problem):
                raise ConfigurationError(
                    "bound shared transposition table was created for a "
                    "different problem geometry"
                )
            return shared
        return TranspositionTable(
            self.table_bytes, PayloadCodec.for_problem(problem)
        )

    def __getstate__(self):
        return {"table_bytes": self.table_bytes}

    def __setstate__(self, state):
        self.__init__(**state)

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

"""Immutable partial-schedule states for the search tree.

Each vertex of the branch-and-bound search tree owns a
:class:`SearchState`: one specific task-to-processor assignment and
schedule ordering prefix.  States are immutable; branching creates a
child state by appending one (task, processor) placement via the
Section 4.3 scheduling operation.

Representation (hot path — flat tuples and bitmasks, per the HPC guides):

* ``scheduled_mask`` / ``ready_mask`` — bitmask integers over task indices;
* ``proc_of`` / ``start`` / ``finish`` — per-task placement tuples
  (``proc_of[i] == -1`` when unscheduled);
* ``avail`` — per-processor finish time of the last appended task;
* ``scheduled_lateness`` — running max lateness of the placed tasks,
  maintained incrementally.

Creating a child is O(deg + n) dominated by the small tuple copies
(n <= 16 in the paper's workloads).

Canonical signatures
--------------------
Every state additionally carries a Zobrist-style signature for the
duplicate-detection layer (:mod:`repro.core.transposition`): a 64-bit
hash identifying the state *up to processor relabeling* on uniform
interconnects (exactly otherwise), maintained incrementally — appending
one placement updates the signature with O(1) arithmetic instead of
re-hashing the placement tuples from scratch.  The construction keeps
one commutative accumulator per processor (order within a processor
does not affect state identity: the per-task start times already pin
the execution) and combines them through a non-linear mixer, summed
commutatively across processors so relabelings cancel; on non-uniform
topologies a per-processor salt re-introduces label sensitivity.
Signature equality is a *candidate* test only — the transposition table
verifies candidates against the exact packed canonical payload.
"""

from __future__ import annotations

from ..errors import ModelError
from ..model.compile import CompiledProblem

__all__ = [
    "SearchState",
    "AOState",
    "root_state",
    "ao_root_state",
    "mix64",
    "placement_key",
    "proc_salt",
    "UNIFORM_SALT",
]

_NEG_INF = float("-inf")

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Salt folded into every per-processor accumulator on *uniform*
#: interconnects — identical across processors, so permuting processor
#: contents leaves the combined signature unchanged.
UNIFORM_SALT = 0x5851F42D4C957F2D


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a fast, well-distributed 64-bit mixer."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def placement_key(task: int, start: float) -> int:
    """Deterministic 64-bit Zobrist key for one (task, start) placement.

    Derived arithmetically instead of from a random table so every
    process — including pool workers sharing a transposition segment —
    agrees on the keys without shipping any state.  ``hash`` of a float
    is deterministic in CPython (numeric hashing is not salted by
    ``PYTHONHASHSEED``).
    """
    return mix64(((task + 1) * _GOLDEN) ^ (hash(start) & _MASK64))


def proc_salt(proc: int) -> int:
    """Per-processor salt for label-sensitive (non-uniform) signatures."""
    return mix64((proc + 1) * _GOLDEN ^ 0xD6E8FEB86659FD93)


class SearchState(object):
    """One partial (or complete) schedule: a search-tree vertex's payload."""

    #: Extra lower bound carried by the state itself (class attribute, so
    #: every plain state reads ``-inf`` at zero storage cost).  The
    #: allocation-ordered states below shadow it with a per-instance
    #: allocation-load bound; the engine takes ``max(L(v), lb_floor)``.
    lb_floor: float = _NEG_INF

    __slots__ = (
        "problem",
        "scheduled_mask",
        "ready_mask",
        "proc_of",
        "start",
        "finish",
        "avail",
        "level",
        "scheduled_lateness",
        "last_task",
        "last_proc",
        "_lmin",
        "psig",
        "sigacc",
    )

    def __init__(
        self,
        problem: CompiledProblem,
        scheduled_mask: int,
        ready_mask: int,
        proc_of: tuple[int, ...],
        start: tuple[float, ...],
        finish: tuple[float, ...],
        avail: tuple[float, ...],
        level: int,
        scheduled_lateness: float,
        last_task: int = -1,
        last_proc: int = -1,
        lmin: float | None = None,
        psig: tuple[int, ...] | None = None,
        sigacc: int | None = None,
    ) -> None:
        self.problem = problem
        self.scheduled_mask = scheduled_mask
        self.ready_mask = ready_mask
        self.proc_of = proc_of
        self.start = start
        self.finish = finish
        self.avail = avail
        self.level = level
        self.scheduled_lateness = scheduled_lateness
        self.last_task = last_task
        self.last_proc = last_proc
        self._lmin = lmin
        # Zobrist accumulators: per-processor commutative sums and their
        # mixed combination.  ``None`` for states built by hand; lazily
        # recomputed from scratch on first signature() call.
        self.psig = psig
        self.sigacc = sigacc

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def is_goal(self) -> bool:
        """All tasks placed — the vertex is a goal vertex."""
        return self.scheduled_mask == self.problem.all_mask

    def is_scheduled(self, task: int) -> bool:
        return bool(self.scheduled_mask >> task & 1)

    def is_ready(self, task: int) -> bool:
        return bool(self.ready_mask >> task & 1)

    def ready_tasks(self) -> list[int]:
        """Indices of ready tasks (all predecessors placed), ascending.

        Iterates set bits directly (isolate the lowest bit, index via
        ``bit_length``) instead of shifting through every position, so
        the cost scales with the number of ready tasks, not ``n``.
        """
        out = []
        mask = self.ready_mask
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def min_avail(self) -> float:
        """``l_min``: earliest time any processor can accept a new task.

        Computed once and cached (states are immutable); the fused
        expansion path pre-seeds the cache at construction.
        """
        lmin = self._lmin
        if lmin is None:
            lmin = min(self.avail)
            self._lmin = lmin
        return lmin

    def earliest_start(self, task: int, proc: int) -> float:
        """Start time the scheduling operation would give ``task`` on ``proc``."""
        return self.problem.earliest_start(
            task, proc, self.proc_of, self.finish, self.avail[proc]
        )

    # ------------------------------------------------------------------
    # Branching
    # ------------------------------------------------------------------

    def child(self, task: int, proc: int) -> "SearchState":
        """Append one placement, producing the child vertex's state."""
        p = self.problem
        if not self.ready_mask >> task & 1:
            raise ModelError(
                f"task {p.names[task]!r} is not ready in this state"
            )
        s = p.earliest_start(task, proc, self.proc_of, self.finish, self.avail[proc])
        return self.child_placed(task, proc, s, s + p.wcet[task])

    def child_placed(
        self, task: int, proc: int, s: float, f: float
    ) -> "SearchState":
        """:meth:`child` with the start/finish times already computed.

        The fused expansion path computes every placement's times up
        front for its admission pre-check; this entry point lets it
        freeze the surviving children without repeating the scheduling
        operation (and without re-validating readiness).
        """
        p = self.problem
        bit = 1 << task
        new_mask = self.scheduled_mask | bit
        new_ready = self.ready_mask & ~bit
        for j, _ in p.succ_edges[task]:
            # A successor becomes ready when every direct predecessor is
            # now in the scheduled set.
            if not new_mask >> j & 1 and (p.pred_mask[j] & ~new_mask) == 0:
                new_ready |= 1 << j

        proc_of = list(self.proc_of)
        start = list(self.start)
        finish = list(self.finish)
        avail = list(self.avail)
        proc_of[task] = proc
        start[task] = s
        finish[task] = f
        avail[proc] = f

        lat = f - p.deadline[task]
        if lat < self.scheduled_lateness:
            lat = self.scheduled_lateness

        # Incremental Zobrist update: only processor ``proc``'s
        # accumulator changes, so the combined signature moves by the
        # difference of that one mixed term — O(1) arithmetic.
        psig = self.psig
        sigacc = self.sigacc
        if psig is not None:
            old = psig[proc]
            new = (old + placement_key(task, s)) & _MASK64
            salt = UNIFORM_SALT if p.uniform_delay is not None else proc_salt(proc)
            sigacc = (
                sigacc - mix64((old + salt) & _MASK64) + mix64((new + salt) & _MASK64)
            ) & _MASK64
            np = list(psig)
            np[proc] = new
            psig = tuple(np)

        return SearchState(
            problem=p,
            scheduled_mask=new_mask,
            ready_mask=new_ready,
            proc_of=tuple(proc_of),
            start=tuple(start),
            finish=tuple(finish),
            avail=tuple(avail),
            level=self.level + 1,
            scheduled_lateness=lat,
            last_task=task,
            last_proc=proc,
            psig=psig,
            sigacc=sigacc,
        )

    # ------------------------------------------------------------------
    # Signatures
    # ------------------------------------------------------------------

    def signature(self) -> int:
        """64-bit canonical signature of this state.

        Invariant under processor relabeling when the interconnect is
        uniform (``problem.uniform_delay is not None``); label-exact
        otherwise.  O(1) for states created through :meth:`child_placed`
        or :func:`root_state` (the accumulators ride along); falls back
        to :meth:`signature_from_scratch` for hand-built states.

        Equal signatures only *suggest* equal states — duplicate pruning
        must confirm with the exact canonical payload (see
        :mod:`repro.core.transposition`).
        """
        if self.sigacc is None:
            self.psig, self.sigacc = self._rebuild_accumulators()
        return self.sigacc

    def signature_from_scratch(self) -> int:
        """Recompute the signature from the placement tuples, O(n + m).

        Oracle for the incremental path (tested and micro-benchmarked
        against :meth:`signature`); also the fallback for states not
        built via the branching entry points.
        """
        return self._rebuild_accumulators()[1]

    def _rebuild_accumulators(self) -> tuple[tuple[int, ...], int]:
        p = self.problem
        acc = [0] * p.m
        for task in range(p.n):
            q = self.proc_of[task]
            if q >= 0:
                acc[q] = (acc[q] + placement_key(task, self.start[task])) & _MASK64
        uniform = p.uniform_delay is not None
        total = 0
        for q in range(p.m):
            salt = UNIFORM_SALT if uniform else proc_salt(q)
            total = (total + mix64((acc[q] + salt) & _MASK64)) & _MASK64
        return tuple(acc), total

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    def canonical_key(self) -> tuple:
        """Hashable key identifying the state up to processor relabeling.

        Identical processors make states that differ only by a processor
        permutation equivalent; the key relabels processors in order of
        first use (by task index).  Only sound for uniform interconnects
        (shared bus, fully connected) — callers must check
        ``problem.uniform_delay``.
        """
        relabel: dict[int, int] = {}
        canon = []
        for i in range(self.problem.n):
            q = self.proc_of[i]
            if q < 0:
                canon.append(-1)
            else:
                if q not in relabel:
                    relabel[q] = len(relabel)
                canon.append(relabel[q])
        return (self.scheduled_mask, tuple(canon), self.start)

    def to_schedule(self):
        """Materialize an explicit :class:`~repro.model.schedule.Schedule`."""
        return self.problem.make_schedule(self.proc_of, self.start)

    def __repr__(self) -> str:
        return (
            f"SearchState(level={self.level}/{self.problem.n}, "
            f"lat={self.scheduled_lateness:g})"
        )


def root_state(problem: CompiledProblem) -> SearchState:
    """The root vertex's state: an empty schedule, input tasks ready."""
    ready = 0
    for i in problem.inputs:
        ready |= 1 << i
    uniform = problem.uniform_delay is not None
    sigacc = 0
    for q in range(problem.m):
        salt = UNIFORM_SALT if uniform else proc_salt(q)
        sigacc = (sigacc + mix64(salt)) & _MASK64
    return SearchState(
        problem=problem,
        scheduled_mask=0,
        ready_mask=ready,
        proc_of=(-1,) * problem.n,
        start=(0.0,) * problem.n,
        finish=(0.0,) * problem.n,
        avail=(0.0,) * problem.m,
        level=0,
        scheduled_lateness=_NEG_INF,
        psig=(0,) * problem.m,
        sigacc=sigacc,
    )


# ---------------------------------------------------------------------------
# Allocation-ordered (duplicate-free) states
# ---------------------------------------------------------------------------

#: Salts for the allocation half of the AO signature (distinct from the
#: placement-key constants so allocation and placement moves can never
#: cancel each other).
_ALLOC_GOLDEN = 0xC2B2AE3D27D4EB4F
_ALLOC_FINAL = 0xA0761D6478BD642F


class AOState(SearchState):
    """State of the allocation-ordered, duplicate-free search tree.

    The tree has two phases (Orr & Sinnen, arXiv:1901.06899):

    * **allocation** — tasks are bound to processors one at a time in
      fixed task-index order; on uniform interconnects a task may only
      open the *first* unused processor, which makes every allocation a
      canonical representative of its processor-permutation class.  No
      placement happens yet: ``scheduled_mask`` stays 0 and the base
      schedule fields keep their root values.
    * **ordering** — once every task is allocated, ready tasks are
      appended to their (fixed) processor via the ordinary scheduling
      operation.  Placements on *different* processors commute (neither
      changes the other's start time), so distinct interleavings of the
      same per-processor sequences reach identical states.  A Godefroid
      sleep set picks exactly one interleaving per class: the child via
      task ``t`` puts every ready task branched before ``t`` (smaller
      index, not already asleep is equivalent under the union below) to
      sleep unless it shares ``t``'s processor, and sleeping tasks are
      never branched on.  Together the two phases make every state of
      the tree reachable by exactly one path.

    The state additionally carries ``lb_floor``, a monotone
    allocation-aware lower bound (see :meth:`_alloc_floor`).  The engine
    maxes this floor with the configured bound ``L``, giving the
    allocation phase real pruning power even though the base schedule
    fields still look like the root.
    """

    __slots__ = (
        "alloc",
        "alloc_count",
        "alloc_order",
        "sleep_mask",
        "lb_floor",
        "aproc_mask",
    )

    def __init__(
        self,
        *,
        alloc: tuple[int, ...],
        alloc_count: int,
        alloc_order: tuple[int, ...],
        sleep_mask: int,
        lb_floor: float,
        aproc_mask: tuple[int, ...],
        **base,
    ) -> None:
        super().__init__(**base)
        #: Per-task processor binding (-1 while unallocated).
        self.alloc = alloc
        #: Number of tasks bound so far; the allocation phase binds task
        #: ``alloc_order[alloc_count]`` next, and the ordering phase
        #: begins once all ``n`` are bound.
        self.alloc_count = alloc_count
        #: The fixed (topological) task order allocations follow; shared
        #: across the whole tree.
        self.alloc_order = alloc_order
        #: Ready tasks the sleep-set rule forbids branching on here.
        self.sleep_mask = sleep_mask
        self.lb_floor = lb_floor
        #: Per-processor bitmask of allocated tasks.
        self.aproc_mask = aproc_mask

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def used_processors(self) -> int:
        """Processors holding at least one allocated task."""
        return sum(1 for msk in self.aproc_mask if msk)

    # ------------------------------------------------------------------
    # Branching
    # ------------------------------------------------------------------

    def child(self, task: int, proc: int) -> "AOState":
        """One move of the two-phase tree (dispatches on the phase)."""
        p = self.problem
        if self.alloc_count < p.n:
            expected = self.alloc_order[self.alloc_count]
            if task != expected:
                raise ModelError(
                    f"allocation order is fixed: task "
                    f"{p.names[expected]!r} must be allocated "
                    f"next, not {p.names[task]!r}"
                )
            return self.allocate(proc)
        if proc != self.alloc[task]:
            raise ModelError(
                f"task {p.names[task]!r} is allocated to processor "
                f"{self.alloc[task]}, cannot place it on {proc}"
            )
        if self.sleep_mask >> task & 1:
            raise ModelError(
                f"task {p.names[task]!r} is asleep here: placing it now "
                f"would re-generate a state reachable on the canonical "
                f"path"
            )
        return SearchState.child(self, task, proc)

    def allocate(self, proc: int) -> "AOState":
        """Bind the next task (``alloc_order[alloc_count]``) to ``proc``."""
        p = self.problem
        if self.alloc_count >= p.n:
            raise ModelError("allocation phase already complete")
        task = self.alloc_order[self.alloc_count]
        if not 0 <= proc < p.m:
            raise ModelError(f"processor {proc} out of range")
        if p.uniform_delay is not None and proc > self.used_processors():
            raise ModelError(
                f"non-canonical allocation: processor {proc} skipped an "
                f"unused processor (uniform interconnect)"
            )
        alloc = list(self.alloc)
        alloc[task] = proc
        aproc_mask = list(self.aproc_mask)
        aproc_mask[proc] |= 1 << task
        floor = self._alloc_floor(alloc, aproc_mask)
        if floor < self.lb_floor:
            floor = self.lb_floor
        return AOState(
            alloc=tuple(alloc),
            alloc_count=self.alloc_count + 1,
            alloc_order=self.alloc_order,
            sleep_mask=0,
            lb_floor=floor,
            aproc_mask=tuple(aproc_mask),
            problem=p,
            scheduled_mask=self.scheduled_mask,
            ready_mask=self.ready_mask,
            proc_of=self.proc_of,
            start=self.start,
            finish=self.finish,
            avail=self.avail,
            level=self.level + 1,
            scheduled_lateness=self.scheduled_lateness,
            last_task=task,
            last_proc=proc,
            psig=self.psig,
            sigacc=self.sigacc,
        )

    def _alloc_floor(self, alloc: list[int], aproc_mask: list[int]) -> float:
        """Allocation-aware max-lateness lower bound, two relaxations.

        * **Allocated critical path** — an edge whose endpoints are bound
          to *different* processors must pay its full message delay in
          any completion; every other edge (same processor, or either
          endpoint unbound) is relaxed to zero comm.  The relaxed finish
          time of each task therefore lower-bounds its real finish, so
          ``fin[i] - deadline[i]`` lower-bounds the max lateness.
        * **Per-processor sequencing** — the tasks bound to ``q`` run
          serially there.  Sorted by relaxed earliest start, for every
          suffix of the group the last-finishing suffix task completes no
          earlier than the suffix's earliest start plus its total WCET,
          and its deadline is at most the suffix max.

        Both terms only grow as bindings are added (the caller maxes with
        the parent floor), so the floor is monotone down every path.
        """
        p = self.problem
        arrival = p.arrival
        wcet = p.wcet
        deadline = p.deadline
        delay = p.delay
        est = [0.0] * p.n
        floor = _NEG_INF
        for i in p.topo:
            e = arrival[i]
            qi = alloc[i]
            for j, size in p.pred_edges[i]:
                r = est[j] + wcet[j]
                qj = alloc[j]
                if qi >= 0 and qj >= 0 and qi != qj:
                    r += size * delay[qj][qi]
                if r > e:
                    e = r
            est[i] = e
            lat = e + wcet[i] - deadline[i]
            if lat > floor:
                floor = lat
        for msk in aproc_mask:
            if msk == 0 or msk & (msk - 1) == 0:
                continue  # singleton groups are covered by the path term
            group = []
            while msk:
                low = msk & -msk
                t = low.bit_length() - 1
                group.append((est[t], wcet[t], deadline[t]))
                msk ^= low
            group.sort()
            load = 0.0
            maxdl = _NEG_INF
            for e, w, d in reversed(group):
                load += w
                if d > maxdl:
                    maxdl = d
                lat = e + load - maxdl
                if lat > floor:
                    floor = lat
        return floor

    def ordering_child_is_live(self, task: int, proc: int) -> bool:
        """Whether the ordering-phase child via ``task`` can ever progress.

        A child whose entire ready set is asleep is a guaranteed dead end
        (its completions are reached along the canonical interleaving
        through some sibling instead), so the branching rule skips
        generating it.  Goal children are always live.
        """
        p = self.problem
        bit = 1 << task
        new_mask = self.scheduled_mask | bit
        if new_mask == p.all_mask:
            return True
        new_ready = self.ready_mask & ~bit
        for j, _ in p.succ_edges[task]:
            if not new_mask >> j & 1 and (p.pred_mask[j] & ~new_mask) == 0:
                new_ready |= 1 << j
        sleep = (
            self.sleep_mask | (self.ready_mask & (bit - 1))
        ) & ~self.aproc_mask[proc]
        return bool(new_ready & ~sleep)

    def child_placed(self, task: int, proc: int, s: float, f: float) -> "AOState":
        if self.alloc_count < self.problem.n:
            raise ModelError(
                "allocation phase incomplete: ordering moves not yet legal"
            )
        base = SearchState.child_placed(self, task, proc, s, f)
        bit = 1 << task
        # Sleep-set update: tasks branched before ``task`` (smaller index
        # among the parent's ready set) join the inherited sleep set;
        # tasks sharing the placed processor are dependent moves and wake
        # up (the placement moved their start time), including ``task``.
        sleep = (
            self.sleep_mask | (self.ready_mask & (bit - 1))
        ) & ~self.aproc_mask[proc]
        return AOState(
            alloc=self.alloc,
            alloc_count=self.alloc_count,
            alloc_order=self.alloc_order,
            sleep_mask=sleep,
            lb_floor=self.lb_floor,
            aproc_mask=self.aproc_mask,
            problem=base.problem,
            scheduled_mask=base.scheduled_mask,
            ready_mask=base.ready_mask,
            proc_of=base.proc_of,
            start=base.start,
            finish=base.finish,
            avail=base.avail,
            level=base.level,
            scheduled_lateness=base.scheduled_lateness,
            last_task=base.last_task,
            last_proc=base.last_proc,
            lmin=base._lmin,
            psig=base.psig,
            sigacc=base.sigacc,
        )

    # ------------------------------------------------------------------
    # Signatures
    # ------------------------------------------------------------------

    def _alloc_sig(self) -> int:
        """Commutative hash of the allocation prefix.

        The prefix is already canonical (processors are opened in task-
        index order on uniform interconnects), so hashing the literal
        (task, processor) pairs is relabel-invariant by construction.
        """
        acc = 0
        for t, q in enumerate(self.alloc):
            if q >= 0:
                acc = (
                    acc + mix64(((t + 1) * _ALLOC_GOLDEN) ^ (q + 1))
                ) & _MASK64
        return mix64(acc ^ _ALLOC_FINAL)

    def signature(self) -> int:
        """Base placement signature with the allocation prefix folded in.

        Distinct allocation prefixes would otherwise collapse onto the
        root's placement signature (nothing is placed during the
        allocation phase), breaking the one-signature-per-state property
        this branching rule exists to provide.
        """
        return (SearchState.signature(self) + self._alloc_sig()) & _MASK64

    def signature_from_scratch(self) -> int:
        return (
            SearchState.signature_from_scratch(self) + self._alloc_sig()
        ) & _MASK64

    def canonical_key(self) -> tuple:
        return (
            SearchState.canonical_key(self),
            self.alloc,
            self.alloc_count,
        )

    def __repr__(self) -> str:
        n = self.problem.n
        if self.alloc_count < n:
            return f"AOState(alloc={self.alloc_count}/{n})"
        return (
            f"AOState(level={self.level - n}/{n}, "
            f"lat={self.scheduled_lateness:g})"
        )


def ao_root_state(problem: CompiledProblem) -> AOState:
    """Root of the allocation-ordered tree: nothing allocated or placed.

    Allocations follow the problem's topological order so the partial
    allocated-critical-path floor sees prefix-closed bindings (every
    bound task's predecessors are already bound, letting cross-processor
    comm terms bite as early as possible).
    """
    base = root_state(problem)
    return AOState(
        alloc=(-1,) * problem.n,
        alloc_count=0,
        alloc_order=tuple(problem.topo),
        sleep_mask=0,
        lb_floor=_NEG_INF,
        aproc_mask=(0,) * problem.m,
        problem=problem,
        scheduled_mask=base.scheduled_mask,
        ready_mask=base.ready_mask,
        proc_of=base.proc_of,
        start=base.start,
        finish=base.finish,
        avail=base.avail,
        level=0,
        scheduled_lateness=_NEG_INF,
        psig=base.psig,
        sigacc=base.sigacc,
    )

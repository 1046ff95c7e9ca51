"""Vertex selection rules ``S`` (Section 3.2).

The selection rule picks the next active vertex to explore and defines
the search's stop condition:

* ``S_LLB`` — least lower bound (best-first).  Stop when the selected
  vertex's bound is >= the current upper-bound cost: no remaining vertex
  can improve on the incumbent.
* ``S_LIFO`` — last in, first out (depth-first).  Stop when the active
  set is empty.
* ``S_FIFO`` — first in, first out (breadth-first).  Stop when the
  active set is empty.  Included for completeness; the paper dismisses
  it (all goal vertices sit at the same level ``n``, so FIFO generates
  every intermediate vertex before reaching any solution).
* ``S_LLB-D`` (ours) — least lower bound with a *depth* tie-break:
  among equal bounds the deepest vertex wins.  On lateness objectives
  huge bound plateaus are the norm (the cost is set by one critical
  task), and plain LLB walks them breadth-first; biasing ties toward
  depth restores goal-directed behaviour while keeping the best-first
  stop condition.  An ablation of the paper's C1 finding.

A rule is a factory for :class:`Frontier` objects — the active set ``AS``
with the access discipline baked in.  Frontiers support eager pruning
(:meth:`Frontier.prune_above`), used by the U/DBAS elimination rule when
the incumbent improves.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections import deque

from ..errors import ConfigurationError
from .vertex import Vertex

__all__ = [
    "DepthBiasedLLBSelection",
    "FIFOSelection",
    "Frontier",
    "LIFOSelection",
    "LLBSelection",
    "MemoryLimitedSelection",
    "SELECTION_RULES",
    "SelectionRule",
]


class Frontier(ABC):
    """The active set ``AS`` under one selection discipline."""

    @abstractmethod
    def push(self, vertex: Vertex) -> None:
        """Insert a newly generated active vertex."""

    @abstractmethod
    def pop(self) -> Vertex | None:
        """Remove and return the next vertex to explore (None when empty)."""

    @abstractmethod
    def prune_above(self, threshold: float) -> int:
        """Drop every vertex with ``L(v) >= threshold``; return the count."""

    @abstractmethod
    def drop_worst(self, count: int) -> int:
        """Dispose of up to ``count`` vertices with the *largest* bounds.

        Implements the paper's MAXSZAS overflow semantics ("the algorithm
        must dispose of one or more of the active intermediate
        solutions").  Returns how many were dropped.
        """

    @abstractmethod
    def export(self) -> list[Vertex]:
        """Live vertices in pop order, without consuming the frontier.

        The parallel driver uses this to split the active set into
        shards with a deterministic ordering; tests use it to inspect
        frontier content.  Lazy-deletion implementations must exclude
        stale and tombstoned entries.
        """

    @abstractmethod
    def __len__(self) -> int: ...

    def __bool__(self) -> bool:
        return len(self) > 0

    def restore(self, vertices: list[Vertex]) -> None:
        """Refill an empty frontier from an :meth:`export` snapshot.

        ``vertices`` is in pop order, so ``restore`` must arrange that
        popping yields them in that same order.  Pushing in sequence is
        correct for every discipline except LIFO, which overrides.
        """
        for vertex in vertices:
            self.push(vertex)

    def min_bound(self) -> float | None:
        """Smallest lower bound among live vertices (None when empty).

        The best *open* bound: on an early stop it bounds how far the
        incumbent can be from optimal.  O(n) scan — called once per
        solve at most, never on the hot path.
        """
        best: float | None = None
        for v in self.iter_open():
            if best is None or v.lower_bound < best:
                best = v.lower_bound
        return best

    def open_profile(self, levels: int) -> tuple[float | None, dict[int, int]]:
        """Smallest open bound and the open-vertex count per level.

        Levels at or beyond ``levels - 1`` fold into the last bucket.
        One pass over :meth:`iter_open`; the live monitor's sample.
        """
        best: float | None = None
        depths: dict[int, int] = {}
        last = levels - 1
        for v in self.iter_open():
            lb = v.lower_bound
            if best is None or lb < best:
                best = lb
            level = v.level
            if level > last:
                level = last
            depths[level] = depths.get(level, 0) + 1
        return best, depths

    def iter_open(self):
        """Yield every live vertex, in no particular order.

        A single unordered O(n) pass with no sorting and no allocation
        proportional to the frontier — the cheap primitive behind
        :meth:`min_bound` and the live monitor's sampled depth profile.
        Lazy-deletion implementations must skip stale and tombstoned
        entries.  Must not be interleaved with mutations.
        """
        yield from self.export()


class _ListFrontier(Frontier):
    """Shared list-backed implementation for LIFO and FIFO."""

    def __init__(self) -> None:
        self._items: deque[Vertex] = deque()

    def push(self, vertex: Vertex) -> None:
        self._items.append(vertex)

    def prune_above(self, threshold: float) -> int:
        before = len(self._items)
        self._items = deque(
            v for v in self._items if v.lower_bound < threshold
        )
        return before - len(self._items)

    def drop_worst(self, count: int) -> int:
        if count <= 0 or not self._items:
            return 0
        # Identify the `count` largest bounds, then drop them preserving
        # the discipline's order for the survivors.
        worst = heapq.nlargest(
            count, self._items, key=lambda v: (v.lower_bound, v.seq)
        )
        doomed = {id(v) for v in worst}
        before = len(self._items)
        self._items = deque(v for v in self._items if id(v) not in doomed)
        return before - len(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def iter_open(self):
        yield from self._items


class _LIFOFrontier(_ListFrontier):
    def pop(self) -> Vertex | None:
        return self._items.pop() if self._items else None

    def export(self) -> list[Vertex]:
        return list(reversed(self._items))

    def restore(self, vertices: list[Vertex]) -> None:
        # LIFO pops from the right, so pop order is reversed storage
        # order; pushing an export() back would flip the search order.
        self._items = deque(reversed(vertices))


class _FIFOFrontier(_ListFrontier):
    def pop(self) -> Vertex | None:
        return self._items.popleft() if self._items else None

    def export(self) -> list[Vertex]:
        return list(self._items)


class _LLBFrontier(Frontier):
    """Binary heap keyed by (lower bound, seq), with full lazy deletion.

    Entries are ``(lower_bound, seq, vertex)`` tuples: ``seq`` is unique
    among active vertices, so heap comparisons resolve in C on the first
    two fields and never invoke ``Vertex.__lt__``.

    No operation ever rebuilds the heap on the hot path:

    * ``prune_above`` stamps the new threshold; entries at or above it
      become *stale* and are skipped when popped.  Only a counting scan
      (no allocation, no heapify) runs at incumbent updates, so the
      *effective* content matches eager U/DBAS pruning exactly.
    * ``drop_worst`` tombstones the doomed entries by identity instead
      of filtering and re-heapifying; tombstones are reaped when the
      entries surface at the heap top.
    * ``__len__`` reports the effective (live) size, maintained
      incrementally.

    A compaction pass (filter + heapify) runs only when live entries
    fall below half the heap, bounding memory at ~2x the live set while
    keeping the amortized cost per operation O(log n).
    """

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._threshold = float("inf")
        self._live = 0
        #: ids of vertices removed by ``drop_worst`` but still heaped.
        self._dead: set[int] = set()

    @staticmethod
    def _key(vertex: Vertex) -> tuple:
        return (vertex.lower_bound, vertex.seq, vertex)

    def push(self, vertex: Vertex) -> None:
        if vertex.lower_bound >= self._threshold:
            return
        heapq.heappush(self._heap, self._key(vertex))
        self._live += 1

    def pop(self) -> Vertex | None:
        dead = self._dead
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            v = entry[-1]
            if dead and id(v) in dead:
                dead.discard(id(v))
                continue
            if entry[0] < self._threshold:
                self._live -= 1
                return v
        self._live = 0
        dead.clear()
        return None

    def _compact(self) -> None:
        """Reap stale and tombstoned entries; amortized by the 1/2 rule."""
        dead = self._dead
        threshold = self._threshold
        self._heap = [
            e
            for e in self._heap
            if e[0] < threshold and (not dead or id(e[-1]) not in dead)
        ]
        dead.clear()
        heapq.heapify(self._heap)

    def prune_above(self, threshold: float) -> int:
        if threshold >= self._threshold:
            return 0
        # Count only newly dead entries: those below the old threshold
        # (still live, not tombstoned) but at or above the new one.
        dead = self._dead
        old = self._threshold
        if dead:
            pruned = sum(
                1
                for e in self._heap
                if threshold <= e[0] < old and id(e[-1]) not in dead
            )
        else:
            pruned = sum(
                1 for e in self._heap if threshold <= e[0] < old
            )
        self._threshold = threshold
        self._live -= pruned
        if pruned and self._live < len(self._heap) // 2:
            self._compact()
        return pruned

    def drop_worst(self, count: int) -> int:
        if count <= 0 or self._live == 0:
            return 0
        dead = self._dead
        threshold = self._threshold
        worst = heapq.nlargest(
            count,
            (
                e
                for e in self._heap
                if e[0] < threshold and id(e[-1]) not in dead
            ),
        )
        for e in worst:
            dead.add(id(e[-1]))
        self._live -= len(worst)
        if self._live < len(self._heap) // 2:
            self._compact()
        return len(worst)

    def export(self) -> list[Vertex]:
        dead = self._dead
        threshold = self._threshold
        return [
            e[-1]
            for e in sorted(
                e
                for e in self._heap
                if e[0] < threshold and (not dead or id(e[-1]) not in dead)
            )
        ]

    def __len__(self) -> int:
        return self._live

    def iter_open(self):
        dead = self._dead
        threshold = self._threshold
        for e in self._heap:
            if e[0] < threshold and (not dead or id(e[-1]) not in dead):
                yield e[-1]


class SelectionRule(ABC):
    """Factory for frontiers; also carries the rule's stop condition."""

    name: str = "?"

    #: Whether the engine should stop the whole search as soon as a
    #: selected vertex's bound reaches the pruning threshold.  True for
    #: best-first (LLB): the frontier is bound-ordered, so nothing after
    #: the first such vertex can be better.
    stop_on_bound: bool = False

    @abstractmethod
    def make_frontier(self) -> Frontier: ...

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class LLBSelection(SelectionRule):
    """Least-lower-bound (best-first) selection."""

    name = "LLB"
    stop_on_bound = True

    def make_frontier(self) -> Frontier:
        return _LLBFrontier()


class _DepthLLBFrontier(_LLBFrontier):
    """Heap entries ordered by (bound, -level, seq): deeper ties first."""

    @staticmethod
    def _key(vertex: Vertex) -> tuple:
        return (vertex.lower_bound, -vertex.level, vertex.seq, vertex)


class DepthBiasedLLBSelection(SelectionRule):
    """Least lower bound, ties broken toward the deepest vertex (ours)."""

    name = "LLB-D"
    stop_on_bound = True

    def make_frontier(self) -> Frontier:
        return _DepthLLBFrontier()


class _HybridFrontier(Frontier):
    """Best-first under a size cap, depth-first drain above it.

    Every vertex is entered into two heaps — one keyed ``(bound, seq)``
    (best-first) and one keyed ``-seq`` (newest-first, the depth-first
    proxy: the most recently generated vertex is the deepest open one
    under a depth-biased expansion).  While the live size is at or below
    ``cap``, pops come from the best-first heap; above it they come from
    the newest-first heap, which drains the overflow down the deepest
    open subtrees (completing or pruning them) instead of discarding
    vertices.  Nothing is ever dropped, so the search stays exact — this
    replaces a transposition table's degrade-on-full behaviour with
    bounded-memory *search* per Orr & Sinnen (arXiv:1905.05568).

    Both heaps share one mutable cell per vertex; consuming or pruning a
    vertex blanks its cell, and the twin entry is skipped lazily when it
    surfaces.  A compaction pass bounds garbage at ~2x the live set.
    """

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self._best: list[tuple] = []  # (bound, seq, cell)
        self._deep: list[tuple] = []  # (-seq, cell)
        self._live = 0

    def push(self, vertex: Vertex) -> None:
        cell = [vertex]
        heapq.heappush(self._best, (vertex.lower_bound, vertex.seq, cell))
        heapq.heappush(self._deep, (-vertex.seq, cell))
        self._live += 1

    def pop(self) -> Vertex | None:
        # Both heaps hold an entry for every live vertex, so whichever
        # side the policy picks can always surface one.
        heap = self._deep if self._live > self.cap else self._best
        while heap:
            cell = heapq.heappop(heap)[-1]
            v = cell[0]
            if v is None:
                continue
            cell[0] = None
            self._live -= 1
            return v
        self._live = 0
        return None

    def _compact(self) -> None:
        self._best = [e for e in self._best if e[-1][0] is not None]
        self._deep = [e for e in self._deep if e[-1][0] is not None]
        heapq.heapify(self._best)
        heapq.heapify(self._deep)

    def prune_above(self, threshold: float) -> int:
        pruned = 0
        for bound, _seq, cell in self._best:
            if cell[0] is not None and bound >= threshold:
                cell[0] = None
                pruned += 1
        if pruned:
            self._live -= pruned
            if self._live < len(self._best) // 2:
                self._compact()
        return pruned

    def drop_worst(self, count: int) -> int:
        if count <= 0 or self._live == 0:
            return 0
        worst = heapq.nlargest(
            count, (e for e in self._best if e[-1][0] is not None)
        )
        for e in worst:
            e[-1][0] = None
        self._live -= len(worst)
        if self._live < len(self._best) // 2:
            self._compact()
        return len(worst)

    def export(self) -> list[Vertex]:
        # Pop order depends on future live counts; export the under-cap
        # (best-first) order, which restore() reproduces exactly — the
        # rebuilt frontier holds the same vertex multiset, and pop
        # behaviour is a function of the multiset and the cap only.
        return [
            e[-1][0] for e in sorted(self._best) if e[-1][0] is not None
        ]

    def __len__(self) -> int:
        return self._live

    def iter_open(self):
        for e in self._best:
            if e[-1][0] is not None:
                yield e[-1][0]


class MemoryLimitedSelection(SelectionRule):
    """Bounded-memory best-first selection (ours, after arXiv:1905.05568).

    Behaves exactly like LLB while the active set fits in ``cap``
    vertices; beyond that it switches to draining the newest (deepest)
    vertices depth-first until the set shrinks back under the cap.  No
    vertex is ever discarded, so results remain exact — only the
    exploration *order* (and hence peak memory) changes.

    ``stop_on_bound`` stays False: above the cap pops are not bound-
    ordered, so a popped vertex at the threshold proves nothing about
    the rest of the frontier; the engine's per-vertex threshold check
    prunes such pops individually instead.
    """

    name = "ML"
    stop_on_bound = False

    DEFAULT_CAP = 65536

    def __init__(self, cap: int | None = None) -> None:
        if cap is None:
            cap = self.DEFAULT_CAP
        if cap < 1:
            raise ConfigurationError(f"frontier cap must be >= 1, got {cap}")
        self.cap = cap
        # Instance name carries the cap: a different cap changes the
        # search trajectory, so checkpoint fingerprints must differ.
        self.name = f"ML@{cap}"

    def make_frontier(self) -> Frontier:
        return _HybridFrontier(self.cap)

    def __repr__(self) -> str:
        return f"MemoryLimitedSelection(cap={self.cap})"


class LIFOSelection(SelectionRule):
    """Last-in-first-out (depth-first) selection."""

    name = "LIFO"
    stop_on_bound = False

    def make_frontier(self) -> Frontier:
        return _LIFOFrontier()


class FIFOSelection(SelectionRule):
    """First-in-first-out (breadth-first) selection."""

    name = "FIFO"
    stop_on_bound = False

    def make_frontier(self) -> Frontier:
        return _FIFOFrontier()


SELECTION_RULES: dict[str, type[SelectionRule]] = {
    LLBSelection.name: LLBSelection,
    DepthBiasedLLBSelection.name: DepthBiasedLLBSelection,
    LIFOSelection.name: LIFOSelection,
    FIFOSelection.name: FIFOSelection,
    MemoryLimitedSelection.name: MemoryLimitedSelection,
}

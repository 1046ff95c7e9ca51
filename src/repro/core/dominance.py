"""Vertex dominance rules ``D`` (optional; OFF by default).

The paper deliberately does *not* use a dominance rule, "to preserve our
results as general as possible" (Section 3) — dominance and
characteristic functions are most powerful when tailored to a specific
processor scheduling strategy.  We ship two sound rules as ablations so
the benchmark suite can quantify what the paper left on the table:

* :class:`StateDominance` — a newly generated vertex is dominated when a
  previously seen vertex scheduled the *same task set* with pointwise
  no-later task finish times and processor availabilities (compared up
  to processor relabeling on uniform interconnects).  Sound for the
  append-only scheduling operation because every future placement's
  start time is monotone in those quantities.
* :class:`NoDominance` — the paper's choice.

Dominance stores grow with the search; :class:`StateDominance` keeps a
bounded Pareto front per scheduled-set key.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from .state import SearchState

__all__ = [
    "DominanceRule",
    "DominanceChecker",
    "NoDominance",
    "StateDominance",
    "ChainedDominance",
    "DOMINANCE_RULES",
]


class DominanceRule(ABC):
    """Strategy interface for the dominance rule ``D``.

    A rule is *stateful per search*: the engine instantiates a fresh
    checker via :meth:`fresh` for every solve.
    """

    name: str = "?"

    @abstractmethod
    def fresh(self) -> "DominanceChecker": ...

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class DominanceChecker(ABC):
    #: True when :meth:`is_dominated` is a stateless constant-False (no
    #: store to keep consistent).  The fused expansion path may then
    #: discard doomed children early; a stateful checker without probe
    #: support must observe the exact same child stream as the reference
    #: engine path, so early discards are disabled for it.
    is_noop: bool = False

    #: True when the checker honours the replay-consistent observation
    #: contract below: :meth:`probe_placement` must be *exactly*
    #: equivalent — same verdicts, same internal store mutations — to
    #: materializing the child via ``parent.child_placed(task, proc, s,
    #: f)`` and calling :meth:`is_dominated` on it.  The fused expansion
    #: path then keeps its early-discard and lazy-state optimizations
    #: with the stateful checker in the loop: it calls the probe on every
    #: non-goal placement *before* any bound-based discard, mirroring the
    #: reference loop's bound → feasibility → dominance order (dominance
    #: runs before threshold elimination there too, and a dominated child
    #: consumes no sequence number on either path).
    supports_probe: bool = False

    #: Running count of this checker's verdicts that were duplicate
    #: states (the transposition layer); the engine books those prunes
    #: under ``pruned_duplicate`` and the rest under ``pruned_dominated``.
    duplicate_pruned: int = 0

    @abstractmethod
    def is_dominated(self, state: SearchState) -> bool:
        """Whether the state is dominated by one seen before (and record it)."""

    def probe_placement(
        self, parent: SearchState, task: int, proc: int, s: float, f: float
    ) -> bool:
        """Verdict for the child ``parent + (task on proc at [s, f])``.

        Default bridge: materialize the child and defer to
        :meth:`is_dominated`.  Checkers that can answer from the parent's
        incremental signature override this and set
        :attr:`supports_probe`.
        """
        return self.is_dominated(parent.child_placed(task, proc, s, f))

    def telemetry(self) -> dict[str, int] | None:
        """The transposition table's counters (``None`` = no table).

        ``tt_hits``, ``tt_misses``, ``tt_inserts``, ``tt_evictions``,
        ``tt_rejects``, ``tt_collisions``, ``tt_filled`` and
        ``tt_capacity``: the live monitor samples them mid-solve, and the
        engine copies them onto :class:`SearchStats`, whence the ``tt``
        trace event and the ``bnb_tt_*`` metrics report them.
        """
        return None


class _NoChecker(DominanceChecker):
    is_noop = True

    def is_dominated(self, state: SearchState) -> bool:
        return False


class NoDominance(DominanceRule):
    """The paper's configuration: no dominance pruning."""

    name = "none"

    def fresh(self) -> DominanceChecker:
        return _NoChecker()


class _StateChecker(DominanceChecker):
    """Pareto fronts keyed by (scheduled set, canonical assignment).

    Soundness: two states with the same scheduled set and the same
    task-to-processor assignment (compared up to processor relabeling on
    uniform interconnects, exactly otherwise) offer identical future
    placement choices; if one finishes every scheduled task no later and
    frees every (correspondingly relabeled) processor no later, every
    completion of the other is matched or beaten — the later state is
    dominated.  This relies on the append-only scheduling operation being
    monotone in predecessor finishes and processor availabilities.
    """

    def __init__(self, max_front: int) -> None:
        self.max_front = max_front
        self.front_evictions = 0
        self._fronts: dict[
            tuple[int, tuple[int, ...]],
            list[tuple[tuple[float, ...], tuple[float, ...]]],
        ] = {}

    @staticmethod
    def _canonicalize(
        state: SearchState,
    ) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """Relabel processors by first use; remap avail accordingly."""
        if state.problem.uniform_delay is None:
            return state.proc_of, state.avail  # exact comparison only
        relabel: dict[int, int] = {}
        canon = []
        for q in state.proc_of:
            if q < 0:
                canon.append(-1)
            else:
                if q not in relabel:
                    relabel[q] = len(relabel)
                canon.append(relabel[q])
        av = [0.0] * state.problem.m
        next_free = len(relabel)
        for q, a in enumerate(state.avail):
            if q in relabel:
                av[relabel[q]] = a
            else:
                av[next_free] = a
                next_free += 1
        return tuple(canon), tuple(av)

    def is_dominated(self, state: SearchState) -> bool:
        assignment, av = self._canonicalize(state)
        key = (state.scheduled_mask, assignment)
        fin = state.finish
        front = self._fronts.setdefault(key, [])
        for ofin, oav in front:
            if all(of <= nf for of, nf in zip(ofin, fin)) and all(
                oa <= na for oa, na in zip(oav, av)
            ):
                return True
        # Bounded front with deterministic FIFO eviction: once a key's
        # front is full, the oldest recorded state makes room.  Evicting
        # only ever *loses* pruning power (a forgotten state can no
        # longer dominate newcomers), so the bound never threatens
        # soundness — and FIFO keeps runs reproducible, unlike the
        # previous silent drop of every new entry at capacity.
        if len(front) >= self.max_front:
            front.pop(0)
            self.front_evictions += 1
        front.append((fin, av))
        return False

    def store_size(self) -> int:
        """Total recorded states across all fronts (bound regression hook)."""
        return sum(len(v) for v in self._fronts.values())


class StateDominance(DominanceRule):
    """Pointwise finish/availability dominance over equal placements."""

    name = "state"

    def __init__(self, max_front: int = 64) -> None:
        if max_front < 1:
            raise ValueError("max_front must be >= 1")
        self.max_front = max_front

    def fresh(self) -> DominanceChecker:
        return _StateChecker(self.max_front)

    def __repr__(self) -> str:
        return f"StateDominance(max_front={self.max_front})"


class _ChainedChecker(DominanceChecker):
    def __init__(self, checkers: list[DominanceChecker]) -> None:
        self.checkers = checkers
        self.is_noop = all(c.is_noop for c in checkers)
        # The chain can be probed only if every stateful member can:
        # probe and materialize-then-check must stay indistinguishable
        # for each link, or the fused path would diverge from reference.
        self.supports_probe = all(
            c.is_noop or c.supports_probe for c in checkers
        )

    @property
    def duplicate_pruned(self) -> int:
        return sum(c.duplicate_pruned for c in self.checkers)

    def is_dominated(self, state: SearchState) -> bool:
        for c in self.checkers:
            if c.is_dominated(state):
                return True
        return False

    def probe_placement(
        self, parent: SearchState, task: int, proc: int, s: float, f: float
    ) -> bool:
        for c in self.checkers:
            if c.probe_placement(parent, task, proc, s, f):
                return True
        return False

    def telemetry(self) -> dict[str, int] | None:
        merged: dict[str, int] = {}
        for c in self.checkers:
            tel = c.telemetry()
            if tel:
                for k, v in tel.items():
                    merged[k] = merged.get(k, 0) + v
        return merged or None


class ChainedDominance(DominanceRule):
    """Short-circuit conjunction of dominance rules, checked in order.

    A child is pruned when *any* member rule dominates it; each sound
    member keeps the chain sound.  Used to compose the transposition
    layer with :class:`StateDominance`'s Pareto front.

    Order matters for economy, not soundness: put the cheapest / most
    selective rule first.  Every member still observes each surviving
    state (short-circuit skips later members on a prune, exactly as a
    single combined checker would).
    """

    def __init__(self, *rules: DominanceRule) -> None:
        if not rules:
            raise ValueError("ChainedDominance needs at least one rule")
        self.rules = rules
        self.name = "+".join(r.name for r in rules)

    def fresh(self) -> DominanceChecker:
        return _ChainedChecker([r.fresh() for r in self.rules])

    def __repr__(self) -> str:
        return f"ChainedDominance({', '.join(map(repr, self.rules))})"


#: Registry used by the CLI and parameter presets.  Values are rule
#: *classes*; constructor keywords (``StateDominance(max_front=...)``,
#: ``TranspositionDominance(table_bytes=...)``) are wired
#: through by the CLI.  ``repro.core.transposition`` registers its rule
#: here on import.
DOMINANCE_RULES: dict[str, type[DominanceRule]] = {
    NoDominance.name: NoDominance,
    StateDominance.name: StateDominance,
}

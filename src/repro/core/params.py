"""The Kohler–Steiglitz 9-tuple ``<B, S, E, F, D, L, U, BR, RB>``.

:class:`BnBParameters` bundles one concrete choice per parameter plus
two engine knobs that the paper leaves implicit (child push order and
processor-symmetry breaking, both defaulting to the faithful behaviour).
Presets reproduce every configuration the evaluation section uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ..errors import ConfigurationError
from .branching import (
    AOBranching,
    BF1Branching,
    BFnBranching,
    BranchingRule,
    DFBranching,
)
from .bounds import LB0, LB1, LowerBound
from .dominance import ChainedDominance, DominanceRule, NoDominance
from .transposition import TranspositionDominance
from .elimination import EliminationRule, UDBASElimination
from .feasibility import CharacteristicFunction, NoFilter
from .resources import ResourceBounds
from .selection import (
    LIFOSelection,
    LLBSelection,
    SelectionRule,
)
from .upper import EDFUpperBound, UpperBoundProvider

__all__ = ["BnBParameters", "CHILD_ORDERS", "ENGINES"]

#: Valid child push orders.
#:
#: * ``generation`` — push children exactly as the branching rule emits
#:   them (faithful default);
#: * ``best-last`` — sort children so the lowest bound is pushed last
#:   (under LIFO the most promising child is explored first — a common
#:   DFS refinement, exposed for ablations);
#: * ``best-first`` — lowest bound pushed first.
CHILD_ORDERS = ("generation", "best-last", "best-first")

#: Valid search-core implementations (``engine`` field), each naming the
#: tier a solve starts at: ``array`` the native C chunk driver, ``object``
#: the fused Python expander, ``reference`` the per-child Python loop.
#: The engine is an implementation detail: it never changes results,
#: counters or traces, so it is deliberately excluded from ``describe()``
#: and the checkpoint problem fingerprint.
ENGINES = ("array", "object", "reference")


@dataclass(frozen=True)
class BnBParameters:
    """One fully specified branch-and-bound configuration."""

    branching: BranchingRule = field(default_factory=BFnBranching)
    selection: SelectionRule = field(default_factory=LIFOSelection)
    elimination: EliminationRule = field(default_factory=UDBASElimination)
    characteristic: CharacteristicFunction = field(default_factory=NoFilter)
    dominance: DominanceRule = field(default_factory=NoDominance)
    lower_bound: LowerBound = field(default_factory=LB1)
    upper_bound: UpperBoundProvider = field(default_factory=EDFUpperBound)
    #: Inaccuracy limit BR (fraction, e.g. 0.10 for 10%).
    inaccuracy: float = 0.0
    resources: ResourceBounds = field(default_factory=ResourceBounds)
    #: Push order of surviving children into the active set.
    child_order: str = "generation"
    #: Collapse equivalent empty processors at branching (sound on
    #: uniform interconnects only; ignored otherwise).  Default off,
    #: matching the paper.
    break_symmetry: bool = False
    #: Search-core implementation, the tier a solve starts at (see
    #: :data:`ENGINES`): ``array`` (the default) the native C chunk
    #: driver over a struct-of-arrays arena, ``object`` the fused Python
    #: expander, ``reference`` the per-child Python loop.  A solve falls
    #: back to a slower tier (fused, then reference) for configurations
    #: the faster one cannot replicate bit-for-bit, so results are
    #: engine-independent by construction; ``SearchStats.engine_path``
    #: and ``engine_fallback`` record which tier ran and why.
    engine: str = "array"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.inaccuracy) and self.inaccuracy >= 0):
            raise ConfigurationError(
                f"inaccuracy limit BR must be finite and >= 0, "
                f"got {self.inaccuracy}"
            )
        if self.child_order not in CHILD_ORDERS:
            raise ConfigurationError(
                f"child_order must be one of {CHILD_ORDERS}, got {self.child_order!r}"
            )
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if getattr(self.branching, "duplicate_free", False) and not isinstance(
            self.dominance, NoDominance
        ):
            raise ConfigurationError(
                f"branching rule {self.branching.name!r} generates each "
                f"state exactly once; composing a dominance/duplicate "
                f"layer (D={self.dominance.name!r}) is redundant and the "
                f"shipped placement-keyed stores would unsoundly collapse "
                f"distinct allocation prefixes"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def guarantees_optimal(self) -> bool:
        """Whether this configuration can prove optimality (before RB)."""
        return self.branching.guarantees_optimal and self.inaccuracy == 0.0

    def describe(self) -> str:
        return (
            f"<B={self.branching.name}, S={self.selection.name}, "
            f"E={self.elimination.name}, F={self.characteristic.name}, "
            f"D={self.dominance.name}, L={self.lower_bound.name}, "
            f"U={self.upper_bound.name}, BR={self.inaccuracy:.0%}, "
            f"{self.resources.describe()}>"
        )

    def evolve(self, **changes) -> "BnBParameters":
        """Functional update (rules are stateless and shareable)."""
        return replace(self, **changes)

    def with_transposition(self, table_bytes: int = 16 << 20) -> "BnBParameters":
        """Compose the duplicate-state transposition layer onto ``D``.

        When a dominance rule is already configured the transposition
        table is chained *first* (an O(1) hash probe is cheaper than a
        Pareto-front scan); with :class:`NoDominance` it simply replaces
        it.  Pruning exact duplicates is sound for every ``<B, S, E, L>``
        combination because the first instance of a state is either
        explored or itself soundly pruned, so duplicate subtrees cannot
        contain a strictly better completion.
        """
        tt = TranspositionDominance(table_bytes=table_bytes)
        if isinstance(self.dominance, NoDominance):
            return self.evolve(dominance=tt)
        return self.evolve(dominance=ChainedDominance(tt, self.dominance))

    # ------------------------------------------------------------------
    # Presets matching the paper's evaluation
    # ------------------------------------------------------------------

    @classmethod
    def paper_default(cls, **changes) -> "BnBParameters":
        """Optimal configuration: BFn / LIFO / U-DBAS / LB1 / EDF / BR=0."""
        return cls().evolve(**changes)

    @classmethod
    def paper_lifo(cls, **changes) -> "BnBParameters":
        """Figure 3(a), LIFO curve (same as :meth:`paper_default`)."""
        return cls(selection=LIFOSelection()).evolve(**changes)

    @classmethod
    def paper_llb(cls, **changes) -> "BnBParameters":
        """Figure 3(a), LLB curve."""
        return cls(selection=LLBSelection()).evolve(**changes)

    @classmethod
    def paper_lb0(cls, **changes) -> "BnBParameters":
        """Figure 3(b), LB0 curve (LIFO selection)."""
        return cls(lower_bound=LB0()).evolve(**changes)

    @classmethod
    def paper_lb1(cls, **changes) -> "BnBParameters":
        """Figure 3(b), LB1 curve (LIFO selection)."""
        return cls(lower_bound=LB1()).evolve(**changes)

    @classmethod
    def dupfree(cls, **changes) -> "BnBParameters":
        """Duplicate-free allocation-ordered tree (AO / LIFO / U-DBAS / LB1)."""
        return cls(branching=AOBranching()).evolve(**changes)

    @classmethod
    def approximate_df(cls, **changes) -> "BnBParameters":
        """Figure 3(c), depth-first approximate rule."""
        return cls(branching=DFBranching()).evolve(**changes)

    @classmethod
    def approximate_bf1(cls, **changes) -> "BnBParameters":
        """Figure 3(c), breadth-first-one-task approximate rule."""
        return cls(branching=BF1Branching()).evolve(**changes)

    @classmethod
    def near_optimal(cls, br: float = 0.10, **changes) -> "BnBParameters":
        """Figure 3(c), BFn with a performance-guarantee margin BR."""
        return cls(inaccuracy=br).evolve(**changes)

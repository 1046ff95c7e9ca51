"""The paper's contribution: the parametrized branch-and-bound scheduler.

Everything is organized around the Kohler–Steiglitz 9-tuple
``<B, S, E, F, D, L, U, BR, RB>`` (see :class:`BnBParameters`) driving
the Figure 1 engine (:class:`BranchAndBound`).
"""

from .bounds import LB0, LB1, LB2, LOWER_BOUNDS, LowerBound, TrivialBound
from .branching import (
    BRANCHING_RULES,
    AOBranching,
    BF1Branching,
    BFnBranching,
    BranchingRule,
    DFBranching,
    FixedOrderBranching,
)
from .dominance import (
    DOMINANCE_RULES,
    ChainedDominance,
    DominanceRule,
    NoDominance,
    StateDominance,
)
from .checkpoint import (
    Checkpointer,
    SearchCheckpoint,
    StopToken,
    graceful_interrupts,
    load_checkpoint,
    problem_fingerprint,
    write_checkpoint,
)
from .elimination import (
    ELIMINATION_RULES,
    EliminationRule,
    NoElimination,
    UDBASElimination,
    pruning_threshold,
)
from .engine import (
    BnBResult,
    BranchAndBound,
    SolveStatus,
    SubtreeSpec,
    solve,
)
from .feasibility import (
    CHARACTERISTIC_FUNCTIONS,
    CharacteristicFunction,
    LatenessTargetFilter,
    NoFilter,
)
from .parallel import ParallelBnB, default_worker_count
from .params import CHILD_ORDERS, BnBParameters
from .resources import UNBOUNDED, ResourceBounds, current_rss_bytes
from .shards import (
    BackoffPolicy,
    FrontierCollector,
    RetryQueue,
    Shard,
    shard_state,
)
from .selection import (
    SELECTION_RULES,
    DepthBiasedLLBSelection,
    FIFOSelection,
    LIFOSelection,
    LLBSelection,
    MemoryLimitedSelection,
    SelectionRule,
)
from .state import AOState, SearchState, ao_root_state, root_state
from .stats import SearchStats
from .trace import IncumbentEvent, TraceRecorder
from .transposition import (
    PayloadCodec,
    SharedTranspositionTable,
    TranspositionDominance,
    TranspositionTable,
    child_signature,
    find_transposition,
)
from .upper import (
    UPPER_BOUNDS,
    BestHeuristicUpperBound,
    ConstantUpperBound,
    EDFUpperBound,
    NoUpperBound,
    UpperBoundProvider,
)
from .vertex import Vertex

__all__ = [
    "AOBranching",
    "AOState",
    "BF1Branching",
    "BFnBranching",
    "BRANCHING_RULES",
    "BackoffPolicy",
    "BestHeuristicUpperBound",
    "BnBParameters",
    "BnBResult",
    "BranchAndBound",
    "BranchingRule",
    "CHARACTERISTIC_FUNCTIONS",
    "CHILD_ORDERS",
    "ChainedDominance",
    "CharacteristicFunction",
    "Checkpointer",
    "ConstantUpperBound",
    "DFBranching",
    "DepthBiasedLLBSelection",
    "DOMINANCE_RULES",
    "DominanceRule",
    "EDFUpperBound",
    "ELIMINATION_RULES",
    "EliminationRule",
    "FIFOSelection",
    "FixedOrderBranching",
    "FrontierCollector",
    "LB0",
    "LB1",
    "LB2",
    "LIFOSelection",
    "LLBSelection",
    "LOWER_BOUNDS",
    "LatenessTargetFilter",
    "LowerBound",
    "MemoryLimitedSelection",
    "NoDominance",
    "NoElimination",
    "NoFilter",
    "NoUpperBound",
    "ParallelBnB",
    "PayloadCodec",
    "ResourceBounds",
    "RetryQueue",
    "SELECTION_RULES",
    "SearchCheckpoint",
    "SearchState",
    "SearchStats",
    "SelectionRule",
    "SharedTranspositionTable",
    "Shard",
    "IncumbentEvent",
    "SolveStatus",
    "StateDominance",
    "StopToken",
    "SubtreeSpec",
    "TraceRecorder",
    "TranspositionDominance",
    "TranspositionTable",
    "TrivialBound",
    "UDBASElimination",
    "UNBOUNDED",
    "UPPER_BOUNDS",
    "UpperBoundProvider",
    "Vertex",
    "ao_root_state",
    "child_signature",
    "current_rss_bytes",
    "default_worker_count",
    "find_transposition",
    "graceful_interrupts",
    "load_checkpoint",
    "problem_fingerprint",
    "pruning_threshold",
    "root_state",
    "shard_state",
    "solve",
    "write_checkpoint",
]

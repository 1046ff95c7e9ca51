"""Polynomial-time scheduling substrate.

Implements the paper's Section 4.3 non-preemptive list-scheduling
operation, the Section 4.4 greedy EDF baseline/upper-bound generator, and
additional list-scheduling heuristics used by the ablation benchmarks.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".edf": ("edf_schedule",),
    ".heuristics": (
        "HEURISTICS", "best_heuristic_schedule", "depth_first_schedule",
        "hlfet_schedule", "least_laxity_schedule", "level_order_schedule",
        "random_order_schedule",
    ),
    ".preemptive": ("PreemptiveResult", "Slice", "preemptive_edf"),
    ".listsched": (
        "HeuristicResult", "SchedulingState", "best_processor",
        "schedule_in_order",
    ),
})

__all__ = [
    "HEURISTICS",
    "HeuristicResult",
    "PreemptiveResult",
    "Slice",
    "SchedulingState",
    "best_heuristic_schedule",
    "best_processor",
    "depth_first_schedule",
    "edf_schedule",
    "hlfet_schedule",
    "least_laxity_schedule",
    "level_order_schedule",
    "preemptive_edf",
    "random_order_schedule",
    "schedule_in_order",
]

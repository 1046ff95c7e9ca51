"""repro — parametrized branch-and-bound multiprocessor scheduling.

A from-scratch reproduction of

    Jan Jonsson and Kang G. Shin, "A Parametrized Branch-and-Bound
    Strategy for Scheduling Precedence-Constrained Tasks on a
    Multiprocessor System", Proc. ICPP 1997, pp. 158-165.

The library minimizes the maximum task lateness of precedence-
constrained, communication-annotated task graphs on a shared-bus
multiprocessor via a branch-and-bound search parametrized by the
Kohler-Steiglitz 9-tuple ``<B, S, E, F, D, L, U, BR, RB>``.

Quickstart::

    from repro import (
        BnBParameters, solve, generate_task_graph, shared_bus_platform
    )

    graph = generate_task_graph(seed=42)      # Section 4.1 workload
    result = solve(graph, shared_bus_platform(3), BnBParameters())
    print(result.summary())
    print(result.schedule().as_table())

Subpackages:

* :mod:`repro.model` — tasks, channels, task graphs, platforms, schedules;
* :mod:`repro.scheduling` — the non-preemptive list-scheduling operation,
  greedy EDF, and other heuristics;
* :mod:`repro.workload` — the random task-graph generator and the
  deadline-slicing pass;
* :mod:`repro.core` — the parametrized B&B engine and all its rules;
* :mod:`repro.analysis` — metrics and confidence intervals;
* :mod:`repro.experiments` — harnesses regenerating every figure;
* :mod:`repro.io` — JSON and DOT serialization.

The names below resolve on first access (:mod:`repro._lazy`), so
``import repro`` loads none of the subpackages until one is used.
"""

from ._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".core.engine": ("BnBResult", "BranchAndBound", "SolveStatus", "solve"),
    ".core.params": ("BnBParameters",),
    ".core.resources": ("ResourceBounds",),
    ".model.channel": ("Channel",),
    ".model.compile": ("compile_problem",),
    ".model.platform": ("Platform", "shared_bus_platform"),
    ".model.schedule": ("Schedule",),
    ".model.task": ("Task",),
    ".model.taskgraph": ("TaskGraph",),
    ".scheduling.edf": ("edf_schedule",),
    ".workload.deadline": ("assign_deadlines",),
    ".workload.generator": ("generate_task_graph",),
    ".workload.spec": ("WorkloadSpec",),
})

__version__ = "1.0.0"

__all__ = [
    "BnBParameters",
    "BnBResult",
    "BranchAndBound",
    "Channel",
    "Platform",
    "ResourceBounds",
    "Schedule",
    "SolveStatus",
    "Task",
    "TaskGraph",
    "WorkloadSpec",
    "__version__",
    "assign_deadlines",
    "compile_problem",
    "edf_schedule",
    "generate_task_graph",
    "shared_bus_platform",
    "solve",
]

"""System models: tasks, channels, task graphs, platforms, schedules.

This subpackage implements Section 2 of the paper — the multiprocessor
system model, the (periodic) task system with precedence constraints and
communication channels, and the definition of valid time-driven
non-preemptive schedules — plus the problem compiler feeding the search
engine.
"""

from .._lazy import lazy_exports

# ``unroll`` names both a submodule and the function it defines, and
# importing a submodule rebinds the package attribute to the module:
# bound eagerly, the function wins as it always did.
from .unroll import hyperperiod, unroll

__getattr__, __dir__ = lazy_exports(__name__, {
    ".bussim": ("BusSimulation", "BusTransfer", "simulate_bus"),
    ".channel": ("Channel",),
    ".compile": ("CompiledProblem", "compile_problem"),
    ".interconnect": (
        "FullyConnected", "Interconnect", "Mesh2D", "Ring", "SharedBus",
        "ZeroCost",
    ),
    ".platform": ("Platform", "shared_bus_platform"),
    ".schedule": ("EPSILON", "MessageRecord", "Schedule", "ScheduleEntry"),
    ".task": ("APERIODIC", "Job", "Task"),
    ".taskgraph": ("TaskGraph",),
})

__all__ = [
    "APERIODIC",
    "BusSimulation",
    "BusTransfer",
    "Channel",
    "CompiledProblem",
    "EPSILON",
    "FullyConnected",
    "Interconnect",
    "Job",
    "Mesh2D",
    "MessageRecord",
    "Platform",
    "Ring",
    "Schedule",
    "ScheduleEntry",
    "SharedBus",
    "Task",
    "TaskGraph",
    "ZeroCost",
    "compile_problem",
    "hyperperiod",
    "shared_bus_platform",
    "simulate_bus",
    "unroll",
]

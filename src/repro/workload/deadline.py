"""End-to-end deadline selection and slicing (Section 4.2, after [16]).

The paper assigns each input-output task pair an end-to-end deadline so
that the overall laxity ratio of end-to-end deadline to the accumulated
task-graph workload is 1.5, and then distributes it to individual tasks
with the deadline-assignment technique of Jonsson & Shin [16]: each
series of direct successors between an input-output pair receives
*slices* — non-overlapping execution windows — of the pair's end-to-end
deadline, which lets each task be scheduled independently.

Our implementation slices proportionally to longest-path prefixes:

* ``top[i]`` = heaviest path length from any input up to and including
  ``tau_i`` (message costs included when ``include_comm``);
* the absolute deadline of ``tau_i`` is ``D_i = top[i] * scale`` with
  ``scale = E2E / max(top)``, so deadlines grow monotonically along every
  chain with gaps proportional to each link's execution + message time;
* the arrival time is either the latest direct predecessor's deadline
  (``window_mode="contiguous"``: chain windows tile the end-to-end
  deadline) or ``D_i - c_i * scale`` (``window_mode="tight"``: the window
  is exactly the task's own slice, leaving message slices as gaps).

Both modes yield non-overlapping windows along every chain with window
length >= the task's execution time whenever ``scale >= 1``; the
end-to-end deadline is stretched up to the critical-path length when the
requested laxity would make ``scale < 1`` (recorded on the result so
experiments can report the realized laxity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError, DeadlineAssignmentError
from ..model.taskgraph import TaskGraph

__all__ = ["DeadlineAssignment", "end_to_end_deadline", "assign_deadlines"]


@dataclass(frozen=True)
class DeadlineAssignment:
    """Metadata of one slicing pass."""

    graph: TaskGraph
    end_to_end: float
    requested_end_to_end: float
    scale: float

    @property
    def was_stretched(self) -> bool:
        """Whether the requested laxity was below the critical path."""
        return self.end_to_end > self.requested_end_to_end


def end_to_end_deadline(
    graph: TaskGraph,
    laxity_ratio: float = 1.5,
    mode: str = "workload",
    include_comm: bool = True,
    delay: float = 1.0,
) -> float:
    """The shared end-to-end deadline for all input-output pairs.

    ``mode="workload"`` (the paper's wording): laxity ratio times the
    accumulated task-graph workload (the sum of all execution times).
    ``mode="critical-path"``: laxity ratio times the heaviest
    input-to-output path.
    """
    if not math.isfinite(laxity_ratio):
        raise ConfigurationError(
            f"laxity ratio must be finite, got {laxity_ratio}"
        )
    if laxity_ratio <= 0:
        raise DeadlineAssignmentError(
            f"laxity ratio must be positive, got {laxity_ratio}"
        )
    if mode == "workload":
        return laxity_ratio * graph.total_workload
    if mode == "critical-path":
        return laxity_ratio * graph.critical_path_length(include_comm, delay)
    raise DeadlineAssignmentError(f"unknown end-to-end mode: {mode!r}")


def assign_deadlines_detailed(
    graph: TaskGraph,
    laxity_ratio: float = 1.5,
    mode: str = "workload",
    include_comm: bool = True,
    delay: float = 1.0,
    window_mode: str = "contiguous",
) -> DeadlineAssignment:
    """Slice the end-to-end deadline into per-task execution windows.

    Returns a new graph whose tasks carry arrivals (phases) and relative
    deadlines, plus the pass metadata.
    """
    if len(graph) == 0:
        raise DeadlineAssignmentError("cannot assign deadlines on an empty graph")
    if window_mode not in ("contiguous", "tight"):
        raise DeadlineAssignmentError(
            f"window_mode must be 'contiguous' or 'tight', got {window_mode!r}"
        )
    requested = end_to_end_deadline(graph, laxity_ratio, mode, include_comm, delay)
    top = graph.top_level(include_comm=include_comm, delay=delay)
    longest = max(top.values())
    e2e = max(requested, longest)
    scale = e2e / longest

    deadlines = {name: top[name] * scale for name in graph.task_names}
    replacements = {}
    for name in graph.task_names:
        task = graph.task(name)
        d = deadlines[name]
        if window_mode == "tight":
            a = d - task.wcet * scale
        else:
            preds = graph.predecessors(name)
            a = max((deadlines[p] for p in preds), default=0.0)
        a = max(0.0, min(a, d - task.wcet))
        replacements[name] = task.with_window(a, d)

    return DeadlineAssignment(
        graph=graph.with_tasks(replacements),
        end_to_end=e2e,
        requested_end_to_end=requested,
        scale=scale,
    )


def assign_deadlines(
    graph: TaskGraph,
    laxity_ratio: float = 1.5,
    mode: str = "workload",
    include_comm: bool = True,
    delay: float = 1.0,
    window_mode: str = "contiguous",
) -> TaskGraph:
    """Convenience wrapper returning just the annotated graph."""
    return assign_deadlines_detailed(
        graph, laxity_ratio, mode, include_comm, delay, window_mode
    ).graph

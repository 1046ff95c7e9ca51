"""JSON serialization of task graphs, schedules and experiment outputs.

The on-disk formats are versioned and deliberately simple (flat dicts)
so workloads can be shared between runs, archived with experiment
results, or hand-authored.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..errors import ProblemFormatError, SerializationError
from ..model.channel import Channel
from ..model.platform import Platform
from ..model.schedule import Schedule
from ..model.task import Task
from ..model.taskgraph import TaskGraph

if TYPE_CHECKING:
    # The experiment harness is imported only by the experiment
    # (de)serializers, so loading a graph never pulls it in.
    from ..experiments.runner import ExperimentOutput

__all__ = [
    "graph_to_dict",
    "graph_from_dict",
    "save_graph",
    "load_graph",
    "schedule_to_dict",
    "schedule_from_dict",
    "experiment_to_dict",
    "experiment_from_dict",
    "save_experiment",
    "load_experiment",
]

_GRAPH_FORMAT = "repro/taskgraph-v1"
_SCHEDULE_FORMAT = "repro/schedule-v1"
_EXPERIMENT_FORMAT = "repro/experiment-v1"


def _num(value: float) -> float | str:
    """JSON-safe float (infinities become strings)."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _unnum(value) -> float:
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return float(value)


# ---------------------------------------------------------------------------
# Task graphs
# ---------------------------------------------------------------------------


def graph_to_dict(graph: TaskGraph) -> dict[str, Any]:
    return {
        "format": _GRAPH_FORMAT,
        "name": graph.name,
        "tasks": [
            {
                "name": t.name,
                "wcet": t.wcet,
                "phase": t.phase,
                "relative_deadline": _num(t.relative_deadline),
                "period": _num(t.period),
            }
            for t in graph
        ],
        "channels": [
            {
                "src": ch.src,
                "dst": ch.dst,
                "message_size": ch.message_size,
                "arrival": ch.arrival,
                "relative_deadline": _num(ch.relative_deadline),
            }
            for ch in graph.channels
        ],
    }


def graph_from_dict(
    data: dict[str, Any], source: str | None = None
) -> TaskGraph:
    """Build a graph from its dict form.

    Every malformed entry raises
    :class:`~repro.errors.ProblemFormatError` naming the offending item
    (``tasks[3]`` / ``channels[0]``) so a hand-edited workload file can
    be fixed without bisecting it; ``source`` (the file path, when
    loaded from disk) prefixes the message.
    """

    def fail(message: str) -> ProblemFormatError:
        return ProblemFormatError(message, path=source)

    if not isinstance(data, dict):
        raise ProblemFormatError(
            f"expected a JSON object, got {type(data).__name__}",
            path=source,
        )
    if data.get("format") != _GRAPH_FORMAT:
        raise ProblemFormatError(
            f"expected format {_GRAPH_FORMAT!r}, got {data.get('format')!r}",
            path=source,
        )
    tasks = []
    for i, t in enumerate(data.get("tasks", [])):
        try:
            tasks.append(
                Task(
                    name=t["name"],
                    wcet=float(t["wcet"]),
                    phase=float(t.get("phase", 0.0)),
                    relative_deadline=_unnum(
                        t.get("relative_deadline", "inf")
                    ),
                    period=_unnum(t.get("period", "inf")),
                )
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise fail(f"malformed task graph: tasks[{i}]: {exc}") from exc
    channels = []
    for i, c in enumerate(data.get("channels", [])):
        try:
            channels.append(
                Channel(
                    src=c["src"],
                    dst=c["dst"],
                    message_size=float(c.get("message_size", 0.0)),
                    arrival=float(c.get("arrival", 0.0)),
                    relative_deadline=_unnum(
                        c.get("relative_deadline", "inf")
                    ),
                )
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise fail(f"malformed task graph: channels[{i}]: {exc}") from exc
    return TaskGraph(tasks, channels, name=data.get("name", "taskgraph"))


def save_graph(graph: TaskGraph, path: str | Path) -> None:
    Path(path).write_text(json.dumps(graph_to_dict(graph), indent=2))


def load_graph(path: str | Path) -> TaskGraph:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ProblemFormatError(
            f"cannot read graph file: {exc}", path=str(path)
        ) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"invalid JSON in {path}: {exc.msg}",
            path=str(path),
            line=exc.lineno,
        ) from exc
    return graph_from_dict(data, source=str(path))


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    return {
        "format": _SCHEDULE_FORMAT,
        "graph": graph_to_dict(schedule.graph),
        "num_processors": schedule.platform.num_processors,
        "entries": [
            {
                "task": e.task,
                "processor": e.processor,
                "start": e.start,
            }
            for e in schedule.entries
        ],
    }


def schedule_from_dict(
    data: dict[str, Any], platform: Platform | None = None
) -> Schedule:
    if data.get("format") != _SCHEDULE_FORMAT:
        raise SerializationError(
            f"expected format {_SCHEDULE_FORMAT!r}, got {data.get('format')!r}"
        )
    graph = graph_from_dict(data["graph"])
    plat = platform or Platform(num_processors=int(data["num_processors"]))
    sched = Schedule(graph, plat)
    for e in data.get("entries", []):
        sched.place(e["task"], int(e["processor"]), float(e["start"]))
    return sched


# ---------------------------------------------------------------------------
# Experiment outputs
# ---------------------------------------------------------------------------


def experiment_to_dict(output: ExperimentOutput) -> dict[str, Any]:
    return {
        "format": _EXPERIMENT_FORMAT,
        "name": output.name,
        "description": output.description,
        "x_label": output.x_label,
        "metadata": output.metadata,
        "series": [
            {
                "label": s.label,
                "points": [
                    {
                        "x": p.x,
                        "runs": p.runs,
                        "mean_vertices": p.mean_vertices,
                        "ci_vertices": _num(p.ci_vertices),
                        "mean_lateness": p.mean_lateness,
                        "ci_lateness": _num(p.ci_lateness),
                        "extras": p.extras,
                    }
                    for p in s.points
                ],
            }
            for s in output.series
        ],
    }


def experiment_from_dict(data: dict[str, Any]) -> ExperimentOutput:
    from ..analysis.aggregate import Series, SeriesPoint
    from ..experiments.runner import ExperimentOutput

    if data.get("format") != _EXPERIMENT_FORMAT:
        raise SerializationError(
            f"expected format {_EXPERIMENT_FORMAT!r}, got {data.get('format')!r}"
        )
    series = tuple(
        Series(
            label=s["label"],
            points=tuple(
                SeriesPoint(
                    x=float(p["x"]),
                    runs=int(p["runs"]),
                    mean_vertices=float(p["mean_vertices"]),
                    ci_vertices=_unnum(p["ci_vertices"]),
                    mean_lateness=float(p["mean_lateness"]),
                    ci_lateness=_unnum(p["ci_lateness"]),
                    extras=dict(p.get("extras", {})),
                )
                for p in s["points"]
            ),
        )
        for s in data.get("series", [])
    )
    meta = data.get("metadata", {})
    if "cells" in meta:
        meta = dict(meta)
        meta["cells"] = [tuple(c) for c in meta["cells"]]
    return ExperimentOutput(
        name=data["name"],
        description=data.get("description", ""),
        x_label=data.get("x_label", "x"),
        series=series,
        metadata=meta,
    )


def save_experiment(output: ExperimentOutput, path: str | Path) -> None:
    Path(path).write_text(json.dumps(experiment_to_dict(output), indent=2))


def load_experiment(path: str | Path) -> ExperimentOutput:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON in {path}: {exc}") from exc
    return experiment_from_dict(data)

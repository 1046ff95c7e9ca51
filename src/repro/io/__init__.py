"""Serialization: JSON workload/schedule/experiment formats, DOT export."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".dot": ("graph_to_dot", "schedule_to_dot"),
    ".stg": ("format_stg", "load_stg", "parse_stg", "save_stg"),
    ".json_io": (
        "experiment_from_dict", "experiment_to_dict", "graph_from_dict",
        "graph_to_dict", "load_experiment", "load_graph", "save_experiment",
        "save_graph", "schedule_from_dict", "schedule_to_dict",
    ),
})

__all__ = [
    "experiment_from_dict",
    "format_stg",
    "experiment_to_dict",
    "graph_from_dict",
    "graph_to_dict",
    "graph_to_dot",
    "load_experiment",
    "load_stg",
    "parse_stg",
    "load_graph",
    "save_experiment",
    "save_stg",
    "save_graph",
    "schedule_from_dict",
    "schedule_to_dict",
    "schedule_to_dot",
]

"""Generic experiment runner.

An experiment is a grid of *cells* (one per x-axis value), each holding a
workload spec and a processor count.  For every cell the runner generates
``num_graphs`` seeded random task graphs, solves each with every
configured strategy, and aggregates the paper's two performance indices
(searched vertices, maximum task lateness) into plot-ready
:class:`~repro.analysis.aggregate.Series`.

The greedy EDF reference that appears in every plot of the paper is
included as its own series: its lateness is the EDF schedule's cost, and
its "searched vertices" count is the number of scheduling steps ``n``
(EDF examines each task once), which is how a greedy algorithm lands on
the vertex axis of Figure 3.

Replications are embarrassingly parallel; pass ``workers > 1`` to fan
cells out over a process pool.

Pass ``collect_metrics=True`` to attach a fresh
:class:`~repro.obs.MetricsRegistry` to every solve; per-run counter
snapshots are summed per strategy into the output's
``metadata["metrics"]`` (rendered by
:func:`~repro.experiments.report.format_metrics`).

Two replication modes:

* fixed — exactly ``num_graphs`` random graphs per cell (the default;
  what the benchmark suite uses so runs are comparable);
* adaptive — pass a :class:`~repro.analysis.confidence.ConfidenceTarget`
  as ``confidence`` to keep drawing graphs per cell until every
  strategy's searched-vertices mean satisfies the target (the paper's
  rule: 90% confidence within 10% of the mean), bounded by the target's
  ``max_runs``.  Adaptive mode runs sequentially.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from ..analysis.aggregate import PointAccumulator, Series, SeriesPoint
from ..analysis.confidence import ConfidenceTarget
from ..core.engine import BranchAndBound
from ..core.params import BnBParameters
from ..core.resources import ResourceBounds
from ..model.compile import compile_problem
from ..model.platform import shared_bus_platform
from ..obs import MetricsRegistry, Observability
from ..scheduling.edf import edf_schedule
from ..workload.generator import generate_task_graph
from ..workload.spec import WorkloadSpec

__all__ = [
    "Cell",
    "ExperimentOutput",
    "EDF_LABEL",
    "default_resources",
    "run_experiment",
]


#: Label of the greedy reference series.
EDF_LABEL = "EDF"


@dataclass(frozen=True)
class Cell:
    """One x-axis point: a workload spec and a platform size."""

    x: float
    spec: WorkloadSpec
    processors: int


@dataclass(frozen=True)
class ExperimentOutput:
    """Aggregated results of one experiment."""

    name: str
    description: str
    x_label: str
    series: tuple[Series, ...]
    metadata: dict = field(default_factory=dict)

    def series_by_label(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"experiment {self.name!r} has no series {label!r}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.series)


def default_resources(profile: str = "scaled") -> ResourceBounds:
    """Per-solve caps keeping pure-Python runs tractable.

    The paper's TIMELIMIT was 4 hours per simulation on a SPARCstation;
    the pure-Python equivalent honours a vertex cap instead (vertex
    counts are machine-independent, so capped runs are flagged rather
    than silently skewed).
    """
    if profile == "paper":
        return ResourceBounds(max_vertices=2_000_000, time_limit=60.0)
    if profile == "tiny":
        return ResourceBounds(max_vertices=200_000, time_limit=10.0)
    return ResourceBounds(max_vertices=500_000, time_limit=30.0)


def _solve_cell(args):
    """One (cell, seed) replication: every strategy on one random graph.

    Module-level so process pools can pickle it.  Returns
    ``(x, {label: (vertices, lateness, peak_active, elapsed, truncated,
    metrics_snapshot_or_None)})``; the snapshot is a
    :meth:`~repro.obs.MetricsRegistry.snapshot` dict when
    ``collect_metrics`` is set.
    """
    cell, seed, strategy_items, include_edf, collect_metrics = args
    graph = generate_task_graph(cell.spec, seed=seed)
    problem = compile_problem(graph, shared_bus_platform(cell.processors))
    out: dict[str, tuple] = {}
    if include_edf:
        edf = edf_schedule(problem)
        out[EDF_LABEL] = (
            float(problem.n), edf.max_lateness, 0.0, 0.0, False, None
        )
    for label, params in strategy_items:
        if collect_metrics:
            registry = MetricsRegistry()
            solver = BranchAndBound(params, obs=Observability(metrics=registry))
        else:
            registry = None
            solver = BranchAndBound(params)
        result = solver.solve(problem)
        lateness = (
            result.best_cost if result.found_solution else math.nan
        )
        out[label] = (
            float(result.stats.generated),
            lateness,
            float(result.stats.peak_active),
            result.stats.elapsed,
            result.stats.truncated or result.stats.time_limit_hit,
            registry.snapshot() if registry is not None else None,
        )
    return cell.x, out


def run_experiment(
    name: str,
    description: str,
    x_label: str,
    cells: list[Cell],
    strategies: dict[str, BnBParameters],
    num_graphs: int = 20,
    base_seed: int = 0,
    include_edf: bool = True,
    workers: int = 0,
    confidence: ConfidenceTarget | None = None,
    collect_metrics: bool = False,
) -> ExperimentOutput:
    """Run the full grid and aggregate into series.

    ``workers`` above 1 fans the (cell, seed) jobs out over a process
    pool of that size.

    With ``collect_metrics`` each solve carries a fresh
    :class:`~repro.obs.MetricsRegistry`; the per-run counter snapshots
    are summed per strategy into ``metadata["metrics"]`` of the output.
    """
    labels = ([EDF_LABEL] if include_edf else []) + list(strategies)
    acc: dict[tuple[str, float], PointAccumulator] = {}
    truncated_runs = 0
    metric_totals: dict[str, dict[str, float]] = {}
    metric_runs: dict[str, int] = {}

    def ingest(x: float, per_label) -> None:
        nonlocal truncated_runs
        for label, row in per_label.items():
            verts, lat, peak, elapsed, truncated, snapshot = row
            cell_acc = acc.setdefault((label, x), PointAccumulator())
            if not math.isnan(lat):
                cell_acc.add(verts, lat, peak_active=peak, elapsed=elapsed)
            if truncated:
                truncated_runs += 1
            if snapshot is not None:
                totals = metric_totals.setdefault(label, {})
                metric_runs[label] = metric_runs.get(label, 0) + 1
                for metric, data in snapshot.items():
                    if data.get("type") == "counter":
                        totals[metric] = (
                            totals.get(metric, 0.0) + data["value"]
                        )

    runs_per_cell: dict[float, int] = {}
    if confidence is not None:
        # Adaptive replication (the paper's CI rule), per cell.
        for cell in cells:
            k = 0
            while k < confidence.max_runs:
                x, per_label = _solve_cell(
                    (cell, base_seed + k, tuple(strategies.items()),
                     include_edf, collect_metrics)
                )
                ingest(x, per_label)
                k += 1
                if k >= confidence.min_runs and all(
                    confidence.satisfied(acc[(label, cell.x)].vertices)
                    for label in labels
                    if (label, cell.x) in acc
                ):
                    break
            runs_per_cell[cell.x] = k
    else:
        jobs = [
            (cell, base_seed + k, tuple(strategies.items()), include_edf,
             collect_metrics)
            for cell in cells
            for k in range(num_graphs)
        ]
        if workers and workers > 1:
            # Aim for ~4 chunks per worker: large enough to amortize
            # pickling of the strategy table, small enough to keep the
            # pool load-balanced when per-graph solve times vary wildly.
            chunksize = max(1, len(jobs) // (workers * 4))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_solve_cell, jobs, chunksize=chunksize))
        else:
            rows = [_solve_cell(job) for job in jobs]
        for x, per_label in rows:
            ingest(x, per_label)

    xs = [cell.x for cell in cells]
    series = []
    for label in labels:
        points: list[SeriesPoint] = []
        for x in xs:
            cell_acc = acc.get((label, x))
            if cell_acc is not None and cell_acc.vertices.count:
                points.append(cell_acc.freeze(x))
        series.append(Series(label=label, points=tuple(points)))

    metadata = {
        "num_graphs": (
            num_graphs if confidence is None else runs_per_cell
        ),
        "base_seed": base_seed,
        "truncated_runs": truncated_runs,
        "adaptive": confidence is not None,
        "cells": [
            (c.x, c.spec.name, c.processors) for c in cells
        ],
    }
    if collect_metrics:
        metadata["metrics"] = {
            label: {"runs": metric_runs.get(label, 0), "counters": totals}
            for label, totals in sorted(metric_totals.items())
        }

    return ExperimentOutput(
        name=name,
        description=description,
        x_label=x_label,
        series=tuple(series),
        metadata=metadata,
    )

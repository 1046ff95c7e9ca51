"""Anytime convergence: the mechanism behind Figure 3(a).

The paper explains LIFO's advantage over LLB by the weak correlation
between an early vertex's bound and the goal costs below it when
minimizing lateness.  The observable consequence is *anytime behaviour*:
with no initial bound, a depth-first search reaches its first complete
schedule after ~n expansions and keeps improving it, while best-first
must expand the whole shallow low-bound frontier before producing any
schedule at all.

This experiment runs both selection rules with ``U = none`` with a
:class:`~repro.core.trace.TraceRecorder` as the event sink and reports,
per system size:

* vertices generated until the *first* incumbent;
* vertices generated until the incumbent is within 5% of the optimum;
* the optimal cost (identical for both, as a cross-check).

The aggregated quantities land in each point's ``extras``; the series'
``mean_vertices`` is, as everywhere, the total searched vertices.
"""

from __future__ import annotations

import math

from ..analysis.aggregate import PointAccumulator, Series
from ..core.engine import BranchAndBound
from ..core.params import BnBParameters
from ..core.resources import ResourceBounds
from ..core.trace import TraceRecorder
from ..core.upper import NoUpperBound
from ..model.compile import compile_problem
from ..model.platform import shared_bus_platform
from ..obs import Observability
from ..workload.generator import generate_task_graph
from ..workload.suites import spec_for_profile
from .runner import ExperimentOutput, default_resources

__all__ = ["anytime_convergence"]


def _vertices_within(trace: TraceRecorder, optimum: float, tol: float) -> float:
    """Generated vertices at which the incumbent got within tol of opt."""
    target = optimum + tol * max(1.0, abs(optimum))
    for event in trace.incumbents:
        if event.cost <= target + 1e-12:
            return float(event.generated)
    return math.nan


def anytime_convergence(
    profile: str = "scaled",
    processors=(2, 3),
    num_graphs: int = 15,
    base_seed: int = 0,
    resources: ResourceBounds | None = None,
    tolerance: float = 0.05,
    # Accepted for registry uniformity: runs sequentially, and its
    # per-run telemetry already lands in each point's extras.
    workers: int = 0,
    collect_metrics: bool = False,
) -> ExperimentOutput:
    """LIFO vs LLB convergence speed with no initial upper bound."""
    rb = resources or default_resources(profile)
    spec = spec_for_profile(profile)
    strategies = {
        "BnB S=LIFO U=none": BnBParameters.paper_lifo(
            resources=rb, upper_bound=NoUpperBound()
        ),
        "BnB S=LLB U=none": BnBParameters.paper_llb(
            resources=rb, upper_bound=NoUpperBound()
        ),
    }
    acc: dict[tuple[str, float], PointAccumulator] = {}
    failed_runs = 0
    truncated_runs = 0
    for m in processors:
        platform = shared_bus_platform(m)
        for k in range(num_graphs):
            graph = generate_task_graph(spec, seed=base_seed + k)
            problem = compile_problem(graph, platform)
            for label, params in strategies.items():
                trace = TraceRecorder()
                result = BranchAndBound(
                    params, obs=Observability(sink=trace)
                ).solve(problem)
                if not result.found_solution:
                    # A capped best-first run may terminate before any
                    # goal vertex exists; it contributes nothing (counted
                    # in the metadata so ensembles stay comparable).
                    failed_runs += 1
                    continue
                if result.stats.truncated or result.stats.time_limit_hit:
                    truncated_runs += 1
                first = (
                    float(trace.incumbents[0].generated)
                    if trace.incumbents
                    else math.nan
                )
                near = _vertices_within(trace, result.best_cost, tolerance)
                cell = acc.setdefault((label, float(m)), PointAccumulator())
                extras = {}
                if not math.isnan(first):
                    extras["to_first_incumbent"] = first
                if not math.isnan(near):
                    extras["to_within_tolerance"] = near
                cell.add(
                    float(result.stats.generated),
                    result.best_cost,
                    **extras,
                )
    series = []
    for label in strategies:
        points = [
            acc[(label, float(m))].freeze(float(m))
            for m in processors
            if (label, float(m)) in acc
        ]
        series.append(Series(label=label, points=tuple(points)))
    return ExperimentOutput(
        name="anytime",
        description=(
            "Anytime convergence of LIFO vs LLB with no initial bound"
        ),
        x_label="processors",
        series=tuple(series),
        metadata={
            "num_graphs": num_graphs,
            "base_seed": base_seed,
            "tolerance": tolerance,
            "truncated_runs": truncated_runs,
            "failed_runs": failed_runs,
            "cells": [(float(m), spec.name, m) for m in processors],
        },
    )

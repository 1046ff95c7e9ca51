"""The former name of the parallel solver.

Parallel solves run on :class:`repro.cluster.ClusterCoordinator` with
``local_workers=N``.  ``perf/spans.py`` still patches
``ParallelBnB.solve_graph``, so the alias is kept for it until the
benchmark refresh (ROADMAP item 1) moves the hook to the coordinator.
"""

from ..cluster.coordinator import ClusterCoordinator

ParallelBnB = ClusterCoordinator

"""Parallel branch-and-bound across worker processes.

The Kohler–Steiglitz parametrization decomposes cleanly: subtrees of
the search tree are independent given (a) the incumbent cost at the
moment their root would have been selected and (b) the remaining
resource budget.  :class:`ParallelBnB` exploits that by running the
solve as a :class:`~repro.cluster.ClusterCoordinator` with ``workers``
local :class:`~repro.cluster.ClusterWorker` processes on socketpairs:
the depth-d frontier goes out one shard per worker at a time, and every
incumbent improvement is broadcast (epoch-fenced) so U/DBAS pruning
stays effective across shards.  Only the optimal *cost* is guaranteed
(the shard containing an optimal goal either reaches it or prunes its
path only because an equally good cost was already published); which
equal-cost schedule wins depends on cross-process timing.  With a
transposition rule, all shards share one
:class:`~repro.core.transposition.SharedTranspositionTable`.

Statistics merge by summation (:meth:`SearchStats.absorb`, table
counters included), and the compiled problem ships by pickling — it
serializes as its source (graph, platform) pair and recompiles on the
other side.

Fault tolerance
---------------
Worker processes die (OOM killers, preemption, plain bugs); the driver
survives them through the coordinator's supervision: a worker whose
link closes or whose lease (``heartbeat_timeout``) expires is killed
and respawned, its shard is re-queued with exponential backoff and a
bounded attempt budget, after which it is *quarantined* (the run
completes, reports the loss, and is marked TRUNCATED — never silently
wrong).  An injectable fault plan (any object whose ``match(shard,
attempt)`` names a planted fault or returns None) drives the
fault-injection test suite: crash a worker on a given shard/attempt,
hang it, or kill it mid-search.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from ..errors import ConfigurationError
from ..model.compile import CompiledProblem
from ..obs import Observability
from .checkpoint import StopToken
from .engine import BnBResult
from .params import BnBParameters

if TYPE_CHECKING:
    from ..cluster.coordinator import ClusterReport

__all__ = ["ParallelBnB", "default_worker_count"]


def default_worker_count() -> int:
    """Workers to use when the caller does not say: one per usable CPU."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


class ParallelBnB:
    """Multiprocessing driver around :class:`BranchAndBound`.

    ``workers=None`` uses one worker per usable CPU; ``split_depth`` is
    the tree level at which subtrees become shards.  See the module doc
    for the contract; ``last_report`` is the coordinator's
    :class:`~repro.cluster.ClusterReport` of the most recent solve.

    Resource bounds apply to the whole solve: the MAXVERT budget is
    split across shards as they finish, and TIMELIMIT is one deadline
    that the coordinator enforces by stopping every busy worker.
    """

    def __init__(
        self,
        params: BnBParameters | None = None,
        *,
        workers: int | None = None,
        split_depth: int = 2,
        obs: Observability | None = None,
        max_shard_attempts: int = 3,
        retry_backoff: float = 0.05,
        heartbeat_timeout: float = 30.0,
        fault_plan=None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if split_depth < 1:
            raise ConfigurationError(
                f"split_depth must be >= 1, got {split_depth}"
            )
        if max_shard_attempts < 1:
            raise ConfigurationError(
                f"max_shard_attempts must be >= 1, got {max_shard_attempts}"
            )
        if retry_backoff < 0:
            raise ConfigurationError(
                f"retry_backoff must be >= 0, got {retry_backoff}"
            )
        if heartbeat_timeout <= 0:
            raise ConfigurationError(
                f"heartbeat_timeout must be > 0, got {heartbeat_timeout}"
            )
        self.params = params or BnBParameters()
        self.workers = workers if workers is not None else default_worker_count()
        self.split_depth = split_depth
        self.obs = obs
        self.max_shard_attempts = max_shard_attempts
        self.retry_backoff = retry_backoff
        #: The worker lease, in seconds.
        self.heartbeat_timeout = heartbeat_timeout
        self.fault_plan = fault_plan
        self.last_report: ClusterReport | None = None

    # ------------------------------------------------------------------

    def solve(
        self, problem: CompiledProblem, *, stop: StopToken | None = None
    ) -> BnBResult:
        """Solve ``problem``; ``stop``, once set, ends it ``INTERRUPTED``."""
        from ..cluster import ClusterCoordinator

        coordinator = ClusterCoordinator(
            self.params,
            local_workers=self.workers,
            split_depth=self.split_depth,
            lease=self.heartbeat_timeout,
            prefetch=1,  # one shard per worker, as shards are accounted
            max_shard_attempts=self.max_shard_attempts,
            retry_backoff=self.retry_backoff,
            obs=self.obs,
            stop=stop,
        )
        coordinator.fault_plan = self.fault_plan
        result = coordinator.solve(problem)
        self.last_report = coordinator.last_report
        return result

    def solve_graph(
        self, graph, platform, *, stop: StopToken | None = None
    ) -> BnBResult:
        from ..model.compile import compile_problem

        return self.solve(compile_problem(graph, platform), stop=stop)

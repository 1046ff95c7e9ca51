"""Parallel branch-and-bound across worker processes.

The Kohler–Steiglitz parametrization decomposes cleanly: subtrees of
the search tree are independent given (a) the incumbent cost at the
moment their root would have been selected and (b) the remaining
resource budget.  :class:`ParallelBnB` exploits that in two modes built
on the same engine hooks (:class:`~repro.core.engine.SubtreeSpec` /
:class:`~repro.core.engine.SubtreeDispatcher`):

**Deterministic mode** (``deterministic=True``, the default) replays
the *exact* sequential search.  The coordinator runs the genuine
sequential loop; every popped vertex at ``split_depth`` or deeper is
resolved as a complete sub-search executed in a worker process.
Workers start *speculatively* the moment a shard's root is pushed,
guessing the incumbent it will see when popped; at resolution the guess
is checked against the true entering incumbent and the remaining
MAXVERT budget, and only mismatches re-run.  Accepted shards are
therefore bit-identical to what the sequential engine would have done,
so under LIFO selection (depth-first — shards are explored contiguously
in the sequential order too) the optimal cost, the returned schedule
*and every shard-summed counter* match the sequential run exactly.
Under best-first selection (LLB/LLB-D) the sequential loop interleaves
vertices of different shards on the global ``(bound, seq)`` order,
which no shard-local search can replicate; deterministic mode still
returns the same optimal cost, a run-to-run reproducible schedule, and
reproducible counters, but the counters legitimately differ from the
sequential interleaving (see ``docs/PARALLEL.md`` for the full
contract).

**Throughput mode** (``deterministic=False``) runs the solve as a
:class:`~repro.cluster.ClusterCoordinator` with ``workers`` local
:class:`~repro.cluster.ClusterWorker` processes on socketpairs: the
depth-d frontier goes out one shard per worker at a time, and every
incumbent improvement is broadcast (epoch-fenced) so U/DBAS pruning
stays effective across shards.  Only the optimal *cost* is guaranteed
(any complete-search mode finds it: the shard containing an optimal
goal either reaches it or prunes its path only because an equally good
cost was already published); which equal-cost schedule wins depends on
cross-process timing.  With a transposition rule, all shards share one
:class:`~repro.core.transposition.SharedTranspositionTable`.

Statistics merge by summation (:meth:`SearchStats.absorb`), and the
compiled problem ships by pickling — it serializes as its source
(graph, platform) pair and recompiles on the other side.

Fault tolerance
---------------
Worker processes die (OOM killers, preemption, plain bugs); the driver
survives them.  Throughput mode inherits the coordinator's supervision:
a worker whose link closes or whose lease (``heartbeat_timeout``)
expires is killed and respawned, its shard is re-queued with
exponential backoff and a bounded attempt budget, after which it is
*quarantined* (the run completes, reports the loss, and is marked
TRUNCATED — never silently wrong).  Deterministic mode retries a broken
process pool the same bounded way, rebuilding the pool and re-running
the shard exactly; :class:`~repro.errors.WorkerCrashed` is raised only
when the budget is exhausted.  An injectable :class:`FaultPlan` drives
the fault-injection test suite (crash a worker on a given
shard/attempt, hang it, or kill it mid-search).
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from dataclasses import dataclass

from ..errors import ConfigurationError, WorkerCrashed
from ..model.compile import CompiledProblem
from ..obs import Observability
from .engine import BnBResult, BranchAndBound, SubtreeDispatcher, SubtreeSpec
from .params import BnBParameters
from .shards import shard_state
from .state import SearchState
from .transposition import find_transposition
from .vertex import Vertex

__all__ = [
    "FaultPlan",
    "ParallelBnB",
    "ParallelReport",
    "ShardFault",
    "default_worker_count",
    "solve_parallel",
]


def default_worker_count() -> int:
    """Workers to use when the caller does not say: one per usable CPU."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

#: Exit code used by injected crashes, distinct from every real failure
#: the interpreter produces — a supervisor test can assert the death it
#: observed was the one it planted.
_FAULT_EXIT = 57


@dataclass(frozen=True)
class ShardFault:
    """One planted failure: fires when ``shard`` runs on ``attempt``.

    ``shard`` is the shard index (throughput mode and the cluster) or
    the resolution ordinal (deterministic mode); ``-1`` matches any
    shard.  ``attempt`` is 1-based, so the default plants the fault on
    the first try and lets the retry succeed.

    Kinds:

    * ``"crash"`` — the worker dies before touching the shard, as if the
      OOM killer got it between tasks.
    * ``"crash-mid"`` — the worker dies *during* the sub-search, at its
      ``after_polls``-th bound-channel poll (one per chunk boundary):
      state is torn mid-expansion, the strictest recovery case.
    * ``"hang"`` — the worker sleeps ``hang_seconds`` without sending a
      heartbeat; in throughput mode only lease expiry reclaims the shard.
    """

    kind: str
    shard: int = -1
    attempt: int = 1
    hang_seconds: float = 3600.0
    after_polls: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ("crash", "crash-mid", "hang"):
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r} "
                "(expected crash, crash-mid or hang)"
            )


@dataclass(frozen=True)
class FaultPlan:
    """An injectable set of :class:`ShardFault` entries (tests only).

    The plan ships to workers by pickling; matching is pure, so a
    respawned worker consults the same plan and the *attempt* number is
    what distinguishes the retry from the original.
    """

    faults: tuple[ShardFault, ...] = ()

    def match(self, shard: int, attempt: int) -> ShardFault | None:
        for fault in self.faults:
            if fault.shard in (-1, shard) and fault.attempt == attempt:
                return fault
        return None


class _CrashAfterPolls:
    """Fault-injection channel: kill the process mid-search."""

    def __init__(self, inner, polls: int) -> None:
        self._inner = inner
        self._left = max(1, polls)

    def poll(self, explored: int) -> float:
        self._left -= 1
        if self._left <= 0:
            os._exit(_FAULT_EXIT)
        return self._inner.poll(explored)

    def publish(self, cost: float) -> bool:
        return self._inner.publish(cost)


def _fire_fault(fault: ShardFault | None) -> ShardFault | None:
    """Apply a pre-search fault; return it if it wraps the search itself."""
    if fault is None:
        return None
    if fault.kind == "crash":
        os._exit(_FAULT_EXIT)
    if fault.kind == "hang":
        time.sleep(fault.hang_seconds)
        return None
    return fault  # crash-mid: caller wraps the bound channel


# ---------------------------------------------------------------------------
# Worker-process entry points (module-level: must be picklable by name)
# ---------------------------------------------------------------------------


class _NullChannel:
    """Inert bound channel: polls ∞, swallows publishes.

    Used only to give fault injection a mid-search hook in deterministic
    mode — adopting ∞ and discarding publishes leaves the sub-search
    bit-identical to running with no channel at all.
    """

    def poll(self, explored: int) -> float:
        return math.inf

    def publish(self, cost: float) -> bool:
        return False


def _run_shard(
    problem: CompiledProblem,
    params: BnBParameters,
    state: SearchState,
    lower_bound: float,
    incumbent_cost: float,
    budget: float,
    fused: bool | None,
    ordinal: int = -1,
    attempt: int = 1,
    fault_plan: FaultPlan | None = None,
) -> BnBResult:
    """Deterministic-mode worker: one complete sub-search, no sharing.

    The shard must reproduce exactly what the sequential engine would
    have done from this vertex, so it runs against the frozen entering
    incumbent — cross-shard bound sharing would make its counters
    depend on scheduling timing.
    """
    fault = None
    if fault_plan is not None:
        fault = _fire_fault(fault_plan.match(ordinal, attempt))
    channel = None
    if fault is not None:  # crash-mid: die after N polls of an inert channel
        channel = _CrashAfterPolls(_NullChannel(), fault.after_polls)
    engine = BranchAndBound(params, fused=fused)
    return engine.solve(
        problem,
        subtree=SubtreeSpec(state, lower_bound, incumbent_cost, budget),
        bound_channel=channel,
    )


# ---------------------------------------------------------------------------
# Coordinator-side dispatchers
# ---------------------------------------------------------------------------


@dataclass
class _Speculation:
    future: Future
    incumbent_cost: float
    budget: float
    state: SearchState
    lower_bound: float


class _ReplayDispatcher(SubtreeDispatcher):
    """Deterministic replay: resolve each shard with its exact entering
    parameters, reusing speculative runs whose guesses turned out right.

    A speculative run is acceptable iff (a) it was started with the
    incumbent the shard actually entered with, and (b) its generated
    count stayed strictly below the true remaining MAXVERT budget — a
    capped run only diverges from an uncapped one once the cap is
    reached, so a speculative search that finished under the entering
    budget is bit-identical to the budgeted search the sequential
    engine would have run.  Anything else re-runs with the exact
    parameters; correctness never depends on speculation.

    The dispatcher owns its executor via a factory: when a worker dies
    (``BrokenExecutor``) the pool is rebuilt, outstanding speculations
    are discarded (their futures died with the pool) and the shard in
    hand is re-run exactly, up to ``max_attempts`` times before
    :class:`~repro.errors.WorkerCrashed` gives up.  A re-run is
    bit-identical to the lost run — shards are pure functions of their
    entering parameters — so crash recovery never perturbs the replay.
    """

    def __init__(
        self,
        executor_factory,
        problem: CompiledProblem,
        params: BnBParameters,
        fused: bool | None,
        depth: int,
        sink=None,
        max_attempts: int = 3,
        metrics=None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.depth = depth
        self._make_executor = executor_factory
        self._executor = executor_factory()
        self._problem = problem
        self._params = params
        self._fused = fused
        self._sink = sink
        self._metrics = metrics
        self._max_attempts = max_attempts
        self._fault_plan = fault_plan
        self._pending: dict[int, _Speculation] = {}
        self.shards = 0
        self.speculative_hits = 0
        self.reruns = 0
        self.worker_restarts = 0
        self.shard_retries = 0

    def shutdown(self) -> None:
        # Stale speculations for swept shards must not keep workers
        # busy past the solve.
        self._executor.shutdown(wait=True, cancel_futures=True)

    def _rebuild(self, shard: int, attempt: int, error) -> None:
        """Replace the broken pool; drop speculations that died with it."""
        try:
            self._executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        self._pending.clear()
        self._executor = self._make_executor()
        self.worker_restarts += 1
        if self._metrics is not None:
            self._metrics.counter("bnb_worker_restart_total").inc()
        sink = self._sink
        if sink is not None and sink.accepts("worker_restart"):
            sink.emit(
                "worker_restart",
                {
                    "mode": "deterministic",
                    "shard": shard,
                    "attempt": attempt,
                    "error": f"{type(error).__name__}: {error}",
                },
            )

    def _submit(
        self,
        state: SearchState,
        lower_bound: float,
        incumbent_cost: float,
        budget: float,
        ordinal: int = -1,
        attempt: int = 1,
    ) -> Future:
        return self._executor.submit(
            _run_shard,
            self._problem,
            self._params,
            state,
            lower_bound,
            incumbent_cost,
            budget,
            self._fused,
            ordinal,
            attempt,
            self._fault_plan,
        )

    def offer(
        self, vertex: Vertex, incumbent_cost: float, budget: float
    ) -> None:
        state = shard_state(vertex)
        try:
            future = self._submit(
                state, vertex.lower_bound, incumbent_cost, budget
            )
        except BrokenExecutor as exc:
            # A crashed speculation broke the pool between resolutions;
            # recover now and simply skip this speculation.
            self._rebuild(-1, 1, exc)
            return
        self._pending[id(vertex)] = _Speculation(
            future, incumbent_cost, budget, state, vertex.lower_bound
        )

    def notify_incumbent(self, cost: float) -> None:
        # Every outstanding speculation with a staler guess is doomed to
        # mismatch at resolution; restart the ones that have not begun
        # running (cancel() succeeds only for queued futures).
        for key, spec in list(self._pending.items()):
            if spec.incumbent_cost > cost and spec.future.cancel():
                try:
                    future = self._submit(
                        spec.state, spec.lower_bound, cost, spec.budget
                    )
                except BrokenExecutor as exc:
                    self._rebuild(-1, 1, exc)
                    return
                self._pending[key] = _Speculation(
                    future, cost, spec.budget, spec.state, spec.lower_bound
                )

    def resolve(
        self, vertex: Vertex, incumbent_cost: float, budget: float
    ) -> BnBResult:
        self.shards += 1
        ordinal = self.shards - 1
        spec = self._pending.pop(id(vertex), None)
        result = None
        speculative = False
        if spec is not None and spec.incumbent_cost == incumbent_cost:
            try:
                candidate = spec.future.result()
            except BrokenExecutor as exc:
                self._rebuild(ordinal, 1, exc)
                candidate = None
            # The budget at offer time can only exceed the entering
            # budget (generation is monotone), so an untripped run under
            # it that stayed strictly below the entering budget is
            # identical to the exactly-budgeted run.
            if candidate is not None and candidate.stats.generated < budget:
                self.speculative_hits += 1
                result = candidate
                speculative = True
        if result is None:
            if spec is not None:
                spec.future.cancel()
                self.reruns += 1
            attempt = 1
            while True:
                try:
                    result = self._submit(
                        shard_state(vertex),
                        vertex.lower_bound,
                        incumbent_cost,
                        budget,
                        ordinal,
                        attempt,
                    ).result()
                    break
                except BrokenExecutor as exc:
                    # Note: only pool breakage is caught — a worker that
                    # *raises* (e.g. ResourceLimitExceeded) propagates.
                    self._rebuild(ordinal, attempt, exc)
                    if attempt >= self._max_attempts:
                        raise WorkerCrashed(
                            f"shard {ordinal} killed its worker on all "
                            f"{attempt} attempts (last: {exc})",
                            attempts=attempt,
                        ) from exc
                    attempt += 1
                    self.shard_retries += 1
                    if self._metrics is not None:
                        self._metrics.counter("bnb_shard_retry_total").inc()
                    sink = self._sink
                    if sink is not None and sink.accepts("shard_retry"):
                        sink.emit(
                            "shard_retry",
                            {
                                "mode": "deterministic",
                                "shard": ordinal,
                                "attempt": attempt,
                            },
                        )
        sink = self._sink
        if sink is not None and sink.accepts("shard"):
            sink.emit(
                "shard",
                {
                    "shard": self.shards - 1,
                    "level": vertex.level,
                    "lb": vertex.lower_bound,
                    "speculative": speculative,
                    "generated": result.stats.generated,
                    "explored": result.stats.explored,
                },
            )
        return result


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParallelReport:
    """How a parallel solve was executed (``ParallelBnB.last_report``)."""

    mode: str
    workers: int
    split_depth: int
    #: Subtree shards resolved (deterministic) or collected (throughput).
    shards: int
    #: Shards never searched because a polled incumbent pruned them.
    shards_stale: int = 0
    #: Deterministic mode: speculative runs accepted as-is.
    speculative_hits: int = 0
    #: Deterministic mode: speculations discarded and re-run exactly.
    reruns: int = 0
    #: Worker processes replaced after a crash, hang or pool breakage.
    worker_restarts: int = 0
    #: Shards re-queued (with backoff) after their worker died.
    shard_retries: int = 0
    #: Shard indices abandoned after ``max_shard_attempts`` failures;
    #: non-empty quarantine forces a TRUNCATED result status.
    quarantined: tuple = ()
    #: Merged transposition-table telemetry (coordinator + workers) when
    #: the transposition layer was active, else None.  Counter keys are
    #: summed across processes (each global event happens in exactly one
    #: process); ``tt_capacity`` is the shared geometry.
    tt_stats: dict | None = None


class ParallelBnB:
    """Multiprocessing driver around :class:`BranchAndBound`.

    ``workers=None`` uses one worker per usable CPU; ``split_depth`` is
    the tree level at which subtrees become shards.  See the module doc
    for the two modes; ``last_report`` describes the most recent solve.

    Deterministic mode rejects finite TIMELIMIT / MAXSZAS / MAXSZDB
    bounds (:class:`~repro.errors.ConfigurationError`): wall-clock cuts
    and worst-vertex disposal depend on timing and global generation
    order, which shards cannot reproduce.  The MAXVERT cap *is*
    supported exactly — the budget threads through shard resolution.
    """

    def __init__(
        self,
        params: BnBParameters | None = None,
        *,
        workers: int | None = None,
        split_depth: int = 2,
        deterministic: bool = True,
        fused: bool | None = None,
        obs: Observability | None = None,
        max_shard_attempts: int = 3,
        retry_backoff: float = 0.05,
        heartbeat_timeout: float = 30.0,
        fault_plan: FaultPlan | None = None,
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
        self.deterministic = deterministic
        self.fused = fused
        self.obs = obs
        self.max_shard_attempts = max_shard_attempts
        self.retry_backoff = retry_backoff
        #: Throughput mode: the worker lease, in seconds.
        self.heartbeat_timeout = heartbeat_timeout
        self.fault_plan = fault_plan
        self.last_report: ParallelReport | None = None

    # ------------------------------------------------------------------

    def solve(self, problem: CompiledProblem) -> BnBResult:
        if self.deterministic:
            return self._solve_deterministic(problem)
        return self._solve_throughput(problem)

    def solve_graph(self, graph, platform) -> BnBResult:
        from ..model.compile import compile_problem

        return self.solve(compile_problem(graph, platform))

    # ------------------------------------------------------------------

    def _solve_deterministic(self, problem: CompiledProblem) -> BnBResult:
        rb = self.params.resources
        for name in (
            "time_limit", "max_active", "max_children", "max_memory_bytes",
        ):
            if not math.isinf(getattr(rb, name)):
                raise ConfigurationError(
                    "deterministic parallel mode requires unbounded "
                    f"{name}: its effect depends on timing or global "
                    "generation order, which shards cannot reproduce "
                    "(use deterministic=False, or max_vertices, which "
                    "is replayed exactly)"
                )
        if find_transposition(self.params.dominance) is not None:
            raise ConfigurationError(
                "deterministic parallel mode does not support the "
                "transposition layer: the sequential engine feeds one "
                "table across the whole tree, which per-shard replay "
                "cannot reproduce bit-exactly (use deterministic=False "
                "for the shared-table throughput mode, or solve "
                "sequentially)"
            )
        sink = self.obs.sink if self.obs is not None else None
        metrics = self.obs.metrics if self.obs is not None else None

        def make_executor() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(max_workers=self.workers)

        dispatcher = _ReplayDispatcher(
            make_executor, problem, self.params, self.fused,
            self.split_depth, sink,
            max_attempts=self.max_shard_attempts,
            metrics=metrics,
            fault_plan=self.fault_plan,
        )
        try:
            engine = BranchAndBound(self.params, obs=self.obs, fused=self.fused)
            result = engine.solve(problem, dispatcher=dispatcher)
        finally:
            dispatcher.shutdown()
        self.last_report = ParallelReport(
            mode="deterministic",
            workers=self.workers,
            split_depth=self.split_depth,
            shards=dispatcher.shards,
            speculative_hits=dispatcher.speculative_hits,
            reruns=dispatcher.reruns,
            worker_restarts=dispatcher.worker_restarts,
            shard_retries=dispatcher.shard_retries,
        )
        return result

    def _solve_throughput(self, problem: CompiledProblem) -> BnBResult:
        from ..cluster import ClusterCoordinator

        coordinator = ClusterCoordinator(
            self.params,
            local_workers=self.workers,
            split_depth=self.split_depth,
            fused=self.fused,
            lease=self.heartbeat_timeout,
            prefetch=1,  # one shard per worker, as shards are accounted
            max_shard_attempts=self.max_shard_attempts,
            retry_backoff=self.retry_backoff,
            obs=self.obs,
        )
        coordinator.fault_plan = self.fault_plan
        result = coordinator.solve(problem)
        rep = coordinator.last_report
        self.last_report = ParallelReport(
            mode="throughput",
            workers=self.workers,
            split_depth=self.split_depth,
            shards=rep.shards,
            shards_stale=rep.shards_stale,
            worker_restarts=rep.worker_restarts,
            shard_retries=rep.shard_retries,
            quarantined=rep.quarantined,
            tt_stats=rep.tt_stats,
        )
        return result


def solve_parallel(
    problem: CompiledProblem,
    params: BnBParameters | None = None,
    *,
    workers: int | None = None,
    deterministic: bool = True,
    split_depth: int = 2,
    fused: bool | None = None,
) -> BnBResult:
    """One-shot convenience wrapper around :class:`ParallelBnB`."""
    return ParallelBnB(
        params,
        workers=workers,
        split_depth=split_depth,
        deterministic=deterministic,
        fused=fused,
    ).solve(problem)

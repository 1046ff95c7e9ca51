"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands
-----------
``generate``
    Generate a random task graph (Section 4.1 parameters) to JSON, STG
    and/or DOT.
``solve``
    Run the parametrized B&B on a task-graph file (JSON or STG); can
    print Gantt charts, simulate the shared bus explicitly, and stream
    the search's events to a JSON-lines trace (``--trace-jsonl``).
``convert``
    Translate between the JSON, STG and DOT graph formats.
``experiment``
    Run any registered experiment (fig3a/fig3b/fig3c, the Section 6
    discussion sweeps, scaling, or an ablation) and print the plot
    tables.
``report``
    Render a JSONL search trace (written by ``solve --trace-jsonl``):
    event inventory, anytime profile, phase table, final stats.
``list``
    List registered experiments.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .core.bounds import LOWER_BOUNDS
from .core.branching import BRANCHING_RULES
from .core.dominance import (
    DOMINANCE_RULES,
    ChainedDominance,
    DominanceRule,
    StateDominance,
)
from .core.checkpoint import (
    Checkpointer,
    StopToken,
    graceful_interrupts,
    load_checkpoint,
)
from .core.engine import BranchAndBound, SolveStatus
from .core.stats import SearchStats, describe_engine
from .core.transposition import TranspositionDominance, find_transposition
from .core.params import ENGINES, BnBParameters
from .core.resources import ResourceBounds
from .core.selection import SELECTION_RULES
from .errors import ConfigurationError, ReproError
from .model.compile import compile_problem
from .obs import Observability
from .obs.events import JsonlSink
from .obs.metrics import MetricsRegistry
from .obs.profile import PhaseProfiler
from .obs.progress import ProgressReporter
from .io.json_io import save_experiment, save_graph, load_graph
from .model.platform import shared_bus_platform

# Everything else -- the experiment harness, the live monitor and its
# HTTP server, trace reports, Gantt charts, the bus simulator, the DOT
# and STG formats, the workload generator, the process pool and the
# cluster -- is imported by the subcommand or flag that uses it, so a
# plain ``repro solve`` starts without them.

#: The experiment ids of :data:`repro.experiments.registry.EXPERIMENTS`,
#: named here so that building the parser imports no experiment.
EXPERIMENT_NAMES = (
    "abl-child-order",
    "abl-dominance",
    "abl-elimination",
    "abl-lb2",
    "abl-selection-tiebreak",
    "abl-symmetry",
    "anytime",
    "disc-ccr",
    "disc-memory",
    "disc-parallelism",
    "disc-upper-bound",
    "fig3a",
    "fig3b",
    "fig3c",
    "scaling",
)

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _workers_arg(text: str) -> int:
    """Worker count: an integer, or ``auto`` for one per usable CPU."""
    if text.strip().lower() == "auto":
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            return os.cpu_count() or 1
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _interval(text: str) -> float:
    """A finite, non-negative number of seconds."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and >= 0, got {text}"
        )
    return value


def _checkpoint_flags() -> argparse.ArgumentParser:
    """Snapshot/resume flags shared by ``solve`` and the cluster coordinator."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="periodically write an atomic search snapshot to PATH; a "
        "killed run continues from it with --resume",
    )
    p.add_argument(
        "--checkpoint-seconds", type=_interval, default=5.0,
        metavar="SECONDS",
        help="wall-clock interval between snapshots (default 5)",
    )
    p.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume a checkpointed search: the graph and the "
        "search-shaping flags must match the original run (fingerprint "
        "checked); resource limits may differ",
    )
    return p


def _search_flags() -> argparse.ArgumentParser:
    """Search-shaping flags shared by ``solve`` and the cluster coordinator."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--laxity", type=float, default=1.5,
        help="laxity ratio used to slice deadlines onto STG inputs "
        "(STG carries none)",
    )
    p.add_argument("--processors", "-m", type=int, default=2)
    p.add_argument(
        "--selection", choices=sorted(SELECTION_RULES), default="LIFO"
    )
    p.add_argument(
        "--frontier-cap", type=_positive_int, default=None, metavar="K",
        help="open-set size cap for --selection ML: best-first while at "
        "most K vertices are open, depth-first drain of the newest above "
        "(default 65536; nothing is dropped, results stay exact)",
    )
    p.add_argument(
        "--branching", choices=sorted(BRANCHING_RULES), default="BFn"
    )
    p.add_argument("--bound", choices=sorted(LOWER_BOUNDS), default="LB1")
    p.add_argument(
        "--dominance", choices=sorted(DOMINANCE_RULES), default="none",
        help="dominance rule D (default none, the paper's choice)",
    )
    p.add_argument(
        "--max-front", type=_positive_int, default=64, metavar="K",
        help="Pareto-front size bound per key for --dominance state "
        "(oldest entry evicted first; default 64)",
    )
    p.add_argument(
        "--transposition", action="store_true",
        help="prune duplicate states via the memory-bounded transposition "
        "table (chains with --dominance when one is set)",
    )
    p.add_argument(
        "--tt-bytes", type=_positive_int, default=16 << 20, metavar="BYTES",
        help="transposition-table memory budget in bytes (default 16 MiB)",
    )
    p.add_argument(
        "--engine", choices=ENGINES, default="array",
        help="tier the search starts at: 'array' (default: the compiled "
        "chunk driver where eligible), 'object' (the fused Python "
        "expander) or 'reference' (the per-child Python loop); results "
        "and traces are identical across engines",
    )
    p.add_argument("--br", type=float, default=0.0, help="inaccuracy limit")
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--max-vertices", type=float, default=None)
    p.add_argument(
        "--max-memory-mb", type=float, default=None, metavar="MB",
        help="stop gracefully when resident memory exceeds this many MiB "
        "(anytime result, status 'memory')",
    )
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Parametrized branch-and-bound multiprocessor scheduling "
            "(reproduction of Jonsson & Shin, ICPP 1997)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a random task graph")
    gen.add_argument("--profile", default="paper", help="workload profile")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--ccr", type=float, default=None)
    gen.add_argument(
        "--output", "-o", default=None,
        help="output path (.json or .stg by extension)",
    )
    gen.add_argument("--dot", default=None, help="also write a DOT rendering")

    parents = [_search_flags(), _checkpoint_flags()]
    slv = sub.add_parser(
        "solve", parents=parents,
        help="solve a task-graph file (JSON or STG)",
    )
    slv.add_argument("graph", help="task-graph path (.json or .stg)")
    slv.add_argument("--gantt", action="store_true", help="print the schedule")
    slv.add_argument(
        "--chart", action="store_true", help="print an ASCII Gantt chart"
    )
    slv.add_argument(
        "--bus", action="store_true",
        help="simulate the shared bus explicitly and report contention",
    )
    slv.add_argument(
        "--trace-jsonl", default=None,
        help="stream structured search events to this JSON-lines file",
    )
    slv.add_argument(
        "--trace-sample", type=_positive_int, default=1, metavar="N",
        help="record every Nth high-frequency event in the JSONL trace "
        "(explore/prune/goal; default 1 = all)",
    )
    slv.add_argument(
        "--profile", action="store_true",
        help="time the engine's inner-loop phases and print the breakdown",
    )
    slv.add_argument(
        "--metrics-out", default=None,
        help="write a metrics snapshot (.json => JSON, else Prometheus "
        "textfile format)",
    )
    slv.add_argument(
        "--progress", action="store_true",
        help="emit heartbeat progress lines to stderr during the solve",
    )
    slv.add_argument(
        "--serve-status", type=int, nargs="?", const=0, default=None,
        metavar="PORT",
        help="serve a live solve monitor over HTTP on 127.0.0.1 while "
        "the search runs: GET /status (JSON snapshot), /metrics "
        "(Prometheus), /events (SSE), / (dashboard); PORT defaults to "
        "an ephemeral one, printed to stderr",
    )
    slv.add_argument(
        "--flight-recorder", type=_positive_int, default=None, metavar="N",
        help="keep the last N solve events in a crash flight recorder, "
        "dumped to <checkpoint>.flight.json (or repro-flight.json) when "
        "the run is interrupted, hits the memory limit, or crashes",
    )
    slv.add_argument(
        "--workers", type=_workers_arg, default=0,
        help="solve on the cluster coordinator with this many local "
        "worker processes (an integer, or 'auto' for one per usable CPU; "
        "default 0 = in-process)",
    )
    slv.add_argument(
        "--parallel-mode", choices=("throughput",), default="throughput",
        help="the one parallel mode: workers race shards under a shared "
        "incumbent, which guarantees the optimal cost (not the "
        "sequential schedule or counters)",
    )
    slv.add_argument(
        "--split-depth", type=_positive_int, default=2, metavar="D",
        help="tree level at which subtrees are sharded to workers "
        "(default 2)",
    )
    # --workers runs the cluster coordinator with local workers: one
    # shard per worker at a time, and a lease long enough for any shard
    # (the process is killed and respawned when it runs out).
    slv.set_defaults(
        bind="127.0.0.1:0", cluster_lease=30.0, cluster_min_workers=1,
        cluster_wait=60.0, cluster_prefetch=1, cluster_attempts=3,
        cluster_backoff=0.05, cluster_steal=True,
    )
    clu = sub.add_parser(
        "cluster", help="distributed coordinator/worker cluster mode"
    )
    clu_sub = clu.add_subparsers(dest="role", required=True)
    cco = clu_sub.add_parser(
        "coordinator", parents=parents,
        help="own a solve: bind, dispatch shards, survive worker churn",
    )
    cco.add_argument("graph", help="task-graph path (.json or .stg)")
    cco.add_argument(
        "--bind", default="127.0.0.1:0", metavar="HOST:PORT",
        help="address to listen on (default 127.0.0.1 with an ephemeral "
        "port; pass an explicit port so workers know where to connect)",
    )
    cco.add_argument(
        "--lease", dest="cluster_lease", type=float, default=10.0,
        metavar="SECONDS",
        help="worker lease: a member silent for longer is expired and "
        "its shards re-queued (default 10)",
    )
    cco.add_argument(
        "--min-workers", dest="cluster_min_workers", type=_positive_int,
        default=1, metavar="N",
        help="hold dispatch until this many workers joined (default 1)",
    )
    cco.add_argument(
        "--worker-timeout", dest="cluster_wait", type=float, default=60.0,
        metavar="SECONDS",
        help="give up when no worker is connected for this long "
        "(no worker ever joined: error; all workers died: TRUNCATED)",
    )
    cco.add_argument(
        "--prefetch", dest="cluster_prefetch", type=_positive_int, default=2,
        metavar="N",
        help="shards buffered per worker beyond the running one "
        "(the backlog is what work-stealing rebalances; default 2)",
    )
    cco.add_argument(
        "--max-shard-attempts", dest="cluster_attempts", type=_positive_int,
        default=3, metavar="N",
        help="attempts before a worker-killing shard is quarantined and "
        "the run reports TRUNCATED (default 3)",
    )
    cco.add_argument(
        "--retry-backoff", dest="cluster_backoff", type=float, default=0.05,
        metavar="SECONDS",
        help="base of the capped exponential retry backoff with "
        "decorrelated jitter (default 0.05)",
    )
    cco.add_argument(
        "--no-steal", dest="cluster_steal", action="store_false",
        help="disable randomized work-stealing from loaded members",
    )
    cco.add_argument(
        "--split-depth", type=_positive_int, default=2, metavar="D",
        help="tree level at which subtrees are sharded (default 2)",
    )
    cco.add_argument(
        "--trace-jsonl", default=None,
        help="stream structured solve events to this JSON-lines file",
    )
    cco.add_argument(
        "--metrics-out", default=None,
        help="write a metrics snapshot (.json => JSON, else Prometheus "
        "textfile format)",
    )
    cco.add_argument(
        "--progress", action="store_true",
        help="emit heartbeat progress lines to stderr during the solve",
    )
    cco.add_argument(
        "--serve-status", type=int, nargs="?", const=0, default=None,
        metavar="PORT",
        help="serve the live monitor over HTTP while the cluster solve "
        "runs (per-worker liveness, lease ages, steal counts)",
    )
    cco.set_defaults(
        workers=0, gantt=False, chart=False,
        bus=False, profile=False,
        trace_sample=1, flight_recorder=None,
    )
    cwk = clu_sub.add_parser(
        "worker", help="serve shards for a coordinator until told to stop"
    )
    cwk.add_argument("address", metavar="HOST:PORT", help="coordinator address")
    cwk.add_argument(
        "--id", dest="worker_id", default=None,
        help="worker id shown in coordinator telemetry "
        "(default hostname-pid)",
    )
    cwk.add_argument(
        "--max-shards", type=_positive_int, default=None, metavar="N",
        help="leave voluntarily after completing N shards "
        "(elasticity drills; default: serve until stopped)",
    )
    cwk.add_argument(
        "--connect-timeout", type=float, default=30.0, metavar="SECONDS",
        help="keep retrying the initial connect for this long (a worker "
        "may be started before its coordinator; default 30)",
    )
    cwk.add_argument(
        "--drill-slow", dest="poll_delay", type=float, default=0.0,
        metavar="SECONDS",
        help="fault drill: sleep this long on every bound-channel poll, "
        "stretching shard wall-clock so kill/lease scenarios land "
        "mid-shard (default 0 = full speed)",
    )

    cnv = sub.add_parser("convert", help="convert between graph formats")
    cnv.add_argument("input", help="input graph (.json or .stg)")
    cnv.add_argument("output", help="output path (.json, .stg or .dot)")

    exp = sub.add_parser("experiment", help="run a registered experiment")
    exp.add_argument("name", choices=EXPERIMENT_NAMES)
    exp.add_argument("--profile", default="scaled")
    exp.add_argument("--graphs", type=int, default=None, help="graphs per point")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument(
        "--workers", type=_workers_arg, default=0,
        help="process-pool size for replications (an integer, or 'auto' "
        "for one worker per usable CPU)",
    )
    exp.add_argument("--output", "-o", default=None, help="save JSON results")
    exp.add_argument(
        "--metrics", action="store_true",
        help="collect per-solve metrics snapshots into the report",
    )

    rep = sub.add_parser(
        "report", help="render a JSONL search trace written by solve"
    )
    rep.add_argument("trace", help="path to a .jsonl trace file")

    sub.add_parser("list", help="list registered experiments")
    return parser


def _cmd_generate(args) -> int:
    from .workload.generator import generate_task_graph
    from .workload.suites import spec_for_profile

    spec = spec_for_profile(args.profile)
    if args.ccr is not None:
        spec = spec.evolve(ccr=args.ccr)
    graph = generate_task_graph(spec, seed=args.seed)
    print(
        f"generated {graph.name!r}: {len(graph)} tasks, {graph.num_arcs} arcs, "
        f"depth {graph.depth}, width {graph.width}, "
        f"CCR {graph.communication_to_computation_ratio():.2f}"
    )
    if args.output:
        _write_graph(graph, args.output)
        print(f"wrote {args.output}")
    if args.dot:
        from .io.dot import graph_to_dot

        with open(args.dot, "w") as fh:
            fh.write(graph_to_dot(graph))
        print(f"wrote {args.dot}")
    return 0


def _read_graph(path: str, laxity: float = 1.5):
    """Load a graph by extension; STG inputs get sliced deadlines."""
    if str(path).endswith(".stg"):
        from .io.stg import load_stg
        from .workload.deadline import assign_deadlines

        graph = load_stg(path)
        return assign_deadlines(graph, laxity_ratio=laxity)
    return load_graph(path)


def _write_graph(graph, path: str) -> None:
    if str(path).endswith(".stg"):
        from .io.stg import save_stg

        save_stg(graph, path)
    elif str(path).endswith(".dot"):
        from .io.dot import graph_to_dot

        with open(path, "w") as fh:
            fh.write(graph_to_dot(graph))
    else:
        save_graph(graph, path)


def _cmd_convert(args) -> int:
    graph = _read_graph(args.input) if args.input.endswith(".stg") else load_graph(args.input)
    _write_graph(graph, args.output)
    print(f"wrote {args.output}")
    return 0


def _build_dominance(args) -> DominanceRule | None:
    """Compose ``--dominance`` / ``--transposition`` into one rule D."""
    name = args.dominance
    base: DominanceRule | None = None
    if name != "none":
        cls = DOMINANCE_RULES[name]
        base = (
            cls(max_front=args.max_front) if cls is StateDominance else cls()
        )
    if not args.transposition:
        return base
    tt = TranspositionDominance(table_bytes=args.tt_bytes)
    return tt if base is None else ChainedDominance(tt, base)


def _tt_summary(stats: SearchStats) -> str:
    return (
        f"transposition: duplicates={stats.pruned_duplicate} "
        f"hits={stats.tt_hits} misses={stats.tt_misses} "
        f"inserts={stats.tt_inserts} "
        f"evictions={stats.tt_evictions} "
        f"rejects={stats.tt_rejects} "
        f"collisions={stats.tt_collisions} "
        f"filled={stats.tt_filled}/{stats.tt_capacity}"
    )


def _cmd_solve(args) -> int:
    graph = _read_graph(args.graph, laxity=args.laxity)
    platform = shared_bus_platform(args.processors)
    rb_kwargs = {}
    if args.time_limit is not None:
        rb_kwargs["time_limit"] = args.time_limit
    if args.max_vertices is not None:
        rb_kwargs["max_vertices"] = args.max_vertices
    if args.max_memory_mb is not None:
        rb_kwargs["max_memory_bytes"] = args.max_memory_mb * (1 << 20)
    dom_kwargs = {}
    dominance = _build_dominance(args)
    if dominance is not None:
        dom_kwargs["dominance"] = dominance
    if args.selection == "ML":
        selection = SELECTION_RULES["ML"](cap=args.frontier_cap)
    elif args.frontier_cap is not None:
        raise ConfigurationError(
            "--frontier-cap only applies to --selection ML"
        )
    else:
        selection = SELECTION_RULES[args.selection]()
    params = BnBParameters(
        selection=selection,
        branching=BRANCHING_RULES[args.branching](),
        lower_bound=LOWER_BOUNDS[args.bound](),
        inaccuracy=args.br,
        resources=ResourceBounds(**rb_kwargs),
        engine=args.engine,
        **dom_kwargs,
    )
    serving = args.serve_status is not None
    live = None
    if serving or args.flight_recorder:
        from .obs.live import LiveMonitor, write_flight_dump

        live = LiveMonitor(ring_size=args.flight_recorder or 256)
    obs = Observability(
        sink=(
            JsonlSink(args.trace_jsonl, sample_every=args.trace_sample)
            if args.trace_jsonl
            else None
        ),
        profiler=PhaseProfiler() if args.profile else None,
        metrics=(
            MetricsRegistry() if (args.metrics_out or serving) else None
        ),
        progress=ProgressReporter() if args.progress else None,
        live=live,
    )
    coordinator = None
    snapshot = load_checkpoint(args.resume) if args.resume else None
    checkpointer = (
        Checkpointer(args.checkpoint, seconds=args.checkpoint_seconds)
        if args.checkpoint
        else None
    )
    server = None
    if serving:
        from .obs.serve import MonitorServer

        server = MonitorServer(
            live.bus, metrics=obs.metrics, port=args.serve_status
        )
        server.start()
        print(f"monitor: {server.url}/ (status, metrics, events)",
              file=sys.stderr)
    token = StopToken()
    try:
        if args.command == "cluster" or args.workers:
            from .cluster import ClusterCoordinator

            coordinator = ClusterCoordinator(
                params,
                bind=args.bind,
                local_workers=args.workers,
                split_depth=args.split_depth,
                lease=args.cluster_lease,
                min_workers=args.cluster_min_workers,
                worker_timeout=args.cluster_wait,
                prefetch=args.cluster_prefetch,
                max_shard_attempts=args.cluster_attempts,
                retry_backoff=args.cluster_backoff,
                steal=args.cluster_steal,
                checkpoint=checkpointer,
                resume=snapshot,
                obs=obs if obs.enabled else None,
                stop=token,
            )
            if not args.workers:
                print(
                    f"cluster: coordinating on {coordinator.bind_now()} "
                    f"(lease {args.cluster_lease:g}s); workers join with "
                    f"'repro cluster worker {coordinator.bound_address}'",
                    file=sys.stderr,
                )
            with graceful_interrupts(token):
                result = coordinator.solve_graph(graph, platform)
        else:
            problem = compile_problem(graph, platform)
            with graceful_interrupts(token):
                result = BranchAndBound(params, obs=obs).solve(
                    problem,
                    checkpoint=checkpointer,
                    resume=snapshot,
                    stop=token,
                )
    except BaseException:
        # A crash is exactly what the flight recorder exists for: dump
        # the event ring before the traceback unwinds, then re-raise.
        if live is not None:
            path = write_flight_dump(
                live, checkpoint_path=args.checkpoint, reason="crash"
            )
            if path:
                print(f"flight recorder: wrote {path}", file=sys.stderr)
        raise
    finally:
        if server is not None:
            server.stop()
        obs.close()
    if live is not None and result.status in (
        SolveStatus.INTERRUPTED, SolveStatus.MEMORY
    ):
        path = write_flight_dump(
            live,
            checkpoint_path=args.checkpoint,
            reason=result.status.value,
        )
        if path:
            print(f"flight recorder: wrote {path}", file=sys.stderr)
    print(f"parameters: {params.describe()}")
    if snapshot is not None:
        stats0 = snapshot.stats
        print(
            f"resumed: {args.resume} (version {snapshot.version}, "
            f"{stats0.get('explored', 0)} explored / "
            f"{stats0.get('generated', 0)} generated before the restart)"
        )
    if coordinator is not None and coordinator.last_report is not None:
        rep = coordinator.last_report
        print(rep.summary())
        if rep.quarantined:
            print(
                "quarantined shards (run is TRUNCATED, not proven "
                f"optimal): {','.join(str(i) for i in rep.quarantined)}"
            )
        if rep.resumed:
            print("resumed cluster solve from checkpoint")
    if find_transposition(params.dominance) is not None:
        print(_tt_summary(result.stats))
    print(result.summary())
    print(
        "engine: "
        + describe_engine(
            result.stats.engine_path, result.stats.engine_fallback
        )
    )
    schedule = result.schedule() if result.found_solution else None
    if args.gantt and schedule is not None:
        print(schedule.as_table())
    if args.chart and schedule is not None:
        from .analysis.gantt import render_gantt

        print(render_gantt(schedule))
    if args.bus and schedule is not None:
        from .model.bussim import simulate_bus

        print(simulate_bus(schedule).summary())
    if args.trace_jsonl:
        print(f"wrote {args.trace_jsonl}")
    if args.metrics_out and obs.metrics is not None:
        obs.metrics.write(args.metrics_out)
        print(f"wrote {args.metrics_out}")
    if result.status is SolveStatus.INTERRUPTED:
        return 130  # conventional signal exit; the summary above is anytime
    return 0 if result.found_solution else 1


def _cmd_cluster(args) -> int:
    if args.role == "coordinator":
        return _cmd_solve(args)
    from .cluster import ClusterWorker

    worker = ClusterWorker(
        args.address,
        worker_id=args.worker_id,
        connect_timeout=args.connect_timeout,
        max_shards=args.max_shards,
        poll_delay=args.poll_delay,
    )
    print(
        f"worker {worker.worker_id}: connecting to {args.address}",
        file=sys.stderr,
    )
    try:
        done = worker.run()
    except KeyboardInterrupt:
        print(
            f"worker {worker.worker_id}: interrupted after "
            f"{worker.shards_done} shard(s)",
            file=sys.stderr,
        )
        return 130
    print(
        f"worker {worker.worker_id}: done ({done} shard(s) searched, "
        f"{worker.shards_stale} already stale)",
        file=sys.stderr,
    )
    return 0


def _cmd_report(args) -> int:
    from .obs.report import load_trace, render_trace_report

    report = load_trace(args.trace)
    print(render_trace_report(report))
    return 0


def _cmd_experiment(args) -> int:
    from .experiments.registry import run_by_name
    from .experiments.report import render
    from .experiments.runner import EDF_LABEL

    kwargs = {"profile": args.profile, "base_seed": args.seed}
    if args.graphs is not None:
        kwargs["num_graphs"] = args.graphs
    if args.workers:
        kwargs["workers"] = args.workers
    if args.metrics:
        kwargs["collect_metrics"] = True
    output = run_by_name(args.name, **kwargs)
    reference = EDF_LABEL if any(
        s.label == EDF_LABEL for s in output.series
    ) else output.series[0].label
    print(render(output, reference=reference))
    if args.output:
        save_experiment(output, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_list() -> int:
    from .experiments.registry import EXPERIMENTS

    for name in sorted(EXPERIMENTS):
        doc = (EXPERIMENTS[name].__doc__ or "").strip().splitlines()
        print(f"{name:18s} {doc[0] if doc else ''}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "convert":
            return _cmd_convert(args)
        if args.command == "cluster":
            return _cmd_cluster(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "list":
            return _cmd_list()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

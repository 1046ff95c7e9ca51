"""The benchmark command.

``python -m perf [--seed S] [--workload NAME] [--quick] [--seconds T] [--trace 0|1]``

1. builds the inputs (:mod:`perf.inputs`) and fills the private native
   cache;
2. set-up: times probe solves with each workload's flags (``setup_s``);
3. runs the untraced timed passes, round-robin across workloads, so a
   slow phase of the machine hits every workload alike;
4. runs the traced pass (spans from :mod:`perf.spans`);
5. checks every answer, prints every metric by name with its unit,
   writes ``perf/out/result-<seed>[-<workload>-trace<t>].json`` and prints
   one JSON object as the last line of stdout.

Without ``--seconds`` a run makes five passes (one with ``--quick``,
which also solves only the first cell of each workload and skips the
traced pass); with it, each workload keeps solving for that many
seconds.  ``--trace 0`` runs only steps 2-3, ``--trace 1`` only step 4.
Metric names, units and bounds live in the root ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from dataclasses import dataclass, field

from perf import OUT, ROOT, SRC
from perf.stats import median, percentile

BENCHMARK = ROOT / "BENCHMARK.json"
PASSES = 5
PROBES = 5


@dataclass(frozen=True)
class Workload:
    """A closed loop of solves of one cell set through one path."""

    name: str
    #: ``paper-stream`` or a key of :data:`perf.inputs.SETS`.
    cells: str
    #: Extra ``repro solve`` flags.
    flags: tuple[str, ...] = ()
    #: Solved in one long-lived library process instead of the CLI.
    api: bool = False
    #: Poll ``/status`` while each solve runs.
    monitored: bool = False
    #: Vertex counts are deterministic, so they are checked too.
    exact_count: bool = True
    #: Workload on the same cells whose pass time over this one's is
    #: ``parallel.speedup``.
    speedup_over: str | None = None


_CHECKPOINT = "perf/out/tmp/cp.pkl"

WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-stream", "paper-stream"),
        Workload("hard-object", "hard-mid"),
        Workload("hard-array", "hard-small", ("--engine", "array")),
        Workload(
            "hard-monitored",
            "hard-small",
            ("--engine", "array", "--checkpoint", _CHECKPOINT,
             "--serve-status", "0", "--progress"),
            monitored=True,
        ),
        Workload(
            "hard-throughput",
            "hard-mid",
            ("--workers", "2", "--parallel-mode", "throughput"),
            exact_count=False,
            speedup_over="hard-object",
        ),
        Workload("api-native", "hard-big", api=True),
    )
}


@dataclass
class WorkloadRun:
    """Everything one workload measured in one benchmark run."""

    workload: Workload
    cells: list
    input_errors: dict[str, str]
    probes: list[float] = field(default_factory=list)
    #: Untraced timed solves (step 3).
    timed: list = field(default_factory=list)
    #: Untraced passes run by the traced stage when step 3 was skipped.
    base: list = field(default_factory=list)
    #: Traced passes (lists of samples).
    traced: list = field(default_factory=list)
    #: Span summary of the traced library process (api workloads).
    api_trace: dict | None = None
    #: Untraced pass of ``speedup_over``'s path on these cells.
    speedup_base: list = field(default_factory=list)
    native_build_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.workload.name

    def check(self, cell, sample, *, exact_count: bool | None = None):
        """Grade ``sample`` against the cell's reference; count it."""
        from perf.inputs import check_answer

        if exact_count is None:
            exact_count = self.workload.exact_count
        self.attempted += 1
        if sample.error is None:
            sample.error = self.input_errors.get(cell.name) or check_answer(
                cell,
                sample.answer,
                exact_count=exact_count,
                printed=not self.workload.api,
            )
        if sample.error is not None:
            self.failed += 1
            self.errors.append(f"{cell.name}: {sample.error}")
        return sample


# ---------------------------------------------------------------------------
# Stages


def _solver(workload: Workload, env, **kwargs):
    from perf.solvers import ApiSolver, CliSolver

    if workload.api:
        return ApiSolver(env, **kwargs)
    return CliSolver(workload.flags, env, monitored=workload.monitored)


def calibrate() -> float:
    """A fixed pure-Python loop: a diagnostic of the machine's speed."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    return time.perf_counter() - start


def _probe(run, probe, env) -> float:
    """One set-up measurement: a probe solve, or a library start-up."""
    from perf.solvers import ApiSolver, CliSolver

    if run.workload.api:
        solver = ApiSolver(env)
        solver.close()
        return solver.ready_s
    # Unpolled: with no client, the monitor's exit waits out its 0.5 s
    # select timeout, which is part of what a user pays.
    return run.check(probe, CliSolver(run.workload.flags, env).solve(probe)).wall


def setup_stage(runs, probe, env, count: int) -> None:
    """``setup_s`` samples, round-robin across workloads after a warm-up."""
    if count > 1:
        for run in runs:
            _probe(run, probe, env)
    for _ in range(count):
        for run in runs:
            run.probes.append(_probe(run, probe, env))


def timed_stage(runs, env, *, passes, seconds, calib) -> None:
    """Untraced passes, round-robin across workloads.

    With ``seconds`` set, every workload solves its cells in order for
    that long: after the first full pass a solve starts only if the
    workload's time so far plus that cell's last wall time fits.
    """
    solvers = {run.name: _solver(run.workload, env) for run in runs}
    spent = {run.name: 0.0 for run in runs}
    last: dict[tuple[str, str], float] = {}
    try:
        p = 0
        while passes is None or p < passes:
            calib.append(calibrate())
            ran = False
            for run in runs:
                for cell in run.cells:
                    key = (run.name, cell.name)
                    if p and seconds is not None and spent[run.name] + last[key] > seconds:
                        continue
                    start = time.perf_counter()
                    run.timed.append(run.check(cell, solvers[run.name].solve(cell)))
                    last[key] = time.perf_counter() - start
                    spent[run.name] += last[key]
                    ran = True
            p += 1
            if not ran:
                break
    finally:
        for solver in solvers.values():
            solver.close()


def _pass(run, solver, *, traced: bool = False, exact_count=None):
    """One solve of every cell; ``traced`` runs the CLI's traced twin."""
    kwargs = {"traced": True} if traced else {}
    return [
        run.check(cell, solver.solve(cell, **kwargs), exact_count=exact_count)
        for cell in run.cells
    ]


def traced_stage(run, env, *, passes, seconds, need_base: bool, speedup_base) -> None:
    """Traced passes, each (when ``need_base``) after an untraced one."""
    from perf.solvers import TMP

    w = run.workload
    start = time.perf_counter()
    plain = _solver(w, env) if need_base else None
    traced = (
        _solver(w, env, trace_out=TMP / "api-trace.json") if w.api else _solver(w, env)
    )
    try:
        p = 0
        while True:
            pair_start = time.perf_counter()
            if plain is not None:
                run.base.append(_pass(run, plain))
            run.traced.append(_pass(run, traced, traced=not w.api))
            p += 1
            pair = time.perf_counter() - pair_start
            if passes is not None and p >= passes:
                break
            if seconds is None or time.perf_counter() - start + pair > seconds:
                break
    finally:
        if plain is not None:
            plain.close()
        run.api_trace = traced.close()
    if w.speedup_over is not None and not speedup_base:
        other = WORKLOADS[w.speedup_over]
        solver = _solver(other, env)
        try:
            speedup_base = _pass(run, solver, exact_count=other.exact_count)
        finally:
            solver.close()
    run.speedup_base = list(speedup_base)


# ---------------------------------------------------------------------------
# Metrics


def _ok(samples):
    return [s for s in samples if s.error is None]


def _cell_best(samples) -> dict[str, float]:
    """Each cell's fastest wall time over the passes.

    On a shared 2-vCPU VM the vCPUs slowed by ~40% for stretches of a
    fraction of a second to tens of seconds as another tenant's load
    came and went (the ``machine.calib_s`` loop read ~17 ms or ~27 ms).
    A median of the few passes a run affords inherits those phases; the
    best pass of each cell measures the program.
    """
    best: dict[str, float] = {}
    for s in _ok(samples):
        best[s.cell] = min(s.wall, best.get(s.cell, s.wall))
    return best


def _pass_time(samples) -> float:
    """A pass's time: the sum over cells of each cell's best wall time."""
    return sum(_cell_best(samples).values())


def end_to_end(run: WorkloadRun) -> dict[str, float]:
    ok = _ok(run.timed)
    if not ok or not run.probes:
        return {}
    best = _cell_best(ok)
    return {
        "setup_s": median(run.probes),
        "solves_per_s": len(best) / sum(best.values()),
        "peak_rss_mb": max(s.rss_kb for s in ok) / 1024.0,
    }


def latency(run: WorkloadRun) -> dict[str, float]:
    """Per-solve wall-time percentiles: printed and recorded, not gated."""
    walls = [s.wall for s in _ok(run.timed)]
    if not walls:
        return {}
    return {
        "solve_s.p50": percentile(walls, 50),
        "solve_s.p75": percentile(walls, 75),
        "solve_s.n": len(walls),
    }


def _merge(summaries):
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    results: list[dict] = []
    parallel: list[dict] = []
    for summary in summaries:
        for name, row in summary["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in row.items():
                acc[key] += value
        for name, value in summary["counters"].items():
            counters[name] = counters.get(name, 0) + value
        results += summary["results"]
        parallel += summary["parallel"]
    return spans, counters, results, parallel


def per_layer(run: WorkloadRun, cells_by_name, untraced) -> dict[str, float]:
    """Per-layer metrics of the traced passes, per pass unless a ratio.

    ``untraced`` are untraced samples of the same cells, the base of
    ``trace.overhead_frac``.  A layer the workload never calls reads 0.
    """
    passes = len(run.traced)
    if not passes:
        return {}
    traced = [s for p in run.traced for s in p]
    summaries = [s.trace for s in traced if s.trace is not None]
    if run.api_trace is not None:
        summaries.append(run.api_trace)
    spans, counters, results, parallel = _merge(summaries)
    solves = max(1, len(traced))

    def total(name, key="total_s"):
        return spans.get(name, {}).get(key, 0.0) / passes

    def calls(name):
        return spans.get(name, {}).get("calls", 0) / passes

    def par(key):
        return sum(r[key] for r in parallel) / passes

    generated = sum(r["generated"] for r in results)
    # Throughput mode searches in its workers; the pool's wall time is
    # the engine time there.
    outer = "parallel.solve_graph" if "parallel.solve_graph" in spans else "engine.solve"
    engine_s = spans.get(outer, {}).get("total_s", 0.0)
    status_ms = [ms for s in traced for ms in s.status_ms]
    ratio = 0.0
    if run.workload.speedup_over is not None:
        ref = sum(cells_by_name[r["solve"]].generated for r in results)
        ratio = generated / ref if ref else 0.0
    speedup = 0.0
    if run.speedup_base:
        speedup = _pass_time(run.speedup_base) / _pass_time(untraced)
    return {
        "cli.import_s": total("cli.import"),
        "io.load_graph_s": total("io.load_graph"),
        "model.compile_s": total("model.compile"),
        "upper.edf_s": total("upper.edf"),
        "upper.root_closed_frac": (
            sum(r["generated"] == 1 for r in results) / len(results) if results else 0.0
        ),
        "result.schedule_s": total("result.schedule"),
        "engine.solve_s": total("engine.solve"),
        "engine.self_s": total("engine.solve", "self_s"),
        "engine.generated": generated / passes,
        "engine.explored": sum(r["explored"] for r in results) / passes,
        "engine.vertices_per_s": generated / engine_s if engine_s else 0.0,
        "engine.peak_active": max((r["peak_active"] for r in results), default=0),
        "expand.fused_calls": calls("expand.fused"),
        "expand.fused_s": total("expand.fused"),
        "expand.batch_calls": calls("expand.batch"),
        "expand.batch_s": total("expand.batch"),
        "native.build_s": run.native_build_s,
        "native.load_s": total("native.load"),
        "native.engaged_frac": spans.get("native.init", {}).get("calls", 0) / solves,
        "native.step_calls": calls("native.step"),
        "native.step_s": total("native.step"),
        "checkpoint.writes": calls("checkpoint.write"),
        "checkpoint.write_s": total("checkpoint.write"),
        "checkpoint.bytes": counters.get("checkpoint.bytes", 0) / passes,
        "live.samples": counters.get("live.samples", 0) / passes,
        "live.sample_s": total("live.on_sample"),
        "serve.stop_s": total("serve.stop"),
        "serve.status_ms.p50": percentile(status_ms, 50) if status_ms else 0.0,
        "serve.status_ms.p90": percentile(status_ms, 90) if status_ms else 0.0,
        "serve.status_n": len(status_ms) / passes,
        "parallel.shards": par("shards"),
        "parallel.shards_stale": par("shards_stale"),
        "parallel.worker_restarts": par("worker_restarts"),
        "parallel.shard_retries": par("shard_retries"),
        "parallel.generated_ratio": ratio,
        "parallel.speedup": speedup,
        "trace.overhead_frac": _pass_time(traced) / _pass_time(untraced) - 1.0,
    }


# ---------------------------------------------------------------------------
# Command


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python -m perf", description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    p.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                   help="run one workload (default: all, round-robin)")
    p.add_argument("--quick", action="store_true",
                   help="one pass of the first cell of each workload, no traced pass")
    p.add_argument("--seconds", type=float, default=None,
                   help="solve for this long per workload instead of a fixed pass count")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: set-up and untraced passes only; 1: traced passes only")
    return p


def _metric_table() -> dict:
    bench = json.loads(BENCHMARK.read_text())
    return {
        "end_to_end": {m["name"]: m for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m for m in bench["per_layer"]},
    }


def _print_metrics(title: str, values: dict, table: dict) -> None:
    print(f"  {title}:")
    for name, value in values.items():
        print(f"    {name:26s} {value:>16.6g} {table[name]['unit']}")


def run(args) -> int:
    from perf import inputs
    from perf.solvers import child_env, fill_native_cache, native_build_s

    table = _metric_table()
    env = child_env()
    expected = inputs.load_expected()
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs = []
    cells_by_name = {}
    for name in names:
        w = WORKLOADS[name]
        if w.cells == "paper-stream":
            cells = list(inputs.paper_stream(args.seed, expected))
        else:
            cells = list(expected["sets"][w.cells])
            random.Random(f"{args.seed}/{name}").shuffle(cells)
        if args.quick:
            cells = cells[:1]
        errors = {c.name: e for c in cells if (e := inputs.materialize(c))}
        cells_by_name.update((c.name, c) for c in cells)
        runs.append(WorkloadRun(w, cells, errors))
    probe = inputs.probe(expected)
    probe_error = inputs.materialize(probe)
    if probe_error:
        for run in runs:
            run.input_errors[probe.name] = probe_error
    if not fill_native_cache(env):
        print("warning: the native driver could not be built", file=sys.stderr)

    passes = None if args.seconds is not None else (1 if args.quick else PASSES)
    calib: list[float] = []
    do_timed = args.trace in (None, 0)
    do_traced = args.trace in (None, 1) and not args.quick
    if do_timed:
        setup_stage(runs, probe, env, 1 if args.quick else PROBES)
        timed_stage(runs, env, passes=passes, seconds=args.seconds, calib=calib)
    if do_traced:
        build_s = native_build_s(env)
        by_name = {run.name: run for run in runs}
        for run in runs:
            run.native_build_s = build_s
            other = by_name.get(run.workload.speedup_over or "")
            traced_stage(
                run,
                env,
                passes=None if args.seconds is not None else 1,
                seconds=args.seconds,
                need_base=not do_timed,
                speedup_base=other.timed if other is not None else (),
            )

    report = {
        "format": "perf/result-v1",
        "seed": args.seed,
        "quick": args.quick,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "calib_s": calib,
        },
        "workloads": {},
    }
    line_metrics = {}
    attempted = failed = 0
    for run in runs:
        e2e = end_to_end(run) if do_timed else {}
        lat = latency(run) if do_timed else {}
        layers = {}
        if do_traced:
            layers = per_layer(run, cells_by_name, run.timed or [s for p in run.base for s in p])
        print(f"== {run.name}: {len(run.cells)} cells, {run.attempted} solves, "
              f"{run.failed} failed ==")
        if e2e:
            _print_metrics("end to end", e2e, table["end_to_end"])
        if lat:
            print(f"  latency over {lat['solve_s.n']} solves (not gated): "
                  f"p50 {lat['solve_s.p50']:.6g} s, p75 {lat['solve_s.p75']:.6g} s")
        if layers:
            _print_metrics("per layer", layers, table["per_layer"])
        for error in run.errors[:10]:
            print(f"  FAILED {error}")
        attempted += run.attempted
        failed += run.failed
        report["workloads"][run.name] = {
            "end_to_end": e2e,
            "per_layer": layers,
            "latency": lat,
            "walls": {
                c.name: {
                    "timed": [s.wall for s in run.timed if s.cell == c.name],
                    "traced": [s.wall for p in run.traced for s in p if s.cell == c.name],
                }
                for c in run.cells
            },
            "attempted": run.attempted,
            "failed": run.failed,
            "errors": run.errors,
        }
        prefix = "" if len(runs) == 1 else f"{run.name}/"
        for group, values in (("end_to_end", e2e), ("per_layer", layers)):
            for name, value in values.items():
                line_metrics[prefix + name] = {
                    "value": value, "unit": table[group][name]["unit"]
                }
    if calib:
        print(f"machine.calib_s (diagnostic): median {median(calib):.6f} s over {len(calib)} passes")
    suffix = f"-{args.workload}" if args.workload else ""
    if args.trace is not None:
        suffix += f"-trace{args.trace}"
    out = OUT / f"result-{args.seed}{suffix}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": line_metrics,
    }))
    return 0 if failed == 0 else 1


def select_main(argv) -> int:
    from perf import inputs

    p = argparse.ArgumentParser(
        prog="python -m perf select",
        description="Re-run the corpus scan and compare it with the pinned file.",
    )
    p.add_argument("--out", default=str(OUT / "seed-0.json"))
    args = p.parse_args(argv)
    pinned = inputs.load_expected()
    seed = pinned["corpus_seed"]
    inputs.write_expected(
        args.out, seed, inputs.select(seed, log=print), inputs.draw_paper_stream(seed)
    )
    print(f"wrote {args.out}")
    same = inputs.load_expected(args.out) == pinned
    print("matches the pinned corpus" if same else "DIFFERS from the pinned corpus")
    return 0 if same else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["compare"]:
        from perf.compare import main as compare_main

        return compare_main(argv[1:])
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    # The benchmark's own in-process solves (references, corpus scan)
    # use the same private native cache and temp dir as its children.
    sys.path.insert(0, str(SRC))
    os.environ["REPRO_NATIVE_CACHE"] = str(OUT / "native-cache")
    os.environ["TMPDIR"] = str(OUT / "tmp")
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    if argv[:1] == ["select"]:
        return select_main(argv[1:])
    return run(_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

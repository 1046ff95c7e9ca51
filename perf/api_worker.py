"""Long-lived library process for the ``api-native`` workload.

``python -m perf.api_worker [--trace OUT]`` imports ``repro``, loads the
native driver, prints ``{"ready": ...}`` and then answers one JSON job
per stdin line -- ``{"name", "path", "m", "selection"}`` -- by loading
the graph file and calling
``BranchAndBound(BnBParameters(engine="array", ...)).solve(problem)``,
printing one JSON result line per job.  At end of input it prints its
peak RSS and, when traced, writes the span summary to ``OUT``.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv: list[str]) -> int:
    trace_out = argv[1] if argv[:1] == ["--trace"] else None
    rec = None
    if trace_out is not None:
        from perf.spans import SpanRecorder, instrument_library

        rec = SpanRecorder()
    start = time.perf_counter()
    import repro
    from repro.core import _native
    from repro.core.selection import SELECTION_RULES
    from repro.io.json_io import load_graph

    if rec is not None:
        rec.add("cli.import", start, time.perf_counter())
        instrument_library(rec)
    native = _native.load_native() is not None
    _emit({"ready": True, "native": native})

    def timed(name, fn, *args):
        if rec is None:
            return fn(*args)
        with rec.span(name):
            return fn(*args)

    for line in sys.stdin:
        job = json.loads(line)
        if rec is not None:
            rec.solve_id = job["name"]
        t0 = time.perf_counter()
        graph = timed("io.load_graph", load_graph, job["path"])
        problem = timed(
            "model.compile",
            repro.compile_problem,
            graph,
            repro.shared_bus_platform(job["m"]),
        )
        params = repro.BnBParameters(
            selection=SELECTION_RULES[job["selection"]](), engine="array"
        )
        result = repro.BranchAndBound(params).solve(problem)
        result.schedule()
        wall = time.perf_counter() - t0
        _emit(
            {
                "wall": wall,
                "status": result.status.value,
                "l_max": result.best_cost,
                "generated": result.stats.generated,
                "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            }
        )
    if rec is not None:
        with open(trace_out, "w") as fh:
            json.dump(rec.summary(), fh)
    _emit({"done": True})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

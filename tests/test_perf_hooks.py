"""The end-to-end benchmark's hooks still resolve against the program.

``python -m perf`` traces solves by patching program entry points by
name (``perf/spans.py``).  Renaming or removing one of them would make
every traced solve fail, which the benchmark only reports as failed
operations; this test makes tier-1 fail instead.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

from repro.cluster import ClusterReport

ROOT = Path(__file__).resolve().parent.parent


def test_perf_spans_instrument_cli_resolves():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    code = (
        "from perf.spans import SpanRecorder, instrument_cli; "
        "instrument_cli(SpanRecorder(), parallel=True)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_parallel_report_has_the_fields_perf_reads():
    """``ParallelBnB.last_report`` is the coordinator's report."""
    fields = {f.name for f in dataclasses.fields(ClusterReport)}
    assert {"shards", "shards_stale", "worker_restarts",
            "shard_retries"} <= fields

"""Shared helpers for the fault-tolerance test suites.

Three kinds of plumbing live here so :mod:`test_checkpoint` and
:mod:`test_supervision` stay readable:

* subprocess drivers for the real CLI (``python -m repro``), including
  the kill-at-checkpoint harness that SIGKILLs a solve the moment its
  first snapshot lands on disk;
* workload builders for instances whose search trees are *non-trivial*
  (the EDF initial bound must not already be optimal, or nothing is
  ever explored and a checkpoint is never due);
* :class:`FaultPlan` / :class:`ShardFault`, the planted failures the
  parallel driver and the cluster worker honour (``fault_plan=``).
"""

from __future__ import annotations

import os
import pickle
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.checkpoint import Checkpointer
from repro.errors import ConfigurationError
from repro.model import compile_problem, shared_bus_platform
from repro.workload import WorkloadSpec, generate_task_graph

#: Seeds of :func:`hard_spec` instances known to need real search
#: (hundreds-to-thousands of generated vertices under the defaults).
HARD_SEEDS = (0, 4)


def hard_spec() -> WorkloadSpec:
    """Tight deadlines + real communication: EDF is not optimal here."""
    return WorkloadSpec(
        num_tasks=(8, 10), depth=(3, 5), ccr=1.0, laxity_ratio=1.05
    )


def hard_problem(seed: int = 0, processors: int = 2):
    """A compiled instance with a non-trivial search tree."""
    return compile_problem(
        generate_task_graph(hard_spec(), seed=seed),
        shared_bus_platform(processors),
    )


def hard_graph(seed: int = 0):
    return generate_task_graph(hard_spec(), seed=seed)


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardFault:
    """One planted failure: fires when ``shard`` runs on ``attempt``.

    ``shard`` is the shard index; ``-1`` matches any shard.  ``attempt``
    is 1-based, so the default plants the fault on the first try and
    lets the retry succeed.

    Kinds:

    * ``"crash"`` — the worker dies before touching the shard, as if the
      OOM killer got it between tasks.
    * ``"crash-mid"`` — the worker dies *during* the sub-search, at its
      ``after_polls``-th bound-channel poll (one per chunk boundary):
      state is torn mid-expansion, the strictest recovery case.
    * ``"hang"`` — the worker sleeps ``hang_seconds`` without sending a
      heartbeat; only lease expiry reclaims the shard.
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
    """An injectable set of :class:`ShardFault` entries.

    The cluster worker only calls :meth:`match`.  The plan ships to
    workers by pickling; matching is pure, so a respawned worker
    consults the same plan and the *attempt* number is what
    distinguishes the retry from the original.
    """

    faults: tuple[ShardFault, ...] = ()

    def match(self, shard: int, attempt: int) -> ShardFault | None:
        for fault in self.faults:
            if fault.shard in (-1, shard) and fault.attempt == attempt:
                return fault
        return None


# ---------------------------------------------------------------------------
# CLI subprocess drivers
# ---------------------------------------------------------------------------


def _cli_env() -> dict:
    """Environment for ``python -m repro`` regardless of pytest's cwd."""
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    parts = [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def run_cli(args: list[str], timeout: float = 120.0):
    """Run the CLI to completion; returns the CompletedProcess."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=_cli_env(),
    )


def spawn_cli(args: list[str]) -> subprocess.Popen:
    """Start the CLI without waiting (for kill-mid-run harnesses)."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=_cli_env(),
    )


def kill_when_file_appears(
    proc: subprocess.Popen, path: str | Path, timeout: float = 60.0
) -> bool:
    """SIGKILL ``proc`` as soon as ``path`` exists and is non-empty.

    Returns True when the process was killed while still running, False
    when it finished first (the file must still exist either way — the
    caller's resume assertions hold in both interleavings, which is what
    makes the harness race-free).
    """
    deadline = time.monotonic() + timeout
    p = Path(path)
    while time.monotonic() < deadline:
        if p.exists() and p.stat().st_size > 0:
            break
        if proc.poll() is not None:
            return False
        time.sleep(0.002)
    else:
        raise TimeoutError(f"no checkpoint appeared at {path}")
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        return True
    return False


# ---------------------------------------------------------------------------
# Cluster harness (in-process threads over the fake transport)
# ---------------------------------------------------------------------------


def run_cluster(
    problem,
    params=None,
    *,
    workers=2,
    transport=None,
    worker_kwargs=None,
    coordinator_kwargs=None,
    join_timeout=60.0,
):
    """Solve ``problem`` on an in-process cluster; returns (result, coord).

    Spawns ``workers`` ClusterWorker threads over a shared
    MemoryTransport (or the given one) against one ClusterCoordinator.
    ``worker_kwargs`` is either one dict applied to every worker or a
    list of per-worker dicts (inject faults into specific workers).
    """
    import threading

    from repro.cluster import ClusterCoordinator, ClusterWorker, MemoryTransport

    net = transport if transport is not None else MemoryTransport()
    address = "mem://coordinator"
    ckw = dict(
        bind=address,
        transport=net,
        lease=2.0,
        worker_timeout=30.0,
        retry_backoff=0.001,
    )
    ckw.update(coordinator_kwargs or {})
    coord = ClusterCoordinator(params, **ckw)
    if isinstance(worker_kwargs, dict) or worker_kwargs is None:
        worker_kwargs = [worker_kwargs or {}] * workers
    crew = []
    for i, kw in enumerate(worker_kwargs):
        kw = dict(kw)
        wnet = kw.pop("transport", net)
        crew.append(
            ClusterWorker(
                address,
                transport=wnet,
                worker_id=kw.pop("worker_id", f"w{i}"),
                connect_timeout=kw.pop("connect_timeout", 20.0),
                **kw,
            )
        )
    threads = [
        threading.Thread(target=w.run, daemon=True, name=w.worker_id)
        for w in crew
    ]
    for t in threads:
        t.start()
    try:
        result = coord.solve(problem)
    finally:
        for t in threads:
            t.join(timeout=join_timeout)
    return result, coord


def assert_cluster_parity(result, reference, *, tol=1e-9):
    """The cluster run must match the single-process engine exactly."""
    assert result.status == reference.status, (
        f"status diverged: cluster {result.status} vs "
        f"sequential {reference.status}"
    )
    if reference.proc_of is not None:
        assert result.proc_of is not None
        assert abs(result.best_cost - reference.best_cost) <= tol, (
            f"cost diverged: cluster {result.best_cost!r} vs "
            f"sequential {reference.best_cost!r}"
        )


_LMAX = re.compile(r"L_max=(-?[\d.]+|inf|-inf)")


def parse_lmax(stdout: str) -> float:
    """Extract the reported best cost from a ``repro solve`` transcript."""
    match = _LMAX.search(stdout)
    if match is None:
        raise AssertionError(f"no L_max in CLI output:\n{stdout}")
    return float(match.group(1))


# ---------------------------------------------------------------------------
# In-memory checkpoints
# ---------------------------------------------------------------------------


class MemoryCheckpointer(Checkpointer):
    """Keeps every snapshot, round-tripped through pickle, in memory."""

    def __init__(self, seconds: float = 3600.0) -> None:
        super().__init__("unused.pkl", seconds=seconds)
        self.snapshots = []

    def write(self, snapshot):
        snapshot.version = self.version
        self.snapshots.append(pickle.loads(pickle.dumps(snapshot)))
        self.version += 1
        self.writes += 1
        return self.path

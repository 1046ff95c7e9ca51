"""End-to-end cluster drills over real TCP subprocesses.

These are the scenarios the in-memory matrix cannot fake: actual
sockets, actual SIGKILL.  A worker is killed mid-shard and the solve
must still land on the sequential optimum with a nonzero retry
counter; a coordinator is killed mid-solve and ``--resume`` must land
on the same cost.
"""

from __future__ import annotations

import re
import signal
import subprocess
import sys
import time

import pytest

from repro.io import save_graph

from faultlib import (
    _cli_env,
    hard_graph,
    kill_when_file_appears,
    parse_lmax,
    run_cli,
)

_ADDR = re.compile(r"coordinating on (\S+)")
_RETRIES = re.compile(r"\bretries=(\d+)")
_JOINS = re.compile(r"\bjoins=(\d+)")


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cluster-cli") / "hard.json"
    save_graph(hard_graph(0), path)
    return str(path)


@pytest.fixture(scope="module")
def sequential_lmax(graph_file):
    proc = run_cli(["solve", graph_file])
    assert proc.returncode == 0, proc.stderr
    return parse_lmax(proc.stdout)


def start_coordinator(graph_file: str, *extra: str):
    """Launch a coordinator on an ephemeral port; returns (proc, address).

    The CLI prints the bound address to stderr before the solve starts,
    which is how tests (and humans) learn the actual port of ``:0``.
    """
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "cluster", "coordinator",
            graph_file, "--bind", "127.0.0.1:0", *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_cli_env(),
    )
    line = proc.stderr.readline()
    match = _ADDR.search(line)
    if match is None:
        proc.kill()
        out, err = proc.communicate(timeout=30)
        raise AssertionError(f"no bind address line: {line!r}\n{err}")
    return proc, match.group(1)


def spawn_worker(address: str, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "cluster", "worker", address, *extra],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=_cli_env(),
    )


def finish(coord: subprocess.Popen, timeout: float = 180.0) -> str:
    out, err = coord.communicate(timeout=timeout)
    assert coord.returncode == 0, f"coordinator failed:\n{err}\n{out}"
    return out


def test_tcp_cluster_matches_sequential(graph_file, sequential_lmax):
    # Dispatch waits for both workers; otherwise the first to connect
    # can finish the small solve before the second joins.
    coord, address = start_coordinator(graph_file, "--min-workers", "2")
    workers = [spawn_worker(address, "--id", f"w{i}") for i in range(2)]
    out = finish(coord)
    for w in workers:
        w.wait(timeout=60)
    assert parse_lmax(out) == pytest.approx(sequential_lmax, abs=1e-9)
    joins = _JOINS.search(out)
    assert joins is not None and int(joins.group(1)) == 2
    assert "quarantined" not in out


def test_sigkilled_worker_is_absorbed(graph_file, sequential_lmax):
    """Kill one worker mid-shard: parity plus a nonzero retry counter."""
    # Depth-1 shards are long under --drill-slow, so the victim is
    # reliably mid-shard when the signal lands.
    coord, address = start_coordinator(graph_file, "--split-depth", "1")
    # At 2s per bound-channel poll, any shard past the 64-vertex poll
    # cadence pins the victim mid-shard for multiple seconds.
    victim = spawn_worker(address, "--id", "victim", "--drill-slow", "2.0")
    time.sleep(0.8)  # victim is mid-shard before the survivor joins
    survivor = spawn_worker(address, "--id", "survivor")
    time.sleep(0.7)
    victim.send_signal(signal.SIGKILL)
    victim.wait(timeout=30)
    out = finish(coord)
    survivor.wait(timeout=60)
    assert parse_lmax(out) == pytest.approx(sequential_lmax, abs=1e-9)
    retries = _RETRIES.search(out)
    assert retries is not None and int(retries.group(1)) >= 1, out
    assert "TRUNCATED" not in out


def test_sigkilled_coordinator_resumes_to_same_cost(
    graph_file, sequential_lmax, tmp_path
):
    ckpt = tmp_path / "cluster.ckpt"

    # Phase 1: coordinator checkpoints aggressively, a slow worker keeps
    # the solve alive long enough, SIGKILL lands after the first
    # snapshot.  (If the solve finishes first the final snapshot is
    # resumed instead — the assertions hold in both interleavings.)
    coord, address = start_coordinator(
        graph_file, "--checkpoint", str(ckpt), "--checkpoint-seconds", "0.2"
    )
    worker = spawn_worker(address, "--drill-slow", "0.2")
    kill_when_file_appears(coord, ckpt, timeout=60.0)
    coord.stdout.close(), coord.stderr.close()
    worker.wait(timeout=60)

    # Phase 2: resume from the snapshot with fresh workers.
    coord2, address2 = start_coordinator(
        graph_file, "--resume", str(ckpt), "--checkpoint", str(ckpt)
    )
    workers = [
        spawn_worker(address2, "--connect-timeout", "5") for _ in range(2)
    ]
    out = finish(coord2)
    for w in workers:
        w.wait(timeout=60)
    assert "resumed cluster solve from checkpoint" in out
    assert parse_lmax(out) == pytest.approx(sequential_lmax, abs=1e-9)

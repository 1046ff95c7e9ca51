"""Run one solve from outside the program and time it.

A :class:`CliSolver` starts ``python -m repro.cli solve ...`` (or its
traced twin ``python -m perf.traced_solve``) per solve and times it from
``Popen`` to the ``os.wait4`` return, which also yields the child's peak
RSS.  An :class:`ApiSolver` keeps one library process
(:mod:`perf.api_worker`) alive and times each call inside it.  Both give
the same :class:`Sample`; neither checks answers (the caller does).

The load is a closed loop: one solve at a time from the main thread,
plus, for monitored solves, one thread polling ``/status`` every 50 ms
over one connection at a time.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from perf import OUT, ROOT, SRC
from perf.inputs import Cell, parse_result

__all__ = ["Sample", "CliSolver", "ApiSolver", "child_env", "native_build_s"]

#: A solve running longer than this is killed and counted as failed.
SOLVE_TIMEOUT_S = 120.0
STATUS_POLL_S = 0.05
TMP = OUT / "tmp"


@dataclass
class Sample:
    """One solve as seen from outside."""

    cell: str
    wall: float
    rss_kb: int = 0
    answer: dict | None = None
    error: str | None = None
    trace: dict | None = None
    status_ms: list[float] = field(default_factory=list)


def child_env() -> dict[str, str]:
    """Environment of every child: the repo's source, one thread per
    numeric pool, and private native-cache and temp dirs in the checkout."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_NATIVE_CACHE=str(OUT / "native-cache"),
        TMPDIR=str(TMP),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


@contextmanager
def _deadline(pid: int, seconds: float):
    """SIGKILL the process group of ``pid`` if the block outlives ``seconds``."""

    def expire(_signum, _frame):
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


_MONITOR = re.compile(r"monitor: http://([\d.]+):(\d+)/")


class StatusPoller(threading.Thread):
    """Finds the monitor URL on the child's stderr, then polls ``/status``.

    Polling stops when the server goes away or :meth:`finish` is called;
    stderr is always drained to EOF so the child never blocks on it.
    """

    def __init__(self, stream) -> None:
        super().__init__(name="perf-status-poller", daemon=True)
        self.stream = stream
        self.latencies_ms: list[float] = []
        self.tail: list[str] = []
        self._done = threading.Event()

    def finish(self) -> None:
        self._done.set()
        self.join(timeout=10)

    def _lines(self):
        for line in self.stream:
            self.tail = (self.tail + [line])[-5:]
            yield line

    def run(self) -> None:
        lines = self._lines()
        address = None
        for line in lines:
            match = _MONITOR.search(line)
            if match:
                address = (match[1], int(match[2]))
                break
        if address is not None:
            due = time.perf_counter()
            while not self._done.is_set():
                start = time.perf_counter()
                conn = http.client.HTTPConnection(*address, timeout=2)
                try:
                    conn.request("GET", "/status")
                    conn.getresponse().read()
                except OSError:
                    break
                finally:
                    conn.close()
                self.latencies_ms.append((time.perf_counter() - start) * 1000)
                due += STATUS_POLL_S
                self._done.wait(max(0.0, due - time.perf_counter()))
        for _ in lines:
            pass


class CliSolver:
    """``repro solve`` in a fresh process per solve."""

    def __init__(self, flags, env, *, monitored: bool = False) -> None:
        self.flags = list(flags)
        self.env = env
        self.monitored = monitored

    def close(self) -> None:
        """Nothing outlives a solve."""

    def argv(self, cell: Cell) -> list[str]:
        return [
            "solve", str(cell.path.relative_to(ROOT)),
            "-m", str(cell.m), "--selection", cell.selection, *self.flags,
        ]

    def solve(self, cell: Cell, *, traced: bool = False) -> Sample:
        if traced:
            trace_out = TMP / "trace.json"
            trace_out.unlink(missing_ok=True)
            argv = [
                sys.executable, "-m", "perf.traced_solve",
                str(trace_out), cell.name, "--", *self.argv(cell),
            ]
        else:
            argv = [sys.executable, "-m", "repro.cli", *self.argv(cell)]
        with open(TMP / "stdout.txt", "w+") as out, open(TMP / "stderr.txt", "w+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=subprocess.PIPE if self.monitored else err,
                cwd=ROOT,
                env=self.env,
                text=True,
                errors="replace",
                start_new_session=True,
            )
            poller = None
            try:
                if self.monitored:
                    poller = StatusPoller(proc.stderr)
                    poller.start()
                with _deadline(proc.pid, SOLVE_TIMEOUT_S):
                    _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                if proc.returncode is None:
                    _kill_group(proc)
                if poller is not None:
                    poller.finish()
                    proc.stderr.close()
            out.seek(0)
            stdout = out.read()
            err.seek(0)
            stderr_tail = "".join(poller.tail) if poller else err.read()[-400:]
        sample = Sample(cell.name, wall, usage.ru_maxrss, parse_result(stdout))
        if poller is not None:
            sample.status_ms = poller.latencies_ms
        if wall >= SOLVE_TIMEOUT_S:
            sample.error = f"killed after {SOLVE_TIMEOUT_S:g} s"
        elif proc.returncode != 0:
            sample.error = f"exit {proc.returncode}: {stderr_tail.strip()[-300:]}"
        elif traced:
            sample.trace = json.loads(trace_out.read_text())
        return sample


class ApiSolver:
    """One long-lived library process answering solves over a pipe."""

    def __init__(self, env, *, trace_out=None) -> None:
        argv = [sys.executable, "-m", "perf.api_worker"]
        if trace_out is not None:
            argv += ["--trace", str(trace_out)]
        self.trace_out = trace_out
        self._err = open(TMP / "api-stderr.txt", "w+")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._err,
            cwd=ROOT,
            env=env,
            text=True,
            start_new_session=True,
        )
        try:
            ready = self._read()
        except BaseException:
            self.close()
            raise
        #: Spawn until ``import repro`` and ``load_native()`` finished.
        self.ready_s = time.perf_counter() - start
        self.native = bool(ready.get("native"))

    def _read(self) -> dict:
        with _deadline(self.proc.pid, SOLVE_TIMEOUT_S):
            line = self.proc.stdout.readline()
        if not line:
            self._err.seek(0)
            raise RuntimeError(
                f"api worker died: {self._err.read().strip()[-300:]}"
            )
        return json.loads(line)

    def solve(self, cell: Cell) -> Sample:
        if not self.native:
            return Sample(cell.name, 0.0, error="native driver unavailable")
        job = {
            "name": cell.name,
            "path": str(cell.path),
            "m": cell.m,
            "selection": cell.selection,
        }
        try:
            self.proc.stdin.write(json.dumps(job) + "\n")
            self.proc.stdin.flush()
            res = self._read()
        except (OSError, RuntimeError) as exc:
            return Sample(cell.name, 0.0, error=f"api worker: {exc}")
        answer = {k: res[k] for k in ("status", "l_max", "generated")}
        return Sample(cell.name, res["wall"], res["rss_kb"], answer)

    def close(self) -> dict | None:
        """Stop the worker; returns its span summary when traced."""
        try:
            self.proc.stdin.close()
            with _deadline(self.proc.pid, SOLVE_TIMEOUT_S):
                self.proc.stdout.read()
                self.proc.wait()
        except OSError:
            pass
        finally:
            if self.proc.returncode is None:
                _kill_group(self.proc)
            self.proc.stdout.close()
            self._err.close()
        if self.trace_out is not None and self.proc.returncode == 0:
            return json.loads(self.trace_out.read_text())
        return None


def fill_native_cache(env) -> bool:
    """Build (or find) the native driver in the private cache."""
    code = "from repro.core import _native; raise SystemExit(_native.load_native() is None)"
    return subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, timeout=SOLVE_TIMEOUT_S
    ).returncode == 0


def native_build_s(env) -> float:
    """``load_native()`` in a fresh process with an empty cache dir."""
    cache = TMP / "native-fresh"
    shutil.rmtree(cache, ignore_errors=True)
    code = (
        "import time; from repro.core import _native; t = time.perf_counter(); "
        "ok = _native.load_native(); print(time.perf_counter() - t if ok else -1)"
    )
    try:
        out = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env={**env, "REPRO_NATIVE_CACHE": str(cache)},
            capture_output=True,
            text=True,
            timeout=SOLVE_TIMEOUT_S,
            check=True,
        ).stdout
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return float(out.strip())

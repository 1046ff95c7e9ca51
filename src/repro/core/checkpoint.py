"""Checkpoint/resume and cooperative-stop support for the B&B engine.

Long exhaustive cells run for hours; this module makes sure none of
that work is ever lost:

* :class:`SearchCheckpoint` — a complete, self-contained snapshot of a
  search in flight: the frontier (active set) in pop order, the
  incumbent (cost + schedule), the statistics counters, the sequence
  counter, and a fingerprint binding it to one ⟨problem, parameters⟩
  pair.
* :class:`Checkpointer` — the writer: decides *when* a snapshot is
  due (one wall-clock interval, serviced at the engine's boundaries
  and by the cluster coordinator's loop) and writes it atomically
  (temp file + ``os.replace`` in the same directory), so a kill at any
  instant leaves either the previous snapshot or the new one — never a
  torn file.
* :func:`load_checkpoint` / :func:`write_checkpoint` — the file format,
  with every failure mode mapped to :class:`~repro.errors.CheckpointError`.
* :func:`problem_fingerprint` — SHA-256 over the task graph, platform
  and the search-shaping parameters ⟨B,S,E,F,D,L,U,BR⟩ (plus the
  engine's order/symmetry knobs).  Resource bounds RB are deliberately
  *excluded*: resuming a capped run with bigger limits is the whole
  point of the runbook, and RB never changes which vertex the search
  visits next — only when it stops.
* :class:`StopToken` / :func:`graceful_interrupts` — cooperative
  shutdown: SIGINT/SIGTERM set the token, the engine notices at the top
  of its loop and returns an anytime result instead of dying.

Restoration notes (why resumed == straight holds): the frontier is
stored as ``(state, lower_bound, seq)`` triples, dropping the fused
path's incremental-bound vectors — the expander recomputes them from
the bare state with identical results.  Pickle memoization stores the
compiled problem once for the whole frontier, and on load every state
is re-bound to the live problem object.  The transposition table is
*not* checkpointed: dropping it is sound (duplicates are re-explored,
never mis-pruned), so a resumed run can only generate *more* vertices
than the uninterrupted one when D includes a transposition layer, and
exactly the same number otherwise.  Its counters are checkpointed
(``SearchCheckpoint.tt``), and the resumed run's fresh table adds to
them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import pickle
import signal
import threading
import time
import warnings
from dataclasses import dataclass

from ..errors import CheckpointError

__all__ = [
    "CHECKPOINT_FORMAT",
    "Checkpointer",
    "SearchCheckpoint",
    "StopToken",
    "graceful_interrupts",
    "load_checkpoint",
    "problem_fingerprint",
    "write_checkpoint",
]

CHECKPOINT_FORMAT = "repro/checkpoint-v1"

#: On-disk header preceding the pickled snapshot:
#: ``b"repro/checkpoint-v1 sha256=<hex> len=<bytes>\n"``.  The digest
#: covers the pickled payload, so truncation and bit-flips are caught
#: *before* unpickling; ``len`` distinguishes truncation from
#: corruption in the error message.  Files written before the header
#: existed start with the pickle protocol-2+ magic ``b"\x80"`` instead,
#: which can never collide with this ASCII prefix — they still load,
#: with a warning that they are unverifiable.
_HEADER_PREFIX = CHECKPOINT_FORMAT.encode() + b" "


def problem_fingerprint(problem, params) -> str:
    """SHA-256 binding a checkpoint to one ⟨problem, parameters⟩ pair.

    Covers the task graph (canonical JSON), the platform (processor
    count, interconnect, context switch) and every parameter that
    shapes the search trajectory: ⟨B,S,E,F,D,L,U,BR⟩ plus child order
    and symmetry breaking.  Excludes RB — see the module docstring.
    """
    from ..io.json_io import graph_to_dict  # lazy: io imports wide

    h = hashlib.sha256()
    h.update(
        json.dumps(graph_to_dict(problem.graph), sort_keys=True).encode()
    )
    h.update(repr(problem.platform).encode())
    h.update(repr(problem.platform.context_switch).encode())
    h.update(
        (
            f"B={params.branching.name};S={params.selection.name};"
            f"E={params.elimination.name};F={params.characteristic.name};"
            f"D={params.dominance.name};L={params.lower_bound.name};"
            f"U={params.upper_bound.name};BR={params.inaccuracy!r};"
            f"order={params.child_order};sym={params.break_symmetry}"
        ).encode()
    )
    return h.hexdigest()


@dataclass
class SearchCheckpoint:
    """One atomically-written snapshot of a search in flight."""

    fingerprint: str
    #: ``(state, lower_bound, seq)`` triples in pop order, the in-hand
    #: vertex (popped but not yet expanded) first.
    frontier: list[tuple]
    #: Next vertex sequence number (restored so resumed tie-breaks
    #: match the uninterrupted run exactly).
    seq: int
    incumbent_cost: float
    found_cost: float
    best_proc: tuple | None
    best_start: tuple | None
    incumbent_source: str
    initial_upper_bound: float
    #: ``SearchStats.as_dict()`` at snapshot time.
    stats: dict
    #: The transposition table's ``tt_*`` counters at snapshot time
    #: (None in files written before the field existed: zeros).
    tt: dict | None = None
    format: str = CHECKPOINT_FORMAT
    #: Monotone per-run counter, stamped by :meth:`Checkpointer.write`.
    version: int = 0
    #: Wall-clock time the snapshot was written (``time.time()``).
    created: float = 0.0

    def require_match(self, fingerprint: str) -> None:
        """Refuse to resume a search of another ⟨problem, parameters⟩."""
        if self.fingerprint != fingerprint:
            raise CheckpointError(
                "checkpoint does not match this problem/parametrization "
                f"(snapshot fingerprint {self.fingerprint[:12]}…, "
                f"expected {fingerprint[:12]}…); only resource bounds RB "
                "may differ between the checkpointing and resuming runs"
            )


def write_checkpoint(snapshot: SearchCheckpoint, path: str) -> str:
    """Atomically replace ``path`` with the pickled snapshot.

    The temp file lives in the target's directory so ``os.replace`` is
    a same-filesystem rename — atomic on POSIX.  ``fsync`` before the
    rename ensures a crash never promotes an empty file.
    """
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    payload = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest()
    header = (
        f"{CHECKPOINT_FORMAT} sha256={digest} len={len(payload)}\n".encode()
    )
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc
    return path


def _verified_payload(path: str, raw: bytes) -> bytes:
    """Strip and verify the digest header; pass legacy files through."""
    if not raw.startswith(_HEADER_PREFIX):
        # Pre-digest v1 file (starts with the pickle magic): loadable
        # but unverifiable — say so rather than silently trusting it.
        warnings.warn(
            f"checkpoint {path} has no content digest (written by an "
            "older version); loading without integrity verification",
            stacklevel=3,
        )
        return raw
    line_end = raw.find(b"\n")
    if line_end < 0:
        raise CheckpointError(f"corrupt checkpoint {path}: truncated header")
    try:
        fields = dict(
            part.split(b"=", 1)
            for part in raw[len(_HEADER_PREFIX) : line_end].split()
        )
        expected = fields[b"sha256"].decode("ascii")
        length = int(fields[b"len"])
    except (KeyError, ValueError, UnicodeDecodeError) as exc:
        raise CheckpointError(
            f"corrupt checkpoint {path}: malformed header"
        ) from exc
    payload = raw[line_end + 1 :]
    if len(payload) != length:
        raise CheckpointError(
            f"corrupt checkpoint {path}: truncated payload "
            f"({len(payload)} bytes, header says {length})"
        )
    if hashlib.sha256(payload).hexdigest() != expected:
        raise CheckpointError(
            f"corrupt checkpoint {path}: content digest mismatch "
            "(bit rot or concurrent write)"
        )
    return payload


def load_checkpoint(path: str) -> SearchCheckpoint:
    """Read a snapshot back, mapping every failure to CheckpointError.

    The SHA-256 header written by :func:`write_checkpoint` is verified
    *before* unpickling, so a truncated or bit-flipped file fails
    loudly instead of feeding garbage to pickle.  Digest-less files
    from older versions still load, with a warning.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    payload = _verified_payload(path, raw)
    try:
        snapshot = pickle.loads(payload)
    except Exception as exc:  # unpickling: corrupt/truncated/foreign file
        raise CheckpointError(
            f"corrupt checkpoint {path}: {type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(snapshot, SearchCheckpoint):
        raise CheckpointError(
            f"{path} is not a search checkpoint "
            f"(got {type(snapshot).__name__})"
        )
    if snapshot.format != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path}: unsupported checkpoint format {snapshot.format!r} "
            f"(expected {CHECKPOINT_FORMAT!r})"
        )
    return snapshot


class Checkpointer:
    """Periodic snapshot writer: one file, versioned, atomic.

    A snapshot comes due once ``seconds`` of wall clock have passed
    since the last one.  The first :meth:`due` only sets the baseline,
    so a resumed search does not immediately re-write what it just
    read; ``seconds=0`` makes every later call due.
    """

    def __init__(self, path: str, seconds: float = 5.0) -> None:
        if not 0 <= seconds < math.inf:
            raise CheckpointError(
                "checkpoint interval must be finite and >= 0 seconds, "
                f"got {seconds}"
            )
        self.path = os.fspath(path)
        self.seconds = float(seconds)
        self.version = 0
        self.writes = 0
        self._next: float | None = None

    def due(self) -> bool:
        """Whether a snapshot should be written now."""
        now = time.monotonic()
        if self._next is None:
            self._next = now + self.seconds
            return False
        if now >= self._next:
            self._next = now + self.seconds
            return True
        return False

    def write(self, snapshot: SearchCheckpoint) -> str:
        snapshot.version = self.version
        snapshot.created = time.time()
        path = write_checkpoint(snapshot, self.path)
        self.version += 1
        self.writes += 1
        return path

    def resume_from(self, snapshot: SearchCheckpoint) -> None:
        """Continue the version sequence of a loaded snapshot."""
        self.version = snapshot.version + 1


class StopToken:
    """Cooperative stop flag shared between signal handlers and the loop.

    Thread- and signal-safe: setting is a single attribute write, and
    the engine only ever reads.  ``reason`` records what asked for the
    stop (``"SIGINT"``, ``"SIGTERM"``, or a caller-supplied string).
    """

    __slots__ = ("_flag", "reason")

    def __init__(self) -> None:
        self._flag = False
        self.reason: str | None = None

    def set(self, reason: str = "requested") -> None:
        self.reason = reason
        self._flag = True

    def is_set(self) -> bool:
        return self._flag

    def clear(self) -> None:
        self._flag = False
        self.reason = None


@contextlib.contextmanager
def graceful_interrupts(token: StopToken, signals=(signal.SIGINT, signal.SIGTERM)):
    """Route SIGINT/SIGTERM into ``token`` for the duration of a solve.

    The previous handlers are restored on exit.  A *second* delivery of
    the same signal re-raises the default behaviour (so a stuck process
    can still be killed with a double Ctrl-C).  Outside the main thread
    (where ``signal.signal`` raises), this is a no-op passthrough —
    the caller keeps whatever stop mechanism it already has.
    """
    if threading.current_thread() is not threading.main_thread():
        yield token
        return

    previous = {}

    def _handler(signum, frame):
        if token.is_set():
            # Second signal: restore and re-deliver — the user means it.
            signal.signal(signum, previous.get(signum, signal.SIG_DFL))
            signal.raise_signal(signum)
            return
        token.set(signal.Signals(signum).name)

    try:
        for sig in signals:
            previous[sig] = signal.signal(sig, _handler)
    except (ValueError, OSError):
        # Unsupported signal on this platform/interpreter: passthrough.
        for sig, old in previous.items():
            signal.signal(sig, old)
        yield token
        return
    try:
        yield token
    finally:
        for sig, old in previous.items():
            with contextlib.suppress(ValueError, OSError):
                signal.signal(sig, old)

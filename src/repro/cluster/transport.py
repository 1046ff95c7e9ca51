"""Transport seam: real TCP sockets, or an in-memory fake with faults.

The coordinator and worker are written against three tiny interfaces —
:class:`Connection` (send/recv/poll/close), :class:`Listener`
(accept/close) and :class:`Transport` (listen/connect) — so the entire
failure matrix is unit-testable without networking:

* :class:`TcpTransport` frames pickled dicts with a 4-byte big-endian
  length prefix over stdlib sockets.  ``recv`` buffers partial reads
  across calls, so a timeout mid-frame never loses stream sync.
* :class:`SocketPairListener` links a coordinator to worker processes
  it spawns itself over ``socket.socketpair()`` with the same framing,
  and binds no address (:class:`SocketPairTransport` is the worker end).
* :class:`MemoryTransport` connects endpoints through thread-safe
  in-process queues.  Every frame still takes a pickle round-trip
  (serialization bugs surface in unit tests, not deployments), and a
  per-link :class:`LinkFaults` script can drop, duplicate or delay
  individual frames, or partition the link wholesale.

EOF and broken pipes surface as :class:`~repro.errors.TransportClosed`
everywhere, which the cluster layer treats as a membership event.
"""

from __future__ import annotations

import pickle
import select
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass

from ..errors import ClusterError, TransportClosed

__all__ = [
    "Connection",
    "LinkFaults",
    "Listener",
    "MemoryTransport",
    "SocketPairListener",
    "SocketPairTransport",
    "TcpTransport",
    "Transport",
    "parse_address",
]

#: Frames larger than this are a protocol bug, not a workload.
MAX_FRAME = 1 << 30


def parse_address(address: str) -> tuple[str, int]:
    """Split ``"host:port"``, defaulting a bare port to localhost."""
    if ":" not in address:
        raise ClusterError(
            f"cluster address must be host:port, got {address!r}"
        )
    host, _, port = address.rpartition(":")
    try:
        return host or "127.0.0.1", int(port)
    except ValueError as exc:
        raise ClusterError(f"bad port in cluster address {address!r}") from exc


class Connection:
    """One bidirectional frame stream."""

    def send(self, frame: dict) -> None:
        raise NotImplementedError

    def recv(self, timeout: float | None = None):
        """Next frame, or None on timeout; TransportClosed on EOF."""
        raise NotImplementedError

    def poll(self) -> bool:
        """Whether a frame is deliverable right now."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class Listener:
    def accept(self, timeout: float | None = None) -> Connection | None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    @property
    def address(self) -> str:
        raise NotImplementedError


class Transport:
    def listen(self, address: str) -> Listener:
        raise NotImplementedError

    def connect(self, address: str) -> Connection:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# TCP
# ---------------------------------------------------------------------------


class _TcpConnection(Connection):
    def __init__(self, sock: socket.socket) -> None:
        if sock.family != socket.AF_UNIX:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._buf = bytearray()
        self._closed = False
        self._send_lock = threading.Lock()

    def send(self, frame: dict) -> None:
        payload = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
        if len(payload) > MAX_FRAME:
            raise ClusterError(f"frame too large: {len(payload)} bytes")
        try:
            with self._send_lock:
                self._sock.sendall(struct.pack("!I", len(payload)) + payload)
        except OSError as exc:
            raise TransportClosed(f"send failed: {exc}") from exc

    def _frame_ready(self):
        if len(self._buf) < 4:
            return None
        (length,) = struct.unpack_from("!I", self._buf)
        if length > MAX_FRAME:
            raise ClusterError(f"oversized frame announced: {length} bytes")
        if len(self._buf) < 4 + length:
            return None
        payload = bytes(self._buf[4 : 4 + length])
        del self._buf[: 4 + length]
        return pickle.loads(payload)

    def recv(self, timeout: float | None = None):
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            frame = self._frame_ready()
            if frame is not None:
                return frame
            if self._closed:
                raise TransportClosed("connection closed")
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            if remaining is not None and remaining <= 0:
                return None
            self._sock.settimeout(remaining)
            try:
                chunk = self._sock.recv(65536)
            except (socket.timeout, BlockingIOError, InterruptedError):
                return None
            except OSError as exc:
                raise TransportClosed(f"recv failed: {exc}") from exc
            if not chunk:
                raise TransportClosed("peer closed the connection")
            self._buf.extend(chunk)

    def poll(self) -> bool:
        if self._frame_peek():
            return True
        self._sock.settimeout(0.0)
        try:
            chunk = self._sock.recv(65536)
        except (BlockingIOError, socket.timeout, InterruptedError):
            return False
        except OSError as exc:
            raise TransportClosed(f"poll failed: {exc}") from exc
        if not chunk:
            raise TransportClosed("peer closed the connection")
        self._buf.extend(chunk)
        return self._frame_peek()

    def _frame_peek(self) -> bool:
        if len(self._buf) < 4:
            return False
        (length,) = struct.unpack_from("!I", self._buf)
        return len(self._buf) >= 4 + length

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


class _TcpListener(Listener):
    def __init__(self, host: str, port: int) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._sock.bind((host, port))
        except OSError as exc:
            raise ClusterError(f"cannot bind {host}:{port}: {exc}") from exc
        self._sock.listen(64)

    def accept(self, timeout: float | None = None) -> Connection | None:
        self._sock.settimeout(timeout)
        try:
            conn, _addr = self._sock.accept()
        except (socket.timeout, BlockingIOError, InterruptedError):
            # timeout=0 puts the socket in non-blocking mode, where
            # "nothing pending" is BlockingIOError rather than timeout.
            return None
        except OSError as exc:
            raise TransportClosed(f"listener closed: {exc}") from exc
        return _TcpConnection(conn)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    @property
    def address(self) -> str:
        host, port = self._sock.getsockname()[:2]
        return f"{host}:{port}"


class TcpTransport(Transport):
    """Real sockets; addresses are ``"host:port"`` strings."""

    def listen(self, address: str) -> Listener:
        host, port = parse_address(address)
        return _TcpListener(host, port)

    def connect(self, address: str) -> Connection:
        host, port = parse_address(address)
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
        except OSError as exc:
            raise TransportClosed(
                f"cannot connect to {address}: {exc}"
            ) from exc
        sock.settimeout(None)
        return _TcpConnection(sock)


# ---------------------------------------------------------------------------
# Socket pairs: workers the coordinator spawns itself
# ---------------------------------------------------------------------------


class SocketPairListener(Listener):
    """Accepts the coordinator ends of ``socket.socketpair()`` links.

    :meth:`pair` makes one link per spawned worker process: the parent
    end queues for :meth:`accept`, the child end goes to the worker
    (wrapped in :class:`SocketPairTransport`).  Nothing listens on an
    address, so no other local user can join the solve and submit a
    forged result.  ``accept(timeout)`` also returns early, with None,
    as soon as bytes arrive on any open link, so a coordinator that
    ticks on it wakes on frames instead of sleeping out the tick.
    """

    address = "socketpair"

    def __init__(self) -> None:
        self._backlog: deque = deque()
        self._links: list[_TcpConnection] = []

    def pair(self) -> socket.socket:
        """A new link; returns the child end for the worker process."""
        parent, child = socket.socketpair()
        conn = _TcpConnection(parent)
        self._backlog.append(conn)
        self._links.append(conn)
        return child

    def accept(self, timeout: float | None = None) -> Connection | None:
        if self._backlog:
            return self._backlog.popleft()
        self._links = [c for c in self._links if not c._closed]
        if self._links:
            select.select([c._sock for c in self._links], [], [], timeout)
        elif timeout:
            time.sleep(timeout)
        return None

    def close(self) -> None:
        while self._backlog:
            self._backlog.popleft().close()


class SocketPairTransport(Transport):
    """The worker end of a :class:`SocketPairListener` link."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def connect(self, address: str) -> Connection:
        return _TcpConnection(self._sock)


# ---------------------------------------------------------------------------
# In-memory fake with scripted faults
# ---------------------------------------------------------------------------


@dataclass
class LinkFaults:
    """Per-link fault script for :class:`MemoryTransport` connections.

    ``script(direction, index, frame)`` is consulted for each frame
    (``direction`` is ``"c2w"`` coordinator→worker or ``"w2c"``,
    ``index`` counts that direction's sends) and returns ``"ok"``,
    ``"drop"``, ``"dup"``, or a float delay in seconds.  ``partitioned``
    is a live toggle that silently drops everything in both directions
    — flip it mid-test to sever and heal the link.  Counters record
    what actually fired so tests can assert the fault occurred.
    """

    script: object | None = None
    partitioned: bool = False
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0

    def decide(self, direction: str, index: int, frame: dict):
        if self.partitioned:
            self.dropped += 1
            return "drop"
        if self.script is None:
            return "ok"
        action = self.script(direction, index, frame)
        if action == "drop":
            self.dropped += 1
        elif action == "dup":
            self.duplicated += 1
        elif isinstance(action, (int, float)) and action > 0:
            self.delayed += 1
        return action


class _MemoryEndpoint(Connection):
    """One end of an in-memory link; peer delivery honors LinkFaults."""

    def __init__(self, direction: str, faults: LinkFaults | None) -> None:
        self._direction = direction  # of frames *sent from* this end
        self._faults = faults
        self._peer: _MemoryEndpoint | None = None
        self._inbox: deque = deque()  # (deliver_at, frame)
        self._cond = threading.Condition()
        self._closed = False
        self._sent = 0

    def send(self, frame: dict) -> None:
        peer = self._peer
        if self._closed or peer is None or peer._closed:
            raise TransportClosed("connection closed")
        # The same fidelity as the wire: catch unpicklable frames here.
        frame = pickle.loads(pickle.dumps(frame, pickle.HIGHEST_PROTOCOL))
        index = self._sent
        self._sent += 1
        action = (
            self._faults.decide(self._direction, index, frame)
            if self._faults is not None
            else "ok"
        )
        if action == "drop":
            return
        delay = float(action) if isinstance(action, (int, float)) else 0.0
        peer._deliver(frame, delay)
        if action == "dup":
            peer._deliver(frame, 0.0)

    def _deliver(self, frame: dict, delay: float) -> None:
        with self._cond:
            self._inbox.append((time.monotonic() + delay, frame))
            self._cond.notify_all()

    def _pop_ready(self):
        now = time.monotonic()
        for _ in range(len(self._inbox)):
            deliver_at, frame = self._inbox.popleft()
            if deliver_at <= now:
                return frame
            self._inbox.append((deliver_at, frame))
        return None

    def recv(self, timeout: float | None = None):
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                frame = self._pop_ready()
                if frame is not None:
                    return frame
                if self._closed or (
                    self._peer is not None and self._peer._closed
                ):
                    if not self._inbox:
                        raise TransportClosed("peer closed the connection")
                wait = None if deadline is None else deadline - time.monotonic()
                if wait is not None and wait <= 0:
                    return None
                if self._inbox:  # delayed frames: wake when the next lands
                    next_at = min(at for at, _ in self._inbox)
                    dt = max(0.0, next_at - time.monotonic())
                    wait = dt if wait is None else min(wait, dt)
                    wait = max(wait, 1e-4)
                self._cond.wait(timeout=wait if wait is not None else 0.1)

    def poll(self) -> bool:
        with self._cond:
            frame = self._pop_ready()
            if frame is not None:
                self._inbox.appendleft((0.0, frame))
                return True
            if not self._inbox and (
                self._closed
                or (self._peer is not None and self._peer._closed)
            ):
                raise TransportClosed("peer closed the connection")
            return False

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        peer = self._peer
        if peer is not None:
            with peer._cond:
                peer._cond.notify_all()


class _MemoryListener(Listener):
    def __init__(self, address: str) -> None:
        self._address = address
        self._backlog: deque = deque()
        self._cond = threading.Condition()
        self._closed = False

    def accept(self, timeout: float | None = None) -> Connection | None:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._backlog:
                if self._closed:
                    raise TransportClosed("listener closed")
                wait = None if deadline is None else deadline - time.monotonic()
                if wait is not None and wait <= 0:
                    return None
                self._cond.wait(timeout=wait)
            return self._backlog.popleft()

    def _offer(self, conn: Connection) -> None:
        with self._cond:
            if self._closed:
                raise TransportClosed(f"{self._address}: listener closed")
            self._backlog.append(conn)
            self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def address(self) -> str:
        return self._address


class MemoryTransport(Transport):
    """In-process transport; share one instance between both sides.

    ``with_faults(faults)`` returns a view on the same address registry
    whose *outgoing connections* carry the given fault script — give
    one worker a lossy link while the rest stay clean.
    """

    def __init__(self) -> None:
        self._listeners: dict[str, _MemoryListener] = {}
        self._lock = threading.Lock()

    def listen(self, address: str) -> Listener:
        with self._lock:
            if address in self._listeners and not self._listeners[address]._closed:
                raise ClusterError(f"address already in use: {address}")
            listener = _MemoryListener(address)
            self._listeners[address] = listener
            return listener

    def connect(self, address: str, faults: LinkFaults | None = None) -> Connection:
        with self._lock:
            listener = self._listeners.get(address)
        if listener is None or listener._closed:
            raise TransportClosed(f"nothing listening on {address}")
        client = _MemoryEndpoint("w2c", faults)
        server = _MemoryEndpoint("c2w", faults)
        client._peer = server
        server._peer = client
        listener._offer(server)
        return client

    def with_faults(self, faults: LinkFaults) -> "Transport":
        return _FaultView(self, faults)


class _FaultView(Transport):
    def __init__(self, inner: MemoryTransport, faults: LinkFaults) -> None:
        self._inner = inner
        self._faults = faults

    def listen(self, address: str) -> Listener:
        return self._inner.listen(address)

    def connect(self, address: str) -> Connection:
        return self._inner.connect(address, faults=self._faults)

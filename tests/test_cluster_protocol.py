"""Wire-level tests: frames, addresses, fault scripting, TCP framing."""

import pickle
import threading

import pytest

from repro.cluster import (
    LinkFaults,
    MemoryTransport,
    TcpTransport,
    parse_address,
)
from repro.cluster import protocol
from repro.cluster.transport import MAX_FRAME
from repro.errors import ClusterError, TransportClosed


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


class TestFrames:
    def test_hello_welcome_round_trip(self):
        h = protocol.hello("w0")
        assert protocol.frame_type(h) == "hello"
        assert protocol.check_hello(h) == "w0"
        w = protocol.welcome("abc123", "problem", "params", 5.0)
        assert protocol.frame_type(w) == "welcome"
        assert w["proto"] == protocol.PROTOCOL_VERSION
        assert w["lease"] == 5.0

    def test_check_hello_rejects_wrong_magic(self):
        bad = protocol.hello("w0")
        bad["magic"] = "http"
        with pytest.raises(ClusterError, match="not a cluster worker"):
            protocol.check_hello(bad)

    def test_check_hello_rejects_version_skew(self):
        bad = protocol.hello("w0")
        bad["proto"] = protocol.PROTOCOL_VERSION + 1
        with pytest.raises(ClusterError, match="version mismatch"):
            protocol.check_hello(bad)

    def test_check_hello_rejects_missing_id(self):
        bad = protocol.hello("")
        with pytest.raises(ClusterError, match="no worker id"):
            protocol.check_hello(bad)

    def test_frame_type_rejects_junk(self):
        with pytest.raises(ClusterError, match="malformed frame"):
            protocol.frame_type([1, 2, 3])
        with pytest.raises(ClusterError, match="malformed frame"):
            protocol.frame_type({"kind": "shard"})

    def test_bound_frame_carries_epoch_and_provenance(self):
        b = protocol.bound_frame(3.25, epoch=2, shard_index=7)
        assert (b["cost"], b["epoch"], b["shard"]) == (3.25, 2, 7)
        broadcast = protocol.bound_frame(3.25, epoch=2)
        assert broadcast["shard"] == -1

    def test_work_frames_repeat_fingerprint(self):
        class _S:
            index, state, lower_bound = 4, ("s",), 1.5

        s = protocol.shard_frame(_S(), 2, 100.0, 9.0, 1, "fp")
        r = protocol.result_frame(4, 2, None, 8.0, (0,), (0.0,), False, "fp")
        st = protocol.stale_frame(4, "fp")
        for frame in (s, r, st):
            assert frame["fingerprint"] == "fp"
            assert frame["shard"] == 4


# ---------------------------------------------------------------------------
# Addresses
# ---------------------------------------------------------------------------


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("10.0.0.5:9000") == ("10.0.0.5", 9000)

    def test_bare_colon_port_defaults_to_localhost(self):
        assert parse_address(":9000") == ("127.0.0.1", 9000)

    def test_rejects_portless(self):
        with pytest.raises(ClusterError):
            parse_address("localhost")

    def test_rejects_non_numeric_port(self):
        with pytest.raises(ClusterError):
            parse_address("host:http")


# ---------------------------------------------------------------------------
# MemoryTransport + LinkFaults
# ---------------------------------------------------------------------------


class TestMemoryTransport:
    def _pair(self, faults=None):
        net = MemoryTransport()
        listener = net.listen("mem://x")
        client = net.connect("mem://x", faults=faults)
        server = listener.accept(timeout=1.0)
        return client, server, listener

    def test_round_trip_is_a_pickle_copy(self):
        client, server, _ = self._pair()
        frame = {"t": "hb", "payload": [1, 2, 3]}
        client.send(frame)
        got = server.recv(timeout=1.0)
        assert got == frame and got is not frame
        assert got["payload"] is not frame["payload"]

    def test_poll_and_eof(self):
        client, server, _ = self._pair()
        assert not server.poll()
        client.send(protocol.bye())
        assert server.poll()
        assert protocol.frame_type(server.recv(timeout=1.0)) == "bye"
        client.close()
        with pytest.raises(TransportClosed):
            server.recv(timeout=1.0)

    def test_connect_refused_without_listener(self):
        net = MemoryTransport()
        with pytest.raises(TransportClosed):
            net.connect("mem://nobody")

    def test_address_already_in_use(self):
        net = MemoryTransport()
        net.listen("mem://x")
        with pytest.raises(ClusterError, match="already in use"):
            net.listen("mem://x")

    def test_drop_script_and_counter(self):
        faults = LinkFaults(
            script=lambda d, i, f: "drop" if f["t"] == "bound" else "ok"
        )
        client, server, _ = self._pair(faults)
        client.send(protocol.bound_frame(1.0, 0))
        client.send(protocol.bye())
        assert protocol.frame_type(server.recv(timeout=1.0)) == "bye"
        assert faults.dropped == 1

    def test_dup_script_delivers_twice(self):
        faults = LinkFaults(script=lambda d, i, f: "dup")
        client, server, _ = self._pair(faults)
        client.send(protocol.heartbeat())
        assert protocol.frame_type(server.recv(timeout=1.0)) == "hb"
        assert protocol.frame_type(server.recv(timeout=1.0)) == "hb"
        assert faults.duplicated == 1

    def test_delay_script_defers_delivery(self):
        faults = LinkFaults(script=lambda d, i, f: 0.2)
        client, server, _ = self._pair(faults)
        client.send(protocol.heartbeat())
        assert server.recv(timeout=0.02) is None  # not deliverable yet
        assert protocol.frame_type(server.recv(timeout=2.0)) == "hb"
        assert faults.delayed == 1

    def test_delayed_frame_survives_peer_close(self):
        """Close must not eat frames already in flight."""
        faults = LinkFaults(script=lambda d, i, f: 0.1)
        client, server, _ = self._pair(faults)
        client.send(protocol.bye())
        client.close()
        assert protocol.frame_type(server.recv(timeout=2.0)) == "bye"
        with pytest.raises(TransportClosed):
            server.recv(timeout=0.5)

    def test_partition_toggle_severs_and_heals(self):
        faults = LinkFaults()
        client, server, _ = self._pair(faults)
        faults.partitioned = True
        client.send(protocol.heartbeat())
        assert server.recv(timeout=0.05) is None
        faults.partitioned = False
        client.send(protocol.bye())
        assert protocol.frame_type(server.recv(timeout=1.0)) == "bye"
        assert faults.dropped == 1

    def test_with_faults_scopes_to_one_link(self):
        net = MemoryTransport()
        listener = net.listen("mem://x")
        faults = LinkFaults(partitioned=True)
        lossy = net.with_faults(faults).connect("mem://x")
        clean = net.connect("mem://x")
        srv_lossy = listener.accept(timeout=1.0)
        srv_clean = listener.accept(timeout=1.0)
        lossy.send(protocol.heartbeat())
        clean.send(protocol.heartbeat())
        assert srv_lossy.recv(timeout=0.05) is None
        assert protocol.frame_type(srv_clean.recv(timeout=1.0)) == "hb"


# ---------------------------------------------------------------------------
# TCP framing
# ---------------------------------------------------------------------------


class TestTcpTransport:
    def _pair(self):
        net = TcpTransport()
        listener = net.listen("127.0.0.1:0")
        conns = {}

        def _accept():
            conns["server"] = listener.accept(timeout=5.0)

        t = threading.Thread(target=_accept)
        t.start()
        client = net.connect(listener.address)
        t.join(timeout=5.0)
        return client, conns["server"], listener

    def test_round_trip_many_frames(self):
        client, server, listener = self._pair()
        try:
            for i in range(50):
                client.send({"t": "hb", "i": i, "blob": b"x" * 1000})
            for i in range(50):
                frame = server.recv(timeout=5.0)
                assert frame["i"] == i and len(frame["blob"]) == 1000
        finally:
            client.close(), server.close(), listener.close()

    def test_partial_read_keeps_stream_sync(self):
        """A timeout mid-frame must not desync the length-prefixed stream."""
        client, server, listener = self._pair()
        try:
            big = {"t": "shard", "blob": b"y" * (1 << 20)}
            t = threading.Thread(target=client.send, args=(big,))
            t.start()
            frames = []
            for _ in range(2000):  # tiny timeouts force partial buffering
                frame = server.recv(timeout=0.001)
                if frame is not None:
                    frames.append(frame)
                    break
            t.join(timeout=5.0)
            client.send(protocol.bye())
            frames.append(server.recv(timeout=5.0))
            assert frames[0]["blob"] == big["blob"]
            assert protocol.frame_type(frames[1]) == "bye"
        finally:
            client.close(), server.close(), listener.close()

    def test_eof_is_transport_closed(self):
        client, server, listener = self._pair()
        try:
            client.close()
            with pytest.raises(TransportClosed):
                server.recv(timeout=5.0)
        finally:
            server.close(), listener.close()

    def test_nonblocking_poll_and_accept(self):
        """timeout=0 means non-blocking: must return, not raise."""
        client, server, listener = self._pair()
        try:
            assert listener.accept(timeout=0.0) is None
            assert not server.poll()
            assert server.recv(timeout=0.0) is None
            client.send(protocol.heartbeat())
            for _ in range(500):
                if server.poll():
                    break
            assert protocol.frame_type(server.recv(timeout=1.0)) == "hb"
        finally:
            client.close(), server.close(), listener.close()

    def test_oversized_frame_rejected_before_send(self, monkeypatch):
        from repro.cluster import transport as transport_mod

        monkeypatch.setattr(transport_mod, "MAX_FRAME", 4096)
        client, server, listener = self._pair()
        try:
            payload = pickle.dumps({"t": "x"})
            assert len(payload) < MAX_FRAME  # sanity: real limit is generous
            with pytest.raises(ClusterError, match="too large"):
                client.send({"t": "x", "blob": bytearray(8192)})
        finally:
            client.close(), server.close(), listener.close()

    def test_bind_conflict_raises_cluster_error(self):
        net = TcpTransport()
        listener = net.listen("127.0.0.1:0")
        try:
            with pytest.raises(ClusterError, match="cannot bind"):
                net.listen(listener.address)
        finally:
            listener.close()

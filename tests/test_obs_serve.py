"""Endpoint contracts for the live monitor's HTTP server.

Every test binds an ephemeral port on 127.0.0.1 and talks real HTTP —
the same stack ``repro solve --serve-status`` serves — so these are the
contracts the dashboard, curl users and the CI smoke job rely on:
``/status`` (JSON snapshot), ``/metrics`` (Prometheus text),
``/events`` (SSE with ring replay), ``/`` (self-contained dashboard).
"""

from __future__ import annotations

import http.client
import json
import subprocess
import sys
import textwrap
import threading
import time
import urllib.request

import pytest

from faultlib import _cli_env, hard_problem
from repro.core import BnBParameters, BranchAndBound
from repro.obs import (
    LiveMonitor,
    MetricsRegistry,
    MonitorServer,
    Observability,
    TelemetryBus,
)

PROBLEM = hard_problem(seed=0)
PARAMS = BnBParameters()


def _get(server: MonitorServer, path: str, timeout: float = 10.0):
    with urllib.request.urlopen(server.url + path, timeout=timeout) as resp:
        return resp.status, resp.headers.get_content_type(), resp.read()


@pytest.fixture
def served_bus():
    bus = TelemetryBus()
    server = MonitorServer(bus, metrics=MetricsRegistry())
    server.start()
    try:
        yield bus, server
    finally:
        server.stop()


class TestEndpoints:
    def test_status_returns_json_snapshot(self, served_bus):
        bus, server = served_bus
        bus.update(incumbent=2.5, gap=0.1, phase="solving", vps=1234.5)
        status, ctype, body = _get(server, "/status")
        assert status == 200 and ctype == "application/json"
        snap = json.loads(body)
        assert snap["status"]["incumbent"] == 2.5
        assert snap["status"]["gap"] == 0.1
        assert snap["status"]["vps"] == 1234.5
        assert "workers" in snap and "history" in snap
        assert "server_time" in snap

    def test_metrics_returns_prometheus_text(self, served_bus):
        bus, server = served_bus
        server.metrics.counter("bnb_test_total").inc(3)
        status, ctype, body = _get(server, "/metrics")
        assert status == 200 and ctype == "text/plain"
        assert b"bnb_test_total 3" in body

    def test_metrics_without_registry_says_so(self):
        server = MonitorServer(TelemetryBus())
        server.start()
        try:
            status, _, body = _get(server, "/metrics")
            assert status == 200
            assert b"no metrics registry" in body
        finally:
            server.stop()

    def test_dashboard_is_selfcontained_html(self, served_bus):
        _, server = served_bus
        status, ctype, body = _get(server, "/")
        assert status == 200 and ctype == "text/html"
        text = body.decode()
        assert "<html" in text
        # Self-contained: no external scripts or stylesheets.
        assert "<script src" not in text
        assert "stylesheet" not in text
        assert "EventSource" in text  # the SSE client
        assert "/status" in text

    def test_unknown_path_is_404(self, served_bus):
        _, server = served_bus
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, "/nope")
        assert err.value.code == 404

    def test_events_replays_ring_then_streams(self, served_bus):
        bus, server = served_bus
        bus.record_event("incumbent", {"cost": 3.25})
        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=10.0
        )
        try:
            conn.request("GET", "/events")
            resp = conn.getresponse()
            assert resp.status == 200
            assert resp.headers.get_content_type() == "text/event-stream"
            # The pre-connect event must be replayed from the ring.
            seen = []
            while True:
                line = resp.fp.readline().decode()
                seen.append(line)
                if line.startswith("data:"):
                    break
            assert any(line == "event: incumbent\n" for line in seen)
            payload = json.loads(seen[-1][len("data:"):])
            assert payload["cost"] == 3.25
        finally:
            conn.close()

    def test_port_is_ephemeral_and_url_matches(self, served_bus):
        _, server = served_bus
        assert server.port > 0
        assert server.url == f"http://127.0.0.1:{server.port}"

    def test_stop_is_idempotent(self):
        server = MonitorServer(TelemetryBus())
        server.start()
        server.stop()
        server.stop()

    def test_stop_without_clients_is_prompt(self):
        # ``repro solve --serve-status`` pays for stop() at every exit.
        server = MonitorServer(TelemetryBus())
        t0 = time.perf_counter()
        server.start()
        server.stop()
        assert time.perf_counter() - t0 < 0.2


    def test_stop_ends_open_event_streams_at_once(self, served_bus):
        _, server = served_bus
        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=10.0
        )
        try:
            conn.request("GET", "/events")
            assert conn.getresponse().status == 200
            time.sleep(0.1)  # the stream is now blocked on the bus
            t0 = time.perf_counter()
            server.stop()
            assert time.perf_counter() - t0 < 0.5
        finally:
            conn.close()

    def test_status_reply_in_flight_at_stop_arrives_whole(self):
        # ``repro solve --serve-status`` exits right after stop(): a
        # /status reply still being built then must reach the poller
        # whole, not cut off after its headers by the process exit.
        script = textwrap.dedent("""
            import threading, time
            from repro.obs import MonitorServer, TelemetryBus

            bus = TelemetryBus()
            entered = threading.Event()
            snapshot = bus.snapshot

            def slow_snapshot():
                entered.set()
                time.sleep(0.3)
                return snapshot()

            bus.snapshot = slow_snapshot
            server = MonitorServer(bus)
            server.start()
            print(server.port, flush=True)
            entered.wait(30)
            server.stop()
        """)
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, text=True, env=_cli_env(),
        )
        try:
            port = int(proc.stdout.readline())
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
            conn.request("GET", "/status")
            resp = conn.getresponse()
            body = resp.read()
            conn.close()
            assert proc.wait(timeout=30) == 0
        finally:
            proc.kill()
            proc.stdout.close()
        assert len(body) == int(resp.headers["Content-Length"])
        assert "server_time" in json.loads(body)


class TestServingARunningSolve:
    def test_status_reflects_live_then_terminal_state(self):
        monitor = LiveMonitor(interval=0.0)
        server = MonitorServer(monitor.bus)
        server.start()
        try:
            done = threading.Event()
            results = {}

            def run():
                results["result"] = BranchAndBound(
                    PARAMS, obs=Observability(live=monitor)
                ).solve(PROBLEM)
                done.set()

            thread = threading.Thread(target=run)
            thread.start()
            # Poll the real endpoint while (and after) the solve runs.
            deadline = time.monotonic() + 30.0
            snap = None
            while time.monotonic() < deadline:
                _, _, body = _get(server, "/status")
                snap = json.loads(body)
                if snap["status"].get("phase") == "done":
                    break
                time.sleep(0.005)
            thread.join(timeout=30.0)
            assert done.is_set()
            result = results["result"]
            assert snap is not None
            assert snap["status"]["phase"] == "done"
            assert snap["status"]["incumbent"] == result.best_cost
            assert snap["status"]["gap"] == 0.0  # optimal terminal state
            assert snap["status"]["explored"] == result.stats.explored
            assert "vps" in snap["status"]
            # The solve's lifecycle events reached the SSE ring.
            _, _, body = _get(server, "/status")
            assert json.loads(body)["events_seen"] >= 2  # start + summary
        finally:
            server.stop()

"""Stdlib-only HTTP monitor for live solves (``--serve-status``).

A :class:`MonitorServer` wraps a :class:`~repro.obs.live.TelemetryBus`
in a ``ThreadingHTTPServer`` (daemon threads, ephemeral port by
default) with four endpoints:

* ``GET /status`` — the bus snapshot as JSON: incumbent, optimality
  gap, vertices/second, frontier depth profile, TT occupancy, per-rule
  prune counts, per-worker gauges and the sparkline history.
* ``GET /metrics`` — the attached
  :class:`~repro.obs.metrics.MetricsRegistry` in Prometheus text
  exposition format (the existing exporter, served instead of written
  to a textfile).
* ``GET /events`` — Server-Sent Events: the bus ring is replayed on
  connect (so a late subscriber still sees the incumbents so far) and
  new low-frequency events (incumbent / checkpoint / worker_restart /
  resource / summary …) stream as they happen.
* ``GET /`` — a self-contained HTML dashboard (no external assets):
  stat tiles, gap-vs-time and vps sparklines, the worker table and a
  live event log.

The server never touches the solve: it only reads bus copies, so a
slow or hostile client cannot stall the engine.  Binding defaults to
loopback; the dashboard is diagnostics, not a public surface.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .live import TelemetryBus
from .metrics import MetricsRegistry

__all__ = ["MonitorServer", "DASHBOARD_HTML"]

#: Seconds between the serve loop's shutdown checks.  ``stop`` waits up
#: to one interval; the stdlib default of 0.5 s delayed every monitored
#: solve's exit by about that much.
_POLL_INTERVAL = 0.05

#: Seconds ``stop`` waits, in all, for request handlers still answering.
#: A reply in flight is finished rather than cut off at process exit; a
#: client that stalls its own read cannot hold the solve's exit longer.
_HANDLER_WAIT = 2.0


class _MonitorHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    # Attached by MonitorServer before serving:
    bus: TelemetryBus
    metrics: MetricsRegistry | None
    stopping: threading.Event

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Handler threads that may still be answering.  Daemon threads
        #: are not joined by ``server_close``, so ``stop`` joins these.
        self.handlers: list[threading.Thread] = []

    def process_request(self, request, client_address) -> None:
        # Recorded before it starts, so a request accepted before
        # ``shutdown`` returns is always one ``stop`` waits for.
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            daemon=True,
        )
        self.handlers = [t for t in self.handlers if t.is_alive()]
        self.handlers.append(thread)
        thread.start()


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-monitor/1"

    # The monitor is diagnostics; request logging would fight the
    # stderr heartbeat for the terminal.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0]
        try:
            if path == "/status":
                self._serve_status()
            elif path == "/metrics":
                self._serve_metrics()
            elif path == "/events":
                self._serve_events()
            elif path in ("/", "/index.html"):
                self._serve_body(DASHBOARD_HTML.encode(), "text/html")
            else:
                self.send_error(404, "unknown endpoint")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up

    def _serve_body(self, body: bytes, content_type: str) -> None:
        self.send_response(200)
        self.send_header("Content-Type", f"{content_type}; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(body)

    def _serve_status(self) -> None:
        snapshot = self.server.bus.snapshot()
        snapshot["server_time"] = round(time.time(), 3)
        self._serve_body(
            json.dumps(snapshot).encode(), "application/json"
        )

    def _serve_metrics(self) -> None:
        registry = self.server.metrics
        text = (
            registry.to_prometheus()
            if registry is not None
            else "# no metrics registry attached\n"
        )
        self._serve_body(text.encode(), "text/plain; version=0.0.4")

    def _serve_events(self) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        bus = self.server.bus
        stopping = self.server.stopping
        seq = 0
        while not stopping.is_set():
            events = bus.events_since(seq, timeout=1.0)
            if events:
                seq = events[-1]["seq"]
                chunks = []
                for event in events:
                    data = json.dumps(event, separators=(",", ":"))
                    chunks.append(
                        f"id: {event['seq']}\n"
                        f"event: {event['ev']}\n"
                        f"data: {data}\n\n"
                    )
                self.wfile.write("".join(chunks).encode())
            else:
                self.wfile.write(b": keepalive\n\n")
            self.wfile.flush()


class MonitorServer:
    """Owns the HTTP thread serving one bus (and optional registry).

    ``port=0`` binds an ephemeral port; read :attr:`port` (or
    :attr:`url`) after :meth:`start`.  ``stop`` is idempotent, ends
    open SSE streams and lets replies in flight finish.
    """

    def __init__(
        self,
        bus: TelemetryBus,
        *,
        metrics: MetricsRegistry | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.bus = bus
        self.metrics = metrics
        self.host = host
        self._requested_port = port
        self._server: _MonitorHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        if self._server is None:
            return self._requested_port
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> int:
        """Bind and serve on a daemon thread; returns the bound port."""
        server = _MonitorHTTPServer(
            (self.host, self._requested_port), _Handler
        )
        server.bus = self.bus
        server.metrics = self.metrics
        server.stopping = threading.Event()
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever,
            args=(_POLL_INTERVAL,),
            name="repro-monitor",
            daemon=True,
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        """Stop serving; replies in flight finish first (bounded wait).

        Open ``/events`` streams are woken and end at once; a ``/status``
        or ``/metrics`` reply being written completes, so a poller never
        reads a response cut off after its headers.
        """
        server = self._server
        if server is None:
            return
        server.stopping.set()
        self.bus.wake()
        server.shutdown()
        due = time.monotonic() + _HANDLER_WAIT
        for thread in server.handlers:
            thread.join(max(0.0, due - time.monotonic()))
        server.server_close()
        self._server = None

    def __enter__(self) -> MonitorServer:
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


#: The dashboard: one self-contained page, zero external requests
#: beyond its own /status polls and /events stream.  Colors follow the
#: repo's validated reference palette (categorical slots 1-2, light and
#: dark steps); text wears text tokens, never series color.
DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro live monitor</title>
<style>
  :root {
    color-scheme: light;
    --surface: #fcfcfb; --panel: #f3f2ef;
    --text-primary: #0b0b0b; --text-secondary: #52514e;
    --grid: #dddcd6;
    --series-vps: #2a78d6;   /* categorical slot 1 (blue)   */
    --series-gap: #eb6834;   /* categorical slot 2 (orange) */
  }
  @media (prefers-color-scheme: dark) {
    :root {
      color-scheme: dark;
      --surface: #1a1a19; --panel: #242422;
      --text-primary: #ffffff; --text-secondary: #c3c2b7;
      --grid: #3a3935;
      --series-vps: #3987e5; --series-gap: #d95926;
    }
  }
  body { margin: 0; padding: 1rem 1.25rem; background: var(--surface);
         color: var(--text-primary);
         font: 14px/1.45 system-ui, -apple-system, sans-serif; }
  h1 { font-size: 1.05rem; margin: 0 0 .75rem; font-weight: 600; }
  h1 small { color: var(--text-secondary); font-weight: 400; }
  .tiles { display: flex; flex-wrap: wrap; gap: .6rem; margin-bottom: 1rem; }
  .tile { background: var(--panel); border-radius: 8px;
          padding: .5rem .8rem; min-width: 7.5rem; }
  .tile .k { color: var(--text-secondary); font-size: .72rem;
             text-transform: uppercase; letter-spacing: .04em; }
  .tile .v { font-size: 1.25rem; font-variant-numeric: tabular-nums; }
  .charts { display: flex; flex-wrap: wrap; gap: 1rem; margin-bottom: 1rem; }
  .chart { background: var(--panel); border-radius: 8px; padding: .6rem .8rem;
           position: relative; }
  .chart .k { color: var(--text-secondary); font-size: .72rem;
              text-transform: uppercase; letter-spacing: .04em;
              margin-bottom: .25rem; }
  .chart .latest { position: absolute; top: .6rem; right: .8rem;
                   color: var(--text-secondary); font-size: .8rem;
                   font-variant-numeric: tabular-nums; }
  svg { display: block; }
  .tip { position: absolute; pointer-events: none; display: none;
         background: var(--surface); color: var(--text-primary);
         border: 1px solid var(--grid); border-radius: 4px;
         padding: .15rem .4rem; font-size: .72rem; white-space: nowrap; }
  table { border-collapse: collapse; font-variant-numeric: tabular-nums;
          margin-bottom: 1rem; }
  th, td { text-align: right; padding: .2rem .7rem; }
  th { color: var(--text-secondary); font-weight: 500; font-size: .75rem;
       text-transform: uppercase; letter-spacing: .04em;
       border-bottom: 1px solid var(--grid); }
  td.dead { color: var(--text-secondary); }
  #log { background: var(--panel); border-radius: 8px; padding: .6rem .8rem;
         max-height: 16rem; overflow-y: auto;
         font: 12px/1.5 ui-monospace, monospace; }
  #log .t { color: var(--text-secondary); }
  .sec { color: var(--text-secondary); font-size: .72rem;
         text-transform: uppercase; letter-spacing: .04em;
         margin: 0 0 .3rem; }
</style>
</head>
<body>
<h1>repro live monitor <small id="phase"></small></h1>
<div class="tiles" id="tiles"></div>
<div class="charts">
  <div class="chart"><div class="k">optimality gap vs time</div>
    <span class="latest" id="gap-latest"></span>
    <svg id="spark-gap" width="340" height="72"></svg>
    <div class="tip" id="tip-gap"></div></div>
  <div class="chart"><div class="k">vertices / second vs time</div>
    <span class="latest" id="vps-latest"></span>
    <svg id="spark-vps" width="340" height="72"></svg>
    <div class="tip" id="tip-vps"></div></div>
</div>
<div id="workers-box" style="display:none">
  <p class="sec">workers</p>
  <table id="workers"><thead><tr>
    <th>slot</th><th>shard</th><th>~explored</th><th>v/s</th>
    <th>restarts</th><th>beat age</th><th>state</th>
  </tr></thead><tbody></tbody></table>
</div>
<p class="sec">events</p>
<div id="log"></div>
<script>
"use strict";
const fmt = (x, d) => x == null ? "–"
  : Number(x).toLocaleString("en-US", {maximumFractionDigits: d ?? 2});

function tiles(s) {
  const items = [
    ["incumbent", fmt(s.incumbent, 4)],
    ["gap", fmt(s.gap, 4)],
    ["v/s", fmt(s.vps, 0)],
    ["explored", fmt(s.explored, 0)],
    ["active", fmt(s.active, 0)],
    ["tt fill", s.tt_occupancy == null ? "–"
       : (100 * s.tt_occupancy).toFixed(1) + "%"],
    ["tt hits", s.tt_hit_rate == null ? "–"
       : (100 * s.tt_hit_rate).toFixed(1) + "%"],
  ];
  document.getElementById("tiles").innerHTML = items.map(
    ([k, v]) => `<div class="tile"><div class="k">${k}</div>` +
                `<div class="v">${v}</div></div>`).join("");
  document.getElementById("phase").textContent =
    s.phase ? `· ${s.result_status || s.phase}` : "";
}

function spark(svgId, tipId, pts, cssVar) {
  const svg = document.getElementById(svgId);
  const tip = document.getElementById(tipId);
  const W = svg.width.baseVal.value, H = svg.height.baseVal.value;
  const P = 4;
  svg.replaceChildren();
  if (pts.length < 2) return;
  const xs = pts.map(p => p[0]), ys = pts.map(p => p[1]);
  const x0 = Math.min(...xs), x1 = Math.max(...xs);
  const ylo = Math.min(...ys), yhi = Math.max(...ys);
  const sx = t => P + (W - 2 * P) * (x1 > x0 ? (t - x0) / (x1 - x0) : 0);
  const sy = v => H - P - (H - 2 * P) *
    (yhi > ylo ? (v - ylo) / (yhi - ylo) : 0.5);
  const NS = "http://www.w3.org/2000/svg";
  const mid = document.createElementNS(NS, "line");  // recessive midline
  mid.setAttribute("x1", P); mid.setAttribute("x2", W - P);
  mid.setAttribute("y1", H / 2); mid.setAttribute("y2", H / 2);
  mid.setAttribute("stroke", "var(--grid)");
  svg.appendChild(mid);
  const line = document.createElementNS(NS, "polyline");
  line.setAttribute("points",
    pts.map(p => `${sx(p[0]).toFixed(1)},${sy(p[1]).toFixed(1)}`).join(" "));
  line.setAttribute("fill", "none");
  line.setAttribute("stroke", `var(${cssVar})`);
  line.setAttribute("stroke-width", "2");
  line.setAttribute("stroke-linejoin", "round");
  svg.appendChild(line);
  const cross = document.createElementNS(NS, "line");
  cross.setAttribute("y1", P); cross.setAttribute("y2", H - P);
  cross.setAttribute("stroke", "var(--text-secondary)");
  cross.setAttribute("visibility", "hidden");
  svg.appendChild(cross);
  svg.onmousemove = ev => {
    const r = svg.getBoundingClientRect();
    const mx = ev.clientX - r.left;
    let best = 0, dist = Infinity;
    pts.forEach((p, i) => {
      const d = Math.abs(sx(p[0]) - mx);
      if (d < dist) { dist = d; best = i; }
    });
    const p = pts[best], px = sx(p[0]);
    cross.setAttribute("x1", px); cross.setAttribute("x2", px);
    cross.setAttribute("visibility", "visible");
    tip.style.display = "block";
    tip.style.left = Math.min(px + 10, r.width - 90) + "px";
    tip.style.top = "1.6rem";
    tip.textContent = `${p[0].toFixed(1)}s · ${fmt(p[1], 3)}`;
  };
  svg.onmouseleave = () => {
    cross.setAttribute("visibility", "hidden");
    tip.style.display = "none";
  };
}

function workers(list) {
  const box = document.getElementById("workers-box");
  if (!list.length) { box.style.display = "none"; return; }
  box.style.display = "";
  document.querySelector("#workers tbody").innerHTML = list.map(w =>
    `<tr class="${w.alive ? "" : "dead"}"><td>${w.slot}</td>` +
    `<td>${w.shard ?? "–"}</td><td>${fmt(w.explored, 0)}</td>` +
    `<td>${fmt(w.vps, 0)}</td><td>${w.restarts}</td>` +
    `<td>${w.heartbeat_age.toFixed(1)}s</td>` +
    `<td>${w.alive ? "alive" : "down"}</td></tr>`).join("");
}

async function poll() {
  try {
    const r = await fetch("/status");
    const snap = await r.json();
    tiles(snap.status);
    workers(snap.workers);
    const gap = snap.history.filter(h => h.gap != null)
                            .map(h => [h.elapsed, h.gap]);
    const vps = snap.history.map(h => [h.elapsed, h.vps]);
    spark("spark-gap", "tip-gap", gap, "--series-gap");
    spark("spark-vps", "tip-vps", vps, "--series-vps");
    const last = snap.history.at(-1);
    document.getElementById("gap-latest").textContent =
      last && last.gap != null ? fmt(last.gap, 4) : "";
    document.getElementById("vps-latest").textContent =
      last ? fmt(last.vps, 0) + " v/s" : "";
  } catch (e) { /* solve (and server) may be gone; keep trying */ }
}
poll();
setInterval(poll, 1000);

const log = document.getElementById("log");
const es = new EventSource("/events");
es.onmessage = () => {};
["start", "incumbent", "checkpoint", "resume", "resource", "tt",
 "worker_restart", "shard_retry", "quarantine", "summary",
 "worker_join", "worker_leave", "lease_expired", "steal",
].forEach(kind => es.addEventListener(kind, ev => {
  const e = JSON.parse(ev.data);
  const line = document.createElement("div");
  const detail = Object.entries(e)
    .filter(([k]) => !["seq", "t", "ev"].includes(k))
    .map(([k, v]) => `${k}=${typeof v === "number" ? fmt(v, 4) : v}`)
    .join(" ");
  line.innerHTML = `<span class="t">${e.t.toFixed(1)}s</span> ` +
                   `<b>${e.ev}</b> ${detail}`;
  log.prepend(line);
  while (log.childElementCount > 200) log.lastChild.remove();
}));
</script>
</body>
</html>
"""

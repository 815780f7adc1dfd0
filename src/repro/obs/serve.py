"""The campaign control plane: live endpoints over the sketch stream.

A running campaign with ``--live`` (or ``repro obs serve``) publishes
periodic snapshots into a :class:`StreamPublisher` — pre-encoded JSON
blobs behind a lock — and a :class:`ControlServer` (stdlib
``http.server``, one daemon thread) serves them:

* ``GET /``         — the single-page live dashboard;
* ``GET /status``   — campaign phase / progress / runtime notes;
* ``GET /metrics``  — the current metrics snapshot (when enabled);
* ``GET /sketches`` — the current sketch snapshot (render it with
  ``repro obs report URL`` or feed it back into the dashboard);
* ``GET|POST /stop`` — request a graceful early stop: the campaign
  finishes the current tick, drains submitted crawls, and returns a
  normal :class:`~repro.scenario.run.CampaignResult` with
  ``stopped_early`` set.

The serving side never touches the simulation: the campaign thread
*pushes* snapshots on a wall-clock throttle (no RNG draws, no sim-state
reads from the server thread), so ``--live`` cannot perturb outputs any
more than ``--progress`` does.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.request import urlopen

__all__ = [
    "ControlServer",
    "StreamPublisher",
    "fetch_json",
    "parse_address",
]


def parse_address(address: str) -> Tuple[str, int]:
    """``"127.0.0.1:8733"`` → ``("127.0.0.1", 8733)``; bare host → port 0
    (the OS picks a free port, reported by :attr:`ControlServer.url`)."""
    host, _, port = address.partition(":")
    return host or "127.0.0.1", int(port) if port else 0


def fetch_json(url: str, timeout: float = 5.0) -> Dict[str, object]:
    """GET ``url`` and decode the JSON body (used by ``repro obs report``
    when pointed at a live ``/sketches`` endpoint)."""
    with urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


class StreamPublisher:
    """Thread-safe mailbox between the campaign loop and the server.

    The campaign thread :meth:`publish`\\ es whole snapshots (encoded
    once, outside the lock); request handlers :meth:`get` the latest
    blob.  ``/stop`` flips an event the campaign polls once per tick.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._blobs: Dict[str, bytes] = {}
        self._stop = threading.Event()

    def publish(self, name: str, payload: Dict[str, object]) -> None:
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        with self._lock:
            self._blobs[name] = blob

    def get(self, name: str) -> Optional[bytes]:
        with self._lock:
            return self._blobs.get(name)

    def request_stop(self) -> None:
        self._stop.set()

    @property
    def stop_requested(self) -> bool:
        return self._stop.is_set()


class _ControlHandler(BaseHTTPRequestHandler):
    """Routes the endpoint set; the publisher arrives via the server."""

    server_version = "repro-obs/1"

    def _respond(self, body: bytes, content_type: str = "application/json") -> None:
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _publisher(self) -> StreamPublisher:
        return self.server.publisher  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/":
            self._respond(DASHBOARD_HTML.encode("utf-8"), "text/html; charset=utf-8")
        elif path in ("/status", "/metrics", "/sketches"):
            blob = self._publisher().get(path[1:])
            self._respond(blob if blob is not None else b"{}")
        elif path == "/stop":
            self._publisher().request_stop()
            self._respond(b'{"stopping": true}')
        else:
            self.send_error(404, "unknown endpoint")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path.split("?", 1)[0].rstrip("/") == "/stop":
            self._publisher().request_stop()
            self._respond(b'{"stopping": true}')
        else:
            self.send_error(404, "unknown endpoint")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep stderr clean; the heartbeat owns the terminal


class ControlServer:
    """The stdlib HTTP server wrapping a :class:`StreamPublisher`.

    Binding happens in the constructor, so :attr:`url` (including an
    OS-assigned port for ``host:0``) is known before :meth:`start`.
    """

    def __init__(self, address: str = "127.0.0.1:0", publisher: Optional[StreamPublisher] = None) -> None:
        host, port = parse_address(address)
        self.publisher = publisher if publisher is not None else StreamPublisher()
        self._server = ThreadingHTTPServer((host, port), _ControlHandler)
        self._server.daemon_threads = True
        self._server.publisher = self.publisher  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ControlServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="repro-obs-serve",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "ControlServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# the single-page dashboard
# ---------------------------------------------------------------------------
# Colors are the validated reference palette (dark mode): surface
# #1a1a19, text #ffffff / #c3c2b7 / #898781, gridline #2c2c2a, and the
# categorical order blue #3987e5 / orange #d95926 / aqua #199e70 /
# yellow #c98500.  Identity rides labels, never color alone; values and
# labels wear text tokens; marks are thin with a surface gap.

DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro · live campaign</title>
<style>
  :root {
    --surface: #1a1a19; --panel: #222220; --grid: #2c2c2a;
    --text: #ffffff; --text-2: #c3c2b7; --muted: #898781;
    --blue: #3987e5; --orange: #d95926; --aqua: #199e70; --yellow: #c98500;
  }
  body { background: var(--surface); color: var(--text-2);
         font: 14px/1.45 system-ui, sans-serif; margin: 0; padding: 24px; }
  h1 { color: var(--text); font-size: 18px; font-weight: 600; margin: 0 0 4px; }
  #phase { color: var(--muted); margin-bottom: 20px; }
  .tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 24px; }
  .tile { background: var(--panel); border: 1px solid var(--grid);
          border-radius: 8px; padding: 14px 18px; min-width: 150px; }
  .tile .v { color: var(--text); font-size: 26px; font-weight: 650;
             font-variant-numeric: tabular-nums; }
  .tile .k { color: var(--muted); font-size: 12px; margin-top: 2px; }
  .charts { display: grid; grid-template-columns: repeat(auto-fit, minmax(320px, 1fr));
            gap: 20px; }
  .chart { background: var(--panel); border: 1px solid var(--grid);
           border-radius: 8px; padding: 16px 18px; }
  .chart h2 { color: var(--text); font-size: 13px; font-weight: 600;
              margin: 0 0 12px; }
  .row { display: grid; grid-template-columns: 160px 1fr 58px;
         align-items: center; gap: 10px; margin: 6px 0; }
  .row .l { color: var(--text-2); font-size: 12px; overflow: hidden;
            text-overflow: ellipsis; white-space: nowrap; }
  .row .v { color: var(--text-2); font-size: 12px; text-align: right;
            font-variant-numeric: tabular-nums; }
  .bar { height: 10px; background: var(--grid); border-radius: 4px; }
  .bar i { display: block; height: 100%; border-radius: 4px; min-width: 2px; }
  #stop { background: none; border: 1px solid var(--grid); color: var(--text-2);
          border-radius: 6px; padding: 6px 14px; cursor: pointer; float: right; }
  #stop:hover { border-color: var(--orange); color: var(--text); }
</style>
</head>
<body>
<button id="stop" onclick="fetch('/stop', {method: 'POST'}).then(poll)">stop campaign</button>
<h1>repro · live campaign analytics</h1>
<div id="phase">connecting…</div>
<div class="tiles" id="tiles"></div>
<div class="charts">
  <div class="chart"><h2>Request classes (share of DHT log)</h2><div id="classes"></div></div>
  <div class="chart"><h2>Cloud providers (share of volume)</h2><div id="providers"></div></div>
  <div class="chart"><h2>Top peers (requests)</h2><div id="peers"></div></div>
  <div class="chart"><h2>Top requested CIDs</h2><div id="cids"></div></div>
</div>
<script>
const fmtPct = x => (100 * x).toFixed(1) + '%';
const fmtNum = x => Number(x).toLocaleString('en-US');
// One hue per chart: these are magnitude bars of one measure, not
// multi-series identity, so a single accent each is the correct coding.
function bars(id, rows, hue, fmt) {
  const el = document.getElementById(id);
  if (!rows.length) { el.innerHTML = '<div class="l" style="color:var(--muted)">no data yet</div>'; return; }
  const max = Math.max(...rows.map(r => r[1])) || 1;
  el.innerHTML = rows.map(r =>
    `<div class="row"><div class="l" title="${r[0]}">${r[0]}</div>` +
    `<div class="bar"><i style="width:${Math.max(1, 100 * r[1] / max)}%;background:${hue}"></i></div>` +
    `<div class="v">${fmt(r[1])}</div></div>`).join('');
}
function tile(value, label) {
  return `<div class="tile"><div class="v">${value}</div><div class="k">${label}</div></div>`;
}
async function poll() {
  try {
    const [status, sketches] = await Promise.all([
      fetch('/status').then(r => r.json()),
      fetch('/sketches').then(r => r.json()),
    ]);
    const h = sketches.headline || {};
    document.getElementById('phase').textContent =
      `${status.state || 'running'} · phase ${status.phase || '—'}` +
      (status.day ? ` · day ${status.day}` : '') +
      (status.tick ? ` · tick ${status.tick}` : '') +
      (status.crawls ? ` · crawls ${status.crawls}` : '');
    document.getElementById('tiles').innerHTML =
      tile(fmtNum(sketches.events || 0), 'monitor events') +
      tile(fmtPct(h.cloud_share_by_volume || 0), 'cloud share (volume)') +
      tile(fmtPct(h.gateway_share_by_volume || 0), 'gateway share') +
      tile(fmtPct(h.top1pct_peer_share || 0), 'top-1% peer concentration') +
      tile(h.top_provider || '—', 'top cloud provider');
    bars('classes', Object.entries(h.class_shares || {}).sort((a, b) => b[1] - a[1]),
         'var(--blue)', fmtPct);
    bars('providers', Object.entries(h.provider_shares_by_volume || {}).sort((a, b) => b[1] - a[1]),
         'var(--orange)', fmtPct);
    const top = sketches.top || {};
    bars('peers', (top.peers || []).map(e => [e[0], e[1]]), 'var(--aqua)', fmtNum);
    bars('cids', (top.cids || []).map(e => [e[0], e[1]]), 'var(--yellow)', fmtNum);
    if (status.state === 'done' || status.state === 'stopped') {
      document.getElementById('stop').disabled = true;
      return;  // final snapshot rendered; stop polling
    }
  } catch (err) {
    document.getElementById('phase').textContent = 'campaign not reachable (finished?)';
    return;
  }
  setTimeout(poll, 2000);
}
poll();
</script>
</body>
</html>
"""

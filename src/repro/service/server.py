"""Dependency-free HTTP app over the run repository and job queue.

``repro serve`` binds a :class:`DashboardServer`; every endpoint is plain
``http.server`` + JSON so the dashboard works wherever the simulator does:

====================  =====================================================
``GET /``             single-page dashboard (HTML, no external assets)
``GET /summary``      repository counts + queue totals (stat tiles)
``GET /runs``         run summaries; filters ``kind``/``fp``/``label``/
                      ``source``/``limit``
``GET /runs/<id>``    full run detail (stats, sim-rate, QoS, views) plus a
                      pre-rendered text report when telemetry views exist
``GET /compare``      cross-run sim-rate trend groups (``fp``/``label``)
``GET /queue``        queue snapshot (jobs newest-first, state totals)
``GET /events``       queue event feed over SSE (``since``/``limit``/
                      ``poll``; ``limit`` bounds the stream for tests)
``GET /events.json``  same feed as one JSON page (``since``/``limit``)
``POST /submit``      submit a job spec (or ``{"jobs": [...]}``) to the
                      queue; deduped against repository + in-flight jobs
====================  =====================================================

The server is threaded (one request per thread) and the repository keeps
one WAL-mode connection per thread, so dashboard reads never block queue
writers.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from .repository import RunRepository

#: SSE keep-alive comment interval / bounded-poll default, seconds.
DEFAULT_POLL_SECONDS = 15.0

#: How often ``serve_forever`` checks for ``stop()``, seconds; ``stop``
#: waits up to this long (http.server's default is 0.5 s).
SHUTDOWN_POLL_SECONDS = 0.05


def _first(query: dict, key: str, default: Optional[str] = None):
    values = query.get(key)
    return values[0] if values else default


class _Handler(BaseHTTPRequestHandler):
    """Routes one request against the owning :class:`DashboardServer`."""

    app: "DashboardServer"  # injected per-server subclass
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------------
    def log_message(self, fmt, *args):  # pragma: no cover - quiet by design
        if self.app.verbose:
            super().log_message(fmt, *args)

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _json(self, payload: object, status: int = 200) -> None:
        body = json.dumps(payload, indent=1).encode("utf-8")
        self._send(status, body, "application/json; charset=utf-8")

    def _error(self, status: int, message: str) -> None:
        self._json({"error": message}, status=status)

    # -- GET ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        query = parse_qs(parsed.query)
        try:
            if route == "/" or route == "/index.html":
                from .dashboard import DASHBOARD_HTML
                self._send(200, DASHBOARD_HTML.encode("utf-8"),
                           "text/html; charset=utf-8")
            elif route == "/summary":
                self._json(self._summary())
            elif route == "/runs":
                self._json({"runs": self.app.repository.list_runs(
                    kind=_first(query, "kind"),
                    fingerprint=_first(query, "fp"),
                    label=_first(query, "label"),
                    source=_first(query, "source"),
                    limit=int(_first(query, "limit", "200")))})
            elif route.startswith("/runs/"):
                self._run_detail(route[len("/runs/"):])
            elif route == "/compare":
                self._json({"groups": self.app.repository.compare(
                    fingerprint=_first(query, "fp"),
                    label=_first(query, "label"),
                    limit=int(_first(query, "limit", "1000")))})
            elif route == "/queue":
                queue = self.app.queue
                self._json(queue.snapshot() if queue is not None else
                           {"jobs": [], "by_state": {}, "simulated": 0,
                            "workers": 0, "events": 0})
            elif route == "/events.json":
                self._events_json(query)
            elif route == "/events":
                self._events_sse(query)
            else:
                self._error(404, "no such endpoint: %s" % route)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass
        except Exception as exc:  # defensive: surface, don't kill the thread
            try:
                self._error(500, "%s: %s" % (type(exc).__name__, exc))
            except (BrokenPipeError, ConnectionResetError,
                    OSError):  # pragma: no cover
                pass

    def _summary(self) -> dict:
        summary = self.app.repository.counts()
        queue = self.app.queue
        if queue is not None:
            snap = queue.snapshot()
            summary["queue"] = {"by_state": snap["by_state"],
                                "simulated": snap["simulated"],
                                "workers": snap["workers"],
                                "events": snap["events"]}
        else:
            summary["queue"] = None
        return summary

    def _run_detail(self, raw_id: str) -> None:
        try:
            run_id = int(raw_id)
        except ValueError:
            self._error(400, "run id must be an integer")
            return
        detail = self.app.repository.get(run_id)
        if detail is None:
            self._error(404, "no run %d" % run_id)
            return
        if detail.get("views"):
            from ..harness.report import render_telemetry_views
            detail["report"] = render_telemetry_views(detail["views"])
        self._json(detail)

    # -- event feeds ----------------------------------------------------------
    def _events_json(self, query: dict) -> None:
        since = int(_first(query, "since", "0"))
        limit = int(_first(query, "limit", "500"))
        queue = self.app.queue
        events = queue.events(since, limit) if queue is not None else []
        self._json({"events": events,
                    "next": events[-1]["seq"] if events else since})

    def _events_sse(self, query: dict) -> None:
        """Server-sent events: stream queue transitions + heartbeats.

        ``limit`` bounds the number of events then closes the stream (the
        smoke test's mode); without it the stream stays open, emitting a
        keep-alive comment every ``poll`` seconds of silence.
        """
        since = int(_first(query, "since", "0"))
        raw_limit = _first(query, "limit")
        limit = int(raw_limit) if raw_limit else None
        poll = float(_first(query, "poll", str(DEFAULT_POLL_SECONDS)))
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        queue = self.app.queue
        if queue is None:
            self.wfile.write(b": no queue attached\n\n")
            self.wfile.flush()
            return
        sent = 0
        while True:
            events = queue.wait_events(since, timeout=poll)
            if not events:
                self.wfile.write(b": keep-alive\n\n")
                self.wfile.flush()
                if limit is not None:
                    return  # bounded mode never blocks the client forever
                continue
            for event in events:
                frame = ("id: %d\nevent: %s\ndata: %s\n\n"
                         % (event["seq"], event["kind"], json.dumps(event)))
                self.wfile.write(frame.encode("utf-8"))
                since = max(since, event["seq"])
                sent += 1
                if limit is not None and sent >= limit:
                    self.wfile.flush()
                    return
            self.wfile.flush()

    # -- POST -----------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        route = urlparse(self.path).path.rstrip("/")
        if route != "/submit":
            self._error(404, "no such endpoint: %s" % route)
            return
        if self.app.queue is None:
            self._error(503, "no job queue attached (start repro serve "
                             "without --no-queue)")
            return
        length = int(self.headers.get("Content-Length") or 0)
        try:
            doc = json.loads(self.rfile.read(length) or b"{}")
        except ValueError:
            self._error(400, "body must be JSON")
            return
        try:
            if isinstance(doc, dict) and isinstance(doc.get("jobs"), list):
                entries = self.app.queue.submit_campaign(
                    doc["jobs"], workers=int(doc.get("workers", 1)))
                self._json({"jobs": [e.to_dict() for e in entries]},
                           status=202)
            else:
                entry = self.app.queue.submit(doc)
                self._json(entry.to_dict(), status=202)
        except (ValueError, TypeError, KeyError) as exc:
            self._error(400, "bad job spec: %s" % exc)


class DashboardServer:
    """Threaded ``http.server`` app; ``port=0`` binds an ephemeral port."""

    def __init__(self, repository: RunRepository, queue=None,
                 host: str = "127.0.0.1", port: int = 0,
                 verbose: bool = False) -> None:
        self.repository = repository
        self.queue = queue
        self.verbose = verbose
        app = self

        class Handler(_Handler):
            pass

        Handler.app = app
        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return "http://%s:%d" % (self.host, self.port)

    def start(self) -> "DashboardServer":
        """Serve on a background thread (tests / embedding)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-dashboard", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (``repro serve``)."""
        self._httpd.serve_forever(poll_interval=SHUTDOWN_POLL_SECONDS)

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

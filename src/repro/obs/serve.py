"""``--serve-metrics``: the in-process Prometheus/health endpoint.

A single daemon thread runs a stdlib ``ThreadingHTTPServer`` for the
duration of a run, serving

* ``GET /metrics`` — the metric families derived from the trace
  (:func:`~repro.obs.export.prometheus_text`: latency histograms, run
  counters, progress/stall/BDD/memory gauges and the per-phase
  snapshot) in strict Prometheus exposition format: ``# HELP`` and
  ``# TYPE`` per family, histogram ``_bucket``/``_sum``/``_count``
  with ``le`` labels and ``+Inf``;
* ``GET /healthz`` — a JSON liveness document: run name and phase
  (the open span stack), the tracer's monotone progress counter, the
  idle time since the last span activity and the stall verdict, plus
  anything the caller's ``health_provider`` contributes.

The endpoint's threads are the only ones the program starts, and they
never read the live span stack.  Both payloads come from the trace's
published :class:`~repro.obs.trace.TraceSnapshot`, which the engine's
thread replaces whole at each sample point, and from the finished
spans and events that snapshot counts (append-only list prefixes).
The run is ``stalled`` while a phase is open and the time since the
snapshot's last progress reaches the sampler's ``stall_window_s``,
which the snapshot carries; it reads ``ok`` again as soon as a later
snapshot shows progress.

Port ``0`` binds an ephemeral port (tests, parallel CI); the bound
port is on :attr:`MetricsServer.port` and in the startup log line.
Request logging is routed to the ``repro.obs`` logger at DEBUG so a
scrape loop cannot spam stderr.

Shutdown is idempotent and leak-free: ``stop()`` may be called any
number of times, closes the listening socket even when joining the
serve thread raises mid-run, and the request threads are daemons — so
two sequential runs can bind the same port.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional

from repro.obs.export import prometheus_text

logger = logging.getLogger("repro.obs")

HealthProvider = Callable[[], Dict[str, Any]]


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-metrics/1"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = self.server.owner.metrics_text()
            self._reply(200, body, "text/plain; version=0.0.4")
        elif path == "/healthz":
            body = json.dumps(self.server.owner.health(), indent=2,
                              sort_keys=True, default=str) + "\n"
            self._reply(200, body, "application/json")
        else:
            self._reply(404, "not found: try /metrics or /healthz\n",
                        "text/plain")

    def _reply(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, fmt: str, *args: Any) -> None:
        logger.debug("metrics endpoint: " + fmt, *args)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    owner: "MetricsServer"


class MetricsServer:
    """The endpoint's lifecycle: bind, serve on a daemon thread, stop.

    Args:
        trace: the run's trace; both endpoints read its published
            snapshot (a disabled or missing trace serves an empty
            ``/metrics`` and a bare ``/healthz``).
        health_provider: zero-argument callable merged into the
            ``/healthz`` document on every request; keep it cheap and
            lock-free (it runs on the request thread).
        port: TCP port; ``0`` binds an ephemeral one.
        host: bind address (loopback by default — this is an
            introspection endpoint, not a public listener).
    """

    def __init__(self, trace=None,
                 health_provider: Optional[HealthProvider] = None,
                 port: int = 0, host: str = "127.0.0.1"):
        self.trace = trace
        self.health_provider = health_provider
        self._server = _Server((host, port), _Handler)
        self._server.owner = self
        self.host, self.port = self._server.server_address[:2]
        self._thread: Optional[Any] = None
        self._stopped = False

    # ------------------------------------------------------------------
    def start(self) -> "MetricsServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-obs-serve", daemon=True)
        self._thread.start()
        logger.info("metrics endpoint on http://%s:%d "
                    "(/metrics, /healthz)", self.host, self.port)
        return self

    def stop(self) -> None:
        """Tear the endpoint down; safe to call repeatedly.

        The listening socket is closed in a ``finally`` so the port is
        released even when the serve thread refuses to shut down (a
        hung handler, a join timeout mid-exception) — a later run must
        always be able to bind the same port.
        """
        if self._stopped:
            return
        self._stopped = True
        thread, self._thread = self._thread, None
        try:
            if thread is not None:
                self._server.shutdown()
                thread.join(timeout=5.0)
        finally:
            self._server.server_close()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def _served_trace(self):
        trace = self.trace
        return trace if getattr(trace, "enabled", False) else None

    def metrics_text(self) -> str:
        trace = self._served_trace()
        if trace is None:
            return "\n"
        snap = trace.snapshot
        return prometheus_text(trace.records(upto=snap), snapshot=snap,
                               now=trace.now())

    def health(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"status": "ok"}
        trace = self._served_trace()
        if trace is not None:
            snap = trace.snapshot
            now = trace.now()
            stalled = snap.stalled(now)
            idle = now - snap.last_progress_t
            doc.update(run=trace.name, progress=snap.progress,
                       phase=list(snap.phase),
                       spans_finished=snap.spans,
                       idle_s=round(idle, 3), stalled=stalled)
            if stalled:
                doc["status"] = "stalled"
        if self.health_provider is not None:
            try:
                doc.update(self.health_provider())
            except Exception as exc:
                doc["health_provider_error"] = repr(exc)
        return doc


def maybe_serve(trace, port: Optional[int],
                health_provider: Optional[HealthProvider] = None
                ) -> Optional[MetricsServer]:
    """A started server when ``port`` is not ``None``; else ``None``.

    Binding failures (port in use, no loopback in the sandbox) degrade
    to a warning — telemetry must never take the run down.
    """
    if port is None:
        return None
    try:
        return MetricsServer(trace, health_provider=health_provider,
                             port=port).start()
    except OSError as exc:
        logger.warning("cannot serve metrics on port %s: %s", port, exc)
        return None

"""Stdlib-only HTTP front end for the query service.

A thin translation layer: URLs and query strings in,
:class:`~repro.service.service.ServiceRequest` through the service,
canonical JSON out with the status code the response's lifecycle outcome
dictates (200 ok, 400 invalid, 404 unknown dataset/route, 429 shed,
503 breaker open, 504 deadline exceeded).

Endpoints (all ``GET``, parameters as query strings):

``/search?q=...&dataset=...&engine=semantic|sqak&k=3&deadline_ms=500&backend=memory|sqlite``
    Run a keyword query; returns interpretations plus the executed rows
    of the best one (``backend`` picks the execution backend; default
    ``memory``).
``/analyze?q=...&dataset=...&k=3``
    Static-analysis diagnostics for the top-k interpretations.
``/healthz``
    Liveness plus queue depth and per-dataset breaker states.
``/metrics``
    The full counter/timing snapshot (service, engines, breakers, cache;
    in pool mode also the per-worker breakdown under ``workers``).
``/workers``
    Just the worker-pool breakdown (404 when ``worker_processes=0``).

Built on :class:`http.server.ThreadingHTTPServer` — one thread per
connection, all of them funnelling into the service's bounded queue, so
overload protection lives in one place (the service), not in the HTTP
layer.  No third-party dependencies.

Shutdown is graceful: request threads are daemons (an exiting
interpreter never hangs on a stuck client), but they are *tracked*, and
:meth:`ServiceHTTPServer.stop` drains them — stop accepting, give
in-flight requests a bounded grace to finish writing their responses,
then close the listener.  ``python -m repro serve`` runs ``stop`` before
``QueryService.stop`` so a Ctrl-C during a burst answers the accepted
requests instead of severing their sockets mid-body.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.service.service import QueryService, ServiceRequest, canonical_json

__all__ = ["ServiceHTTPServer", "make_server"]

_MAX_WAIT_SLACK_S = 30.0


class _Handler(BaseHTTPRequestHandler):
    """Routes one HTTP request into the owning server's service."""

    server: "ServiceHTTPServer"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        params = parse_qs(parsed.query)
        if route == "/healthz":
            self._send(200, self.server.service.health())
        elif route == "/metrics":
            self._send(200, self.server.service.metrics_snapshot())
        elif route == "/workers":
            workers = self.server.service.metrics_snapshot().get("workers")
            if workers is None:
                self._send(404, {"error": "no worker pool configured"})
            else:
                self._send(200, workers)
        elif route in ("/search", "/analyze"):
            self._serve_query(route, params)
        else:
            self._send(404, {"error": f"unknown route {route!r}"})

    def _serve_query(self, route: str, params: dict) -> None:
        request, error = self._build_request(route, params)
        if request is None:
            self._send(400, {"error": error})
            return
        # wait a little past the request's own deadline: the service
        # resolves timeouts itself, the slack only guards a stuck worker
        deadline_s = (
            request.deadline_s
            if request.deadline_s is not None
            else self.server.service.config.default_deadline_s
        )
        wait = (
            deadline_s + _MAX_WAIT_SLACK_S
            if deadline_s is not None
            else None
        )
        try:
            response = self.server.service.serve(request, timeout=wait)
        except TimeoutError:
            self._send_bytes(
                504, canonical_json({"error": "request still in flight"})
            )
            return
        self._send_bytes(response.http_status, response.body())

    def _build_request(
        self, route: str, params: dict
    ) -> Tuple[Optional[ServiceRequest], str]:
        query = (params.get("q") or params.get("query") or [""])[0]
        if not query.strip():
            return None, "missing required parameter 'q'"
        dataset = (params.get("dataset") or [None])[0]
        engine = (params.get("engine") or ["semantic"])[0]
        backend = (params.get("backend") or ["memory"])[0]
        k_raw = (params.get("k") or [None])[0]
        deadline_raw = (params.get("deadline_ms") or [None])[0]
        try:
            k = int(k_raw) if k_raw is not None else None
        except ValueError:
            return None, f"parameter 'k' must be an integer, got {k_raw!r}"
        deadline_s: Optional[float] = None
        if deadline_raw is not None:
            try:
                deadline_s = float(deadline_raw) / 1000.0
            except ValueError:
                deadline_s = math.nan
            # nan/inf cannot bound a wait; 0 and negatives stay a 504
            if not math.isfinite(deadline_s):
                return None, (
                    "parameter 'deadline_ms' must be a finite number, got "
                    f"{deadline_raw!r}"
                )
        return (
            ServiceRequest(
                query=query,
                dataset=dataset,
                engine=engine,
                mode="analyze" if route == "/analyze" else "search",
                k=k,
                deadline_s=deadline_s,
                backend=backend,
            ),
            "",
        )

    # ------------------------------------------------------------------
    # Response plumbing
    # ------------------------------------------------------------------
    def _send(self, status: int, payload: dict) -> None:
        self._send_bytes(status, canonical_json(payload))

    def _send_bytes(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # route HTTP access logs through the service's counters instead
        # of stderr chatter
        self.server.service.metrics.increment("http_requests")


class ServiceHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one :class:`QueryService`.

    Request threads are daemons, so a crashed client can never hang
    interpreter shutdown — but unlike stock ``ThreadingMixIn`` daemon
    mode they are tracked, which is what makes :meth:`stop` able to
    drain them within a grace budget instead of abandoning sockets with
    half-written responses.
    """

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: QueryService) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self._serve_thread: Optional[threading.Thread] = None
        self._requests_lock = threading.Lock()
        self._request_threads: List[threading.Thread] = []  # guarded-by: _requests_lock
        self._request_ids = itertools.count(1)

    def process_request(self, request, client_address) -> None:
        """One named, tracked daemon thread per connection."""
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name=f"repro-http-request-{next(self._request_ids)}",
            daemon=True,
        )
        with self._requests_lock:
            self._request_threads = [
                tracked
                for tracked in self._request_threads
                if tracked.is_alive()
            ]
            self._request_threads.append(thread)
        thread.start()

    def serve_background(self) -> threading.Thread:
        """Run :meth:`serve_forever` on a named daemon thread."""
        thread = threading.Thread(
            target=self.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        thread.start()
        self._serve_thread = thread
        return thread

    def stop(self, grace_s: float = 5.0) -> List[str]:
        """Graceful shutdown: drain in-flight requests, close the listener.

        Stops the accept loop first (no new connections), then joins
        every tracked request thread within *grace_s*, then closes the
        listening socket.  Returns the names of any threads still alive
        after the grace budget — stragglers are abandoned (they are
        daemons), never killed mid-write while the budget lasts.
        """
        deadline = time.monotonic() + max(0.0, grace_s)
        self.shutdown()  # blocks until serve_forever() exits its loop
        serve_thread = self._serve_thread
        if serve_thread is not None and serve_thread.is_alive():
            serve_thread.join(max(0.05, deadline - time.monotonic()))
        with self._requests_lock:
            in_flight = list(self._request_threads)
        for thread in in_flight:
            if thread.is_alive():
                thread.join(max(0.0, deadline - time.monotonic()))
        self.server_close()
        return [thread.name for thread in in_flight if thread.is_alive()]


def make_server(
    service: QueryService, host: str = "127.0.0.1", port: int = 0
) -> ServiceHTTPServer:
    """Bind an HTTP server for *service* (``port=0`` picks a free port)."""
    return ServiceHTTPServer((host, port), service)

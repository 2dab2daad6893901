"""HTTP front-end tests: routing, status codes, canonical bodies.

One server per module on an OS-assigned port (``port=0``), torn down
explicitly; every request goes through real sockets via urllib.
"""

from __future__ import annotations

import io
import json
import threading
import urllib.error
import urllib.request
from urllib.parse import quote

import pytest

from repro.service import (
    QueryService,
    ServiceConfig,
    ServiceRequest,
    canonical_json,
    make_server,
)


@pytest.fixture(scope="module")
def served(university_engine, university_sqak):
    service = QueryService(ServiceConfig(max_workers=2, cache_ttl_s=30.0))
    service.register_dataset(
        "university", university_engine, sqak=university_sqak
    )
    server = make_server(service, port=0)
    thread = server.serve_background()
    host, port = server.server_address[:2]
    with service:
        yield service, f"http://{host}:{port}"
        server.shutdown()
    server.server_close()
    thread.join(5.0)


def get(base: str, path: str):
    """(status, parsed json body) for one GET, errors included."""
    try:
        with urllib.request.urlopen(base + path, timeout=30.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestRouting:
    def test_healthz(self, served):
        _, base = served
        status, body = get(base, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["datasets"] == ["university"]

    def test_unknown_route_404(self, served):
        _, base = served
        status, body = get(base, "/nope")
        assert status == 404
        assert "unknown route" in body["error"]

    def test_missing_query_400(self, served):
        _, base = served
        status, body = get(base, "/search")
        assert status == 400
        assert "missing" in body["error"]

    def test_bad_k_400(self, served):
        _, base = served
        status, _ = get(base, "/search?q=AVG+Credit&k=banana")
        assert status == 400

    def test_bad_deadline_400(self, served):
        _, base = served
        # nan and inf (1e400 overflows to inf) cannot bound a wait
        for raw in ("soon", "nan", "inf", "1e400"):
            status, body = get(base, "/search?q=AVG+Credit&deadline_ms=" + raw)
            assert status == 400, raw
            assert "deadline_ms" in body["error"]


class TestSearch:
    def test_semantic_search(self, served):
        _, base = served
        status, body = get(base, "/search?q=" + quote("AVG Credit"))
        assert status == 200
        assert body["best"]["rows"] == [[4.0]]
        assert body["engine"] == "semantic"
        assert body["interpretations"][0]["rank"] == 1

    def test_sqak_search(self, served):
        _, base = served
        status, body = get(
            base, "/search?q=" + quote("COUNT Student GROUPBY Course") + "&engine=sqak"
        )
        assert status == 200
        assert body["engine"] == "sqak"
        assert "SELECT" in body["sql"]

    def test_unknown_dataset_404(self, served):
        _, base = served
        status, _ = get(base, "/search?q=AVG+Credit&dataset=nope")
        assert status == 404

    def test_unparseable_query_400(self, served):
        _, base = served
        status, body = get(base, "/search?q=zzznomatch+xyzzy")
        assert status == 400
        assert "error" in body

    def test_http_body_matches_service_body(self, served):
        """The HTTP layer adds nothing: bytes are the service's bytes."""
        service, base = served
        with urllib.request.urlopen(
            base + "/search?q=" + quote("COUNT Student"), timeout=30.0
        ) as response:
            http_body = response.read()
        direct = service.serve(
            ServiceRequest(query="COUNT Student"), timeout=30.0
        )
        assert http_body == direct.body()
        assert http_body == canonical_json(direct.payload)

    def test_analyze(self, served):
        _, base = served
        status, body = get(base, "/analyze?q=" + quote("AVG Credit"))
        assert status == 200
        assert body["diagnostics"] == []

    def test_metrics_endpoint(self, served):
        _, base = served
        status, body = get(base, "/metrics")
        assert status == 200
        counters = body["service"]["counters"]
        assert counters["requests_submitted"] >= 1
        assert "university" in body["breakers"]

    def test_expired_deadline_504(self, served):
        _, base = served
        status, body = get(base, "/search?q=" + quote("COUNT Lecturer") + "&deadline_ms=0")
        assert status == 504
        assert "deadline" in body["error"]


class TestServeCli:
    def test_parser_defaults(self):
        from repro.service.cli import build_serve_parser

        args = build_serve_parser().parse_args([])
        assert args.port == 8080
        assert args.datasets == "university"

    def test_run_serve_rejects_empty_datasets(self, capsys):
        from repro.service.cli import run_serve

        assert run_serve(["--datasets", ","]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["--cache-ttl", "-1"], ["--workers", "0"], ["--worker-processes", "-1"]],
    )
    def test_run_serve_rejects_invalid_config(self, argv):
        from repro.service.cli import run_serve

        out = io.StringIO()
        assert run_serve(argv, out=out) == 2
        assert out.getvalue().startswith("error: ")

    def test_build_service_registers_sqak(self):
        from repro.service.cli import build_service

        service = build_service(["university"], ServiceConfig(max_workers=1))
        assert service.datasets == ["university"]
        assert service._runtimes["university"].sqak is not None


class TestGracefulShutdown:
    """``ServiceHTTPServer.stop``: accepted requests finish, listener closes."""

    def _slow_server(self, university_engine, monkeypatch):
        service = QueryService(ServiceConfig(max_workers=2, cache_ttl_s=0.0))
        service.register_dataset("university", university_engine)
        release = threading.Event()
        started = threading.Event()
        original = university_engine.search

        def slow_search(query_text, *args, **kwargs):
            if "slowmark" in query_text:
                started.set()
                release.wait(15.0)
                query_text = "AVG Credit"
            return original(query_text, *args, **kwargs)

        monkeypatch.setattr(university_engine, "search", slow_search)
        server = make_server(service, port=0)
        server.serve_background()
        host, port = server.server_address[:2]
        return service, server, f"http://{host}:{port}", release, started

    def test_in_flight_request_completes_during_stop(
        self, university_engine, monkeypatch
    ):
        service, server, base, release, started = self._slow_server(
            university_engine, monkeypatch
        )
        with service:
            results = {}

            def request():
                results["response"] = get(
                    base, "/search?q=" + quote("slowmark AVG Credit")
                )

            client = threading.Thread(
                target=request, name="slow-client", daemon=True
            )
            client.start()
            assert started.wait(10.0)

            stragglers = {}

            def stop():
                stragglers["names"] = server.stop(grace_s=10.0)

            stopper = threading.Thread(
                target=stop, name="stopper", daemon=True
            )
            stopper.start()
            # the drain is now waiting on the in-flight request; let it
            # finish and the response must still reach the client
            release.set()
            stopper.join(15.0)
            client.join(15.0)
            assert stragglers["names"] == []
            status, body = results["response"]
            assert status == 200
            assert body["engine"] == "semantic"
        # the listener is closed: new connections are refused
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(base + "/healthz", timeout=2.0)

    def test_straggler_past_grace_is_reported_not_killed(
        self, university_engine, monkeypatch
    ):
        service, server, base, release, started = self._slow_server(
            university_engine, monkeypatch
        )
        with service:
            results = {}

            def request():
                results["response"] = get(
                    base, "/search?q=" + quote("slowmark straggler")
                )

            client = threading.Thread(
                target=request, name="slow-client-2", daemon=True
            )
            client.start()
            assert started.wait(10.0)
            stragglers = server.stop(grace_s=0.2)
            assert len(stragglers) == 1
            assert stragglers[0].startswith("repro-http-request-")
            # past the grace the thread is abandoned, not severed: once
            # released it still completes and the client gets its bytes
            release.set()
            client.join(15.0)
            status, _ = results["response"]
            assert status == 200

    def test_request_threads_are_named_and_reaped(
        self, university_engine, monkeypatch
    ):
        service, server, base, release, started = self._slow_server(
            university_engine, monkeypatch
        )
        release.set()
        with service:
            for _ in range(3):
                status, _ = get(base, "/healthz")
                assert status == 200
            with server._requests_lock:
                tracked = list(server._request_threads)
            assert all(
                thread.name.startswith("repro-http-request-")
                for thread in tracked
            )
            # finished threads are reaped as new connections arrive;
            # the tracker never grows without bound
            assert len(tracked) <= 3
            assert server.stop(grace_s=5.0) == []

"""Tests for the /v1 surface, the ASGI app contract, and the async server."""

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import CancelledError
from repro.service.api import ServiceApi
from repro.service.asgi import AsgiApp, create_app, create_async_server
from repro.service.jobs import JobManager
from repro.solvers.highs import HighsSolver
from repro.solvers.registry import _REGISTRY, register_solver


def call(server, method, path, body=None):
    """One HTTP round trip; returns (status, headers, decoded JSON).

    ``body`` is JSON-encoded unless it is already ``bytes``.
    """
    data = body if body is None or isinstance(body, bytes) \
        else json.dumps(body).encode()
    request = urllib.request.Request(
        server.url + path, data=data, method=method,
        headers={"Content-Type": "application/json"} if body else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=90) as response:
            return response.status, dict(response.headers), \
                json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


def poll_until_terminal(server, job_id, timeout):
    """``GET /v1/jobs/<id>`` until the job leaves queued/running."""
    deadline = time.monotonic() + timeout
    while True:
        status, _, doc = call(server, "GET", f"/v1/jobs/{job_id}")
        if doc["status"] not in ("queued", "running") \
                or time.monotonic() > deadline:
            return status, doc
        time.sleep(0.05)


class GateSolver:
    """Blocks on a class-level gate, then solves for real."""

    gate = threading.Event()

    def __init__(self, options):
        self.options = options
        self._inner = HighsSolver(options)

    def solve(self, model):
        end = time.monotonic() + 30.0
        while time.monotonic() < end and not self.gate.is_set():
            if self.options.should_stop is not None and self.options.should_stop():
                raise CancelledError("stopped")
            time.sleep(0.005)
        return self._inner.solve(model)


@pytest.fixture
def gate_solver():
    GateSolver.gate.clear()
    register_solver("gate", GateSolver)
    yield GateSolver
    GateSolver.gate.set()
    _REGISTRY.pop("gate", None)


class TestV1Surface:
    def test_synthesize_roundtrip(self, server):
        status, headers, doc = call(server, "POST", "/v1/synthesize", {
            "problem": "example1", "solver": "highs", "wait": True,
        })
        assert status == 200
        assert doc["status"] == "done"
        assert doc["result"]["makespan"] == 2.5
        assert "Deprecation" not in headers

    def test_sweep_and_job_lookup(self, server):
        status, _, doc = call(server, "POST", "/v1/sweep", {
            "problem": "example1", "max_designs": 2, "wait": True,
        })
        assert status == 200 and doc["status"] == "done"
        assert len(doc["result"]["designs"]) == 2
        assert len(doc["result"]["caps"]) == 2
        costs = [design["cost"] for design in doc["result"]["designs"]]
        assert costs == sorted(costs, reverse=True)  # fastest-first
        status, _, fetched = call(server, "GET", f"/v1/jobs/{doc['job']}")
        assert status == 200
        assert fetched["result"] == doc["result"]

    def test_stats_and_metrics_documents(self, server):
        status, _, stats = call(server, "GET", "/v1/stats")
        assert status == 200
        assert stats["executor"] == "thread"
        assert "batch" in stats
        status, _, metrics = call(server, "GET", "/v1/metrics")
        assert status == 200
        assert metrics["queue"]["workers"] == 2
        assert metrics["executor"] == "thread"
        service = metrics["service"]
        assert "POST /v1/synthesize" in service["latency"]
        assert service["latency"]["POST /v1/synthesize"]["count"] >= 1
        assert any(key.startswith("2") for key in service["responses"])

    def test_typed_error_envelope(self, server):
        status, _, doc = call(server, "POST", "/v1/synthesize",
                              {"problem": "no-such-problem"})
        assert status == 400
        error = doc["error"]
        assert error["code"] == "bad_request"
        assert "no-such-problem" in error["message"]
        assert "detail" in error

    def test_unknown_route_and_job(self, server):
        status, _, doc = call(server, "GET", "/v1/nope")
        assert status == 404 and doc["error"]["code"] == "not_found"
        status, _, doc = call(server, "POST", "/v1/nope", {})
        assert status == 404 and doc["error"]["code"] == "not_found"
        status, _, doc = call(server, "GET", "/v1/jobs/missing")
        assert status == 404 and doc["error"]["code"] == "not_found"
        assert "unknown job" in doc["error"]["message"]

    def test_cancel_unknown_job_404(self, server):
        status, _, doc = call(server, "DELETE", "/v1/jobs/missing")
        assert status == 404 and doc["error"]["code"] == "not_found"

    def test_resubmit_hits_cache(self, server):
        body = {"problem": "example1", "solver": "highs",
                "objective": "min_cost", "wait": True}
        status, _, first = call(server, "POST", "/v1/synthesize", body)
        assert status == 200 and first["status"] == "done"
        _, _, stats_before = call(server, "GET", "/v1/stats")
        status, _, second = call(server, "POST", "/v1/synthesize", body)
        _, _, stats_after = call(server, "GET", "/v1/stats")
        assert status == 200
        assert second["cached"] is True
        assert second["result"] == first["result"]
        assert stats_after["solves"] == stats_before["solves"]
        assert stats_after["cache"]["hits"] > stats_before["cache"]["hits"]

    def test_each_hit_is_timed_once_in_metrics(self, server):
        body = {"problem": "example1", "solver": "highs", "cost_cap": 9.0,
                "wait": True}
        assert call(server, "POST", "/v1/synthesize", body)[0] == 200

        def count():
            _, _, metrics = call(server, "GET", "/v1/metrics")
            return metrics["service"]["latency"]["POST /v1/synthesize"]["count"]

        before = count()
        for _ in range(3):
            status, _, doc = call(server, "POST", "/v1/synthesize", body)
            assert status == 200 and doc["cached"] is True
        assert count() == before + 3

    def test_submit_without_wait_returns_202_then_completes(self, server):
        status, _, doc = call(server, "POST", "/v1/synthesize", {
            "problem": "example1", "solver": "highs", "deadline": 4.0,
        })
        assert status in (200, 202)
        status, doc = poll_until_terminal(server, doc["job"], timeout=60)
        assert status == 200
        assert doc["status"] == "done"

    def test_cancel_running_sweep(self, server):
        status, _, doc = call(server, "POST", "/v1/sweep", {
            "problem": "example1", "solver": "bozo",
        })
        assert status == 202
        status, _, body = call(server, "DELETE", f"/v1/jobs/{doc['job']}")
        assert status == 200 and body["cancel_requested"] is True
        _, doc = poll_until_terminal(server, doc["job"], timeout=15)
        assert doc["status"] == "cancelled"

    def test_inline_graph_and_library(self, server, tiny_graph, tiny_library):
        from repro.taskgraph.serialization import graph_to_dict

        status, _, doc = call(server, "POST", "/v1/synthesize", {
            "problem": {
                "graph": graph_to_dict(tiny_graph),
                "library": tiny_library.to_dict(),
            },
            "solver": "highs",
            "wait": True,
        })
        assert status == 200
        assert doc["status"] == "done"
        assert set(doc["result"]["mapping"]) == {"A", "B"}

    def test_cancel_via_delete(self, server, gate_solver):
        status, _, doc = call(server, "POST", "/v1/synthesize", {
            "problem": "example2", "solver": "gate",
        })
        assert status == 202
        job_id = doc["job"]
        status, _, doc = call(server, "DELETE", f"/v1/jobs/{job_id}")
        assert status == 200
        # The gate stays closed: the running solver must notice the
        # cancellation through its should_stop hook, not by finishing.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            _, _, doc = call(server, "GET", f"/v1/jobs/{job_id}")
            if doc["status"] in ("cancelled", "done", "failed"):
                break
            time.sleep(0.05)
        assert doc["status"] == "cancelled"


#: Malformed submissions: case -> (route, body, a fragment of the 400
#: message).  ``json.dumps`` writes non-finite floats as the ``NaN`` and
#: ``Infinity`` literals that ``json.loads`` accepts.
BAD_BODIES = {
    "bad_json": ("synthesize", b"{nope", "not valid JSON"),
    "missing_problem": ("synthesize", {"solver": "highs"}, "'problem'"),
    "unknown_builtin_problem": ("synthesize", {"problem": "example9"},
                                "example9"),
    "bad_style": ("synthesize", {"problem": "example1", "style": "mesh"},
                  "mesh"),
    "bad_number": ("synthesize", {"problem": "example1", "cost_cap": "cheap"},
                   "'cost_cap'"),
    "bad_wait": ("synthesize", {"problem": "example1", "wait": "yes"},
                 "'wait'"),
    "nan_cost_cap": ("synthesize",
                     {"problem": "example1", "cost_cap": float("nan")},
                     "'cost_cap'"),
    "infinite_cost_cap": ("synthesize",
                          {"problem": "example1", "cost_cap": float("inf")},
                          "'cost_cap'"),
    "nan_wait": ("synthesize", {"problem": "example1", "wait": float("nan")},
                 "'wait'"),
    "zero_cost_step": ("sweep", {"problem": "example1", "cost_step": 0},
                       "'cost_step'"),
    "unknown_solver": ("synthesize", {"problem": "example1", "solver": "nope"},
                       "unknown solver 'nope'"),
    "non_string_solver": ("synthesize",
                          {"problem": "example1", "solver": ["x"]},
                          "unknown solver ['x']"),
    "boolean_max_designs": ("sweep", {"problem": "example1", "max_designs": True},
                            "'max_designs'"),
}


class TestValidation:
    @pytest.mark.parametrize("prefix", ["/v1"], ids=["v1"])
    @pytest.mark.parametrize("case", sorted(BAD_BODIES))
    def test_bad_request_400(self, server, case, prefix):
        route, body, fragment = BAD_BODIES[case]
        status, _, doc = call(server, "POST", f"{prefix}/{route}", body)
        assert status == 400
        assert doc["error"]["code"] == "bad_request"
        assert fragment in doc["error"]["message"]


class TestLegacyCompat:
    """The unversioned spellings were removed in 2.0.0.

    They answer the same typed ``404`` as any other unknown path, with
    no ``Deprecation`` or ``Link`` header.
    """

    def test_legacy_404_has_no_deprecation_header(self, server):
        for method, path, body in (
            ("GET", "/nope", None),
            ("POST", "/synthesize",
             {"problem": "example1", "solver": "highs", "wait": True}),
        ):
            status, headers, doc = call(server, method, path, body)
            assert status == 404
            assert doc["error"]["code"] == "not_found"
            assert f"{method} {path}" in doc["error"]["message"]
            assert "Deprecation" not in headers
            assert "Link" not in headers


class TestBackpressure:
    def test_rate_limit_answers_429_with_retry_after(self):
        server = create_async_server(
            workers=1, solve_processes=0, rate_limit=0.5, rate_burst=1,
        ).start()
        try:
            status, _, _ = call(server, "POST", "/v1/synthesize", {
                "problem": "example1", "solver": "highs", "wait": True,
            })
            assert status == 200
            status, headers, doc = call(server, "POST", "/v1/synthesize", {
                "problem": "example1", "solver": "highs",
            })
            assert status == 429
            assert doc["error"]["code"] == "rate_limited"
            assert int(headers["Retry-After"]) >= 1
        finally:
            server.close()

    def test_queue_full_answers_429(self, gate_solver):
        server = create_async_server(
            workers=1, solve_processes=0, max_queued=1,
        ).start()
        try:
            bodies = [
                {"problem": "example1", "solver": "gate", "cost_cap": cap}
                for cap in (None, 40.0, 41.0)
            ]
            status0, _, _ = call(server, "POST", "/v1/synthesize", bodies[0])
            assert status0 == 202
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                _, _, stats = call(server, "GET", "/v1/stats")
                if stats["jobs"].get("running"):
                    break
                time.sleep(0.01)
            status1, _, _ = call(server, "POST", "/v1/synthesize", bodies[1])
            status2, headers, doc = call(server, "POST", "/v1/synthesize",
                                         bodies[2])
            assert status1 == 202
            assert status2 == 429
            assert doc["error"]["code"] == "queue_full"
            assert "Retry-After" in headers
            gate_solver.gate.set()
        finally:
            server.close()

    def test_cache_hit_answers_while_the_queue_is_full(self, gate_solver):
        """A hit is answered on admission: not queued behind the gated
        solve, not counted against max_queued, 200 whatever ``wait`` says."""
        server = create_async_server(
            workers=1, solve_processes=0, max_queued=1,
        ).start()
        try:
            cached = {"problem": "example1", "solver": "highs", "wait": True}
            status, _, first = call(server, "POST", "/v1/synthesize", cached)
            assert status == 200 and first["cached"] is False
            status, _, _ = call(server, "POST", "/v1/synthesize",
                                {"problem": "example1", "solver": "gate"})
            assert status == 202
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                _, _, stats = call(server, "GET", "/v1/stats")
                if stats["jobs"].get("running"):
                    break
                time.sleep(0.01)
            status, _, _ = call(server, "POST", "/v1/synthesize", {
                "problem": "example1", "solver": "gate", "cost_cap": 40.0,
            })
            assert status == 202
            for wait in (True, False):
                started = time.monotonic()
                status, _, doc = call(server, "POST", "/v1/synthesize",
                                      {**cached, "wait": wait})
                assert time.monotonic() - started < 1.0
                assert status == 200
                assert doc["status"] == "done" and doc["cached"] is True
                assert doc["attempts"] == 0
                assert doc["result"] == first["result"]
            gate_solver.gate.set()
        finally:
            server.close()


class TestAsyncServerMechanics:
    def test_keep_alive_reuses_connection(self, server):
        import http.client

        host, port = server.url.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            for _ in range(3):
                conn.request("GET", "/v1/stats")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()

    def test_oversized_body_answers_413(self, server):
        # The server rejects on the declared Content-Length (before the
        # upload), so speak raw HTTP: declare a huge body, send nothing.
        import socket

        from repro.service.asgi import MAX_BODY_BYTES

        host, port = server.url.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=30) as sock:
            sock.sendall(
                b"POST /v1/synthesize HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
            )
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 413 ")

    def test_close_is_idempotent(self):
        server = create_async_server(workers=1, solve_processes=0).start()
        server.close()
        server.close()


class TestAsgiContract:
    """Drive the ASGI app directly (no socket) — the external-server path."""

    def _run(self, app, scopes):
        async def main():
            results = []
            for scope, messages in scopes:
                received = list(messages)
                sent = []

                async def receive():
                    return received.pop(0)

                async def send(message):
                    sent.append(message)

                await app(scope, receive, send)
                results.append(sent)
            return results

        return asyncio.run(main())

    def test_http_scope_roundtrip(self):
        manager = JobManager(workers=1)
        try:
            app = AsgiApp(ServiceApi(manager))
            scope = {"type": "http", "method": "GET", "path": "/v1/stats"}
            [sent] = self._run(
                app, [(scope, [{"type": "http.request", "body": b"",
                                "more_body": False}])]
            )
            start = next(m for m in sent if m["type"] == "http.response.start")
            body = next(m for m in sent if m["type"] == "http.response.body")
            assert start["status"] == 200
            header_names = [name for name, _ in start["headers"]]
            assert b"content-type" in header_names
            assert json.loads(body["body"])["workers"] == 1
        finally:
            manager.shutdown()

    def test_only_unfinished_waits_leave_the_event_loop(self, ex1_graph,
                                                         ex1_library):
        """Routing, 404s and cache hits answer on the loop; the executor is
        reserved for waiting on an unfinished submission."""
        from repro.service.cache import ResultCache
        from repro.service.jobs import SynthesizeRequest

        class NoExecutor:
            def submit(self, *args, **kwargs):
                raise AssertionError("request left the event loop")

        manager = JobManager(workers=1, cache=ResultCache())
        try:
            assert manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="highs")
            ).wait(60)
            app = AsgiApp(ServiceApi(manager))
            app._executor.shutdown()
            app._executor = NoExecutor()
            body = json.dumps({"problem": "example1", "solver": "highs",
                               "wait": True}).encode()
            request = [{"type": "http.request", "body": body,
                        "more_body": False}]
            scopes = [
                ({"type": "http", "method": "POST", "path": "/v1/synthesize"},
                 request),
                ({"type": "http", "method": "GET", "path": "/v1/nope"},
                 [{"type": "http.request", "body": b"", "more_body": False}]),
            ]
            hit, missing = self._run(app, scopes)
            assert hit[0]["status"] == 200
            assert json.loads(hit[1]["body"])["cached"] is True
            assert missing[0]["status"] == 404
        finally:
            manager.shutdown()

    def test_lifespan_startup_shutdown(self):
        app = create_app(workers=1, solve_processes=0)
        scope = {"type": "lifespan"}
        messages = [{"type": "lifespan.startup"},
                    {"type": "lifespan.shutdown"}]
        [sent] = self._run(app, [(scope, messages)])
        assert {m["type"] for m in sent} == {
            "lifespan.startup.complete", "lifespan.shutdown.complete",
        }

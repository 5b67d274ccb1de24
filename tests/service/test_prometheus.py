"""Prometheus text exposition of GET /v1/metrics (and its negotiation)."""

import json
import urllib.request

import pytest

from repro.service.api import ServiceApi, _wants_prometheus
from repro.service.asgi import create_async_server
from repro.service.cache import ResultCache
from repro.service.jobs import JobManager
from repro.service.metrics import LatencyHistogram, ServiceMetrics


@pytest.fixture()
def api():
    with JobManager(workers=1) as manager:
        yield ServiceApi(manager, rate_limit=100)


class TestNegotiation:
    def test_json_stays_the_default(self, api):
        response = api.handle("GET", "/v1/metrics")
        assert response.content_type.startswith("application/json")
        assert isinstance(response.document, dict)
        json.loads(response.encode())

    def test_format_query_parameter_selects_prometheus(self, api):
        response = api.handle("GET", "/v1/metrics", query="format=prometheus")
        assert response.content_type == "text/plain; version=0.0.4; charset=utf-8"
        assert response.encode().decode().startswith("# HELP sos_uptime_seconds")

    def test_accept_text_plain_selects_prometheus(self, api):
        response = api.handle(
            "GET", "/v1/metrics", accept="text/plain;version=0.0.4"
        )
        assert response.content_type.startswith("text/plain")

    def test_accept_json_first_stays_json(self, api):
        response = api.handle(
            "GET", "/v1/metrics", accept="application/json, text/plain"
        )
        assert response.content_type.startswith("application/json")

    def test_wildcard_accept_stays_json(self, api):
        response = api.handle("GET", "/v1/metrics", accept="*/*")
        assert response.content_type.startswith("application/json")

    def test_explicit_format_beats_accept(self, api):
        response = api.handle(
            "GET", "/v1/metrics", query="format=json", accept="text/plain"
        )
        assert response.content_type.startswith("application/json")

    def test_other_routes_ignore_the_accept_header(self, api):
        response = api.handle("GET", "/v1/stats", accept="text/plain")
        assert response.content_type.startswith("application/json")

    def test_negotiation_helper_matrix(self):
        assert _wants_prometheus("format=prometheus", None)
        assert not _wants_prometheus("format=json", "text/plain")
        assert not _wants_prometheus(None, None)
        assert _wants_prometheus(None, "text/*")
        assert _wants_prometheus("other=1", "text/plain")
        assert not _wants_prometheus("", "application/json;q=1, */*")


class TestExposition:
    def _text(self, api):
        response = api.handle("GET", "/v1/metrics", query="format=prometheus")
        return response.encode().decode()

    def test_counters_and_gauges_present(self, api):
        api.handle(
            "POST", "/v1/synthesize",
            json.dumps({"problem": "example1", "wait": True}).encode(),
        )
        text = self._text(api)
        assert "sos_responses_total{class=\"2xx\"}" in text
        assert "sos_solves_total 1" in text
        assert "sos_cache_hits_total" not in text  # no cache configured
        assert "sos_queue_depth 0" in text
        assert "sos_rate_limit_tokens" in text
        assert text.endswith("\n")

    def test_cache_counters_include_store_errors(self):
        with JobManager(workers=1, cache=ResultCache()) as manager:
            api = ServiceApi(manager)
            api.handle(
                "POST", "/v1/synthesize",
                json.dumps({"problem": "example1", "wait": True}).encode(),
            )
            text = self._text(api)
        assert "sos_cache_stores_total 1" in text
        assert "# TYPE sos_cache_store_errors_total counter" in text
        assert "sos_cache_store_errors_total 0" in text

    def test_histogram_buckets_are_cumulative_and_terminated(self, api):
        api.handle(
            "POST", "/v1/synthesize",
            json.dumps({"problem": "example1", "wait": True}).encode(),
        )
        text = self._text(api)
        route = "POST /v1/synthesize"
        buckets = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith(
                f'sos_request_duration_seconds_bucket{{route="{route}"'
            )
        ]
        assert buckets, text
        assert buckets == sorted(buckets), "bucket counts must be cumulative"
        assert buckets[-1] == 1
        assert (
            f'sos_request_duration_seconds_bucket{{route="{route}",le="+Inf"}} 1'
            in text
        )
        assert f'sos_request_duration_seconds_count{{route="{route}"}} 1' in text

    def test_bad_request_shows_up_as_4xx(self, api):
        api.handle("POST", "/v1/synthesize", b"not json")
        assert 'sos_responses_total{class="4xx"} 1' in self._text(api)

    def test_type_and_help_precede_every_metric(self, api):
        api.handle("GET", "/v1/stats")
        text = self._text(api)
        seen_types = set()
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                seen_types.add(line.split()[2])
            elif line and not line.startswith("#"):
                name = line.split("{")[0].split(" ")[0]
                base = name
                for suffix in ("_bucket", "_sum", "_count"):
                    if name.endswith(suffix):
                        base = name[: -len(suffix)]
                        break
                assert base in seen_types, f"{name} has no preceding # TYPE"


class TestLatencyHistogramCumulative:
    def test_cumulative_buckets_sum_to_count(self):
        histogram = LatencyHistogram()
        for sample in (0.0001, 0.002, 0.002, 5.0, 500.0):
            histogram.observe(sample)
        pairs = histogram.cumulative_buckets()
        assert pairs[-1][0] == float("inf")
        assert pairs[-1][1] == histogram.count == 5
        counts = [cumulative for _, cumulative in pairs]
        assert counts == sorted(counts)

    def test_label_escaping(self):
        metrics = ServiceMetrics()
        metrics.observe('GET /odd"route\\with\nnewline', 200, 0.001)
        lines = metrics.prometheus_lines()
        joined = "\n".join(lines)
        assert r'route="GET /odd\"route\\with\nnewline"' in joined


class TestOverHttp:
    def test_async_server_serves_both_formats(self):
        server = create_async_server(
            host="127.0.0.1", port=0, workers=1, solve_processes=0
        ).start()
        try:
            request = urllib.request.Request(
                server.url + "/v1/metrics?format=prometheus"
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.headers["Content-Type"].startswith("text/plain")
                body = response.read().decode()
                assert body.startswith("# HELP sos_uptime_seconds")
            request = urllib.request.Request(
                server.url + "/v1/metrics",
                headers={"Accept": "text/plain"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.headers["Content-Type"].startswith("text/plain")
            with urllib.request.urlopen(
                server.url + "/v1/metrics", timeout=30
            ) as response:
                assert response.headers["Content-Type"].startswith(
                    "application/json"
                )
                json.loads(response.read())
        finally:
            server.close()

"""HTTP round trips beyond the ``test_asgi.py`` cases.

A numeric ``wait``, the cap chain of a swept front, and the typed
``404`` that every path outside ``/v1`` answers, including the
unversioned spellings removed in 2.0.0.
"""

from tests.service.test_asgi import call


class TestSynthesize:
    def test_wait_returns_finished_design(self, server):
        status, _, doc = call(server, "POST", "/v1/synthesize", {
            "problem": "example1", "solver": "highs", "wait": 60,
        })
        assert status == 200
        assert doc["status"] == "done"
        assert doc["result"]["makespan"] == 2.5
        assert doc["result"]["cost"] > 0


class TestSweep:
    def test_sweep_returns_front_document(self, server):
        status, _, doc = call(server, "POST", "/v1/sweep", {
            "problem": "example1", "solver": "highs", "max_designs": 3,
            "cost_step": 0.5, "wait": True,
        })
        assert status == 200
        assert doc["status"] == "done"
        front = doc["result"]
        assert len(front["designs"]) == 3
        costs = [design["cost"] for design in front["designs"]]
        assert costs == sorted(costs, reverse=True)  # fastest-first
        # Each cap sits cost_step below the previous design's cost.
        assert front["caps"] == [None] + [cost - 0.5 for cost in costs[:-1]]


class TestErrors:
    def test_unknown_route_404(self, server):
        for method, path, body in (
            ("GET", "/frobnicate", None),
            ("POST", "/frobnicate", {}),
            ("POST", "/sweep", {"problem": "example1", "wait": True}),
        ):
            status, headers, doc = call(server, method, path, body)
            assert status == 404
            assert doc["error"]["code"] == "not_found"
            assert "Deprecation" not in headers

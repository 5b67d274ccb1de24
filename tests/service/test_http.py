"""HTTP round trips on the unversioned (legacy) routes of the async server.

``test_asgi.py`` covers the ``/v1`` spellings; these cases pin the same
answers on ``/synthesize``, ``/sweep`` and ``/jobs/<id>``, whose error
body is a plain string.
"""

from tests.service.test_asgi import call


class TestSynthesize:
    def test_wait_returns_finished_design(self, server):
        status, _, doc = call(server, "POST", "/synthesize", {
            "problem": "example1", "solver": "highs", "wait": True,
        })
        assert status == 200
        assert doc["status"] == "done"
        assert doc["result"]["makespan"] == 2.5
        assert doc["result"]["cost"] > 0


class TestSweep:
    def test_sweep_returns_front_document(self, server):
        status, _, doc = call(server, "POST", "/sweep", {
            "problem": "example1", "solver": "highs", "max_designs": 3,
            "wait": True,
        })
        assert status == 200
        assert doc["status"] == "done"
        front = doc["result"]
        assert len(front["designs"]) == 3
        assert len(front["caps"]) == 3
        costs = [design["cost"] for design in front["designs"]]
        assert costs == sorted(costs, reverse=True)  # fastest-first


class TestErrors:
    def test_unknown_job_404(self, server):
        status, _, doc = call(server, "GET", "/jobs/nope")
        assert status == 404 and "unknown job" in doc["error"]

    def test_unknown_route_404(self, server):
        status, _, _ = call(server, "GET", "/frobnicate")
        assert status == 404
        status, _, _ = call(server, "POST", "/frobnicate", {})
        assert status == 404

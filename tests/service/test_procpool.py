"""Tests for the multi-process solve pool: results, errors, cancel, crashes."""

import json
import time

import pytest

from repro.errors import CancelledError, InfeasibleError, UnknownSolverError
from repro.service.api import ServiceApi
from repro.service.cache import ResultCache
from repro.service.jobs import JobManager, SweepRequest, SynthesizeRequest
from repro.service.procpool import SolvePool, SolvePoolBrokenError
from repro.solvers.base import SolverOptions
from repro.solvers.highs import HighsSolver
from repro.solvers.registry import _REGISTRY, register_solver


class StallSolver:
    """Polls ``should_stop`` forever (for cancellation tests)."""

    def __init__(self, options):
        self.options = options

    def solve(self, model):
        end = time.monotonic() + 30.0
        while time.monotonic() < end:
            if self.options.should_stop is not None and self.options.should_stop():
                raise CancelledError("stopped")
            time.sleep(0.01)
        raise AssertionError("stall solver was never stopped")


class PauseSolver:
    """Sleeps ~0.6 s (interruptibly), then solves for real."""

    def __init__(self, options):
        self.options = options
        self._inner = HighsSolver(options)

    def solve(self, model):
        end = time.monotonic() + 0.6
        while time.monotonic() < end:
            if self.options.should_stop is not None and self.options.should_stop():
                raise CancelledError("stopped")
            time.sleep(0.02)
        return self._inner.solve(model)


@pytest.fixture
def pool_solvers():
    # Registered before any pool is built, so fork-started workers
    # inherit the registry entries.
    register_solver("stall", StallSolver)
    register_solver("paused", PauseSolver)
    yield
    for name in ("stall", "paused"):
        _REGISTRY.pop(name, None)


def _norm(document):
    """Document minus wall-clock noise (solve timing, sweep stats)."""
    document = json.loads(json.dumps(document))
    if "designs" in document:
        document.pop("stats", None)
        for design in document["designs"]:
            design["solve_seconds"] = 0.0
    else:
        document["solve_seconds"] = 0.0
    return json.dumps(document, sort_keys=True)


class TestSolvePool:
    def test_synthesize_document_matches_inline(self, ex1_graph, ex1_library):
        request = SynthesizeRequest(ex1_graph, ex1_library)
        pool = SolvePool(processes=1)
        try:
            pooled = pool.run(request, SolverOptions())
        finally:
            pool.shutdown()
        inline = request.document_of(request.run(SolverOptions()))
        assert _norm(pooled) == _norm(inline)

    def test_sweep_document_matches_inline(self, ex1_graph, ex1_library):
        request = SweepRequest(ex1_graph, ex1_library, max_designs=3)
        pool = SolvePool(processes=2)
        try:
            pooled = pool.run(request, None)
        finally:
            pool.shutdown()
        inline = request.document_of(request.run(None))
        assert _norm(pooled) == _norm(inline)

    def test_worker_exceptions_cross_as_mapped_classes(
        self, ex1_graph, ex1_library
    ):
        pool = SolvePool(processes=1)
        try:
            with pytest.raises(UnknownSolverError):
                pool.run(
                    SynthesizeRequest(ex1_graph, ex1_library, solver="no-such"),
                    None,
                )
            # The worker survives a bad job and still answers good ones.
            with pytest.raises(InfeasibleError):
                pool.run(
                    SynthesizeRequest(ex1_graph, ex1_library, cost_cap=0.001),
                    None,
                )
            good = pool.run(SynthesizeRequest(ex1_graph, ex1_library), None)
            assert good["makespan"] > 0
        finally:
            pool.shutdown()

    def test_cancel_stops_inflight_solve(
        self, pool_solvers, ex1_graph, ex1_library
    ):
        pool = SolvePool(processes=1)
        cancel_at = time.monotonic() + 0.3
        try:
            started = time.monotonic()
            with pytest.raises(CancelledError):
                pool.run(
                    SynthesizeRequest(ex1_graph, ex1_library, solver="stall"),
                    None,
                    should_cancel=lambda: time.monotonic() >= cancel_at,
                )
            # Cooperative, but prompt: well under the solver's 30 s stall.
            assert time.monotonic() - started < 5.0
        finally:
            pool.shutdown()

    def test_budget_enforced_inside_worker(
        self, pool_solvers, ex1_graph, ex1_library
    ):
        pool = SolvePool(processes=1)
        try:
            started = time.monotonic()
            with pytest.raises(CancelledError):
                pool.run(
                    SynthesizeRequest(ex1_graph, ex1_library, solver="stall"),
                    None,
                    budget_until=time.time() + 0.3,
                )
            assert time.monotonic() - started < 5.0
        finally:
            pool.shutdown()

    def test_worker_death_breaks_lease_and_respawns(
        self, pool_solvers, ex1_graph, ex1_library
    ):
        pool = SolvePool(processes=1)
        try:
            import threading

            errors = []

            def run():
                try:
                    pool.run(
                        SynthesizeRequest(ex1_graph, ex1_library, solver="stall"),
                        None,
                    )
                except BaseException as exc:
                    errors.append(exc)

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            time.sleep(0.5)  # let the worker claim the job
            for proc in pool._procs:
                proc.terminate()
            thread.join(timeout=15.0)
            assert not thread.is_alive()
            assert errors and isinstance(errors[0], SolvePoolBrokenError)
            assert pool.restarts >= 1
            # The respawned slot still serves.
            good = pool.run(SynthesizeRequest(ex1_graph, ex1_library), None)
            assert good["cost"] > 0
        finally:
            pool.shutdown()

    def test_shutdown_is_idempotent_and_rejects_new_work(
        self, ex1_graph, ex1_library
    ):
        pool = SolvePool(processes=1)
        pool.shutdown()
        pool.shutdown()
        with pytest.raises(SolvePoolBrokenError):
            pool.run(SynthesizeRequest(ex1_graph, ex1_library), None)


class TestManagerProcessExecutor:
    def test_jobs_complete_on_process_pool(self, ex1_graph, ex1_library):
        with JobManager(workers=1, solve_processes=2) as manager:
            sweep = manager.submit(SweepRequest(ex1_graph, ex1_library,
                                                max_designs=2))
            single = manager.submit(SynthesizeRequest(ex1_graph, ex1_library))
            assert sweep.wait(120) and single.wait(120)
            assert sweep.status == "done" and single.status == "done"
            assert len(sweep.result.designs) == 2
            stats = manager.stats()
            assert stats["executor"] == "process"
            assert stats["pool"]["processes"] == 2

    def test_delete_bridges_cancellation_into_worker(
        self, pool_solvers, ex1_graph, ex1_library
    ):
        with JobManager(workers=1, solve_processes=1) as manager:
            job = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="stall")
            )
            deadline = time.monotonic() + 10
            while job.status == "queued" and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)
            manager.cancel(job.id)
            assert job.wait(10.0)
            assert job.status == "cancelled"

    def test_dead_worker_falls_back_inline(
        self, pool_solvers, ex1_graph, ex1_library
    ):
        with JobManager(workers=1, solve_processes=1) as manager:
            job = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="paused")
            )
            deadline = time.monotonic() + 10
            while job.status == "queued" and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.15)  # inside the worker's pause window
            for proc in manager._pool._procs:
                proc.terminate()
            assert job.wait(60.0)
            assert job.status == "done", job.error
            assert manager.inline_fallbacks == 1
            assert manager._pool.restarts >= 1

    def test_pooled_miss_serves_the_worker_document_as_is(
        self, ex1_graph, ex1_library, monkeypatch
    ):
        rebuilt = []
        rebuild = SynthesizeRequest.result_from_document

        def counting_rebuild(request, document):
            rebuilt.append(document)
            return rebuild(request, document)

        monkeypatch.setattr(SynthesizeRequest, "result_from_document",
                            counting_rebuild)
        cache = ResultCache()
        with JobManager(workers=1, cache=cache, solve_processes=1) as manager:
            returned = []
            run = manager._pool.run

            def recording_run(*args, **kwargs):
                returned.append(run(*args, **kwargs))
                return returned[-1]

            monkeypatch.setattr(manager._pool, "run", recording_run)
            body = {"problem": "example1", "solver": "highs", "cost_cap": 7,
                    "wait": 60}
            response = ServiceApi(manager).handle(
                "POST", "/v1/synthesize", json.dumps(body).encode()
            )
            assert response.status == 200, response.document
            job = manager.get(response.document["job"])
        [document] = returned
        # Stored and served without a Design round trip.
        assert job.document is document
        assert cache.get_payload(job.fingerprint, "design") == document
        assert (json.dumps(response.document["result"]).encode()
                == json.dumps(document).encode())
        assert rebuilt == []
        # The object is rebuilt from that document only when asked for.
        assert job.result.makespan == document["makespan"]
        assert rebuilt == [document]

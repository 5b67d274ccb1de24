"""Tests for the job manager: caching, dedup, cancellation, retries."""

import threading
import time

import pytest

from repro.errors import SolverError
from repro.obs.events import check_schema
from repro.obs.sinks import MemoryTraceSink
from repro.service.cache import ResultCache
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    JobManager,
    SweepRequest,
    SynthesizeRequest,
)
from repro.solvers.base import SolverOptions
from repro.solvers.highs import HighsSolver
from repro.solvers.registry import _REGISTRY, register_solver


class CountingSolver:
    """A real solve, but every backend invocation is counted."""

    calls = 0

    def __init__(self, options):
        self._inner = HighsSolver(options)

    def solve(self, model):
        type(self).calls += 1
        return self._inner.solve(model)


class GatedSolver(CountingSolver):
    """Blocks every solve until the gate opens (for queue-state tests)."""

    gate = threading.Event()

    def solve(self, model):
        type(self).gate.wait(30.0)
        return super().solve(model)


class FlakySolver(CountingSolver):
    """Fails with a transient error the first ``failures`` times."""

    failures = 2

    def solve(self, model):
        type(self).calls += 1
        if type(self).calls <= type(self).failures:
            raise SolverError("synthetic transient backend failure")
        return self._inner.solve(model)


@pytest.fixture
def fake_solvers():
    CountingSolver.calls = 0
    FlakySolver.calls = 0
    GatedSolver.gate = threading.Event()
    register_solver("counting", CountingSolver)
    register_solver("gated", GatedSolver)
    register_solver("flaky", FlakySolver)
    yield
    GatedSolver.gate.set()
    for name in ("counting", "gated", "flaky"):
        _REGISTRY.pop(name, None)


class TestCachingAndDedup:
    def test_resubmit_returns_cached_result_without_solving(
        self, fake_solvers, ex1_graph, ex1_library
    ):
        """Acceptance: an identical resubmission must not invoke any solver."""
        with JobManager(workers=1, cache=ResultCache()) as manager:
            first = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="counting")
            )
            assert first.wait(60)
            assert first.status == DONE and not first.cached
            calls_after_first = CountingSolver.calls
            assert calls_after_first > 0

            second = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="counting")
            )
            assert second.wait(60)
            assert second.status == DONE
            assert second.cached
            assert second.id != first.id
            assert CountingSolver.calls == calls_after_first  # no new solve
            assert second.result.makespan == first.result.makespan
            assert second.document == first.document

    def test_concurrent_identical_submissions_share_one_solve(
        self, fake_solvers, ex1_graph, ex1_library
    ):
        """Acceptance: two concurrent identical submissions, one solve."""
        with JobManager(workers=2, cache=ResultCache()) as manager:
            request = SynthesizeRequest(ex1_graph, ex1_library, solver="gated")
            first = manager.submit(request)
            second = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="gated")
            )
            assert second is first          # single-flight: same job object
            assert first.shared == 1
            assert manager.dedup_hits == 1
            GatedSolver.gate.set()
            assert first.wait(60)
            assert first.status == DONE
            assert manager.solves == 1

    def test_different_requests_do_not_dedup(
        self, fake_solvers, ex1_graph, ex1_library
    ):
        with JobManager(workers=1, cache=ResultCache()) as manager:
            GatedSolver.gate.set()
            a = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="gated")
            )
            b = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="gated",
                                  cost_cap=7.0)
            )
            assert a is not b
            assert a.wait(60) and b.wait(60)
            assert manager.solves == 2

    def test_hit_is_answered_on_submit_with_one_fingerprint(
        self, fake_solvers, monkeypatch, ex1_graph, ex1_library
    ):
        """A hit is done when submit returns: fingerprinted once, looked up
        once, walked through queued -> running -> done without a solve."""
        import repro.service.jobs as jobs_module

        fingerprints = 0
        fingerprint_request = jobs_module.fingerprint_request

        def counting(*args, **kwargs):
            nonlocal fingerprints
            fingerprints += 1
            return fingerprint_request(*args, **kwargs)

        monkeypatch.setattr(jobs_module, "fingerprint_request", counting)
        sink = MemoryTraceSink()
        cache = ResultCache()
        with JobManager(workers=1, cache=cache, trace=sink) as manager:
            miss = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="counting")
            )
            assert fingerprints == 1
            assert miss.wait(60) and miss.status == DONE
            hit = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="counting")
            )
            assert fingerprints == 2
            assert hit.finished and hit.status == DONE and hit.cached
            assert hit.attempts == 0
            assert hit.started_at is not None
            assert hit.document == miss.document
            assert manager.solves == 1
        assert (cache.misses, cache.hits) == (1, 1)
        hit_statuses = [
            event.data["status"] for event in sink.events
            if event.type == "job_status" and event.data["job"] == hit.id
        ]
        assert hit_statuses == ["queued", "running", "done"]
        assert check_schema(sink.events) == []

    def test_works_without_cache(self, fake_solvers, ex1_graph, ex1_library):
        with JobManager(workers=1, cache=None) as manager:
            job = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="counting")
            )
            assert job.wait(60)
            assert job.status == DONE and not job.cached


class TestCancellation:
    def test_cancel_running_sweep(self, ex1_graph, ex1_library):
        """Acceptance: a long-running sweep cancels within one node poll."""
        with JobManager(workers=1) as manager:
            job = manager.submit(
                SweepRequest(ex1_graph, ex1_library, solver="bozo")
            )
            deadline = time.monotonic() + 30
            while job.status != "running" and time.monotonic() < deadline:
                time.sleep(0.01)
            assert job.status == "running"
            assert manager.cancel(job.id)
            assert job.wait(10)
            assert job.status == CANCELLED
            assert job.error == "cancelled"
            assert job.result is None

    def test_cancel_queued_job_is_immediate(
        self, fake_solvers, ex1_graph, ex1_library
    ):
        with JobManager(workers=1) as manager:
            blocker = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="gated")
            )
            queued = manager.submit(
                SweepRequest(ex1_graph, ex1_library, solver="gated")
            )
            assert manager.cancel(queued.id)
            assert queued.wait(1)
            assert queued.status == CANCELLED
            GatedSolver.gate.set()
            assert blocker.wait(60)

    def test_cancel_finished_job_returns_false(
        self, fake_solvers, ex1_graph, ex1_library
    ):
        with JobManager(workers=1) as manager:
            job = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="counting")
            )
            assert job.wait(60)
            assert manager.cancel(job.id) is False

    def test_cancelled_job_does_not_dedup_new_submissions(
        self, fake_solvers, ex1_graph, ex1_library
    ):
        with JobManager(workers=1) as manager:
            blocker = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="gated")
            )
            queued = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="gated",
                                  cost_cap=9.0)
            )
            manager.cancel(queued.id)
            fresh = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="gated",
                                  cost_cap=9.0)
            )
            assert fresh is not queued
            GatedSolver.gate.set()
            assert blocker.wait(60) and fresh.wait(60)
            assert fresh.status == DONE


class TestDeadlinesAndRetries:
    def test_expired_deadline_fails_without_solving(
        self, fake_solvers, ex1_graph, ex1_library
    ):
        with JobManager(workers=1, cache=None) as manager:
            job = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="counting"),
                deadline_seconds=0.0,
            )
            assert job.wait(10)
            assert job.status == FAILED
            assert job.error == "deadline exceeded"
            assert CountingSolver.calls == 0

    def test_deadline_limited_result_is_not_cached(
        self, fake_solvers, ex1_graph, ex1_library
    ):
        """deadline_seconds is excluded from the fingerprint, so a result
        solved under a deadline-tightened time_limit (possibly a truncated
        incumbent) must never be stored under the deadline-free key."""
        cache = ResultCache()
        with JobManager(workers=1, cache=cache) as manager:
            limited = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="counting"),
                deadline_seconds=120.0,  # tightens the default inf time_limit
            )
            assert limited.wait(60)
            assert limited.status == DONE
            assert cache.stats()["stores"] == 0
            calls = CountingSolver.calls

            fresh = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="counting")
            )
            assert fresh.wait(60)
            assert fresh.status == DONE
            assert not fresh.cached          # no poisoned hit: it re-solved
            assert CountingSolver.calls > calls
            assert cache.stats()["stores"] == 1

    def test_generous_deadline_does_not_disable_caching(
        self, fake_solvers, ex1_graph, ex1_library
    ):
        """A deadline looser than the request's own finite time_limit
        cannot change the solve, so its result is still cached."""
        cache = ResultCache()
        with JobManager(workers=1, cache=cache) as manager:
            job = manager.submit(
                SynthesizeRequest(
                    ex1_graph, ex1_library, solver="counting",
                    solver_options=SolverOptions(time_limit=60.0),
                ),
                deadline_seconds=3600.0,
            )
            assert job.wait(60)
            assert job.status == DONE
            assert cache.stats()["stores"] == 1

    def test_transient_failures_retry_with_backoff(
        self, fake_solvers, ex1_graph, ex1_library
    ):
        with JobManager(workers=1, retries=2, retry_backoff=0.01) as manager:
            job = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="flaky")
            )
            assert job.wait(60)
            assert job.status == DONE
            assert job.attempts == 3  # two transient failures, then success

    def test_retries_exhausted_fails(self, fake_solvers, ex1_graph, ex1_library):
        FlakySolver.failures = 100
        try:
            with JobManager(workers=1, retries=1, retry_backoff=0.01) as manager:
                job = manager.submit(
                    SynthesizeRequest(ex1_graph, ex1_library, solver="flaky")
                )
                assert job.wait(60)
                assert job.status == FAILED
                assert "2 attempts" in job.error
        finally:
            FlakySolver.failures = 2

    def test_retry_backoff_never_overshoots_deadline(
        self, fake_solvers, ex1_graph, ex1_library
    ):
        """Regression: the exponential backoff used to sleep its full
        ``retry_backoff * 2**attempt`` even when the job's deadline was
        about to expire, so a 30 s backoff could hold a 1.5 s-deadline
        job for half a minute.  The delay is now capped at the remaining
        budget: the job must resolve around its deadline, not the backoff.
        """
        FlakySolver.failures = 100
        try:
            with JobManager(workers=1, retries=5, retry_backoff=30.0,
                            cache=None) as manager:
                started = time.monotonic()
                job = manager.submit(
                    SynthesizeRequest(ex1_graph, ex1_library, solver="flaky"),
                    deadline_seconds=1.5,
                )
                assert job.wait(20)
                elapsed = time.monotonic() - started
                assert job.status == FAILED
                assert elapsed < 10.0, (
                    f"retry backoff held a 1.5s-deadline job {elapsed:.1f}s"
                )
        finally:
            FlakySolver.failures = 2

    def test_permanent_errors_do_not_retry(self, ex1_graph, ex1_library):
        with JobManager(workers=1, retries=3, retry_backoff=0.01) as manager:
            job = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="no-such-backend")
            )
            assert job.wait(60)
            assert job.status == FAILED
            assert job.attempts == 1
            assert "unknown solver" in job.error


class TestSchedulingAndStats:
    def test_priorities_order_the_queue(
        self, fake_solvers, ex1_graph, ex1_library
    ):
        with JobManager(workers=1) as manager:
            blocker = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="gated")
            )
            low = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="gated",
                                  cost_cap=8.0),
                priority=0,
            )
            high = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="gated",
                                  cost_cap=9.0),
                priority=5,
            )
            GatedSolver.gate.set()
            assert blocker.wait(60) and low.wait(60) and high.wait(60)
            assert high.started_at <= low.started_at

    def test_stats_and_job_status_events(self, ex1_graph, ex1_library):
        sink = MemoryTraceSink()
        cache = ResultCache(trace=sink)
        with JobManager(workers=1, cache=cache, trace=sink) as manager:
            job = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="highs")
            )
            assert job.wait(60)
            stats = manager.stats()
            assert stats["jobs"] == {DONE: 1}
            assert stats["solves"] == 1
            assert stats["cache"]["stores"] == 1
        statuses = [
            event.data["status"] for event in sink.events
            if event.type == "job_status"
        ]
        assert statuses == ["queued", "running", "done"]
        assert check_schema(sink.events) == []

    def test_snapshot_shape(self, ex1_graph, ex1_library):
        with JobManager(workers=1, cache=ResultCache()) as manager:
            job = manager.submit(
                SynthesizeRequest(ex1_graph, ex1_library, solver="highs")
            )
            assert job.wait(60)
            snapshot = job.snapshot()
            assert snapshot["status"] == DONE
            assert snapshot["kind"] == "synthesize"
            assert len(snapshot["fingerprint"]) == 64
            assert snapshot["result"]["makespan"] == job.result.makespan

    def test_finished_job_retention_cap(
        self, fake_solvers, ex1_graph, ex1_library
    ):
        """Terminal jobs past max_finished_jobs are dropped from the job
        table (oldest-finished first) so the table stays bounded."""
        with JobManager(workers=1, cache=None, max_finished_jobs=2) as manager:
            jobs = [
                manager.submit(
                    SynthesizeRequest(ex1_graph, ex1_library,
                                      solver="counting", cost_cap=cap)
                )
                for cap in (7.0, 8.0, 9.0)
            ]
            assert all(job.wait(60) for job in jobs)
            with pytest.raises(KeyError):
                manager.get(jobs[0].id)
            assert manager.get(jobs[1].id) is jobs[1]
            assert manager.get(jobs[2].id) is jobs[2]
            # The caller's own reference stays fully usable.
            assert jobs[0].status == DONE and jobs[0].result is not None

    def test_submit_after_shutdown_raises(self, ex1_graph, ex1_library):
        manager = JobManager(workers=1)
        manager.shutdown()
        with pytest.raises(RuntimeError):
            manager.submit(SynthesizeRequest(ex1_graph, ex1_library))

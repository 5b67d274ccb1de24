"""Persistent pool: epoch reuse, spawn attach, cancellation, leaks."""

import threading
import time

import numpy as np
import pytest

from repro.errors import CancelledError
from repro.solvers.base import SolverOptions
from repro.solvers.bozo import BozoSolver
from repro.solvers import parallel as parallel_mod
from repro.solvers.pool import WorkerPool, get_pool, shutdown_pool
from repro.solvers.shm import live_segments
from tests.solvers.test_parallel import market_split


def _opts(workers, **kwargs):
    kwargs.setdefault("clamp_workers", False)
    kwargs.setdefault("branching", "most_fractional")
    return SolverOptions(workers=workers, **kwargs)


class TestSharedLedgers:
    """The per-epoch shared counters must survive pool reuse unscathed."""

    def test_counters_consistent_across_reused_epochs(self):
        # Back-to-back solves on one pool: every epoch must collect every
        # lease (none dropped, none carried over from the previous epoch)
        # and restart the shared incumbent and broadcast counter from its
        # own ramp, so each reused epoch reproduces the serial Solution.
        model = market_split(3, 13, 0)
        serial = BozoSolver(_opts(1)).solve(model)
        for _ in range(3):
            parallel = BozoSolver(_opts(3)).solve(model)
            assert parallel.values == serial.values
            assert parallel.best_bound == serial.best_bound
            pool = get_pool(3)
            assert pool.epoch.value == 0  # no epoch left open
            assert pool.incumbent.value >= serial.objective - 1e-9


class TestPoolLifecycle:
    def test_pool_persists_across_solves(self):
        model_a = market_split(3, 12, 0)
        model_b = market_split(3, 12, 1)
        BozoSolver(_opts(2)).solve(model_a)
        first = get_pool(2)
        BozoSolver(_opts(2)).solve(model_b)
        assert get_pool(2) is first  # reused, not respawned
        assert first.alive

    def test_dead_pool_is_replaced(self):
        pool = get_pool(2)
        for proc in pool._procs:
            proc.terminate()
        for proc in pool._procs:
            proc.join(5)
        model = market_split(3, 12, 2)
        solution = BozoSolver(_opts(2)).solve(model)  # must not hang
        reference = BozoSolver(_opts(1)).solve(model)
        assert solution.values == reference.values
        assert get_pool(2) is not pool

    def test_inline_fallback_matches_serial(self, monkeypatch):
        def no_pool(size):
            raise OSError("no processes for you")

        monkeypatch.setattr(parallel_mod, "get_pool", no_pool)
        model = market_split(3, 12, 1)
        parallel = BozoSolver(_opts(3)).solve(model)
        serial = BozoSolver(_opts(1)).solve(model)
        assert parallel.values == serial.values
        assert parallel.stats.subtrees_dispatched >= 1

    def test_spawn_start_method_attaches(self, monkeypatch):
        # The shared-memory publication must work without fork inheritance:
        # run a whole parallel solve on a spawn-context pool.
        monkeypatch.setenv("REPRO_POOL_START_METHOD", "spawn")
        shutdown_pool()  # drop any fork-context pool
        try:
            model = market_split(2, 10, 0)
            solution = BozoSolver(_opts(2, frontier_target=2)).solve(model)
            reference = BozoSolver(_opts(1)).solve(model)
            assert solution.values == reference.values
            pool = get_pool(2)
            assert pool.start_method == "spawn"
        finally:
            shutdown_pool()  # don't leave a spawn pool for other tests

    def test_shutdown_pool_is_idempotent(self):
        get_pool(2)
        shutdown_pool()
        shutdown_pool()
        assert get_pool(2).alive

    def test_regrow_waits_for_inflight_epoch(self):
        # get_pool(bigger) must not tear a live pool down while another
        # thread's epoch holds the epoch lock — the regrow blocks until
        # the lock is released, then replaces the pool.
        shutdown_pool()
        pool = get_pool(2)
        assert pool._lock.acquire(timeout=5)  # simulate an in-flight epoch
        grown = {}
        try:
            thread = threading.Thread(
                target=lambda: grown.setdefault("pool", get_pool(3))
            )
            thread.start()
            thread.join(timeout=0.5)
            assert thread.is_alive()  # blocked behind the epoch lock
            assert pool.alive  # the in-flight epoch kept its workers
        finally:
            pool._lock.release()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert grown["pool"] is not pool
        assert grown["pool"].size >= 3
        assert not pool.alive  # old pool shut down only after the epoch
        shutdown_pool()


class TestNoLeaks:
    def test_no_segments_after_solves(self):
        BozoSolver(_opts(2)).solve(market_split(3, 12, 0))
        BozoSolver(_opts(2)).solve(market_split(3, 12, 1))
        assert live_segments() == ()

    def test_no_segments_after_cancellation(self):
        t0 = time.monotonic()
        options = _opts(
            2, should_stop=lambda: time.monotonic() - t0 > 0.25
        )
        with pytest.raises(CancelledError):
            BozoSolver(options).solve(market_split(4, 24, 0))
        assert live_segments() == ()

    def test_no_segments_after_pool_crash(self):
        model = market_split(3, 12, 3)
        BozoSolver(_opts(2)).solve(model)  # warm the pool
        pool = get_pool(2)
        for proc in pool._procs:
            proc.terminate()
        BozoSolver(_opts(2)).solve(model)  # detects death, recovers
        assert live_segments() == ()


class TestCancellation:
    def test_cancel_reaches_pool_workers(self):
        # Trip the hook after the ramp has had time to dispatch subtrees:
        # cancellation must unwind the driver *and* stop in-flight leases
        # (the epoch fully drains, so the pool stays reusable).
        t0 = time.monotonic()
        options = _opts(
            2, should_stop=lambda: time.monotonic() - t0 > 0.25
        )
        with pytest.raises(CancelledError):
            BozoSolver(options).solve(market_split(4, 24, 1))
        pool = get_pool(2)
        assert pool.alive  # workers survived and drained the epoch
        # The pool is immediately reusable for a clean solve.
        model = market_split(2, 10, 1)
        solution = BozoSolver(_opts(2)).solve(model)
        reference = BozoSolver(_opts(1)).solve(model)
        assert solution.values == reference.values

    def test_immediate_cancel(self):
        options = _opts(2, should_stop=lambda: True)
        with pytest.raises(CancelledError):
            BozoSolver(options).solve(market_split(3, 12, 0))
        assert live_segments() == ()

    def test_queued_epoch_observes_cancellation(self):
        # A solve queued behind another epoch (the per-pool epoch lock)
        # must notice cancellation while waiting, not after the other
        # epoch drains.
        pool = WorkerPool(2)
        assert pool._lock.acquire(timeout=5)  # another epoch "in flight"
        try:
            deadline = time.monotonic() + 10.0
            with pytest.raises(CancelledError, match="queued"):
                pool.run_epoch(
                    spec={}, options=SolverOptions(), start=0.0,
                    ramp_obj=float("inf"), root_lp=None, fixed_bounds=None,
                    subtrees=[], root_lb=np.zeros(1), root_ub=np.ones(1),
                    trace_enabled=False,
                    should_stop=lambda: True,
                )
            assert time.monotonic() < deadline
        finally:
            pool._lock.release()
            pool.shutdown()

    def test_inline_fallback_cancels_mid_subtree(self, monkeypatch):
        # When the pool is unavailable the subtrees solve inline; the
        # caller's should_stop must reach *into* each lease (one-node
        # latency), not just be polled between subtrees.  The threshold
        # sits far above the ramp + per-subtree polls (~16 on this
        # model) but far below the per-node polls of the first leases,
        # so the solve only cancels if leases themselves poll the hook.
        def no_pool(size):
            raise OSError("no processes for you")

        monkeypatch.setattr(parallel_mod, "get_pool", no_pool)
        polls = {"count": 0}

        def stop_mid_lease() -> bool:
            polls["count"] += 1
            return polls["count"] > 100

        options = _opts(2, should_stop=stop_mid_lease)
        with pytest.raises(CancelledError):
            BozoSolver(options).solve(market_split(3, 14, 0))


class TestWorkerPoolUnit:
    def test_pool_start_and_shutdown(self):
        pool = WorkerPool(2)
        try:
            assert pool.alive
            assert len(pool._procs) == 2
        finally:
            pool.shutdown()
        assert not pool.alive

"""Persistent multi-process solve pool for the job service.

Solves are CPU-bound Python: the GIL caps a thread pool at one core, so
the service's execution tier runs them in *processes*.  A
:class:`SolvePool` owns a fixed set of persistent worker processes
created once and reused by every job — the process-spawn cost is paid at
startup, not per request:

1. The driver pickles one request object (plus its sanitized
   :class:`~repro.solvers.base.SolverOptions`) per job onto a shared job
   queue; any worker takes any job.
2. The worker announces the claim (``("claim", seq, slot)``) before
   solving, so the driver knows which process to signal for
   cancellation, then reports the finished *result document* (the JSON
   payload the cache and HTTP layers want anyway — result objects are
   rebuilt driver-side from it, so nothing non-JSON crosses back).
3. Cooperative cancellation crosses the process boundary through a
   shared flag array: the driver writes the job's sequence number into
   the claiming worker's slot, and the worker's
   ``SolverOptions.should_stop`` — polled once per branch-and-bound
   node — compares it against the job it is running.  Stale cancels for
   finished jobs can never hit a later job (the sequence numbers do not
   match).  HTTP ``DELETE`` therefore stops an in-flight pooled solve
   within one node's latency.
4. Wall-clock job deadlines travel as an absolute ``time.time()`` budget
   and are enforced inside the worker through the same hook (a sweep is
   many solves; the per-solve ``time_limit`` alone cannot bound it).

A worker death is detected by the driver's dispatcher thread: the lease
that died resolves as :class:`SolvePoolBrokenError` (the job manager
falls back to solving inline on its own thread) and the dead slot is
respawned so the pool heals without a restart.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import os
import threading
import time
from queue import Empty
from typing import Any, Dict, Optional, Tuple

from repro.errors import (
    CancelledError,
    InfeasibleError,
    ReproError,
    SolverError,
    SynthesisError,
    UnknownSolverError,
)
from repro.solvers.base import SolverOptions

#: Environment override for the pool's multiprocessing start method
#: (``fork``, ``spawn``, or ``forkserver``); empty picks ``fork`` where
#: available and ``spawn`` elsewhere.
START_METHOD_ENV = "REPRO_SOLVE_POOL_START_METHOD"

#: Seconds the driver (or a cancel poll) waits per queue poll.
_POLL = 0.05


class SolvePoolBrokenError(OSError):
    """A pool worker died (or the pool shut down) with the job in flight."""


#: Wire encoding of exceptions: workers ship ``(kind, message)`` instead
#: of pickled exception objects, and the driver re-raises the mapped
#: class — so the job manager's transient/permanent retry classification
#: sees exactly the types an inline solve would have raised.
_ERROR_CLASSES = {
    "cancelled": CancelledError,
    "infeasible": InfeasibleError,
    "unknown_solver": UnknownSolverError,
    "solver": SolverError,
    "synthesis": SynthesisError,
    "repro": ReproError,
    "os": OSError,
}


def _error_kind(exc: BaseException) -> str:
    """The wire tag for ``exc`` (most specific class first)."""
    if isinstance(exc, CancelledError):
        return "cancelled"
    if isinstance(exc, InfeasibleError):
        return "infeasible"
    if isinstance(exc, UnknownSolverError):
        return "unknown_solver"
    if isinstance(exc, SynthesisError):
        return "synthesis"
    if isinstance(exc, SolverError):
        return "solver"
    if isinstance(exc, ReproError):
        return "repro"
    if isinstance(exc, OSError):
        return "os"
    return "internal"


def raise_wire_error(kind: str, message: str) -> None:
    """Re-raise a worker's ``(kind, message)`` as the mapped exception.

    Unknown kinds (a worker bug, a version skew) surface as
    :class:`~repro.errors.SolverError` so the retry logic treats them as
    transient backend trouble rather than crashing the manager.
    """
    raise _ERROR_CLASSES.get(kind, SolverError)(message)


def sanitize_options(options: Optional[SolverOptions]) -> SolverOptions:
    """A picklable copy of ``options``: process-local callables stripped.

    ``should_stop`` is rebuilt worker-side from the shared cancel flag;
    ``trace``/``on_progress`` observers live in the driver process and
    cannot meaningfully fire from a worker, so pooled solves run
    untraced (the job-level ``job_status`` events still record
    lifecycle).
    """
    base = options or SolverOptions()
    return dataclasses.replace(
        base, should_stop=None, trace=None, on_progress=None
    )


# -- worker process ----------------------------------------------------------
def _pool_worker_main(slot: int, job_q, result_q, cancel_flags) -> None:
    """Worker entry point: claim jobs, solve, report documents."""
    while True:
        msg = job_q.get()
        if msg[0] == "stop":
            return
        _, seq, request, options, budget_until = msg
        result_q.put(("claim", seq, slot))

        def should_stop(seq=seq, budget_until=budget_until) -> bool:
            if cancel_flags[slot] == seq:
                return True
            return budget_until is not None and time.time() >= budget_until

        merged = dataclasses.replace(
            options or SolverOptions(), should_stop=should_stop
        )
        try:
            result = request.run(merged)
            document = request.document_of(result)
            result_q.put(("done", seq, slot, "ok", document))
        except BaseException as exc:  # never kill a worker on a bad job
            result_q.put(("done", seq, slot, "error",
                          (_error_kind(exc), str(exc))))


# -- driver side -------------------------------------------------------------
class _PoolJob:
    """Driver-side future for one pooled solve."""

    def __init__(self, seq: int) -> None:
        self.seq = seq
        self.slot: Optional[int] = None
        self.cancel_requested = False
        self.outcome: Optional[Tuple[str, Any]] = None  # (kind, payload)
        self._done = threading.Event()

    def resolve(self, kind: str, payload) -> None:
        if self.outcome is None:
            self.outcome = (kind, payload)
            self._done.set()

    def wait(self, timeout: float) -> bool:
        return self._done.wait(timeout)


class SolvePool:
    """A persistent pool of solve worker processes.

    Args:
        processes: Worker process count (>= 1).
        start_method: Multiprocessing start method; defaults to the
            :data:`START_METHOD_ENV` override, then ``fork`` where
            available.

    Raises:
        OSError: When worker processes cannot be created (the job
            manager falls back to in-thread execution).
    """

    def __init__(self, processes: int = 2, start_method: Optional[str] = None) -> None:
        if processes < 1:
            raise ValueError("SolvePool needs at least one process")
        method = start_method or os.environ.get(START_METHOD_ENV, "").strip()
        if not method:
            method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self._ctx = multiprocessing.get_context(method)
        self.size = processes
        self.start_method = method
        self._job_q = self._ctx.Queue()
        self._result_q = self._ctx.Queue()
        #: Per-slot cancel signal: the seq to cancel (0 = none).  Workers
        #: compare against the seq they are running, so a stale cancel
        #: can never stop a later job.
        self._cancel_flags = self._ctx.Array("q", processes)
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._futures: Dict[int, _PoolJob] = {}
        self._claims: Dict[int, int] = {}  # slot -> claimed seq
        self._shutdown = False
        self.restarts = 0
        self._procs = []
        try:
            for slot in range(processes):
                self._procs.append(self._spawn(slot))
        except BaseException:
            self.shutdown()
            raise
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-solve-pool-dispatch",
            daemon=True,
        )
        self._dispatcher.start()

    def _spawn(self, slot: int):
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(slot, self._job_q, self._result_q, self._cancel_flags),
            daemon=True,
            name=f"repro-solve-{slot}",
        )
        proc.start()
        return proc

    # -- public API ----------------------------------------------------------
    def run(
        self,
        request,
        solver_options: Optional[SolverOptions],
        *,
        budget_until: Optional[float] = None,
        should_cancel=None,
    ) -> Any:
        """Solve ``request`` on a worker; block until its document is back.

        Args:
            request: A picklable request object exposing
                ``run(solver_options)`` and ``document_of(result)`` —
                :class:`~repro.service.jobs.SynthesizeRequest` or
                :class:`~repro.service.jobs.SweepRequest`.
            solver_options: Merged options for the solve; sanitized
                (callables stripped) before crossing the boundary.
            budget_until: Absolute ``time.time()`` deadline enforced
                inside the worker between and during solves.
            should_cancel: Polled every ``50ms`` while waiting; when it
                fires, the claiming worker is signalled and the solve
                unwinds cooperatively (raising
                :class:`~repro.errors.CancelledError` here).

        Returns:
            The request's result *document* (JSON-compatible).

        Raises:
            SolvePoolBrokenError: The worker died mid-solve (callers
                fall back to solving inline).
            CancelledError: The solve was cancelled or ran out of budget.
            ReproError: Whatever the solve itself raised, re-raised by
                class so retry semantics match inline execution.
        """
        job = self._submit(request, sanitize_options(solver_options), budget_until)
        try:
            while not job.wait(_POLL):
                if should_cancel is not None and should_cancel():
                    self._cancel(job)
        finally:
            with self._lock:
                self._futures.pop(job.seq, None)
        kind, payload = job.outcome
        if kind == "ok":
            return payload
        if kind == "broken":
            raise SolvePoolBrokenError(payload)
        raise_wire_error(payload[0], payload[1])

    def stats(self) -> Dict[str, Any]:
        """Occupancy snapshot for the metrics endpoint."""
        with self._lock:
            busy = len(self._claims)
            in_flight = len(self._futures)
        return {
            "processes": self.size,
            "start_method": self.start_method,
            "busy": busy,
            "queued": max(0, in_flight - busy),
            "restarts": self.restarts,
        }

    def shutdown(self) -> None:
        """Stop the workers and fail any in-flight futures; idempotent."""
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
            pending = list(self._futures.values())
            self._futures.clear()
            self._claims.clear()
        for job in pending:
            job.resolve("broken", "solve pool shut down")
        for _ in self._procs:
            try:
                self._job_q.put(("stop",))
            except (OSError, ValueError):  # pragma: no cover - queue gone
                pass
        for proc in self._procs:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self._procs = []
        for q in (self._job_q, self._result_q):
            try:
                q.cancel_join_thread()
                q.close()
            except (OSError, ValueError):  # pragma: no cover - queue gone
                pass

    # -- internals -----------------------------------------------------------
    def _submit(self, request, options: SolverOptions,
                budget_until: Optional[float]) -> _PoolJob:
        with self._lock:
            if self._shutdown:
                raise SolvePoolBrokenError("solve pool is shut down")
            seq = next(self._seq)
            job = _PoolJob(seq)
            self._futures[seq] = job
        self._job_q.put(("job", seq, request, options, budget_until))
        return job

    def _cancel(self, job: _PoolJob) -> None:
        with self._lock:
            job.cancel_requested = True
            if job.slot is not None and self._claims.get(job.slot) == job.seq:
                self._cancel_flags[job.slot] = job.seq

    def _dispatch_loop(self) -> None:
        """Demultiplex worker reports onto futures; heal dead workers."""
        while True:
            with self._lock:
                if self._shutdown:
                    return
            try:
                msg = self._result_q.get(timeout=_POLL)
            except Empty:
                self._reap_dead_workers()
                continue
            except (OSError, ValueError):  # pragma: no cover - queue closed
                return
            if msg[0] == "claim":
                _, seq, slot = msg
                with self._lock:
                    self._claims[slot] = seq
                    job = self._futures.get(seq)
                    if job is not None:
                        job.slot = slot
                        # A cancel that raced the claim lands now.
                        if job.cancel_requested:
                            self._cancel_flags[slot] = seq
            elif msg[0] == "done":
                _, seq, slot, kind, payload = msg
                with self._lock:
                    if self._claims.get(slot) == seq:
                        del self._claims[slot]
                    job = self._futures.pop(seq, None)
                if job is not None:
                    job.resolve(kind, payload)

    def _reap_dead_workers(self) -> None:
        """Fail the leases of dead workers and respawn their slots."""
        for slot, proc in enumerate(self._procs):
            if proc is None or proc.is_alive():
                continue
            with self._lock:
                if self._shutdown:
                    return
                seq = self._claims.pop(slot, None)
                job = self._futures.pop(seq, None) if seq is not None else None
                self._cancel_flags[slot] = 0
                self.restarts += 1
            if job is not None:
                job.resolve(
                    "broken",
                    f"solve worker {slot} died (exit {proc.exitcode})",
                )
            self._procs[slot] = self._spawn(slot)

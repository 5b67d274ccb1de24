"""Thread-pool synthesis job manager: priorities, deadlines, dedup, cancel.

The serving brain of :mod:`repro.service`.  A :class:`JobManager` owns a
pool of worker threads draining a priority queue of synthesis jobs; each
job is a :class:`SynthesizeRequest` or :class:`SweepRequest` plus
bookkeeping.  What the manager adds over a bare thread pool:

* **Content-addressed caching** — every request is fingerprinted once
  (:mod:`repro.service.fingerprint`) and looked up in the
  :class:`~repro.service.cache.ResultCache` by :meth:`JobManager.submit`
  itself: a hit completes the job on the submitting thread with the
  stored document as is, without queueing it, instantiating a solver or
  rebuilding the result object.
* **Single-flight dedup** — while a job for fingerprint ``F`` is queued
  or running, submitting an identical request returns *that job* instead
  of enqueueing a second solve: concurrent identical work is done once
  and the result shared.
* **Cooperative cancellation** — ``cancel(job_id)`` sets a
  ``threading.Event`` that the solvers poll once per branch-and-bound
  node through :attr:`SolverOptions.should_stop
  <repro.solvers.base.SolverOptions.should_stop>`; a running solve
  unwinds with :class:`~repro.errors.CancelledError` within one node.
  With a solve pool (``solve_processes >= 1``) the hook crosses into it
  through its shared cancel flags (below).
* **Per-job deadlines** — a wall-clock budget counted from submission,
  mapped onto ``SolverOptions.time_limit`` for each underlying solve and
  enforced between solves through the same ``should_stop`` hook (a sweep
  is many solves; the time limit alone would only bound each one).
* **Retry with backoff** — transient backend failures (a crashed worker
  pool, an OS-level hiccup) are retried with exponential backoff capped
  at the job's remaining deadline budget; infeasibility, unknown
  solvers, and cancellations are permanent and never retried.
* **Multi-process execution** (``solve_processes >= 1``) — solves run on a
  persistent :class:`~repro.service.procpool.SolvePool` of worker
  *processes* instead of the manager's own threads, so CPU-bound jobs
  scale past the GIL.  The manager threads become dispatchers: they poll
  cancellation/deadline and bridge them to the pool's shared cancel
  flags.  A broken pool worker triggers a transparent inline fallback.
* **Backpressure** — with ``max_queued`` set, submissions beyond the
  bound raise :class:`QueueFullError` (HTTP maps it to ``429``) instead
  of growing the queue without limit.  Cache and dedup hits queue
  nothing, so the bound never rejects them.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional

from repro.core.options import FormulationOptions, Objective
from repro.errors import (
    CancelledError,
    InfeasibleError,
    ReproError,
    SolverError,
    UnknownSolverError,
)
from repro.obs.sinks import Tracer, make_tracer
from repro.service.cache import ResultCache
from repro.service.fingerprint import fingerprint_request
from repro.solvers.base import SolverOptions
from repro.synthesis.synthesizer import Synthesizer
from repro.system.interconnect import InterconnectStyle
from repro.system.library import TechnologyLibrary
from repro.taskgraph.graph import TaskGraph

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Exceptions worth retrying: backend trouble that a fresh attempt can
#: plausibly clear.  Infeasibility and bad solver names are excluded
#: below — they are properties of the request, not of the attempt.
_TRANSIENT = (SolverError, OSError)
_PERMANENT = (InfeasibleError, UnknownSolverError)


class QueueFullError(RuntimeError):
    """Submission rejected: the job queue is at its ``max_queued`` bound.

    The HTTP layers answer ``429`` with ``Retry-After:``
    :attr:`retry_after` — backpressure instead of unbounded queueing.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class _Request:
    """What both request kinds share: the cache key, computed once.

    Requests are frozen, so the fingerprint of an instance never changes
    and the service can keep an admitted request and submit it again.
    Mutating an object a request holds (its graph, library or
    constraints) after its first :meth:`fingerprint` is not seen.
    """

    def fingerprint(self) -> str:
        """Content address of this request (see :mod:`.fingerprint`)."""
        key = self.__dict__.get("_fingerprint")
        if key is None:
            key = fingerprint_request(
                self.kind, self.graph, self.library,
                solver=self.solver, solver_options=self.solver_options,
                formulation=self._formulation(), constraints=self.constraints,
                **self._params(),
            )
            # A frozen dataclass refuses setattr; the memo is not a field.
            object.__setattr__(self, "_fingerprint", key)
        return key

    def _formulation(self) -> FormulationOptions:
        base = self.formulation or FormulationOptions()
        return dataclasses.replace(base, style=self.style)


@dataclass(frozen=True)
class SynthesizeRequest(_Request):
    """One ``synthesize`` call as data (what the HTTP API posts).

    Attributes mirror :meth:`repro.synthesis.synthesizer.Synthesizer.synthesize`
    and its constructor configuration.
    """

    graph: TaskGraph
    library: TechnologyLibrary
    style: InterconnectStyle = InterconnectStyle.POINT_TO_POINT
    solver: str = "auto"
    solver_options: Optional[SolverOptions] = None
    formulation: Optional[FormulationOptions] = None
    constraints: Any = None
    cost_cap: Optional[float] = None
    deadline: Optional[float] = None
    objective: Objective = Objective.MIN_MAKESPAN
    minimize_secondary: bool = True
    validate: bool = True

    kind = "synthesize"
    #: The :class:`ResultCache` kind tag of this request's stored result.
    cache_kind = "design"

    def _params(self) -> Dict[str, Any]:
        return {
            "cost_cap": self.cost_cap, "deadline": self.deadline,
            "objective": self.objective,
            "minimize_secondary": self.minimize_secondary,
        }

    def _synthesizer(self, solver_options: Optional[SolverOptions]) -> Synthesizer:
        return Synthesizer(
            self.graph, self.library, style=self.style, solver=self.solver,
            solver_options=solver_options, options=self.formulation,
            constraints=self.constraints,
        )

    def run(self, solver_options: Optional[SolverOptions]):
        """Execute the solve; returns the result object.

        ``solver_options`` is this request's options with the job layer's
        cancellation hook and deadline-derived time limit merged in.
        """
        return self._synthesizer(solver_options).synthesize(
            cost_cap=self.cost_cap, deadline=self.deadline,
            objective=self.objective,
            minimize_secondary=self.minimize_secondary,
            validate=self.validate,
        )

    def document_of(self, result) -> Dict[str, Any]:
        """JSON document for ``result`` (the cache/HTTP payload)."""
        from repro.synthesis.io import design_to_document

        return design_to_document(result)

    def result_from_document(self, document: Dict[str, Any]):
        """Rebuild the design from its document (pool wire format, cache hits)."""
        from repro.synthesis.io import design_from_dict

        return design_from_dict(self.graph, self.library, document)


@dataclass(frozen=True)
class SweepRequest(_Request):
    """One ``pareto_sweep`` call as data."""

    graph: TaskGraph
    library: TechnologyLibrary
    style: InterconnectStyle = InterconnectStyle.POINT_TO_POINT
    solver: str = "auto"
    solver_options: Optional[SolverOptions] = None
    formulation: Optional[FormulationOptions] = None
    constraints: Any = None
    max_designs: int = 64
    cost_step: float = 1e-4
    validate: bool = True

    kind = "sweep"
    #: The :class:`ResultCache` kind tag of this request's stored result.
    cache_kind = "front"

    def _params(self) -> Dict[str, Any]:
        return {"max_designs": self.max_designs, "cost_step": self.cost_step}

    def run(self, solver_options: Optional[SolverOptions]):
        """Execute the sweep; returns the :class:`ParetoFront`."""
        synth = Synthesizer(
            self.graph, self.library, style=self.style, solver=self.solver,
            solver_options=solver_options, options=self.formulation,
            constraints=self.constraints,
        )
        return synth.pareto_sweep(
            max_designs=self.max_designs, cost_step=self.cost_step,
            validate=self.validate,
        )

    def document_of(self, result) -> Dict[str, Any]:
        """JSON document for ``result`` (the cache/HTTP payload)."""
        return result.to_dict()

    def result_from_document(self, document: Dict[str, Any]):
        """Rebuild the front from its document (pool wire format, cache hits)."""
        from repro.synthesis.front import ParetoFront

        return ParetoFront.from_dict(document, self.graph, self.library)


class Job:
    """One submitted request plus its lifecycle state.

    Not constructed directly — :meth:`JobManager.submit` returns these.
    A job deduplicated onto an earlier identical submission IS that
    earlier job (same object, same id): waiters share one solve and one
    result, and cancelling it cancels it for every submitter.
    """

    def __init__(self, job_id: str, request, fingerprint: str, priority: int,
                 deadline_seconds: Optional[float]) -> None:
        self.id = job_id
        self.request = request
        self.kind = request.kind
        self.fingerprint = fingerprint
        self.priority = priority
        self.deadline_seconds = deadline_seconds
        self.status = QUEUED
        #: True when the result came from the cache (no solver invoked).
        self.cached = False
        #: Solve attempts actually started (0 for a cache hit).
        self.attempts = 0
        #: Identical submissions coalesced onto this job (dedup count).
        self.shared = 0
        self.error: Optional[str] = None
        self._result: Any = None
        #: The result's JSON document once DONE (what HTTP serves).
        self.document: Optional[Dict[str, Any]] = None
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._submitted_mono = time.monotonic()
        self._cancel = threading.Event()
        self._finished = threading.Event()

    # -- caller-facing ------------------------------------------------------
    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state (or ``timeout``)."""
        return self._finished.wait(timeout)

    @property
    def finished(self) -> bool:
        """True in any terminal state (done, failed, cancelled)."""
        return self._finished.is_set()

    @property
    def result(self) -> Any:
        """The result object (Design or ParetoFront) once DONE.

        A done job carries only its result document (what HTTP serves and
        the cache stores); the object is rebuilt from that document on
        first access.
        """
        if self._result is None and self.document is not None:
            self._result = self.request.result_from_document(self.document)
        return self._result

    @property
    def cancel_requested(self) -> bool:
        """True once :meth:`JobManager.cancel` has been called on this job."""
        return self._cancel.is_set()

    def snapshot(self) -> Dict[str, Any]:
        """JSON document of the job's current state (``GET /jobs/<id>``)."""
        return {
            "job": self.id,
            "kind": self.kind,
            "status": self.status,
            "fingerprint": self.fingerprint,
            "priority": self.priority,
            "cached": self.cached,
            "attempts": self.attempts,
            "shared": self.shared,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "result": self.document,
        }

    # -- deadline plumbing --------------------------------------------------
    def remaining_seconds(self) -> Optional[float]:
        """Wall-clock budget left, or ``None`` when no deadline was set."""
        if self.deadline_seconds is None:
            return None
        return self.deadline_seconds - (time.monotonic() - self._submitted_mono)

    def past_deadline(self) -> bool:
        """True when the job's wall-clock budget is exhausted."""
        remaining = self.remaining_seconds()
        return remaining is not None and remaining <= 0

    def __repr__(self) -> str:
        return f"Job({self.id!r}, {self.kind}, {self.status})"


class JobManager:
    """Priority thread pool executing synthesis jobs against a cache.

    Args:
        workers: Worker thread count.  Threads are daemonic and started
            eagerly; :meth:`shutdown` (or the context manager) stops them.
        cache: Shared :class:`~repro.service.cache.ResultCache`; ``None``
            disables caching (every submission solves).
        retries: Extra attempts after a transient backend failure.
        retry_backoff: Base backoff in seconds; attempt ``k`` waits
            ``retry_backoff * 2**k`` (interrupted early by cancellation).
        max_finished_jobs: Retention cap on *terminal* jobs.  Once more
            than this many jobs have finished, the oldest-finished ones
            (and their result documents) are dropped from the job table,
            so a long-running service does not grow without bound;
            ``GET /jobs/<id>`` answers 404 for an evicted job.  Results
            themselves stay available through the cache.
        trace: Optional :class:`~repro.obs.sinks.TraceSink` receiving
            ``job_status`` events at every state transition.
        solve_processes: Size of a persistent
            :class:`~repro.service.procpool.SolvePool` the solves run on,
            so CPU-bound solves use real cores.  ``0`` (default) runs
            solves on the manager's own worker threads.
        max_queued: Bound on QUEUED jobs; submissions past it raise
            :class:`QueueFullError`.  Cache and dedup hits are never
            refused.  ``None`` (default) is unbounded.
    """

    def __init__(
        self,
        workers: int = 2,
        cache: Optional[ResultCache] = None,
        retries: int = 2,
        retry_backoff: float = 0.1,
        max_finished_jobs: int = 256,
        trace=None,
        solve_processes: int = 0,
        max_queued: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("JobManager needs at least one worker thread")
        if max_finished_jobs < 0:
            raise ValueError("max_finished_jobs must be nonnegative")
        if solve_processes < 0:
            raise ValueError("solve_processes must be nonnegative")
        if max_queued is not None and max_queued < 1:
            raise ValueError("max_queued must be at least 1 (or None)")
        self.cache = cache
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.max_finished_jobs = max_finished_jobs
        self.max_queued = max_queued
        self._pool = None
        if solve_processes > 0:
            from repro.service.procpool import SolvePool

            self._pool = SolvePool(processes=solve_processes)
        self._tracer: Optional[Tracer] = make_tracer(trace)
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._queue: List = []  # heap of (-priority, seq, job)
        self._seq = itertools.count()
        self._ids = itertools.count(1)
        self._jobs: Dict[str, Job] = {}
        #: Terminal job ids in finish order, for retention eviction.
        self._finished_order: Deque[str] = deque()
        #: fingerprint -> in-flight (queued or running) job, for dedup.
        self._inflight: Dict[str, Job] = {}
        self._shutdown = False
        #: Solve attempts actually started (cache hits excluded).
        self.solves = 0
        #: Submissions answered by single-flight dedup.
        self.dedup_hits = 0
        #: Pooled solves re-run inline after a worker process died.
        self.inline_fallbacks = 0
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-job-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- public API ----------------------------------------------------------
    def submit(self, request, priority: int = 0,
               deadline_seconds: Optional[float] = None) -> Job:
        """Admit a request; returns its :class:`Job` immediately.

        A cache hit is answered here, on the calling thread: the job is
        registered already ``done`` (``cached=True``, ``attempts=0``),
        its ``document`` is the stored payload, and it is never queued,
        so it neither waits for a worker nor counts against
        ``max_queued``.  Single-flight: when an identical request
        (same fingerprint) is already queued or running, the existing job
        is returned instead of a new one — the callers share one solve.
        Finished jobs never dedup (their results are in the cache).

        Args:
            request: A :class:`SynthesizeRequest` or :class:`SweepRequest`.
            priority: Higher runs earlier; ties run in submission order.
            deadline_seconds: Wall-clock budget counted from *this*
                submission.  Ignored when deduplicated onto an in-flight
                job (the original submission's budget stands).

        Raises:
            CacheEntryError: The cached entry for this request's
                fingerprint has a mismatched envelope; it is not served.
            QueueFullError: The queue is at ``max_queued``.
        """
        key = request.fingerprint()
        # The lookup runs outside the lock.  A twin that stores its result
        # between this miss and the dedup check below costs one redundant
        # solve of the same answer, no more.
        document = (
            self.cache.get_payload(key, request.cache_kind)
            if self.cache is not None else None
        )
        with self._work_ready:
            if self._shutdown:
                raise RuntimeError("JobManager is shut down")
            if document is not None:
                job = self._register(request, key, priority, deadline_seconds)
                job.status = RUNNING
                job.started_at = time.time()
                self._emit_status(job)
                job.document = document
                job.cached = True
                self._finalize(job, DONE)
                return job
            existing = self._inflight.get(key)
            if existing is not None and not existing.cancel_requested:
                existing.shared += 1
                self.dedup_hits += 1
                return existing
            # Backpressure: cache and dedup hits above never count
            # against the bound (they queue no new work); fresh work does.
            if self.max_queued is not None:
                queued = sum(1 for *_, j in self._queue if j.status == QUEUED)
                if queued >= self.max_queued:
                    raise QueueFullError(
                        f"job queue is full ({queued} jobs queued, "
                        f"max_queued={self.max_queued})"
                    )
            job = self._register(request, key, priority, deadline_seconds)
            self._inflight[key] = job
            heapq.heappush(self._queue, (-priority, next(self._seq), job))
            self._work_ready.notify()
            return job

    def get(self, job_id: str) -> Job:
        """The job with ``job_id``.

        Raises:
            KeyError: Unknown id.
        """
        with self._lock:
            return self._jobs[job_id]

    def cancel(self, job_id: str) -> bool:
        """Request cancellation of a job; returns False in terminal states.

        A queued job is finalized as ``cancelled`` immediately; a running
        job's solver observes the flag through ``should_stop`` within one
        branch-and-bound node and unwinds cooperatively.
        """
        with self._lock:
            job = self._jobs[job_id]
            if job.finished:
                return False
            job._cancel.set()
            if job.status == QUEUED:
                self._finalize(job, CANCELLED, error="cancelled before start")
            return True

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot: job states, dedup/solve counts, cache counters."""
        with self._lock:
            by_status: Dict[str, int] = {}
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
            return {
                "jobs": by_status,
                "queued": sum(1 for *_, j in self._queue if j.status == QUEUED),
                "max_queued": self.max_queued,
                "solves": self.solves,
                "dedup_hits": self.dedup_hits,
                "workers": len(self._threads),
                "executor": "process" if self._pool is not None else "thread",
                "pool": self._pool.stats() if self._pool is not None else None,
                "inline_fallbacks": self.inline_fallbacks,
                "cache": self.cache.stats() if self.cache is not None else None,
            }

    def shutdown(self, wait: bool = True, cancel_pending: bool = True) -> None:
        """Stop the workers.

        Args:
            wait: Join the worker threads before returning.
            cancel_pending: Cancel queued jobs (running solves also get
                their cancel flag set, so they unwind within a node).
        """
        with self._work_ready:
            if self._shutdown:
                return
            self._shutdown = True
            if cancel_pending:
                for job in self._jobs.values():
                    if not job.finished:
                        job._cancel.set()
                        if job.status == QUEUED:
                            self._finalize(job, CANCELLED, error="service shutdown")
            self._work_ready.notify_all()
        if wait:
            for thread in self._threads:
                thread.join(timeout=30.0)
        if self._pool is not None:
            self._pool.shutdown()

    def __enter__(self) -> "JobManager":
        """Context-manager support: shuts down on exit."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Shut down (cancelling pending jobs) on scope exit."""
        self.shutdown()

    # -- worker internals ----------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._work_ready:
                while not self._queue and not self._shutdown:
                    self._work_ready.wait()
                if not self._queue and self._shutdown:
                    return
                _, _, job = heapq.heappop(self._queue)
                if job.finished:  # lazy skip: cancelled while queued
                    continue
                job.status = RUNNING
                job.started_at = time.time()
                self._emit_status(job)
            try:
                self._execute(job)
            except BaseException as exc:  # never kill a worker thread
                with self._lock:
                    if not job.finished:
                        self._finalize(job, FAILED, error=f"internal error: {exc!r}")

    def _execute(self, job: Job) -> None:
        """The retry/solve/finalize loop for one job that missed the cache."""
        if job.cancel_requested:
            with self._lock:
                self._finalize(job, CANCELLED, error="cancelled before start")
            return
        request = job.request
        attempt = 0
        while True:
            if job.past_deadline():
                self._fail(job, "deadline exceeded")
                return
            job.attempts = attempt + 1
            with self._lock:
                self.solves += 1
            solver_options, deadline_limited = self._solver_options(job)
            try:
                document = self._dispatch(job, solver_options)
            except CancelledError:
                with self._lock:
                    if job.cancel_requested:
                        self._finalize(job, CANCELLED, error="cancelled")
                    else:
                        self._finalize(job, FAILED, error="deadline exceeded")
                return
            except _PERMANENT as exc:
                self._fail(job, str(exc))
                return
            except _TRANSIENT as exc:
                if attempt >= self.retries:
                    self._fail(job, f"{exc} (after {attempt + 1} attempts)")
                    return
                # Exponential backoff, cut short by a cancel request and
                # capped at the remaining deadline budget — the sleep
                # must never be what pushes the job past its deadline.
                delay = self.retry_backoff * (2 ** attempt)
                remaining = job.remaining_seconds()
                if remaining is not None:
                    delay = min(delay, max(0.0, remaining))
                job._cancel.wait(delay)
                attempt += 1
                continue
            except ReproError as exc:  # SynthesisError etc.: permanent
                self._fail(job, str(exc))
                return
            break

        # The fingerprint excludes deadline_seconds (it is a property of
        # the submission, not of the problem), so a result produced under
        # a deadline-tightened time_limit may be a truncated incumbent
        # that a deadline-free solve would improve on.  Caching it would
        # serve the truncated answer to every future identical request —
        # so deadline-limited results are never stored.
        if self.cache is not None and not deadline_limited:
            self.cache.put(job.fingerprint, request.cache_kind, document)
        with self._lock:
            job.document = document
            self._finalize(job, DONE)

    def _dispatch(self, job: Job, solver_options: SolverOptions) -> Dict[str, Any]:
        """Run the job's request on the process pool (or inline).

        Returns the result document.  Pool path: ships the request, polls
        cancellation/deadline on the driver side (bridged to the pool's
        shared cancel flags) and returns the worker's document as is.  A
        dead worker process surfaces as ``SolvePoolBrokenError``; the
        solve then reruns inline on this thread so the job still
        completes.
        """
        request = job.request
        if self._pool is not None:
            from repro.service.procpool import SolvePoolBrokenError

            remaining = job.remaining_seconds()
            budget_until = (
                time.time() + max(0.0, remaining)
                if remaining is not None else None
            )
            try:
                return self._pool.run(
                    request, solver_options, budget_until=budget_until,
                    should_cancel=solver_options.should_stop,
                )
            except SolvePoolBrokenError:
                with self._lock:
                    self.inline_fallbacks += 1
                # fall through to the inline path below
        return request.document_of(request.run(solver_options))

    def _fail(self, job: Job, error: str) -> None:
        with self._lock:
            self._finalize(job, FAILED, error=error)

    def _solver_options(self, job: Job) -> "tuple[SolverOptions, bool]":
        """The request's solver options plus the job layer's hooks.

        ``should_stop`` observes the cancel flag and the wall-clock
        deadline (a sweep is many solves — the per-solve time limit alone
        cannot bound the whole job); the remaining budget also tightens
        ``time_limit`` for the next solve.

        Returns the merged options and whether the deadline tightened
        ``time_limit`` below the request's own limit — in which case the
        result may be deadline-truncated and must not be cached (the
        fingerprint does not include the deadline).
        """
        base = job.request.solver_options or SolverOptions()

        def should_stop() -> bool:
            return job.cancel_requested or job.past_deadline()

        remaining = job.remaining_seconds()
        time_limit = base.time_limit
        deadline_limited = False
        if remaining is not None and remaining < time_limit:
            time_limit = max(remaining, 0.0)
            deadline_limited = True
        options = dataclasses.replace(
            base, should_stop=should_stop, time_limit=time_limit
        )
        return options, deadline_limited

    def _register(self, request, key: str, priority: int,
                  deadline_seconds: Optional[float]) -> Job:
        """A new QUEUED job in the job table.  Caller holds the lock."""
        job = Job(f"j{next(self._ids):06d}", request, key, priority,
                  deadline_seconds)
        self._jobs[job.id] = job
        self._emit_status(job)
        return job

    def _finalize(self, job: Job, status: str, error: Optional[str] = None) -> None:
        """Move a job to a terminal state.  Caller holds the lock."""
        if job.finished:
            return
        job.status = status
        job.error = error
        job.finished_at = time.time()
        if self._inflight.get(job.fingerprint) is job:
            del self._inflight[job.fingerprint]
        self._emit_status(job)
        job._finished.set()
        # Retention: drop the oldest-finished jobs past the cap so a
        # long-running service's job table (and the result documents it
        # pins) stays bounded.  Callers already holding the Job object
        # keep a usable reference; only the id lookup goes away.
        self._finished_order.append(job.id)
        while len(self._finished_order) > self.max_finished_jobs:
            evicted = self._finished_order.popleft()
            self._jobs.pop(evicted, None)

    def _emit_status(self, job: Job) -> None:
        if self._tracer is not None:
            self._tracer.emit(
                "job_status", job=job.id, status=job.status, kind=job.kind
            )


def wait_all(jobs, timeout: Optional[float] = None) -> bool:
    """Block until every job in ``jobs`` is terminal; True when all finished."""
    end = None if timeout is None else time.monotonic() + timeout
    for job in jobs:
        remaining = None if end is None else max(0.0, end - time.monotonic())
        if not job.wait(remaining):
            return False
    return True

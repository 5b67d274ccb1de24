"""Transport-neutral HTTP API core: routing and validation for ``/v1``.

The asyncio :mod:`repro.service.asgi` app — and any external ASGI
server hosting it — funnels every request through one
:class:`ServiceApi`.  A request is ``(method, path, body bytes)`` in and
an :class:`ApiResponse` (status, JSON document, extra headers) out, so
the HTTP surface is defined once and the transport stays dumb.  Routing
is split in two: :meth:`ServiceApi.admit` does everything that does not
block (a cache hit is answered there), and a submission that asked to
``wait`` then waits on its job before :meth:`ServiceApi.answer`.
:meth:`ServiceApi.handle` runs both on the calling thread.

``/v1/...`` is the only surface (see ``docs/api.md``): ``POST
/v1/synthesize``, ``POST /v1/sweep``, ``GET /v1/jobs/<id>``, ``DELETE
/v1/jobs/<id>``, ``GET /v1/stats``, ``GET /v1/metrics``.  Every error,
including the ``404`` for any path outside ``/v1``, uses the typed
envelope ``{"error": {"code", "message", "detail"}}``.

Operational behaviour added here:

* **Rate limiting** — an optional :class:`~repro.service.metrics.TokenBucket`
  guards the submission routes; over-rate POSTs get ``429`` with a
  ``Retry-After`` header and are never enqueued.
* **Backpressure** — a :class:`~repro.service.jobs.QueueFullError` from
  the manager's bounded queue also maps to ``429 + Retry-After``.
* **Exact repeats** — a :class:`RequestMemo` keeps the requests
  admitted for recent POST bodies, so a byte-identical resubmission is
  neither parsed into a problem nor fingerprinted again.
* **Metrics** — every response is timed into
  :class:`~repro.service.metrics.ServiceMetrics`; ``GET /v1/metrics``
  merges that with the manager's queue/pool/cache counters.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.options import Objective
from repro.errors import ReproError
from repro.service.jobs import (
    Job,
    JobManager,
    QueueFullError,
    SweepRequest,
    SynthesizeRequest,
)
from repro.service.metrics import ServiceMetrics, TokenBucket, _prom_label
from repro.solvers.registry import available_solvers
from repro.system.interconnect import STYLE_NAMES, InterconnectStyle
from repro.system.library import TechnologyLibrary
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.serialization import graph_from_dict

#: Longest a submission will block on ``"wait": true`` before answering
#: 202.  Bounded so a slow solve cannot pin an HTTP worker forever; the
#: client polls ``GET /v1/jobs/<id>`` afterwards.
MAX_WAIT_SECONDS = 60.0

#: The ``batch`` block of ``/v1/stats`` and ``/v1/metrics``.  Sweep
#: batching is retired and every job is dispatched solo, but ``/v1``
#: response documents only gain fields (docs/api.md), so the block stays
#: as a constant: disabled, with zero counters.
RETIRED_BATCH = {"enabled": False, "batches": 0, "batched_jobs": 0, "max_occupancy": 0}


#: Bounds of the exact-repeat memo (:class:`RequestMemo`) each
#: :class:`ServiceApi` keeps: admitted requests by count, and the bodies
#: they are keyed by in bytes.  A parsed request is ~5 KB, so the count
#: holds the memo to a few MB; the byte bound keeps large inline problems
#: (bodies up to ``asgi.MAX_BODY_BYTES``) from multiplying that.
REQUEST_MEMO_ENTRIES = 1024
REQUEST_MEMO_BYTES = 8 * 1024 * 1024


class RequestMemo:
    """Thread-safe LRU from ``(route, exact body bytes)`` to the request
    admitted for that body.

    An exact repeat of an admitted body reuses the request object, whose
    fingerprint is computed once, so it skips parsing the problem and
    hashing it.  Only bodies that passed validation are put here.
    """

    def __init__(self, max_entries: int, max_bytes: int) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, bytes], Any]" = OrderedDict()
        self._bytes = 0

    def get(self, key: Tuple[str, bytes]):
        """The request admitted for ``key``, or ``None``; refreshes its LRU slot."""
        with self._lock:
            request = self._entries.get(key)
            if request is not None:
                self._entries.move_to_end(key)
            return request

    def put(self, key: Tuple[str, bytes], request) -> None:
        """Keep ``request`` for ``key``, evicting least-recently-used entries."""
        size = len(key[1])
        if size > self.max_bytes:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return
            self._entries[key] = request
            self._bytes += size
            while len(self._entries) > self.max_entries or self._bytes > self.max_bytes:
                (_route, body), _request = self._entries.popitem(last=False)
                self._bytes -= len(body)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class BadRequest(ValueError):
    """A request body failed validation (answered with HTTP 400)."""


def _problem_from_document(spec) -> Tuple[TaskGraph, TechnologyLibrary]:
    """Resolve the ``problem`` field: a builtin name or an inline document."""
    if isinstance(spec, str):
        if spec == "example1":
            from repro.system.examples import example1_library
            from repro.taskgraph.examples import example1

            return example1(), example1_library()
        if spec == "example2":
            from repro.system.examples import example2_library
            from repro.taskgraph.examples import example2

            return example2(), example2_library()
        raise BadRequest(
            f"unknown builtin problem {spec!r} (use 'example1', 'example2', "
            f"or an inline {{graph, library}} object)"
        )
    if not isinstance(spec, dict) or "graph" not in spec or "library" not in spec:
        raise BadRequest("'problem' must be a builtin name or {graph, library}")
    try:
        graph = graph_from_dict(spec["graph"])
        library = TechnologyLibrary.from_dict(spec["library"])
    except ReproError as exc:
        raise BadRequest(f"malformed problem: {exc}") from exc
    return graph, library


def _style_from_document(name) -> InterconnectStyle:
    try:
        return STYLE_NAMES[name]
    except (KeyError, TypeError):
        raise BadRequest(
            f"unknown style {name!r} (use p2p, bus, or ring)"
        ) from None


def _objective_from_document(name) -> Objective:
    try:
        return Objective(name)
    except ValueError:
        raise BadRequest(
            f"unknown objective {name!r} "
            f"(use {', '.join(o.value for o in Objective)})"
        ) from None


def _solver_from_document(name) -> str:
    names = available_solvers()
    if not isinstance(name, str) or name not in names:
        raise BadRequest(f"unknown solver {name!r} (use {', '.join(names)})")
    return name


def _number(body: Dict[str, Any], key: str, default=None) -> Optional[float]:
    value = body.get(key, default)
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise BadRequest(f"{key!r} must be a number")
    if not math.isfinite(value):  # json.loads accepts NaN and Infinity
        raise BadRequest(f"{key!r} must be finite")
    return float(value)


def request_from_document(kind: str, body: Dict[str, Any]):
    """Build a job request from a POST body.  Raises :class:`BadRequest`."""
    if "problem" not in body:
        raise BadRequest("missing required field 'problem'")
    graph, library = _problem_from_document(body["problem"])
    style = _style_from_document(body.get("style", "p2p"))
    solver = _solver_from_document(body.get("solver", "auto"))
    if kind == "synthesize":
        return SynthesizeRequest(
            graph, library, style=style, solver=solver,
            cost_cap=_number(body, "cost_cap"),
            deadline=_number(body, "deadline"),
            objective=_objective_from_document(
                body.get("objective", Objective.MIN_MAKESPAN.value)
            ),
        )
    if kind == "sweep":
        max_designs = body.get("max_designs", 64)
        if (not isinstance(max_designs, int) or isinstance(max_designs, bool)
                or max_designs < 1):
            raise BadRequest("'max_designs' must be a positive integer")
        cost_step = _number(body, "cost_step", 1e-4)
        if cost_step <= 0:
            raise BadRequest("'cost_step' must be positive")
        return SweepRequest(
            graph, library, style=style, solver=solver,
            max_designs=max_designs, cost_step=cost_step,
        )
    raise BadRequest(f"unknown request kind {kind!r}")


@dataclass
class ApiResponse:
    """One routed response: status code, document, headers, content type.

    ``document`` is a JSON-compatible object for the default
    ``application/json`` content type, or pre-rendered text (e.g. the
    Prometheus exposition) when ``content_type`` says otherwise.
    """

    status: int
    document: Any
    headers: List[Tuple[str, str]] = field(default_factory=list)
    content_type: str = "application/json"

    def encode(self) -> bytes:
        """The body bytes both transports write."""
        if self.content_type.startswith("application/json"):
            return json.dumps(self.document).encode("utf-8")
        return str(self.document).encode("utf-8")


def _wants_prometheus(query: Optional[str], accept: Optional[str]) -> bool:
    """Content negotiation for ``GET /v1/metrics``.

    The explicit ``?format=...`` query parameter wins; otherwise an
    ``Accept`` header preferring ``text/plain`` (Prometheus scrapers
    send ``text/plain;version=0.0.4``) selects the exposition format.
    JSON stays the default for everything else, including ``*/*``.
    """
    if query:
        for part in query.split("&"):
            key, _, value = part.partition("=")
            if key == "format":
                return value == "prometheus"
    if accept:
        for clause in accept.split(","):
            media = clause.split(";")[0].strip().lower()
            if media == "application/json":
                return False
            if media in ("text/plain", "text/*"):
                return True
    return False


@dataclass
class Admission:
    """A routed request whose answer may still depend on a job.

    Either ``response`` is set (every route but an accepted submission),
    or ``job`` is: the submitted job, whose snapshot
    :meth:`ServiceApi.answer` serves once the caller has waited
    ``wait_timeout`` seconds for it.
    """

    route: str
    started: float
    response: Optional[ApiResponse] = None
    job: Optional[Job] = None
    wait_timeout: Optional[float] = None

    @property
    def must_wait(self) -> bool:
        """True for a submission that asked to wait and is unfinished."""
        return (self.job is not None and self.wait_timeout is not None
                and not self.job.finished)


class ServiceApi:
    """The routing core shared by every transport.

    Args:
        manager: The :class:`~repro.service.jobs.JobManager` executing
            submissions.
        metrics: Shared :class:`~repro.service.metrics.ServiceMetrics`;
            a fresh one is created when omitted.
        rate_limit: Sustained submissions/second admitted to the POST
            routes; ``None`` disables rate limiting.
        rate_burst: Token-bucket burst capacity (defaults to
            ``rate_limit``).
    """

    def __init__(
        self,
        manager: JobManager,
        metrics: Optional[ServiceMetrics] = None,
        rate_limit: Optional[float] = None,
        rate_burst: Optional[float] = None,
    ) -> None:
        self.manager = manager
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.bucket = (
            TokenBucket(rate_limit, rate_burst) if rate_limit else None
        )
        self._requests = RequestMemo(REQUEST_MEMO_ENTRIES, REQUEST_MEMO_BYTES)

    # -- entry point ---------------------------------------------------------
    def handle(self, method: str, path: str, body: Optional[bytes] = None,
               query: Optional[str] = None,
               accept: Optional[str] = None) -> ApiResponse:
        """Route one request, waiting on the calling thread; never raises.

        :meth:`admit` followed by the submission's wait and
        :meth:`answer`.  The ASGI app runs the same three steps but
        moves only the wait off its event loop.

        Args:
            method: Upper-case HTTP method.
            path: Request path (no query string).
            body: Raw request body bytes (POST routes), else ``None``.
            query: Raw query string (no leading ``?``), if any.
            accept: The request's ``Accept`` header, if any.  Only
                ``GET /v1/metrics`` negotiates on it (JSON vs. the
                Prometheus text exposition).
        """
        admission = self.admit(method, path, body, query=query, accept=accept)
        if admission.must_wait:
            admission.job.wait(admission.wait_timeout)
        return self.answer(admission)

    def admit(self, method: str, path: str, body: Optional[bytes] = None,
              query: Optional[str] = None,
              accept: Optional[str] = None) -> Admission:
        """Route one request without blocking; never raises.

        Parsing, validation, rate limiting and :meth:`JobManager.submit
        <repro.service.jobs.JobManager.submit>` (which answers cache hits
        in place) all run here.  Only a submission's ``wait`` is left,
        as :attr:`Admission.must_wait`.  Arguments as for :meth:`handle`.
        """
        started = time.monotonic()
        if path == "/v1":  # the bare prefix is the /v1/ root
            path = "/v1/"
        admission = Admission(self._metric_route(method, path), started)
        try:
            if (method == "GET" and path == "/v1/metrics"
                    and _wants_prometheus(query, accept)):
                admission.response = ApiResponse(
                    200, self.prometheus_document(),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            elif method == "POST" and path in ("/v1/synthesize", "/v1/sweep"):
                self._submit(admission, path[len("/v1/"):], body)
            else:
                admission.response = self._route(method, path)
        except BaseException as exc:  # the transport must always answer
            admission.response = self._error(
                500, "internal", f"internal error: {exc!r}",
            )
        return admission

    def answer(self, admission: Admission) -> ApiResponse:
        """The response for an admitted request, timed into the metrics.

        A submission answers its job's snapshot as it stands now: ``200``
        once terminal, ``202`` while queued or running.
        """
        response = admission.response
        if response is None:
            job = admission.job
            response = ApiResponse(200 if job.finished else 202, job.snapshot())
        self.metrics.observe(
            admission.route, response.status,
            time.monotonic() - admission.started,
        )
        return response

    # -- routing -------------------------------------------------------------
    def _route(self, method: str, path: str) -> ApiResponse:
        if method == "GET" and path == "/v1/stats":
            return ApiResponse(
                200, {**self.manager.stats(), "batch": dict(RETIRED_BATCH)}
            )
        if method == "GET" and path == "/v1/metrics":
            return ApiResponse(200, self.metrics_document())
        if method == "GET" and path.startswith("/v1/jobs/"):
            return self._job_state(path[len("/v1/jobs/"):])
        if method == "DELETE" and path.startswith("/v1/jobs/"):
            return self._cancel(path[len("/v1/jobs/"):])
        return self._error(
            404, "not_found", f"no such route: {method} {path}",
        )

    def _submit(self, admission: Admission, kind: str,
                body: Optional[bytes]) -> None:
        """Admit one POST: sets the error response, or the job to answer."""
        if self.bucket is not None:
            delay = self.bucket.acquire()
            if delay > 0.0:
                self.metrics.record_throttled()
                admission.response = self._error(
                    429, "rate_limited",
                    "request rate over the configured limit",
                    detail={"retry_after_seconds": round(delay, 3)},
                    headers=[("Retry-After", str(max(1, math.ceil(delay))))],
                )
                return
        try:
            document = self._parse_body(body)
            memo_key = (kind, bytes(body))
            request = self._requests.get(memo_key)
            if request is None:
                request = request_from_document(kind, document)
            priority = document.get("priority", 0)
            if not isinstance(priority, int) or isinstance(priority, bool):
                raise BadRequest("'priority' must be an integer")
            deadline_seconds = _number(document, "deadline_seconds")
            wait = document.get("wait", False)
            if isinstance(wait, bool):
                wait_timeout = MAX_WAIT_SECONDS if wait else None
            elif isinstance(wait, (int, float)) and math.isfinite(wait):
                wait_timeout = min(max(float(wait), 0.0), MAX_WAIT_SECONDS)
            else:
                raise BadRequest(
                    "'wait' must be a boolean or a number of seconds"
                )
        except BadRequest as exc:
            admission.response = self._error(400, "bad_request", str(exc))
            return
        self._requests.put(memo_key, request)
        try:
            admission.job = self.manager.submit(
                request, priority=priority, deadline_seconds=deadline_seconds
            )
        except QueueFullError as exc:
            self.metrics.record_rejected_full()
            admission.response = self._error(
                429, "queue_full", str(exc),
                detail={"retry_after_seconds": exc.retry_after},
                headers=[("Retry-After",
                          str(max(1, math.ceil(exc.retry_after))))],
            )
            return
        admission.wait_timeout = wait_timeout

    def _job_state(self, job_id: str) -> ApiResponse:
        try:
            job = self.manager.get(job_id)
        except KeyError:
            return self._error(404, "not_found", f"unknown job {job_id!r}")
        return ApiResponse(200 if job.finished else 202, job.snapshot())

    def _cancel(self, job_id: str) -> ApiResponse:
        try:
            cancelled = self.manager.cancel(job_id)
        except KeyError:
            return self._error(404, "not_found", f"unknown job {job_id!r}")
        return ApiResponse(
            200, {"job": job_id, "cancel_requested": cancelled}
        )

    # -- documents -----------------------------------------------------------
    def metrics_document(self) -> Dict[str, Any]:
        """The ``GET /v1/metrics`` payload: service + manager counters."""
        stats = self.manager.stats()
        return {
            "service": self.metrics.snapshot(),
            "queue": {
                "depth": stats["queued"],
                "max_queued": stats["max_queued"],
                "workers": stats["workers"],
                "jobs": stats["jobs"],
            },
            "executor": stats["executor"],
            "pool": stats["pool"],
            "batch": dict(RETIRED_BATCH),
            "solves": stats["solves"],
            "dedup_hits": stats["dedup_hits"],
            "inline_fallbacks": stats["inline_fallbacks"],
            "cache": stats["cache"],
            "rate_limit": (
                self.bucket.snapshot() if self.bucket is not None else None
            ),
        }

    def prometheus_document(self) -> str:
        """``GET /v1/metrics`` as Prometheus text exposition.

        The service core's counters and latency histograms
        (:meth:`ServiceMetrics.prometheus_lines`) followed by gauges from
        the manager's queue/solve/cache counters — the same numbers the
        JSON document carries, renamed to ``sos_*`` metric conventions.
        """
        stats = self.manager.stats()
        lines = self.metrics.prometheus_lines()

        def gauge(name: str, help_text: str, value) -> None:
            if value is None:
                return
            lines.append(f"# HELP sos_{name} {help_text}")
            lines.append(f"# TYPE sos_{name} gauge")
            lines.append(f"sos_{name} {value:g}")

        def counter(name: str, help_text: str, value) -> None:
            if value is None:
                return
            lines.append(f"# HELP sos_{name} {help_text}")
            lines.append(f"# TYPE sos_{name} counter")
            lines.append(f"sos_{name} {value:g}")

        gauge("queue_depth", "Jobs waiting in the queue.", stats["queued"])
        gauge("job_workers", "Concurrent job workers.", stats["workers"])
        lines.append("# HELP sos_jobs Jobs by lifecycle state.")
        lines.append("# TYPE sos_jobs gauge")
        for state, count in sorted(stats["jobs"].items()):
            lines.append(f'sos_jobs{{state="{_prom_label(state)}"}} {count}')
        counter("solves_total", "Solver runs executed.", stats["solves"])
        counter("dedup_hits_total", "Submissions answered by an in-flight twin.",
                stats["dedup_hits"])
        counter("inline_fallbacks_total",
                "Solves run inline after an executor failure.",
                stats["inline_fallbacks"])
        cache = stats.get("cache") or {}
        counter("cache_hits_total", "Result-cache hits.", cache.get("hits"))
        counter("cache_misses_total", "Result-cache misses.", cache.get("misses"))
        counter("cache_stores_total", "Result-cache stores.", cache.get("stores"))
        counter("cache_store_errors_total",
                "Result-cache disk writes that failed.", cache.get("store_errors"))
        gauge("cache_entries", "Result-cache entries resident.",
              cache.get("entries"))
        gauge("cache_bytes", "Result-cache bytes resident.", cache.get("bytes"))
        if self.bucket is not None:
            gauge("rate_limit_tokens", "Token-bucket fill.",
                  self.bucket.snapshot()["tokens"])
        return "\n".join(lines) + "\n"

    # -- plumbing ------------------------------------------------------------
    @staticmethod
    def _parse_body(body: Optional[bytes]) -> Dict[str, Any]:
        if not body:
            raise BadRequest("empty request body (expected a JSON object)")
        try:
            document = json.loads(body)
        except json.JSONDecodeError as exc:
            raise BadRequest(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(document, dict):
            raise BadRequest("request body must be a JSON object")
        return document

    @staticmethod
    def _error(status: int, code: str, message: str,
               detail: Optional[Dict[str, Any]] = None,
               headers: Optional[List[Tuple[str, str]]] = None) -> ApiResponse:
        """The typed error envelope every error answers with."""
        document = {"error": {"code": code, "message": message, "detail": detail}}
        return ApiResponse(status, document, headers or [])

    @staticmethod
    def _metric_route(method: str, path: str) -> str:
        """Bounded-cardinality metrics label (job ids collapsed)."""
        if path.startswith("/v1/jobs/"):
            path = "/v1/jobs"
        return f"{method} {path}"

"""Synthesis job service: caching, process pool, /v1 HTTP API.

The serving layer over :mod:`repro.synthesis` (see ``docs/service.md``):

* :mod:`~repro.service.fingerprint` — canonical, ``PYTHONHASHSEED``-stable
  content hashes of synthesis requests;
* :mod:`~repro.service.cache` — the content-addressed result store: a
  byte-bounded in-memory LRU, optionally over a sharded disk directory;
* :mod:`~repro.service.jobs` — the job manager: priority queue,
  single-flight dedup, per-job deadlines, cooperative cancellation,
  retries, backpressure, and dispatch onto threads or the process pool;
* :mod:`~repro.service.procpool` — the persistent multi-process solve
  pool (crash detection, cross-process cancellation);
* :mod:`~repro.service.api` — the transport-neutral ``/v1`` routing core
  (typed error envelope, rate limiting, metrics);
* :mod:`~repro.service.asgi` — the ASGI 3 app and the stdlib asyncio
  HTTP server behind ``repro serve``;
* :mod:`~repro.service.metrics` — latency histograms, token-bucket rate
  limiter, service counters.

Quick start::

    from repro.service import JobManager, ResultCache, SynthesizeRequest

    with JobManager(cache=ResultCache()) as manager:
        job = manager.submit(SynthesizeRequest(graph, library))
        job.wait()
        print(job.status, job.result.makespan)
"""

from repro.service.api import ApiResponse, ServiceApi
from repro.service.asgi import AsgiApp, AsyncHTTPServer, create_app, create_async_server
from repro.service.cache import DEFAULT_BYTE_BUDGET, CacheEntryError, ResultCache
from repro.service.fingerprint import (
    FINGERPRINT_VERSION,
    canonical_request,
    fingerprint_request,
)
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    JobManager,
    QueueFullError,
    SweepRequest,
    SynthesizeRequest,
    wait_all,
)
from repro.service.metrics import LatencyHistogram, ServiceMetrics, TokenBucket
from repro.service.procpool import SolvePool, SolvePoolBrokenError

__all__ = [
    "ApiResponse",
    "AsgiApp",
    "AsyncHTTPServer",
    "CANCELLED",
    "CacheEntryError",
    "DEFAULT_BYTE_BUDGET",
    "DONE",
    "FAILED",
    "FINGERPRINT_VERSION",
    "Job",
    "JobManager",
    "LatencyHistogram",
    "QUEUED",
    "QueueFullError",
    "RUNNING",
    "ResultCache",
    "ServiceApi",
    "ServiceMetrics",
    "SolvePool",
    "SolvePoolBrokenError",
    "SweepRequest",
    "SynthesizeRequest",
    "TokenBucket",
    "create_app",
    "create_async_server",
    "wait_all",
]

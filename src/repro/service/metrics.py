"""Serving-tier instrumentation: latency histograms, counters, rate limiting.

Two small, dependency-free primitives behind the HTTP front end
(:mod:`repro.service.asgi`, through :mod:`repro.service.api`):

* :class:`LatencyHistogram` — a fixed, log2-spaced histogram of request
  latencies.  Quantiles are answered from the bucket counts (upper bucket
  edge, clamped at the true observed maximum), so ``p50``/``p99`` cost
  O(buckets) with no sample retention — a service under millions of
  requests keeps constant memory.
* :class:`TokenBucket` — the classic rate limiter: a bucket of ``burst``
  tokens refilled at ``rate`` tokens/second.  ``acquire`` never blocks;
  it either takes a token (returns ``0.0``) or returns the seconds until
  one will be available, which the API layer surfaces as a ``429`` with
  ``Retry-After``.

:class:`ServiceMetrics` aggregates per-route histograms and response-class
counters behind one lock; its :meth:`~ServiceMetrics.snapshot` is exactly
the ``GET /v1/metrics`` payload (minus the queue/pool/cache sections the
API layer merges in from the job manager).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional


class LatencyHistogram:
    """Log2-bucketed latency histogram with quantile estimates.

    Args:
        low: Lower edge of the first finite bucket, in seconds.
        high: Latencies at or above this land in the overflow bucket.

    Not thread-safe on its own; callers (:class:`ServiceMetrics`) hold
    their lock around :meth:`observe` and :meth:`snapshot`.
    """

    def __init__(self, low: float = 1e-4, high: float = 120.0) -> None:
        if low <= 0 or high <= low:
            raise ValueError("need 0 < low < high")
        bounds: List[float] = []
        edge = low
        while edge < high:
            bounds.append(edge)
            edge *= 2.0
        bounds.append(float("inf"))
        #: Upper edge of each bucket; the last is the overflow bucket.
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        """Record one latency sample."""
        seconds = max(0.0, float(seconds))
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds
        for index, edge in enumerate(self.bounds):
            if seconds < edge:
                self.counts[index] += 1
                return
        self.counts[-1] += 1  # pragma: no cover - inf edge catches all

    def quantile(self, q: float) -> float:
        """Upper-edge estimate of the ``q`` quantile (0 when empty).

        The estimate is the upper edge of the bucket holding the target
        rank — a conservative (never-understated) latency — clamped at
        the true maximum so the overflow bucket answers finitely.
        """
        if self.count == 0:
            return 0.0
        target = max(1, int(q * self.count + 0.999999))
        seen = 0
        for index, edge in enumerate(self.bounds):
            seen += self.counts[index]
            if seen >= target:
                return min(edge, self.max_seconds)
        return self.max_seconds  # pragma: no cover - counts always sum

    def snapshot(self) -> Dict[str, Any]:
        """Summary document: count, mean, max, p50/p90/p99."""
        mean = self.total_seconds / self.count if self.count else 0.0
        return {
            "count": self.count,
            "mean_seconds": round(mean, 6),
            "max_seconds": round(self.max_seconds, 6),
            "p50_seconds": round(self.quantile(0.50), 6),
            "p90_seconds": round(self.quantile(0.90), 6),
            "p99_seconds": round(self.quantile(0.99), 6),
        }

    def cumulative_buckets(self) -> List[tuple]:
        """``(upper_edge, cumulative_count)`` pairs, Prometheus-style.

        Prometheus histogram buckets are cumulative (each ``le`` bucket
        counts every sample at or below its edge), unlike the per-bucket
        :attr:`counts` kept internally.
        """
        pairs = []
        seen = 0
        for edge, count in zip(self.bounds, self.counts):
            seen += count
            pairs.append((edge, seen))
        return pairs


class TokenBucket:
    """Non-blocking token-bucket rate limiter.

    Args:
        rate: Sustained tokens (requests) per second.
        burst: Bucket capacity — how many requests may arrive at once
            after an idle period.  Defaults to ``rate`` (one second of
            headroom), floored at 1.
    """

    def __init__(self, rate: float, burst: Optional[float] = None) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self.burst = max(1.0, float(burst) if burst is not None else float(rate))
        self._tokens = self.burst
        self._updated = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self) -> float:
        """Take one token; returns 0.0, or seconds until one is available.

        A nonzero return means the request must be throttled; the value
        is what ``Retry-After`` should advertise (rounded up by the API
        layer).  The bucket is not charged for throttled requests.
        """
        now = time.monotonic()
        with self._lock:
            elapsed = max(0.0, now - self._updated)
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._updated = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return 0.0
            return (1.0 - self._tokens) / self.rate

    def snapshot(self) -> Dict[str, Any]:
        """Configuration + current fill, for the metrics endpoint."""
        with self._lock:
            return {
                "rate_per_second": self.rate,
                "burst": self.burst,
                "tokens": round(self._tokens, 3),
            }


class ServiceMetrics:
    """Thread-safe per-route latency histograms and response counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started_at = time.time()
        self._started_mono = time.monotonic()
        self._latency: Dict[str, LatencyHistogram] = {}
        self._responses: Dict[str, int] = {}
        #: Requests rejected by the token-bucket rate limiter.
        self.throttled = 0
        #: Submissions rejected because the job queue was full.
        self.rejected_full = 0

    def observe(self, route: str, status: int, seconds: float) -> None:
        """Record one finished request: route latency + status class."""
        status_class = f"{status // 100}xx"
        with self._lock:
            histogram = self._latency.get(route)
            if histogram is None:
                histogram = self._latency[route] = LatencyHistogram()
            histogram.observe(seconds)
            self._responses[status_class] = self._responses.get(status_class, 0) + 1
            if status == 429:
                self._responses["429"] = self._responses.get("429", 0) + 1

    def record_throttled(self) -> None:
        """Count one rate-limited (429) rejection."""
        with self._lock:
            self.throttled += 1

    def record_rejected_full(self) -> None:
        """Count one queue-full (429) rejection."""
        with self._lock:
            self.rejected_full += 1

    def snapshot(self) -> Dict[str, Any]:
        """The metrics document core (latency + responses + rejections)."""
        with self._lock:
            return {
                "uptime_seconds": round(time.monotonic() - self._started_mono, 3),
                "started_at": self.started_at,
                "latency": {
                    route: histogram.snapshot()
                    for route, histogram in sorted(self._latency.items())
                },
                "responses": dict(sorted(self._responses.items())),
                "throttled": self.throttled,
                "rejected_queue_full": self.rejected_full,
                # The routes outside /v1 were removed in 2.0.0, but /v1
                # documents only gain fields (docs/api.md): a constant 0.
                "deprecated_requests": 0,
            }

    def prometheus_lines(self) -> List[str]:
        """The service-core metrics in Prometheus text exposition format.

        Request latencies become one ``sos_request_duration_seconds``
        histogram per route label (with the cumulative ``le`` buckets
        Prometheus expects); response classes and rejection counts become
        labeled counters.  The API layer appends its gauge lines (queue
        depth, cache counters) and the final newline.
        """
        with self._lock:
            lines = [
                "# HELP sos_uptime_seconds Seconds since the service started.",
                "# TYPE sos_uptime_seconds gauge",
                f"sos_uptime_seconds {time.monotonic() - self._started_mono:.3f}",
                "# HELP sos_responses_total HTTP responses by status class.",
                "# TYPE sos_responses_total counter",
            ]
            for status_class, count in sorted(self._responses.items()):
                label = _prom_label(status_class)
                lines.append(f'sos_responses_total{{class="{label}"}} {count}')
            lines += [
                "# HELP sos_throttled_total Requests rejected by the rate limiter.",
                "# TYPE sos_throttled_total counter",
                f"sos_throttled_total {self.throttled}",
                "# HELP sos_rejected_queue_full_total Submissions rejected by the bounded queue.",
                "# TYPE sos_rejected_queue_full_total counter",
                f"sos_rejected_queue_full_total {self.rejected_full}",
                # A constant 0, like the snapshot field (help text kept).
                "# HELP sos_deprecated_requests_total Requests served on deprecated unversioned routes.",
                "# TYPE sos_deprecated_requests_total counter",
                "sos_deprecated_requests_total 0",
                "# HELP sos_request_duration_seconds Request latency by route.",
                "# TYPE sos_request_duration_seconds histogram",
            ]
            for route, histogram in sorted(self._latency.items()):
                label = _prom_label(route)
                for edge, cumulative in histogram.cumulative_buckets():
                    le = "+Inf" if edge == float("inf") else f"{edge:g}"
                    lines.append(
                        f'sos_request_duration_seconds_bucket'
                        f'{{route="{label}",le="{le}"}} {cumulative}'
                    )
                lines.append(
                    f'sos_request_duration_seconds_sum{{route="{label}"}} '
                    f"{histogram.total_seconds:.6f}"
                )
                lines.append(
                    f'sos_request_duration_seconds_count{{route="{label}"}} '
                    f"{histogram.count}"
                )
            return lines


def _prom_label(value: str) -> str:
    """Escape a label value per the Prometheus text format."""
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )

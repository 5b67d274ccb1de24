#!/usr/bin/env python
"""Load generator for the synthesis service: latency and throughput.

Replays a mixed synthesize/sweep workload against the /v1 API of a
running server (``--url http://host:port``, e.g. one booted with
``repro serve``) with a set of closed-loop client threads (each thread
fires its next request as soon as the previous one answers, over one
keep-alive connection) and reports p50/p99 latency, sustained
throughput and error counts; ``--record NAME`` stores the summary under
``NAME`` in ``BENCH_service.json``.

``--smoke`` shrinks the workload for CI.  Exit status is nonzero when
any request answers 5xx (or cannot be parsed), so the smoke job fails
loudly on server-side breakage.
"""

from __future__ import annotations

import argparse
import http.client
import json
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple
from urllib.parse import urlparse

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conftest import record_bench  # noqa: E402  (benchmarks/ helper)

#: Per-request server-side wait bound (the /v1 "wait" field).
WAIT_SECONDS = 55.0


def build_workload(smoke: bool) -> List[Tuple[str, Dict[str, Any]]]:
    """The mixed request list: mostly-distinct solves, then sweeps.

    Synthesize requests vary ``cost_cap`` over a grid (distinct
    fingerprints, so they exercise the solver, not just the cache);
    sweep requests vary only ``max_designs``.  A sprinkle of exact repeats exercises dedup/caching
    the way real DSE traffic does.
    """
    requests: List[Tuple[str, Dict[str, Any]]] = []
    caps = [None, 5.0, 7.0, 9.0] if smoke else [
        None, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0,
    ]
    synth_repeat = 1 if smoke else 2
    for repeat in range(synth_repeat):
        for cap in caps:
            body: Dict[str, Any] = {"problem": "example1", "wait": WAIT_SECONDS}
            if cap is not None:
                # Stagger the grid per repeat so most solves are distinct.
                body["cost_cap"] = cap + 0.01 * repeat
            requests.append(("/v1/synthesize", body))
    # Sweeps differ only in max_designs; the deep caps make them the
    # CPU-heavy half of the workload (a sweep to cap k is k retighten
    # solves).
    sweep_caps = [2, 3, 4, 5] if smoke else [2, 3, 4, 5, 6, 7, 8, 9]
    sweep_repeat = 2
    for _ in range(sweep_repeat):
        for designs in sweep_caps:
            requests.append((
                "/v1/sweep",
                {"problem": "example1", "max_designs": designs,
                 "wait": WAIT_SECONDS},
            ))
    # The list stays in emission order: a block of synthesize calls, then
    # the sweep bursts, the shape of design-space-exploration traffic (a
    # client fires a burst of near-identical sweeps).  Clients drain the
    # list concurrently, so bursts still interleave on the wire.
    # Deterministic (no RNG), so runs compare across commits.
    return requests


class ClientWorker(threading.Thread):
    """One closed-loop client over a persistent keep-alive connection."""

    def __init__(self, host: str, port: int, feed: List, results: List,
                 lock: threading.Lock) -> None:
        super().__init__(daemon=True)
        self._host, self._port = host, port
        self._feed = feed
        self._results = results
        self._lock = lock

    def run(self) -> None:
        conn = http.client.HTTPConnection(self._host, self._port, timeout=120)
        try:
            while True:
                with self._lock:
                    if not self._feed:
                        return
                    path, body = self._feed.pop()
                started = time.monotonic()
                try:
                    conn.request("POST", path, json.dumps(body),
                                 {"Content-Type": "application/json"})
                    response = conn.getresponse()
                    payload = response.read()
                    status = response.status
                    document = json.loads(payload) if payload else {}
                except (OSError, http.client.HTTPException,
                        json.JSONDecodeError) as exc:
                    status, document = -1, {"error": str(exc)}
                    conn.close()
                    conn = http.client.HTTPConnection(
                        self._host, self._port, timeout=120
                    )
                elapsed = time.monotonic() - started
                with self._lock:
                    self._results.append((path, status, elapsed, document))
        finally:
            conn.close()


def run_load(url: str, workload: List, clients: int) -> Dict[str, Any]:
    """Replay ``workload`` against ``url``; returns the summary document."""
    parsed = urlparse(url)
    host, port = parsed.hostname, parsed.port
    feed = list(workload)
    results: List[Tuple[str, int, float, dict]] = []
    lock = threading.Lock()
    started = time.monotonic()
    workers = [
        ClientWorker(host, port, feed, results, lock) for _ in range(clients)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    wall = time.monotonic() - started

    latencies = sorted(r[2] for r in results)
    statuses = [r[1] for r in results]
    server_errors = sum(1 for s in statuses if s >= 500 or s < 0)
    throttled = sum(1 for s in statuses if s == 429)
    incomplete = sum(
        1 for _, s, _, doc in results
        if s in (200, 202) and doc.get("status") not in ("done",)
    )

    def quantile(q: float) -> float:
        if not latencies:
            return 0.0
        index = min(len(latencies) - 1, int(q * len(latencies)))
        return latencies[index]

    return {
        "requests": len(results),
        "clients": clients,
        "wall_seconds": round(wall, 3),
        "throughput_rps": round(len(results) / wall, 3) if wall else 0.0,
        "latency_p50_seconds": round(quantile(0.50), 4),
        "latency_p90_seconds": round(quantile(0.90), 4),
        "latency_p99_seconds": round(quantile(0.99), 4),
        "latency_mean_seconds": (
            round(statistics.fmean(latencies), 4) if latencies else 0.0
        ),
        "http_5xx": server_errors,
        "http_429": throttled,
        "unfinished_jobs": incomplete,
        "sweep_requests": sum(
            1 for path, *_ in results if path.endswith("/sweep")
        ),
    }


def summarize(name: str, summary: Dict[str, Any]) -> None:
    print(
        f"{name}: {summary['requests']} requests in "
        f"{summary['wall_seconds']}s -> {summary['throughput_rps']} req/s, "
        f"p50 {summary['latency_p50_seconds']}s, "
        f"p99 {summary['latency_p99_seconds']}s, "
        f"5xx {summary['http_5xx']}, 429 {summary['http_429']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", required=True,
                        help="base URL of the running server to drive")
    parser.add_argument("--smoke", action="store_true",
                        help="small CI-sized workload")
    parser.add_argument("--clients", type=int, default=8,
                        help="closed-loop client threads (default 8)")
    parser.add_argument("--record", default=None, metavar="NAME",
                        help="record the summary under NAME in "
                             "BENCH_service.json")
    args = parser.parse_args(argv)

    workload = build_workload(args.smoke)
    print(f"workload: {len(workload)} requests, {args.clients} clients "
          f"-> {args.url}")
    summary = run_load(args.url, workload, args.clients)
    summarize("load", summary)
    if args.record:
        bench_path = Path(__file__).resolve().parent.parent / "BENCH_service.json"
        record_bench(args.record, path=bench_path, **summary)
        print(f"recorded to {bench_path} as {args.record!r}")
    return 1 if summary["http_5xx"] else 0


if __name__ == "__main__":
    raise SystemExit(main())

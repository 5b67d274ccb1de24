"""``service_v1_mix``: seeded ``/v1`` request streams and a closed-loop client.

Each of the :data:`CLIENTS` keep-alive connections replays its own
stream, built in blocks.  Each block opens with one request no stream
sent before (a cache miss) and then sends exact repeats of misses this
stream has already had answered (cache hits).  A closed-loop client
sends its next request only when the previous one has been answered, so
a repeat can never land on a solve still in flight (which would be a
single-flight dedup hit instead), and the solve and hit counts are fixed
by the requests sent.  Misses are inline ``layered_random`` problems and
example1 under random styles and caps; every eleventh miss of the first
stream is an example1 sweep that differs from the others only in
``max_designs`` (one stream only, so no two sweeps are ever queued
together and batched).  Closed loops model ``wait`` callers such as CLI
scripts and design-space-exploration clients.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from sosbench import measure, problems
from sosbench.problems import Point

#: Seconds a submission may wait server-side; a request still unanswered
#: after it comes back 202 and counts as a failure.
WAIT_SECONDS = 30
CLIENTS = 2
REPEATS_PER_MISS = 3
SWEEP_EVERY = 11
BLOCKS = 400


@dataclass(frozen=True)
class Request:
    """One ``/v1`` POST and the (cost, makespan) rows it must answer with."""

    path: str
    body: Dict
    expected: Tuple[Point, ...]
    repeat: bool = False

    @cached_property
    def encoded(self) -> bytes:
        return json.dumps(self.body, sort_keys=True).encode()


def warm_up_request() -> Request:
    """Sent during set-up, before the timed phase."""
    return Request("/v1/synthesize", {"problem": "example1", "style": "p2p",
                                      "wait": WAIT_SECONDS}, ((14.0, 2.5),))


def _miss(rng: random.Random, reference: Dict, sweep: bool, sweeps: int) -> Request:
    if sweep:
        max_designs = 2 + sweeps
        front = problems.front_of(reference, "example1", "p2p")
        return Request("/v1/sweep", {"problem": "example1", "max_designs": max_designs,
                                     "wait": WAIT_SECONDS},
                       tuple(front[:max_designs]))
    if rng.random() < 0.5:
        key, style = "example1", rng.choice(("p2p", "bus", "ring"))
        low, high = 4.0, 15.0
    else:
        key = problems.layered_key(rng.choice(problems.LAYERED_SEEDS), rng.random() < 0.5)
        style = "p2p"
        front = problems.front_of(reference, key, style)
        low, high = front[-1][0], front[0][0] + 1.0
    cap = round(rng.uniform(low, high), 4)
    body = {"problem": problems.problem_document(key), "style": style,
            "cost_cap": cap, "wait": WAIT_SECONDS}
    return Request("/v1/synthesize", body,
                   (problems.reference_point(reference, key, style, cap),))


def request_streams(seed: int, reference: Dict, blocks: int = BLOCKS,
                    clients: int = CLIENTS) -> List[List[Request]]:
    """The seeded request streams, one per client, ``blocks`` blocks each."""
    rng = random.Random(f"service_v1_mix/{seed}")
    seen = set()
    streams: List[List[Request]] = [[] for _ in range(clients)]
    # Repeats copy only the stream's own misses: a request both streams
    # could repeat (the warm-up, say) might be in flight from one while
    # the other sends it, and join it as a dedup hit.
    answered: List[List[Request]] = [[] for _ in range(clients)]
    sweeps = 0
    for index in range(blocks):
        for client, stream in enumerate(streams):
            sweep_slot = client == 0 and index % SWEEP_EVERY == SWEEP_EVERY - 1
            while True:
                miss = _miss(rng, reference, sweep_slot, sweeps)
                if miss.encoded not in seen:
                    break
            seen.add(miss.encoded)
            sweeps += sweep_slot
            stream.append(miss)
            answered[client].append(miss)
            for _ in range(REPEATS_PER_MISS):
                original = rng.choice(answered[client])
                stream.append(Request(original.path, original.body, original.expected,
                                      repeat=True))
    for stream in streams:
        for request in stream:
            request.encoded  # encode up front: the timed loop does no JSON work
    return streams


def check_response(request: Request, status: Optional[int],
                   document: Optional[Dict]) -> Optional[str]:
    """Failure text for one exchange, else ``None``.

    A transport error or timeout (``status is None``), any status but
    200 (a 429 included), a job not ``done`` and a wrong answer all fail.
    """
    if status is None:
        return "transport error or timeout"
    if status != 200:
        return f"http {status}"
    if not isinstance(document, dict) or document.get("status") != "done":
        state = document.get("status") if isinstance(document, dict) else None
        return f"job status {state!r}"
    result = document.get("result") or {}
    if request.path.endswith("/sweep"):
        rows = [(d.get("cost"), d.get("makespan")) for d in result.get("designs", [])]
    else:
        rows = [(result.get("cost"), result.get("makespan"))]
    if len(rows) != len(request.expected) or not all(
        isinstance(got[0], (int, float)) and isinstance(got[1], (int, float))
        and problems.same_point(got, want) for got, want in zip(rows, request.expected)
    ):
        return f"answer {rows}, want {list(request.expected)}"
    return None


@dataclass
class Exchange:
    """One request as the client saw it."""

    request: Request
    status: Optional[int]
    latency_s: float
    failure: Optional[str]
    cached: bool = False
    server_s: Optional[float] = None
    queue_wait_s: Optional[float] = None
    run_s: Optional[float] = None


def record(request: Request, status: Optional[int], document: Optional[Dict],
           latency_s: float) -> Exchange:
    """Classify one answered (or failed) request."""
    exchange = Exchange(request, status, latency_s, check_response(request, status, document))
    if isinstance(document, dict) and document.get("finished_at") is not None:
        submitted = document.get("submitted_at")
        started = document.get("started_at")
        finished = document["finished_at"]
        exchange.cached = bool(document.get("cached"))
        if submitted is not None:
            exchange.server_s = finished - submitted
            started = submitted if started is None else started
            exchange.queue_wait_s = started - submitted
            exchange.run_s = finished - started
    return exchange


class Connection:
    """A keep-alive ``/v1`` connection; ``send`` never raises."""

    def __init__(self, host: str, port: int, timeout: float = WAIT_SECONDS + 10) -> None:
        self._address = (host, port, timeout)
        self._conn: Optional[http.client.HTTPConnection] = None

    def send(self, request: Request) -> Tuple[Optional[int], Optional[Dict]]:
        host, port, timeout = self._address
        if self._conn is None:
            self._conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            self._conn.request("POST", request.path, request.encoded,
                               {"Content-Type": "application/json"})
            response = self._conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return None, None
        try:
            return response.status, json.loads(payload)
        except ValueError:
            return response.status, None

    def get(self, path: str) -> Optional[Dict]:
        host, port, timeout = self._address
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        except (OSError, http.client.HTTPException, ValueError):
            return None
        finally:
            conn.close()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def drive(connections: Sequence, streams: Sequence[Sequence[Request]], seconds: float,
          clock: Callable[[], float] = time.perf_counter) -> Tuple[List[Exchange], float]:
    """Closed-loop replay: each connection sends its stream until time or stream runs out.

    Returns the exchanges in completion order and the timed wall.
    """
    lock = threading.Lock()
    exchanges: List[Exchange] = []
    started = clock()

    def client(connection, stream) -> None:
        for request in stream:
            with lock:
                if clock() - started >= seconds:
                    return
            sent = clock()
            status, document = connection.send(request)
            exchange = record(request, status, document, clock() - sent)
            with lock:
                exchanges.append(exchange)

    threads = [threading.Thread(target=client, args=pair, daemon=True)
               for pair in zip(connections, streams)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return exchanges, clock() - started


class Server:
    """``python -m repro serve`` with its defaults on a free local port."""

    def __init__(self, root: Path, boot_timeout: float = 60.0) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        self.output: List[str] = []
        ready = threading.Event()
        self.url: Optional[str] = None

        def pump() -> None:
            for line in self.process.stdout:
                self.output.append(line.rstrip())
                if self.url is None and line.startswith("serving on "):
                    self.url = line.split()[2]
                    ready.set()
            ready.set()

        self._pump = threading.Thread(target=pump, daemon=True)
        self._pump.start()
        if not ready.wait(boot_timeout) or self.url is None:
            self.stop()
            raise RuntimeError("server did not start: " + " | ".join(self.output[-5:]))
        host_port = self.url.split("//", 1)[1]
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)

    def connection(self) -> Connection:
        return Connection(self.host, self.port)

    def peak_rss_mb(self) -> float:
        return measure.tree_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SIGINT (clean shutdown), then SIGKILL; wait for the whole tree."""
        children = measure.descendants(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        deadline = time.monotonic() + 10
        for pid in children:
            while Path(f"/proc/{pid}").exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            if Path(f"/proc/{pid}").exists():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self._pump.join(timeout=5)


@dataclass
class Counters:
    """``GET /v1/metrics`` counters the benchmark differences over a run."""

    solves: int = 0
    dedup_hits: int = 0
    batches: int = 0
    inline_fallbacks: int = 0
    cache_hits: int = 0

    @classmethod
    def read(cls, connection: Connection) -> "Counters":
        document = connection.get("/v1/metrics") or {}
        cache = document.get("cache") or {}
        return cls(document.get("solves", 0), document.get("dedup_hits", 0),
                   (document.get("batch") or {}).get("batches", 0),
                   document.get("inline_fallbacks", 0), cache.get("hits", 0))

    def since(self, before: "Counters") -> "Counters":
        return Counters(self.solves - before.solves, self.dedup_hits - before.dedup_hits,
                        self.batches - before.batches,
                        self.inline_fallbacks - before.inline_fallbacks,
                        self.cache_hits - before.cache_hits)


def service_layers(exchanges: Sequence[Exchange], counters: Counters) -> Dict[str, float]:
    """Per-layer values of ``service_v1_mix`` from job snapshots and metrics."""
    done = [e for e in exchanges if e.server_s is not None]
    hits = [e.latency_s for e in done if e.cached]
    misses = [e.latency_s for e in done if not e.cached]
    return {
        "service.hit_p50_s": measure.median(hits),
        "service.miss_p50_s": measure.median(misses),
        "service.overhead_p50_s": measure.median([e.latency_s - e.server_s for e in done]),
        "service.queue_wait_p50_s": measure.median([e.queue_wait_s for e in done]),
        "service.run_p50_s": measure.median([e.run_s for e in done]),
        "service.cache_hit_rate": len(hits) / len(done) if done else 0.0,
        "service.solves": counters.solves,
        "service.cache_hits": counters.cache_hits,
        "service.dedup_hits": counters.dedup_hits,
        "service.batches": counters.batches,
        "service.inline_fallbacks": counters.inline_fallbacks,
        "service.http_429": sum(1 for e in exchanges if e.status == 429),
    }


def count_flags(exchanges: Sequence[Exchange], counters: Counters) -> List[str]:
    """Where the exact service counts differ from what the list implies.

    Each miss costs one solve and each repeat is one cache hit, so for
    the same code and seed both counts are fixed by the requests sent.
    """
    sent_misses = sum(1 for e in exchanges if not e.request.repeat)
    sent_repeats = len(exchanges) - sent_misses
    flags = []
    if counters.solves != sent_misses:
        flags.append(f"service.solves {counters.solves} != misses sent {sent_misses}")
    if counters.cache_hits != sent_repeats:
        flags.append(f"service.cache_hits {counters.cache_hits} != repeats sent {sent_repeats}")
    if counters.dedup_hits:
        flags.append(f"service.dedup_hits {counters.dedup_hits} != 0")
    unanswered = [e for e in exchanges if e.request.repeat and not e.cached]
    if unanswered:
        flags.append(f"{len(unanswered)} repeats not answered from the cache, first "
                     f"{unanswered[0].request.path} {unanswered[0].request.encoded[:120]!r}")
    return flags

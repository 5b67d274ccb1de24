"""Asyncio/ASGI front end for the synthesis job service.

Two stdlib-only pieces:

* :class:`AsgiApp` — a plain ASGI 3 application object around a
  :class:`~repro.service.api.ServiceApi`.  Hand it to any ASGI server
  (``uvicorn repro.service.asgi:app`` style via :func:`create_app`); it
  supports the ``lifespan`` protocol and shuts the job manager down on
  lifespan shutdown.  Request handling never blocks the loop: the body
  is read and the request admitted on the event loop (routing,
  validation, submission, cache hits: see :meth:`ServiceApi.admit
  <repro.service.api.ServiceApi.admit>`), and only the wait of an
  unfinished ``"wait"`` submission moves to a thread pool.  The solves
  were never on this thread to begin with — they live on the manager's
  worker pool.
* :class:`AsyncHTTPServer` — a minimal asyncio HTTP/1.1 server that can
  drive *any* ASGI 3 app, so ``repro serve`` works with zero
  dependencies.  Keep-alive is supported; request bodies are bounded by
  ``Content-Length`` (no chunked uploads — the API only takes small
  JSON documents).

The server runs either blocking (:meth:`AsyncHTTPServer.serve_forever`,
for the CLI: Ctrl-C shuts down cleanly) or on a background thread
(:meth:`AsyncHTTPServer.start`, for tests and embedding).
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple

from repro.service.api import ApiResponse, ServiceApi
from repro.service.cache import ResultCache
from repro.service.jobs import JobManager

#: Largest accepted request body (a graph+library document is ~KBs).
MAX_BODY_BYTES = 16 * 1024 * 1024

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
}


class AsgiApp:
    """ASGI 3 application serving the :mod:`repro.service.api` surface."""

    def __init__(self, api: ServiceApi) -> None:
        self.api = api
        self.manager = api.manager
        # A wide dedicated executor for submissions that block in
        # ``job.wait`` (the "wait" field) for up to MAX_WAIT_SECONDS: the
        # loop's small default executor would cap concurrent waiters far
        # below what the job queue itself allows.  These threads are
        # almost always asleep in ``wait``, so width is cheap.
        self._executor = ThreadPoolExecutor(
            max_workers=64, thread_name_prefix="repro-asgi"
        )

    async def __call__(self, scope, receive, send) -> None:
        """The ASGI entry point (``http`` and ``lifespan`` scopes)."""
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":  # pragma: no cover - ws etc.
            raise RuntimeError(f"unsupported ASGI scope {scope['type']!r}")
        method = scope["method"].upper()
        path = scope["path"]
        body = bytearray()
        while True:
            message = await receive()
            if message["type"] == "http.disconnect":
                return
            body.extend(message.get("body", b""))
            if len(body) > MAX_BODY_BYTES:
                await _send_response(send, ApiResponse(
                    413, {"error": {"code": "payload_too_large",
                                    "message": "request body too large",
                                    "detail": None}},
                ))
                return
            if not message.get("more_body", False):
                break
        query = scope.get("query_string", b"").decode("latin-1") or None
        accept = None
        for name, value in scope.get("headers", ()):
            if name == b"accept":
                accept = value.decode("latin-1")
                break
        admission = self.api.admit(
            method, path, bytes(body), query=query, accept=accept,
        )
        if admission.must_wait:
            await asyncio.get_running_loop().run_in_executor(
                self._executor, admission.job.wait, admission.wait_timeout,
            )
        await _send_response(send, self.api.answer(admission))

    async def _lifespan(self, receive, send) -> None:
        """Startup/shutdown protocol; shutdown stops the job manager."""
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, self.manager.shutdown)
                self._executor.shutdown(wait=False)
                await send({"type": "lifespan.shutdown.complete"})
                return


async def _send_response(send, response: ApiResponse) -> None:
    encoded = response.encode()
    headers = [
        (b"content-type", response.content_type.encode("ascii")),
        (b"content-length", str(len(encoded)).encode("ascii")),
    ]
    for name, value in response.headers:
        headers.append((name.encode("ascii"), value.encode("ascii")))
    await send({
        "type": "http.response.start",
        "status": response.status,
        "headers": headers,
    })
    await send({"type": "http.response.body", "body": encoded})


def create_app(
    workers: int = 2,
    cache: Optional[ResultCache] = None,
    trace=None,
    solve_processes: int = 2,
    max_queued: Optional[int] = None,
    rate_limit: Optional[float] = None,
    rate_burst: Optional[float] = None,
    manager: Optional[JobManager] = None,
) -> AsgiApp:
    """Build a ready-to-mount :class:`AsgiApp` (for external ASGI servers).

    Args:
        workers: Job-manager dispatcher threads.
        cache: Shared result cache; defaults to a fresh in-memory cache.
        trace: Optional trace sink for ``job_status``/``cache_*`` events.
        solve_processes: Solve pool size (default 2 — real cores); ``0``
            runs solves on the dispatcher threads.
        max_queued: Queue bound; excess submissions answer 429.
        rate_limit: Sustained submissions/second (token bucket); ``None``
            disables rate limiting.
        rate_burst: Token-bucket burst size (defaults to ``rate_limit``).
        manager: Pre-built manager (overrides the knobs above).
    """
    if manager is None:
        if cache is None:
            cache = ResultCache(trace=trace)
        manager = JobManager(
            workers=workers, cache=cache, trace=trace,
            solve_processes=solve_processes, max_queued=max_queued,
        )
    api = ServiceApi(manager, rate_limit=rate_limit, rate_burst=rate_burst)
    return AsgiApp(api)


class AsyncHTTPServer:
    """Stdlib asyncio HTTP/1.1 server driving an ASGI 3 application.

    Args:
        app: Any ASGI 3 callable (usually an :class:`AsgiApp`).
        host: Bind address.
        port: TCP port; ``0`` picks an ephemeral free port (read it back
            from :attr:`url` once serving).
        verbose: Log one access line per request to stderr.
    """

    def __init__(self, app, host: str = "127.0.0.1", port: int = 0,
                 verbose: bool = False) -> None:
        self.app = app
        self.verbose = verbose
        self._host = host
        self._port = port
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------------
    @property
    def url(self) -> str:
        """Base URL of the bound socket (valid once serving)."""
        if self.port is None:
            raise RuntimeError("server is not running")
        return f"http://{self.host}:{self.port}"

    def start(self) -> "AsyncHTTPServer":
        """Serve on a background thread; returns once the socket is bound."""
        self._thread = threading.Thread(
            target=self._run_blocking, name="repro-async-http", daemon=True
        )
        self._thread.start()
        self._ready.wait(30.0)
        if self._startup_error is not None:
            raise self._startup_error
        if self.port is None:
            raise RuntimeError("async server failed to start")
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (SIGINT) or closed."""
        try:
            self._run_blocking()
        except KeyboardInterrupt:  # pragma: no cover - asyncio.run re-raises
            pass
        if self._startup_error is not None:
            raise self._startup_error

    def close(self) -> None:
        """Stop serving and shut the app's job manager down; idempotent."""
        if self._closed:
            return
        self._closed = True
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and loop.is_running():
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:  # pragma: no cover - loop already gone
                pass
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        manager = getattr(self.app, "manager", None)
        if manager is not None:
            manager.shutdown()

    def __enter__(self) -> "AsyncHTTPServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- event-loop side -----------------------------------------------------
    def _run_blocking(self) -> None:
        try:
            asyncio.run(self._main())
        except KeyboardInterrupt:
            pass
        except BaseException as exc:
            self._startup_error = exc
        finally:
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self._lifespan_startup()
        server = await asyncio.start_server(
            self._client_connected, self._host, self._port
        )
        sockname = server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._ready.set()
        try:
            async with server:
                await self._stop.wait()
        except asyncio.CancelledError:  # pragma: no cover - loop teardown
            pass
        finally:
            await self._lifespan_shutdown()

    async def _lifespan_startup(self) -> None:
        """Run the app's lifespan startup (tolerating apps without one)."""
        self._lifespan_queue: asyncio.Queue = asyncio.Queue()
        self._lifespan_done = asyncio.Event()

        async def receive():
            return await self._lifespan_queue.get()

        async def send(message):
            if message["type"].endswith(".complete"):
                self._lifespan_done.set()

        async def run():
            try:
                await self.app(
                    {"type": "lifespan", "asgi": {"version": "3.0"}},
                    receive, send,
                )
            except BaseException:
                # Per the ASGI spec, apps may refuse lifespan; serve anyway.
                self._lifespan_done.set()
                self._lifespan_task = None

        self._lifespan_task = asyncio.ensure_future(run())
        await self._lifespan_queue.put({"type": "lifespan.startup"})
        await asyncio.wait_for(self._lifespan_done.wait(), timeout=30.0)

    async def _lifespan_shutdown(self) -> None:
        if getattr(self, "_lifespan_task", None) is None:
            return
        self._lifespan_done.clear()
        await self._lifespan_queue.put({"type": "lifespan.shutdown"})
        try:
            await asyncio.wait_for(self._lifespan_done.wait(), timeout=30.0)
            await self._lifespan_task
        except (asyncio.TimeoutError, BaseException):  # pragma: no cover
            pass

    # -- per-connection HTTP/1.1 ---------------------------------------------
    async def _client_connected(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                keep_alive = await self._one_request(reader, writer)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.LimitOverrunError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _one_request(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> bool:
        """Parse and answer one request; returns keep-alive."""
        request_line = await reader.readline()
        if not request_line or request_line in (b"\r\n", b"\n"):
            return False
        parts = request_line.decode("latin-1").rstrip("\r\n").split()
        if len(parts) != 3:
            await self._write_simple(writer, 400, "malformed request line")
            return False
        method, target, version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            await self._write_simple(writer, 400, "bad Content-Length")
            return False
        if length > MAX_BODY_BYTES:
            await self._write_simple(writer, 413, "request body too large")
            return False
        body = await reader.readexactly(length) if length > 0 else b""

        status, response_headers, payload = await self._call_app(
            method.upper(), target, headers, body
        )
        keep_alive = (
            version == "HTTP/1.1"
            and headers.get("connection", "").lower() != "close"
        )
        await self._write_response(
            writer, status, response_headers, payload, keep_alive
        )
        if self.verbose:  # pragma: no cover - log formatting
            print(f"{method} {target} -> {status}", flush=True)
        return keep_alive

    async def _call_app(
        self, method: str, target: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, list, bytes]:
        """Bridge one parsed request into the ASGI app."""
        path, _, query = target.partition("?")
        scope = {
            "type": "http",
            "asgi": {"version": "3.0", "spec_version": "2.3"},
            "http_version": "1.1",
            "method": method,
            "scheme": "http",
            "path": path,
            "raw_path": path.encode("latin-1"),
            "query_string": query.encode("latin-1"),
            "root_path": "",
            "headers": [
                (name.encode("latin-1"), value.encode("latin-1"))
                for name, value in headers.items()
            ],
            "client": None,
            "server": (self.host, self.port),
        }
        messages = [{"type": "http.request", "body": body, "more_body": False}]

        async def receive():
            if messages:
                return messages.pop(0)
            return {"type": "http.disconnect"}

        out: Dict[str, Any] = {"status": 500, "headers": [], "body": bytearray()}

        async def send(message):
            if message["type"] == "http.response.start":
                out["status"] = message["status"]
                out["headers"] = list(message.get("headers", []))
            elif message["type"] == "http.response.body":
                out["body"].extend(message.get("body", b""))

        try:
            await self.app(scope, receive, send)
        except BaseException as exc:
            payload = json.dumps(
                {"error": {"code": "internal",
                           "message": f"unhandled application error: {exc!r}",
                           "detail": None}}
            ).encode("utf-8")
            return 500, [
                (b"content-type", b"application/json"),
                (b"content-length", str(len(payload)).encode("ascii")),
            ], payload
        return out["status"], out["headers"], bytes(out["body"])

    async def _write_response(self, writer: asyncio.StreamWriter, status: int,
                              headers: list, payload: bytes,
                              keep_alive: bool) -> None:
        reason = _REASONS.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {reason}".encode("ascii")]
        has_length = False
        for name, value in headers:
            if name.lower() == b"content-length":
                has_length = True
            lines.append(name + b": " + value)
        if not has_length:
            lines.append(b"content-length: " + str(len(payload)).encode())
        lines.append(
            b"connection: keep-alive" if keep_alive else b"connection: close"
        )
        writer.write(b"\r\n".join(lines) + b"\r\n\r\n" + payload)
        await writer.drain()

    async def _write_simple(self, writer: asyncio.StreamWriter, status: int,
                            message: str) -> None:
        payload = json.dumps({"error": message}).encode("utf-8")
        await self._write_response(
            writer, status,
            [(b"content-type", b"application/json")], payload, False,
        )


def create_async_server(
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 2,
    cache: Optional[ResultCache] = None,
    trace=None,
    verbose: bool = False,
    solve_processes: int = 2,
    max_queued: Optional[int] = None,
    rate_limit: Optional[float] = None,
    rate_burst: Optional[float] = None,
) -> AsyncHTTPServer:
    """Build the default serving stack: ASGI app + asyncio HTTP server.

    The knobs are those of :func:`create_app` plus the bind address and
    request logging.  The server is not yet running: call
    :meth:`AsyncHTTPServer.start` (background thread) or
    :meth:`AsyncHTTPServer.serve_forever` (blocking).
    """
    app = create_app(
        workers=workers, cache=cache, trace=trace,
        solve_processes=solve_processes, max_queued=max_queued,
        rate_limit=rate_limit, rate_burst=rate_burst,
    )
    return AsyncHTTPServer(app, host=host, port=port, verbose=verbose)

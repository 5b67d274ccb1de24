"""CI smoke driver for ``repro serve`` (not a pytest module).

Starts the real CLI server as a subprocess on an ephemeral port with a
``--cache-dir``, runs an Example-1 synthesize and sweep through the
``/v1`` HTTP API, asserts the cache answers an identical resubmission
without a new solve and a malformed one with the typed error envelope,
and verifies the process shuts down cleanly on SIGINT.  It then boots a
fresh server on the same directory and asserts the synthesize is served
from disk (``cached``, identical result, zero solves) — all inside a
hard wall-clock budget so a wedged server fails CI instead of hanging
it.

Usage::

    python tests/service/serve_smoke.py
"""

from __future__ import annotations

import json
import re
import select
import signal
import subprocess
import sys
import tempfile
import urllib.error
import urllib.request

STARTUP_TIMEOUT = 30.0
SHUTDOWN_TIMEOUT = 15.0
SYNTHESIZE = {"problem": "example1", "cost_cap": 7.0, "wait": True}


def call(base: str, method: str, path: str, body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=90) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def boot(cache_dir: str):
    """Start ``repro serve`` on an ephemeral port; (process, base URL)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--job-workers", "2", "--cache-dir", cache_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    # The CLI prints "serving on http://host:port ..." once bound.
    ready, _, _ = select.select([process.stdout], [], [], STARTUP_TIMEOUT)
    line = process.stdout.readline() if ready else ""
    match = re.search(r"serving on (http://\S+)", line)
    if not match:
        process.kill()
        process.wait(timeout=10)
    assert match, f"no startup banner within {STARTUP_TIMEOUT}s: {line!r}"
    print(f"server up at {match.group(1)}")
    return process, match.group(1)


def stop(process) -> None:
    """SIGINT, then require a clean exit."""
    process.send_signal(signal.SIGINT)
    process.wait(timeout=SHUTDOWN_TIMEOUT)
    assert process.returncode == 0, \
        f"unclean shutdown: exit code {process.returncode}"
    print("clean shutdown")


def main() -> int:
    with tempfile.TemporaryDirectory() as cache_dir:
        first = serve_once(cache_dir)
        restart_from_disk(cache_dir, first)
    return 0


def serve_once(cache_dir: str):
    """Solve, sweep, resubmit and reject on one server; the first answer."""
    process, base = boot(cache_dir)
    try:
        status, first = call(base, "POST", "/v1/synthesize", SYNTHESIZE)
        assert status == 200 and first["status"] == "done", first
        assert not first["cached"]
        print(f"synthesize: makespan {first['result']['makespan']}, "
              f"cost {first['result']['cost']}")

        status, sweep = call(base, "POST", "/v1/sweep", {
            "problem": "example1", "max_designs": 3, "wait": True,
        })
        assert status == 200 and sweep["status"] == "done", sweep
        assert len(sweep["result"]["designs"]) == 3
        print(f"sweep: {len(sweep['result']['designs'])} designs")

        _, stats_before = call(base, "GET", "/v1/stats")
        status, again = call(base, "POST", "/v1/synthesize", SYNTHESIZE)
        _, stats_after = call(base, "GET", "/v1/stats")
        assert status == 200 and again["cached"], again
        assert again["result"] == first["result"], "cached result differs"
        assert stats_after["solves"] == stats_before["solves"], \
            "resubmission triggered a solve"
        print(f"resubmit: served from cache "
              f"(hits={stats_after['cache']['hits']})")

        status, bad = call(base, "POST", "/v1/synthesize", {
            "problem": "example1", "cost_cap": "cheap",
        })
        assert status == 400, (status, bad)
        assert bad["error"]["code"] == "bad_request", bad
        print(f"bad request: {bad['error']['message']}")

        stop(process)
        return first
    finally:
        kill_if_running(process)


def restart_from_disk(cache_dir: str, first) -> None:
    """A fresh server on the same cache directory answers without solving."""
    process, base = boot(cache_dir)
    try:
        status, again = call(base, "POST", "/v1/synthesize", SYNTHESIZE)
        _, stats = call(base, "GET", "/v1/stats")
        assert status == 200 and again["cached"], again
        assert again["result"] == first["result"], "disk result differs"
        assert stats["solves"] == 0, f"restarted server solved: {stats}"
        print(f"restart: served from disk (hits={stats['cache']['hits']})")
        stop(process)
    finally:
        kill_if_running(process)


def kill_if_running(process) -> None:
    if process.poll() is None:
        process.kill()
        process.wait(timeout=10)
        print("ERROR: server had to be killed", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

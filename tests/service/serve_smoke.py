"""CI smoke driver for ``repro serve`` (not a pytest module).

Starts the real CLI server as a subprocess on an ephemeral port, runs an
Example-1 synthesize and sweep through the ``/v1`` HTTP API, asserts the
cache answers an identical resubmission without a new solve and a
malformed one with the typed error envelope, and verifies the process
shuts down cleanly on SIGINT — all inside a hard wall-clock
budget so a wedged server fails CI instead of hanging it.

Usage::

    python tests/service/serve_smoke.py
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

STARTUP_TIMEOUT = 30.0
SHUTDOWN_TIMEOUT = 15.0


def call(base: str, method: str, path: str, body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=90) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def main() -> int:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--job-workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        # The CLI prints "serving on http://host:port ..." once bound.
        line = process.stdout.readline()
        match = re.search(r"serving on (http://\S+)", line)
        assert match, f"no startup banner within {STARTUP_TIMEOUT}s: {line!r}"
        base = match.group(1)
        print(f"server up at {base}")

        status, first = call(base, "POST", "/v1/synthesize", {
            "problem": "example1", "cost_cap": 7.0, "wait": True,
        })
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
        status, again = call(base, "POST", "/v1/synthesize", {
            "problem": "example1", "cost_cap": 7.0, "wait": True,
        })
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

        process.send_signal(signal.SIGINT)
        process.wait(timeout=SHUTDOWN_TIMEOUT)
        assert process.returncode == 0, \
            f"unclean shutdown: exit code {process.returncode}"
        print("clean shutdown")
        return 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
            print("ERROR: server had to be killed", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

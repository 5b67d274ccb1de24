"""Sample summaries, machine speed, peak memory of a process tree, and machine context.

Imports nothing from the program, so the launcher can use it before
(and without) the program being importable.
"""

from __future__ import annotations

import math
import os
import platform
import signal
import statistics
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it; below that it is the maximum in disguise.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q`` quantile, or ``None`` without enough samples beyond.

    >>> percentile(range(1, 101), 0.9)
    90
    >>> percentile(range(1, 100), 0.9) is None
    True
    """
    if not samples:
        return None
    ordered = sorted(samples)
    value = ordered[max(1, math.ceil(q * len(ordered))) - 1]
    beyond = sum(1 for sample in ordered if sample > value)
    return value if beyond >= MIN_BEYOND else None


#: CPU seconds one :func:`_probe_loop` takes at the reference speed the
#: end-to-end timings are scaled to (about its median on a 2-core Xeon VM).
REFERENCE_PROBE_S = 1.4e-3
#: Seconds between two probes.
PROBE_PERIOD_S = 0.05


def _probe_loop() -> int:
    total = 0
    for i in range(20_000):
        total += i * i
    return total


class SpeedProbe:
    """Samples the machine's speed while a timed phase runs.

    The host this benchmark runs on drifts: a fixed pure-Python loop
    runs up to a third slower for minutes at a time, whatever the
    program does.  A background thread therefore times a
    fixed loop every :data:`PROBE_PERIOD_S` in thread CPU seconds (so
    waiting for the interpreter lock or a core is not counted), and
    :meth:`factor` rescales a timing to :data:`REFERENCE_PROBE_S`: a
    program change moves the scaled timing as much as the raw one, the
    machine's drift moves only the raw one.
    """

    def __init__(self, period_s: float = PROBE_PERIOD_S) -> None:
        self.samples: List[float] = []
        self._period_s = period_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._period_s):
            began = time.thread_time()
            _probe_loop()
            self.samples.append(time.thread_time() - began)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def median_s(self) -> float:
        """Median CPU seconds of one probe (``REFERENCE_PROBE_S`` if none ran)."""
        return statistics.median(self.samples) if self.samples else REFERENCE_PROBE_S


def speed_factor(probe_s: float) -> float:
    """Multiplier taking a timing measured at probe speed ``probe_s`` to the reference speed."""
    return REFERENCE_PROBE_S / probe_s


def median(samples: Sequence[float]) -> float:
    """Median of ``samples`` (``0.0`` when empty)."""
    return statistics.median(samples) if samples else 0.0


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (Linux ``/proc`` children lists)."""
    found: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        for task in Path(f"/proc/{parent}/task").glob("*/children"):
            try:
                children = [int(child) for child in task.read_text().split()]
            except (FileNotFoundError, ProcessLookupError):
                continue
            found.extend(children)
            frontier.extend(children)
    return found


def kill_all(pids: Sequence[int], timeout: float = 10.0) -> None:
    """SIGKILL every live pid in ``pids`` and wait until each has gone."""
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    for pid in pids:
        while Path(f"/proc/{pid}").exists() and time.monotonic() < deadline:
            time.sleep(0.02)


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak resident memory (``VmHWM``) of ``pid`` and its descendants."""
    pids = [pid] + descendants(pid)
    return sum(_status_kb(each, "VmHWM") for each in pids) / 1024.0


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def machine_context() -> Dict[str, object]:
    """nproc, CPU model and interpreter/library versions for every result."""
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }

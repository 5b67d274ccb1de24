"""SOS benchmark: one workload, timed end to end or traced layer by layer.

Run from the repository root::

    python3 sosbench/run.py --workload sweep_ex1_bozo --seed 1 --seconds 15 --trace 0

Workloads: ``sweep_ex1_bozo``, ``designs_highs``, ``service_v1_mix`` and
``sweep_ex1_bozo_w2`` (see ``sosbench/README.md``).  With ``--trace 0``
the run reports the end-to-end metrics: set-up is measured in three
processes (two that stop after set-up, and the measured one) and
``setup_s`` is their median; ``op_p50_s`` and ``ops_per_s`` are scaled
to the reference machine speed (``measure.SpeedProbe``) and also
printed unscaled.  With ``--trace 1`` a single process alternates plain
and wrapped cycles and reports the per-layer metrics plus the tracing
overhead.  Every metric is printed by name with its unit; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is nonzero, with no result line, when the
program is missing or a benchmark process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from sosbench import layers, measure  # noqa: E402
from sosbench.workloads import WORKLOADS  # noqa: E402

#: Set-ups measured per untraced run (two probes and the measured process).
SETUPS = 3
#: A whole invocation gives up (nonzero exit, no result) after this long.
BUDGET_S = 170.0


class BenchmarkError(RuntimeError):
    """A benchmark process failed; the run prints no result."""


class Child:
    """One ``worker.py`` process and the tagged lines it prints."""

    def __init__(self, args, role: str) -> None:
        command = [sys.executable, str(ROOT / "sosbench" / "worker.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--role", role]
        self.started = time.perf_counter()
        self.process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                        text=True)
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def wait_for(self, tag: str, timeout: float) -> Dict:
        """The payload of the next ``tag`` line; raises if the process ends first."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise BenchmarkError(f"no {tag} within {timeout:.0f}s") from None
            if line is None:
                raise BenchmarkError(f"worker exited before {tag}")
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1:])

    def finish(self, timeout: float) -> None:
        """Wait for a clean exit; kill (and still wait) on timeout."""
        try:
            code = self.process.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise BenchmarkError("worker did not exit") from None
        finally:
            self._reader.join(timeout=5)
        if code != 0:
            raise BenchmarkError(f"worker exited with code {code}")

    def kill(self) -> None:
        """Kill the worker and everything it started (the server and its pool)."""
        if self.process.poll() is None:
            tree = measure.descendants(self.process.pid)
            self.process.kill()
            self.process.wait()
            measure.kill_all(tree)


def measure_setup(args, role: str, deadline: float) -> tuple:
    """Start a worker and time it from spawn to ``READY``."""
    child = Child(args, role)
    try:
        child.wait_for("READY", deadline - time.perf_counter())
    except BenchmarkError:
        child.kill()
        raise
    return child, time.perf_counter() - child.started


def run(args) -> tuple:
    """(setup samples, worker outcome) for one invocation."""
    deadline = time.perf_counter() + BUDGET_S
    setups: List[float] = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            probe, seconds = measure_setup(args, "probe", deadline)
            probe.finish(deadline - time.perf_counter())
            setups.append(seconds)
    main_child, seconds = measure_setup(args, "main", deadline)
    setups.append(seconds)
    try:
        outcome = main_child.wait_for("RESULT", deadline - time.perf_counter())
        main_child.finish(deadline - time.perf_counter())
    finally:
        main_child.kill()
    return setups, outcome


def report(args, setups: List[float], outcome: Dict) -> Dict:
    """Print every metric by name and unit; return the result object."""
    samples = outcome["samples"]
    p90 = measure.percentile(samples, 0.90)
    context = dict(measure.machine_context(), workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace,
                   run_id=f"{int(time.time())}-{os.getpid()}")
    if args.trace:
        context["pairing"] = (
            "layers from this run's job timestamps and /v1/metrics; nothing is wrapped"
            if args.workload == "service_v1_mix" else
            "plain and traced cycles alternate in this one process; "
            "trace.overhead_ratio compares them")
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit in layers.complete(outcome["layers"])}
    else:
        context["pairing"] = "untraced; the --trace 1 run with the same seed pairs with it"
        factor = measure.speed_factor(outcome["probe_s"])
        metrics = {
            "setup_s": {"value": measure.median(setups), "unit": "s"},
            "op_p50_s": {"value": measure.median(samples) * factor, "unit": "s"},
            "ops_per_s": {"value": outcome["ops_per_s"] / factor, "unit": "1/s"},
            "peak_rss_mb": {"value": outcome["peak_rss_mb"], "unit": "MB"},
        }
    print("context " + json.dumps(context))
    for name, metric in metrics.items():
        print(f"{name:<30} {metric['value']:>16.6g} {metric['unit']}")
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"{'error_rate':<30} {failed / attempted:>16.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    if p90 is None:
        print(f"{'op_p90_s':<30} {'not reported':>16} "
              f"({len(samples)} samples: fewer than {measure.MIN_BEYOND} beyond p90)")
    else:
        print(f"{'op_p90_s':<30} {p90:>16.6g} s ({len(samples)} samples)")
    print(f"{'setup_s samples':<30} {' '.join(f'{s:.4f}' for s in setups)}")
    if not args.trace:
        print(f"{'op_p50_wall_s':<30} {measure.median(samples):>16.6g} s (unscaled)")
        print(f"{'ops_per_wall_s':<30} {outcome['ops_per_s']:>16.6g} 1/s (unscaled)")
        print(f"{'speed_probe_s':<30} {outcome['probe_s']:>16.6g} s (reference "
              f"{measure.REFERENCE_PROBE_S:g} s; timings scaled by {factor:.4f})")
    for counts in outcome["counts"]:
        print("counts " + json.dumps(counts))
    for flag in outcome["count_flags"]:
        print("COUNTS CHANGED: " + flag)
    for failure in outcome["failures"]:
        print("FAILED: " + failure)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"sosbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups, outcome = run(args)
    except BenchmarkError as exc:
        print(f"sosbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, setups, outcome)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

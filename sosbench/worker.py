"""One benchmark process: set up a workload, then (main role) measure it.

Started by ``run.py``, never by hand.  Prints ``READY`` once set-up
(imports, input generation and one untimed warm-up op) is done; a probe
exits there, the main process goes on to the timed phase and prints
``RESULT`` with its samples.  Every other line the program or HiGHS
writes to standard output is ignored by the launcher.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))


def emit(tag: str, payload: Dict) -> None:
    print(tag, json.dumps(payload), flush=True)


def count_flags(counts: List[Dict[str, int]], recorded, keys: Sequence[str]) -> List[str]:
    """Ops whose exact counters (``keys``) differ from the run's first op or the record."""
    flags = []
    for index, each in enumerate(counts):
        for key in keys:
            if each[key] != counts[0][key]:
                flags.append(f"op {index} {key} {each[key]} differs from op 0 {counts[0][key]}")
            if index == 0 and each[key] != recorded[key]:
                flags.append(f"{key} {each[key]} differs from reference.json {recorded[key]}")
    return flags


def timed_loop(workload, seconds: float, traced: bool) -> Dict:
    """Run whole cycles through the inputs until ``seconds`` have passed.

    A partial cycle would skew the median and the rate towards whichever
    inputs it happened to reach, so the cycle running when time is up is
    finished.  Traced, even cycles run plain and odd cycles under the
    wrappers, always in pairs, so both halves see the same inputs and
    their ratio is the overhead.  Untraced, a :class:`SpeedProbe` samples
    the machine's speed throughout (traced runs skip it: their halves
    are compared with each other).
    """
    from sosbench import layers, measure, tracing

    recorder = tracing.SpanRecorder()
    totals = layers.LayerTotals() if traced else None
    inputs = workload.inputs()
    walls = {False: [], True: []}
    failures: List[str] = []
    counts: List[Dict[str, int]] = []
    start = time.perf_counter()
    cycle = 0
    probe = measure.SpeedProbe()
    with nullcontext() if traced else probe:
        while True:
            tracing_now = traced and cycle % 2 == 1
            with tracing.installed(recorder) if tracing_now else nullcontext():
                for item in inputs:
                    recorder.active = tracing_now
                    began = time.perf_counter()
                    try:
                        result = recorder.call(tracing.ROOT_LAYER, workload.run, item)
                        failure = None
                    except Exception as exc:  # a failed op is counted, not fatal
                        result, failure = None, f"{type(exc).__name__}: {exc}"
                    walls[tracing_now].append(time.perf_counter() - began)
                    recorder.active = False
                    if tracing_now:
                        totals.drain(recorder)
                    if failure is None:
                        failure = workload.check(item, result)
                    if failure is not None:
                        failures.append(failure)
                    elif (each := workload.counts(result)) is not None:
                        counts.append(each)
            cycle += 1
            if time.perf_counter() - start >= seconds and (not traced or cycle % 2 == 0):
                break
    plain = walls[False]
    outcome = {
        "attempted": len(plain) + len(walls[True]),
        "failed": len(failures),
        "failures": failures[:5],
        "samples": plain,
        "ops_per_s": len(plain) / sum(plain),
        "probe_s": probe.median_s(),
        "counts": counts,
        "count_flags": count_flags(counts, workload.recorded_counts, workload.exact_counts),
    }
    if traced:
        values = layers.solver_layers(recorder, totals, len(walls[True]))
        traced_mean = sum(walls[True]) / len(walls[True])
        values["trace.op_wall_s"] = traced_mean
        values["trace.overhead_ratio"] = traced_mean / (sum(plain) / len(plain)) - 1.0
        values["trace.unaccounted_share"] = tracing.unaccounted_share(recorder, sum(walls[True]))
        outcome["layers"] = values
    return outcome


def run_service(args, reference) -> int:
    from sosbench import measure, service

    streams = service.request_streams(args.seed, reference)
    server = service.Server(ROOT)
    try:
        control = server.connection()
        warm = service.warm_up_request()
        failure = service.check_response(warm, *control.send(warm))
        control.close()
        if failure is not None:
            print(f"warm-up request failed: {failure}", file=sys.stderr)
            return 1
        emit("READY", {})
        if args.role == "probe":
            return 0
        before = service.Counters.read(control)
        connections = [server.connection() for _ in range(service.CLIENTS)]
        with measure.SpeedProbe() as probe:
            exchanges, wall = service.drive(connections, streams, args.seconds)
        for connection in connections:
            connection.close()
        counters = service.Counters.read(control).since(before)
        peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    failures = [e.failure for e in exchanges if e.failure is not None]
    outcome = {
        "attempted": len(exchanges),
        "failed": len(failures),
        "failures": failures[:5],
        "samples": [e.latency_s for e in exchanges],
        "ops_per_s": len(exchanges) / wall,
        "probe_s": probe.median_s(),
        "peak_rss_mb": peak_rss_mb,
        "counts": [{"service.solves": counters.solves,
                    "service.cache_hits": counters.cache_hits}],
        "count_flags": service.count_flags(exchanges, counters),
    }
    if args.trace:
        values = service.service_layers(exchanges, counters)
        latency = sum(e.latency_s for e in exchanges)
        split = sum(e.latency_s for e in exchanges if e.server_s is not None)
        values["trace.op_wall_s"] = latency / len(exchanges) if exchanges else 0.0
        # Layers come from the server's job timestamps and /v1/metrics;
        # nothing is wrapped in the measured processes, so no overhead.
        # Overhead, queue wait and run partition each timestamped
        # exchange; only exchanges without timestamps go unaccounted.
        values["trace.overhead_ratio"] = 0.0
        values["trace.unaccounted_share"] = (latency - split) / latency if latency else 0.0
        outcome["layers"] = values
    emit("RESULT", outcome)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--role", choices=("probe", "main"), required=True)
    args = parser.parse_args()

    import repro  # noqa: F401  (the import is part of set-up)

    from sosbench import measure, problems
    from sosbench.workloads import make_workload

    reference = problems.load_reference()
    if args.workload == "service_v1_mix":
        return run_service(args, reference)
    workload = make_workload(args.workload, args.seed, reference)
    failure = workload.warm_up()
    if failure is not None:
        print(f"warm-up op failed: {failure}", file=sys.stderr)
        return 1
    emit("READY", {})
    if args.role == "probe":
        return 0
    outcome = timed_loop(workload, args.seconds, bool(args.trace))
    outcome["peak_rss_mb"] = measure.tree_peak_rss_mb(os.getpid())
    emit("RESULT", outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())

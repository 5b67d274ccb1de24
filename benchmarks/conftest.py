"""Shared helpers for the benchmark harness.

Every paper artifact gets one ``bench_*`` function that (a) re-runs the
synthesis behind the artifact under ``pytest-benchmark`` timing, (b) prints
the regenerated table side by side with the paper's values, and (c) asserts
the reproduction matches.  Run with::

    pytest benchmarks/ --benchmark-only

These benches check reproduction, not speed: end-to-end and per-layer
timing lives in ``sosbench/`` (``python3 sosbench/run.py``).
"""


def run_once(benchmark, func, *args, **kwargs):
    """Benchmark an expensive synthesis exactly once (no warmup rounds —
    MILP sweeps are deterministic and take seconds to hours of 1991 time)."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def show(result) -> None:
    """Print an ExperimentResult's paper-vs-measured table."""
    print()
    if getattr(result, "rows", None):
        print(result.render())
    else:
        print(f"{result.name}: {'OK' if result.matches_paper else 'DEVIATIONS'}")
        for note in result.notes:
            print(f"  note: {note}")

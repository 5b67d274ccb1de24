"""Parallel branch-and-bound benchmark.

The key claims measured (and persisted to ``BENCH_solvers.json``):

* ``BozoSolver(workers=4)`` returns a Solution *byte-identical* to the
  serial run — same status, objective, variable values, and bound — on a
  market-split MILP whose serial tree exceeds 200 nodes.
* On a machine with at least 4 cores the parallel solve is at least 2x
  faster in wall clock.  The identity assertions always run; the speedup
  assertion is skipped on smaller machines (a 1-core container cannot
  exhibit parallel speedup, only measure its overhead), and the measured
  ratio is recorded either way so the perf trajectory captures both
  worlds.

Speedup ratios are only recorded on machines with at least as many cores
as requested workers; a smaller box records wall seconds and context
(``workers_requested``/``workers``/``cpu_count``) but omits the ratio —
an honest "cannot measure here" instead of a misleading sub-1x number.

The instance generator builds market-split-style models (a few equality
rows balancing random weights, slack variables minimized): tiny LPs with
a large branch-and-bound tree — the shape where subtree parallelism
pays.  Branching is ``most_fractional`` so decisions are a pure function
of each node (the documented byte-identity regime; pseudocost branching
learns across subtrees and only guarantees identical objectives).
"""

import os
import random

import pytest

from benchmarks.conftest import record_bench, run_once
from repro.milp.expr import VarType
from repro.milp.model import Model
from repro.solvers.base import SolverOptions
from repro.solvers.bozo import BozoSolver

#: The serial tree of this instance has >1500 nodes (asserted below).
BENCH_INSTANCE = (3, 16, 0)


def market_split(rows: int, binaries: int, seed: int) -> Model:
    """Market-split MILP: hit per-row targets with binary picks; minimize
    the total slack.  Classic big-tree/cheap-LP branch-and-bound stress."""
    rng = random.Random(seed)
    model = Model(f"market_split_{rows}x{binaries}_s{seed}")
    x = [model.add_var(f"x{j}", vtype=VarType.BINARY) for j in range(binaries)]
    surplus = [model.add_var(f"sp{i}", lb=0) for i in range(rows)]
    deficit = [model.add_var(f"sm{i}", lb=0) for i in range(rows)]
    for i in range(rows):
        weights = [rng.randrange(100) for _ in range(binaries)]
        target = sum(weights) // 2
        model.add(
            sum(w * xj for w, xj in zip(weights, x))
            + surplus[i] - deficit[i] == target,
            name=f"row{i}",
        )
    model.minimize(sum(surplus) + sum(deficit))
    return model


def _options(workers: int) -> SolverOptions:
    # clamp_workers=False: the bench measures the requested pool even on
    # boxes with fewer cores (the clamp would silently serialize it).
    # cuts="off": these benches measure dispatch over a *fixed* big-tree
    # workload; root cuts shrinking the tree would change what is timed.
    return SolverOptions(
        workers=workers, branching="most_fractional", clamp_workers=False,
        cuts="off",
    )


def _record_parallel(name, serial, parallel, serial_seconds, parallel_seconds,
                     **extra) -> float:
    """Persist one parallel-vs-serial entry; returns the measured speedup.

    ``speedup_vs_serial`` is only *recorded* when the machine actually has
    as many cores as workers were requested — a 1-core container measures
    scheduling overhead, not parallelism, and a recorded "0.4x" there
    would read as a regression on real hardware.  Wall seconds, node
    counts, and the worker/core context are recorded unconditionally.
    """
    cores = os.cpu_count() or 1
    requested = parallel.stats.workers_requested
    speedup = serial_seconds / max(parallel_seconds, 1e-9)
    fields = dict(
        serial_wall_seconds=serial_seconds,
        parallel_wall_seconds=parallel_seconds,
        serial_nodes=serial.iterations,
        parallel_nodes=parallel.iterations,
        serial_pivots=serial.stats.lp_pivots,
        parallel_pivots=parallel.stats.lp_pivots,
        subtrees_dispatched=parallel.stats.subtrees_dispatched,
        incumbent_broadcasts=parallel.stats.incumbent_broadcasts,
        workers_requested=requested,
        workers=parallel.stats.workers,
        cpu_count=cores,
        objective=serial.objective,
        **extra,
    )
    if cores >= requested:
        fields["speedup_vs_serial"] = speedup
    record_bench(name, **fields)
    return speedup


def bench_parallel_bnb_identity_and_speedup(benchmark):
    """workers=4 vs workers=1: identical Solution, recorded speedup."""
    model = market_split(*BENCH_INSTANCE)

    serial = BozoSolver(_options(workers=1)).solve(model)
    serial_seconds = serial.solve_seconds
    assert serial.iterations >= 200, "instance too easy to exercise the tree"

    def solve_parallel():
        return BozoSolver(_options(workers=4)).solve(model)

    parallel = run_once(benchmark, solve_parallel)
    parallel_seconds = parallel.solve_seconds

    # Byte-identity: the merged Solution equals the serial one.
    assert parallel.status == serial.status
    assert parallel.objective == serial.objective
    assert parallel.best_bound == serial.best_bound
    assert parallel.values == serial.values

    cores = os.cpu_count() or 1
    speedup = _record_parallel(
        "parallel_bnb_market_split_3x16",
        serial, parallel, serial_seconds, parallel_seconds,
        byte_identical=True,
    )
    print(f"\nserial {serial_seconds:.3f}s ({serial.iterations} nodes) | "
          f"workers=4 {parallel_seconds:.3f}s ({parallel.iterations} nodes) | "
          f"speedup {speedup:.2f}x on {cores} cores")
    if cores < 4:
        pytest.skip(f"speedup assertion needs >= 4 cores, have {cores} "
                    f"(identity assertions passed; speedup not recorded)")
    assert speedup >= 2.0, (
        f"workers=4 must be >= 2x faster than serial, got {speedup:.2f}x"
    )

"""Parallel branch and bound: subtree dispatch over a persistent pool.

The driver behind ``BozoSolver(workers=N)``.  The strategy is *ramp then
dispatch*:

1. **Ramp** — the tree is searched serially (dives and all, an exact
   prefix of the ``workers=1`` run) until the open list holds
   ``frontier_target`` nodes (default ``max(4 * workers, 8)``).
2. **Publish** — the solve's matrices (matrix form, standard form, CSC
   arrays) go into one ``multiprocessing.shared_memory`` segment
   (:mod:`repro.solvers.shm`); the persistent worker pool
   (:mod:`repro.solvers.pool`) attaches zero-copy.  Nothing is inherited
   through ``fork``, so any start method works and a worker process is
   reused across solves.
3. **Dispatch** — the open nodes, sorted by their deterministic
   ``(bound, path id)`` heap key, go onto the pool's shared node queue
   encoded as bound deltas.  Any worker takes any node and solves its
   subtree whole.
4. **Broadcast** — whenever a worker improves on its local incumbent it
   publishes the objective into a shared value; other workers prune nodes
   whose LP bound is *strictly worse* than the broadcast.  Strictness
   matters: conservative cross-worker pruning can only remove provably
   non-improving subtrees, so each lease's result is independent of
   broadcast timing.
5. **Merge** — subtree incumbents are replayed in their
   ``(bound, path id)`` key order with the serial adoption rule.  Under
   ``most_fractional`` branching this reproduces the serial incumbent,
   so the merged Solution is byte-identical to the ``workers=1`` run;
   under ``pseudocost`` the learned costs depend on cross-subtree
   history, so status, objective and bound are identical but the values
   may be a different optimal vertex.

Cancellation reaches workers through the pool's shared event: the driver
polls ``options.should_stop`` while leases are in flight and sets the
event, which every worker observes within one node (it is wired in as
the worker-side ``should_stop``).  When the pool cannot be created or a
worker dies mid-epoch, the subtrees are solved inline in dispatch order —
the same lease code path, minus the parallelism — so results never depend
on platform.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from dataclasses import replace
from typing import List, Optional

from repro.errors import CancelledError
from repro.milp.model import Model
from repro.milp.solution import Solution, SolveStats
from repro.obs.progress import ProgressReporter
from repro.obs.sinks import Tracer, make_tracer
from repro.solvers.bozo import (
    BozoSolver,
    _emit_solve_done,
    _LPBackend,
    _Node,
    _SearchOutcome,
    _TreeSearch,
)
from repro.solvers.pool import (
    EpochReport,
    LeaseResult,
    PoolBrokenError,
    get_pool,
    solve_lease,
)
from repro.solvers.shm import FormPublication


class _InlineShared:
    """Driver-local incumbent sharing for the inline fallback path."""

    def __init__(self, value: float) -> None:
        self.value = value
        self.broadcasts = 0

    def foreign_best(self) -> float:
        return self.value

    def publish(self, objective: float, tracer: Optional[Tracer]) -> None:
        if objective < self.value - 1e-12:
            self.value = objective
            self.broadcasts += 1
            if tracer is not None:
                tracer.emit("incumbent_broadcast", objective=objective)


def _solve_epoch_inline(
    form,
    sf,
    options,
    worker_options,
    start: float,
    ramp_obj: float,
    subtrees: List[_Node],
) -> EpochReport:
    """Fallback: solve every lease in dispatch order, polling cancellation.

    The leases run in the driver process, so the caller's ``should_stop``
    closure is wired straight into each lease: cancellation is observed
    within one node here too, not merely between subtrees.
    """
    lease_options = worker_options
    if options.should_stop is not None:
        lease_options = replace(worker_options, should_stop=options.should_stop)
    shared = _InlineShared(ramp_obj)
    leases: List[LeaseResult] = []
    for lease_id, node in enumerate(subtrees, start=1):
        if options.should_stop is not None and options.should_stop():
            raise CancelledError(
                "parallel solve cancelled between inline subtrees"
            )
        outcome, stats, events, cancelled = solve_lease(
            form, sf, lease_options, start, ramp_obj, node, lease_id=lease_id,
            foreign_best=shared.foreign_best, publish=shared.publish,
            trace_enabled=options.trace is not None,
        )
        leases.append(LeaseResult(
            lease_id=lease_id, outcome=outcome, stats=stats, events=events,
            cancelled=cancelled,
        ))
        if cancelled:
            return EpochReport(
                leases=leases, broadcasts=shared.broadcasts,
                idle_slots=[], cancelled=True,
            )
    return EpochReport(
        leases=leases, broadcasts=shared.broadcasts,
        idle_slots=[], cancelled=False,
    )


def solve_parallel(
    solver: BozoSolver, model: Model, workers: Optional[int] = None
) -> Solution:
    """Parallel solve entry point used by :meth:`BozoSolver.solve`.

    ``workers`` is the *effective* process count (after the CPU-count
    clamp in :meth:`BozoSolver.solve`); ``None`` uses the requested
    ``options.workers`` unclamped.  The requested count is always
    recorded in ``SolveStats.workers_requested``.
    """
    options = solver.options
    effective = workers if workers is not None else options.workers
    start = time.monotonic()
    stats = SolveStats()
    stats.workers_requested = options.workers
    tracer = make_tracer(options.trace)
    reporter = ProgressReporter(
        options.on_progress, options.progress_interval, start=start
    )
    if tracer is not None:
        tracer.emit("solve_started", solver=solver.name)
    prepared = solver._prepared_form(model, stats, start, tracer=tracer)
    if isinstance(prepared, Solution):
        prepared.stats.workers = effective
        solver.last_ramp_stats = dataclasses.replace(
            stats, phase_seconds=dict(stats.phase_seconds)
        )
        solver.last_worker_stats = []
        solver.last_root_cuts = []
        _emit_solve_done(tracer, prepared)
        return prepared
    form = prepared

    lp = _LPBackend(form, stats, tracer=tracer)
    ramp = _TreeSearch(
        options, form, lp, start=start, tracer=tracer, reporter=reporter
    )
    if options.incumbent is not None:
        ramp.seed_incumbent(options.incumbent)
    frontier_target = options.frontier_target or max(4 * effective, 8)
    root = _Node(-math.inf, 1, form.lb.copy(), form.ub.copy())
    outcome = ramp.run([root], frontier_target=frontier_target)
    solver.last_root_cuts = ramp.applied_cuts

    stats.workers = effective
    stats.nodes = outcome.nodes
    if not outcome.open_nodes:
        # The ramp exhausted the tree (or hit a limit / unboundedness)
        # before a frontier existed: nothing to parallelize.
        solver.last_ramp_stats = dataclasses.replace(
            stats, phase_seconds=dict(stats.phase_seconds)
        )
        solver.last_worker_stats = []
        return solver._assemble(
            form, outcome, stats, start, tracer=tracer, reporter=reporter
        )

    subtrees = sorted(outcome.open_nodes)  # (bound, path id) dispatch order
    stats.subtrees_dispatched = len(subtrees)
    if tracer is not None:
        for index, node in enumerate(subtrees, start=1):
            tracer.emit(
                "subtree_dispatched",
                subtree=index,
                node=node.tiebreak,
                bound=node.bound,
            )

    # Sinks and callbacks never cross the process boundary: workers buffer
    # events privately and never report progress, so both are stripped from
    # the per-worker options.  should_stop is replaced worker-side by a
    # poll of the pool's shared cancel event — which the driver sets when
    # the caller's hook fires — so cancellation actually reaches in-flight
    # leases (a pickled copy of the caller's closure never could).
    # Cuts are also stripped: separation is a root-node (ramp) activity and
    # the workers inherit the cut-augmented form through shared memory —
    # solve_lease additionally hard-disables cuts via ``allow_cuts=False``.
    worker_options = replace(
        options, workers=1, frontier_target=0, cuts="off",
        trace=None, on_progress=None, should_stop=None,
    )

    report: Optional[EpochReport] = None
    try:
        worker_pool = get_pool(effective)
    except (OSError, ValueError):  # cannot create processes: degrade
        worker_pool = None
    if worker_pool is not None:
        try:
            # The publication owns the shared-memory segment; the context
            # manager releases it on every exit path — normal completion,
            # cancellation, pool crash, or any other exception.
            with FormPublication(form, lp.sf) as publication:
                report = worker_pool.run_epoch(
                    spec=publication.spec,
                    options=worker_options,
                    start=start,
                    ramp_obj=outcome.incumbent_obj,
                    subtrees=subtrees,
                    root_lb=form.lb,
                    root_ub=form.ub,
                    trace_enabled=options.trace is not None,
                    should_stop=options.should_stop,
                )
        except PoolBrokenError:
            # Partial results are discarded wholesale: re-solving every
            # subtree inline from the ramp state reproduces them exactly.
            report = None
    if report is None:
        report = _solve_epoch_inline(
            form, lp.sf, options, worker_options, start,
            outcome.incumbent_obj, subtrees,
        )
    if report.cancelled:
        raise CancelledError(
            "parallel solve cancelled while subtrees were in flight"
        )

    # Forward buffered worker events into the parent sink in dispatch
    # order (the serial layout); replay folds them per lease id.
    leases = sorted(report.leases, key=lambda lease: lease.lease_id)
    if tracer is not None:
        for lease in leases:
            for event in lease.events:
                tracer.sink.emit(event)
        for slot in report.idle_slots:
            tracer.emit("worker_idle", slot=slot)

    # Merge subtree incumbents into the ramp state, replaying them in
    # discovery-key order with the serial adoption rule (byte-identity).
    merged = _SearchOutcome(
        incumbent_x=outcome.incumbent_x,
        incumbent_obj=outcome.incumbent_obj,
        incumbent_key=outcome.incumbent_key,
        nodes=outcome.nodes,
        root_unbounded=outcome.root_unbounded,
    )
    candidates = sorted(
        (
            lease.outcome for lease in leases
            if lease.outcome is not None
            and lease.outcome.incumbent_x is not None
        ),
        key=lambda res: res.incumbent_key,
    )
    for res in candidates:
        if res.incumbent_obj < merged.incumbent_obj - 1e-12:
            merged.incumbent_x = res.incumbent_x
            merged.incumbent_obj = res.incumbent_obj
            merged.incumbent_key = res.incumbent_key
            if tracer is not None:
                tracer.emit(
                    "incumbent_found",
                    objective=merged.incumbent_obj,
                    node=merged.incumbent_key[1],
                    source="merge",
                )

    open_bounds: List[float] = []
    for lease in leases:
        res = lease.outcome
        if res is None:
            continue
        merged.nodes += res.nodes
        if res.hit_limit:
            merged.hit_limit = True
            if res.best_open_bound > -math.inf:
                open_bounds.append(res.best_open_bound)
    if merged.hit_limit:
        merged.best_open_bound = min(open_bounds) if open_bounds else -math.inf

    stats.worker_idle_waits = len(report.idle_slots)
    solver.last_ramp_stats = dataclasses.replace(
        stats, phase_seconds=dict(stats.phase_seconds)
    )
    worker_stats = [lease.stats for lease in leases]
    solver.last_worker_stats = worker_stats
    for wstats in worker_stats:
        stats.merge(wstats)
    stats.incumbent_broadcasts = report.broadcasts
    return solver._assemble(
        form, merged, stats, start, tracer=tracer, reporter=reporter
    )


class ParallelBozoSolver(BozoSolver):
    """:class:`BozoSolver` that defaults to one worker per CPU core.

    Registered as ``"bozo-parallel"``.  Equivalent to requesting
    ``bozo`` with ``SolverOptions(workers=os.cpu_count())``; provided so
    callers that only pick solvers by name can opt into parallel search.
    """

    name = "bozo-parallel"

    def __init__(self, options=None) -> None:
        super().__init__(options)
        if self.options.workers <= 1:
            self.options = replace(
                self.options, workers=max(2, os.cpu_count() or 2)
            )

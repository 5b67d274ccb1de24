"""Persistent worker pool for parallel branch and bound.

One pool of worker processes lives for the whole process (created on the
first parallel solve, reused by every later one, shut down at exit), so
repeated solves — a Pareto sweep, a synthesis service under load — pay
the process-spawn cost once instead of per solve.  Each solve is an
*epoch*:

1. The driver publishes the solve's matrices once through shared memory
   (:mod:`repro.solvers.shm`), resets the pool-lifetime shared primitives
   (incumbent bound, broadcast counter, cancel event), and broadcasts an
   epoch descriptor over each worker's control queue.
2. Frontier nodes, encoded as bound deltas against the root bounds
   (:func:`encode_node`), go onto one shared node queue.  Any worker takes
   any node; each subtree is solved whole and never split.
3. Workers report one result message per lease, and the driver counts
   them down: the epoch is complete once every dispatched node has been
   reported.  A worker that finds the queue empty while the epoch is
   still open reports itself idle once, which shows load imbalance.

Cancellation is a pool-lifetime ``multiprocessing.Event``: the driver
sets it when the caller's ``should_stop`` fires, every worker polls it
per branch-and-bound node (it is wired in as the worker's
``SolverOptions.should_stop``), and in-flight leases return as cancelled
within one node's latency.  The epoch still drains fully — every queued
node comes back as a cancelled lease — so the pool is immediately
reusable.

A worker death mid-epoch raises :class:`PoolBrokenError` (an ``OSError``)
after the pool is torn down; the caller falls back to solving inline.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from dataclasses import dataclass, replace
from queue import Empty
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import CancelledError
from repro.milp.solution import SolveStats
from repro.obs.events import TraceEvent
from repro.obs.sinks import MemoryTraceSink, Tracer
from repro.solvers.bozo import _LPBackend, _Node, _SearchOutcome, _TreeSearch
from repro.solvers.revised import Basis
from repro.solvers.shm import AttachedForm

#: Environment override for the pool's multiprocessing start method
#: (``fork``, ``spawn``, or ``forkserver``); empty picks ``fork`` where
#: available and ``spawn`` elsewhere.
START_METHOD_ENV = "REPRO_POOL_START_METHOD"

#: Seconds a worker (or the driver) waits on an empty queue per poll.
_POLL = 0.05


class PoolBrokenError(OSError):
    """A pool worker died mid-epoch; the pool was torn down."""


# -- node wire encoding ------------------------------------------------------
def encode_node(node: _Node, root_lb: np.ndarray, root_ub: np.ndarray) -> Tuple:
    """Encode a node as a bound delta against the root bounds.

    Only the entries of ``lb``/``ub`` that differ from the root bounds
    travel, plus the warm-start basis and branching metadata — never a
    matrix and never full bound vectors.
    """
    lb_idx = np.nonzero(node.lb != root_lb)[0].astype(np.int32)
    ub_idx = np.nonzero(node.ub != root_ub)[0].astype(np.int32)
    basis = None
    if node.basis is not None:
        basis = (node.basis.basic.copy(), node.basis.status.copy())
    return (
        float(node.bound), int(node.tiebreak), int(node.depth),
        lb_idx, np.ascontiguousarray(node.lb[lb_idx]),
        ub_idx, np.ascontiguousarray(node.ub[ub_idx]),
        basis, int(node.branch_var), node.branch_dir,
        float(node.branch_fraction),
    )


def decode_node(
    payload: Tuple, root_lb: np.ndarray, root_ub: np.ndarray
) -> _Node:
    """Inverse of :func:`encode_node` against the receiver's root bounds."""
    (bound, tiebreak, depth, lb_idx, lb_val, ub_idx, ub_val,
     basis_payload, branch_var, branch_dir, branch_fraction) = payload
    lb = np.array(root_lb, dtype=float)
    lb[lb_idx] = lb_val
    ub = np.array(root_ub, dtype=float)
    ub[ub_idx] = ub_val
    basis = None
    if basis_payload is not None:
        basis = Basis(basis_payload[0], basis_payload[1])
    return _Node(
        bound, tiebreak, lb, ub, depth, basis=basis,
        branch_var=branch_var, branch_dir=branch_dir,
        branch_fraction=branch_fraction,
    )


# -- one lease, shared by pool workers and the inline fallback ---------------
def solve_lease(
    form,
    sf,
    options,
    start: float,
    ramp_obj: float,
    root_lp,
    fixed_bounds,
    node: _Node,
    lease_id: int,
    foreign_best,
    publish,
    trace_enabled: bool,
) -> Tuple[Optional[_SearchOutcome], SolveStats, List[TraceEvent], bool]:
    """Exhaust one subtree lease; returns (outcome, stats, events, cancelled).

    The lease is solved with dives disabled and a local adoption rule
    seeded with the ramp incumbent: what it reports is a function of the
    subtree alone (broadcasts only prune provably non-improving nodes),
    which is what makes the deterministic merge possible.  ``lease_id``
    (the dispatch index) stamps the trace events as their worker id.  A
    cooperative cancellation mid-search returns
    ``(None, stats, events, True)``; partial work is discarded.
    """
    stats = SolveStats()
    buffer: Optional[MemoryTraceSink] = None
    tracer: Optional[Tracer] = None
    if trace_enabled:
        buffer = MemoryTraceSink()
        tracer = Tracer(buffer, worker=lease_id)
    lp = _LPBackend(
        form, options.warm_start, stats, sf=sf, tracer=tracer,
        pricing_block_size=options.pricing_block_size,
        pricing=options.pricing,
    )
    # Each lease re-tightens reduced-cost bounds from its own incumbents
    # only, starting from the bounds the ramp derived — copied, so no
    # cross-lease mutation.
    fixed = None
    if fixed_bounds is not None:
        fixed = (fixed_bounds[0].copy(), fixed_bounds[1].copy())

    def wrapped_publish(objective: float) -> None:
        publish(objective, tracer)

    engine = _TreeSearch(
        options, form, lp,
        start=start,
        incumbent_obj=ramp_obj,
        foreign_best=foreign_best,
        publish=wrapped_publish,
        allow_dives=False,
        allow_cuts=False,
        treat_root_unbounded=False,
        tracer=tracer,
        root_lp=root_lp,
        fixed_bounds=fixed,
    )
    try:
        outcome = engine.run([node])
    except CancelledError:
        events = buffer.events if buffer is not None else []
        return None, stats, events, True
    outcome.open_nodes = []  # never ship nodes back through the result queue
    stats.nodes = outcome.nodes
    events = buffer.events if buffer is not None else []
    return outcome, stats, events, False


# -- worker process ----------------------------------------------------------
def _attach_epoch(msg, previous: Optional[AttachedForm]):
    """Build a worker's per-epoch context from an ``("epoch", ...)`` message.

    Returns ``(ctx, attached)`` or ``(None, previous)`` when the segment
    is already gone (the epoch completed before this worker woke up — it
    simply waits for the next one).
    """
    (_, eid, spec, options, start, ramp_obj, root_lp, fixed_bounds,
     trace_enabled) = msg
    try:
        attached = AttachedForm(spec)
    except (FileNotFoundError, OSError):
        return None, previous
    if previous is not None:
        previous.close()
    ctx = {
        "epoch": eid,
        "form": attached.form,
        "sf": attached.sf,
        "options": options,
        "start": start,
        "ramp_obj": ramp_obj,
        "root_lp": root_lp,
        "fixed_bounds": fixed_bounds,
        "trace_enabled": trace_enabled,
    }
    return ctx, attached


def _worker_main(slot: int, ctl_q, node_q, result_q, shared) -> None:
    """Worker entry point: serve epochs until told to stop."""
    attached: Optional[AttachedForm] = None
    try:
        while True:
            msg = ctl_q.get()
            if msg[0] == "stop":
                break
            if msg[0] != "epoch":
                continue
            ctx, attached = _attach_epoch(msg, attached)
            while ctx is not None:
                verdict = _serve_epoch(slot, ctx, node_q, result_q, shared)
                if verdict != "reenter":
                    break
                # A node from a *newer* epoch surfaced before our control
                # message; consume the pending epoch descriptor first.
                msg = ctl_q.get()
                if msg[0] == "stop":
                    return
                ctx, attached = _attach_epoch(msg, attached)
    finally:
        if attached is not None:
            attached.close()


def _serve_epoch(slot: int, ctx, node_q, result_q, shared) -> str:
    """Consume one epoch's node queue; returns ``"done"`` or ``"reenter"``.

    A worker that finds the queue empty while its epoch is still open
    reports ``("idle", ...)`` once, and again only after it has run
    another lease: the driver's count of these is the load imbalance.
    """
    eid = ctx["epoch"]
    options = replace(
        ctx["options"], should_stop=lambda: shared.cancel.is_set()
    )
    idle = False
    while True:
        try:
            msg = node_q.get(timeout=_POLL)
        except Empty:
            if shared.epoch.value != eid:
                return "done"
            if not idle:
                idle = True
                result_q.put(("idle", eid, slot))
            continue
        m_eid = msg[1]
        if m_eid < eid:
            continue  # stale leftover of a finished epoch: drop
        if m_eid > eid:
            node_q.put(msg)  # not ours yet: requeue, switch epochs first
            return "reenter"
        idle = False
        result_q.put(_run_lease(ctx, options, msg, shared))


def _run_lease(ctx, options, msg, shared) -> Tuple:
    """Process one ``("node", ...)`` message into a ``("done", ...)`` reply."""
    _, eid, lease_id, payload = msg
    form = ctx["form"]
    node = decode_node(payload, form.lb, form.ub)
    if shared.cancel.is_set():
        return ("done", eid, lease_id, None, SolveStats(), [], True)

    def foreign_best() -> float:
        return shared.incumbent.value

    def publish(objective: float, tracer: Optional[Tracer]) -> None:
        with shared.incumbent.get_lock():
            if objective < shared.incumbent.value - 1e-12:
                shared.incumbent.value = objective
                shared.broadcasts.value += 1
                if tracer is not None:
                    tracer.emit("incumbent_broadcast", objective=objective)

    outcome, stats, events, cancelled = solve_lease(
        form, ctx["sf"], options, ctx["start"], ctx["ramp_obj"],
        ctx["root_lp"], ctx["fixed_bounds"], node,
        lease_id=lease_id, foreign_best=foreign_best, publish=publish,
        trace_enabled=ctx["trace_enabled"],
    )
    return ("done", eid, lease_id, outcome, stats, events, cancelled)


# -- driver side -------------------------------------------------------------
@dataclass
class LeaseResult:
    """One lease's report back to the driver."""

    lease_id: int
    outcome: Optional[_SearchOutcome]
    stats: SolveStats
    events: List[TraceEvent]
    cancelled: bool


@dataclass
class EpochReport:
    """Everything one epoch produced."""

    leases: List[LeaseResult]
    broadcasts: int
    idle_slots: List[int]
    cancelled: bool


class WorkerPool:
    """A persistent pool of branch-and-bound worker processes."""

    def __init__(self, size: int) -> None:
        method = os.environ.get(START_METHOD_ENV, "").strip()
        if not method:
            method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        ctx = multiprocessing.get_context(method)
        self.size = size
        self.start_method = method
        # Pool-lifetime shared primitives: multiprocessing synchronization
        # objects cannot travel through queues, so everything workers need
        # is created here, once, and inherited/pickled at process start.
        self.incumbent = ctx.Value("d", float("inf"))
        self.broadcasts = ctx.Value("l", 0)
        self.epoch = ctx.Value("l", 0)
        self.cancel = ctx.Event()
        self.node_q = ctx.Queue()
        self.result_q = ctx.Queue()
        self._ctl_queues = [ctx.Queue() for _ in range(size)]
        self._epoch_counter = 0
        self._lock = threading.Lock()  # one epoch at a time per pool
        self._procs = []
        try:
            for slot in range(1, size + 1):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(slot, self._ctl_queues[slot - 1], self.node_q,
                          self.result_q, self),
                    daemon=True,
                    name=f"repro-pool-{slot}",
                )
                proc.start()
                self._procs.append(proc)
        except BaseException:
            self.shutdown()
            raise

    def __getstate__(self) -> dict:
        # Workers receive the pool object at process start purely as the
        # carrier of the shared primitives; queues/process handles that
        # cannot (or must not) cross stay behind.
        return {
            "incumbent": self.incumbent,
            "broadcasts": self.broadcasts,
            "epoch": self.epoch,
            "cancel": self.cancel,
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    @property
    def alive(self) -> bool:
        """True while every worker process is running."""
        return bool(self._procs) and all(p.is_alive() for p in self._procs)

    def _require_alive(self) -> None:
        if not self.alive:
            raise PoolBrokenError("a pool worker died")

    def _drain_results(self) -> None:
        while True:
            try:
                self.result_q.get_nowait()
            except Empty:
                return

    def run_epoch(
        self,
        *,
        spec: Dict[str, Any],
        options,
        start: float,
        ramp_obj: float,
        root_lp,
        fixed_bounds,
        subtrees: List[_Node],
        root_lb: np.ndarray,
        root_ub: np.ndarray,
        trace_enabled: bool,
        should_stop=None,
    ) -> EpochReport:
        """Dispatch ``subtrees`` as one epoch and collect every lease.

        Blocks until every dispatched subtree has been reported.
        ``should_stop`` is polled while waiting (including while queued
        behind another epoch for the pool lock — a cancellation observed
        there raises :class:`~repro.errors.CancelledError` without
        touching the queues); when it fires mid-epoch the shared cancel
        event is set, the epoch still drains fully (workers answer
        remaining nodes as cancelled within one node's latency), and the
        report comes back with ``cancelled=True``.  Raises
        :class:`PoolBrokenError` — after tearing the pool down — if a
        worker dies mid-epoch.
        """
        while not self._lock.acquire(timeout=_POLL):
            if should_stop is not None and should_stop():
                raise CancelledError(
                    "parallel solve cancelled while queued for the pool"
                )
        try:
            self._require_alive()
            self._epoch_counter += 1
            eid = self._epoch_counter
            self.cancel.clear()
            with self.incumbent.get_lock():
                self.incumbent.value = ramp_obj
                self.broadcasts.value = 0
            self._drain_results()
            self.epoch.value = eid
            msg = ("epoch", eid, spec, options, start, ramp_obj,
                   root_lp, fixed_bounds, trace_enabled)
            try:
                for ctl in self._ctl_queues:
                    ctl.put(msg)
                for lease_id, node in enumerate(subtrees, start=1):
                    self.node_q.put((
                        "node", eid, lease_id,
                        encode_node(node, root_lb, root_ub),
                    ))
                return self._collect(eid, len(subtrees), should_stop)
            except PoolBrokenError:
                self.cancel.set()
                self.shutdown()
                raise
            finally:
                self.epoch.value = 0
        finally:
            self._lock.release()

    def _collect(self, eid: int, remaining: int, should_stop) -> EpochReport:
        leases: List[LeaseResult] = []
        idle_slots: List[int] = []
        cancelled = False

        def poll_cancel() -> None:
            nonlocal cancelled
            if not cancelled and should_stop is not None and should_stop():
                cancelled = True
                self.cancel.set()

        while remaining > 0:
            poll_cancel()
            try:
                msg = self.result_q.get(timeout=_POLL)
            except Empty:
                self._require_alive()
                continue
            if msg[1] != eid:
                continue  # leftover from a cancelled previous epoch
            if msg[0] == "idle":
                idle_slots.append(msg[2])
                continue
            _, _, lease_id, outcome, stats, events, lease_cancelled = msg
            leases.append(LeaseResult(
                lease_id=lease_id, outcome=outcome, stats=stats,
                events=events, cancelled=lease_cancelled,
            ))
            remaining -= 1
        return EpochReport(
            leases=leases,
            broadcasts=int(self.broadcasts.value),
            idle_slots=idle_slots,
            cancelled=cancelled,
        )

    def shutdown(self) -> None:
        """Stop every worker and release the queues; idempotent."""
        for ctl in self._ctl_queues:
            try:
                ctl.put(("stop",))
            except (OSError, ValueError):  # pragma: no cover - queue gone
                pass
        for proc in self._procs:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self._procs = []
        for q in [self.node_q, self.result_q, *self._ctl_queues]:
            try:
                q.cancel_join_thread()
                q.close()
            except (OSError, ValueError):  # pragma: no cover - queue gone
                pass


_POOL: Optional[WorkerPool] = None
_POOL_GUARD = threading.Lock()
_ATEXIT_REGISTERED = False


def get_pool(size: int) -> WorkerPool:
    """The process-wide pool, created (or regrown) to at least ``size``.

    Raises ``OSError`` when worker processes cannot be created; callers
    fall back to solving inline.
    """
    global _POOL, _ATEXIT_REGISTERED
    with _POOL_GUARD:
        if _POOL is not None and (not _POOL.alive or _POOL.size < size):
            stale = _POOL
            _POOL = None
            if stale.alive:
                # Regrow, not crash recovery: wait for any in-flight
                # epoch to finish before tearing the pool down — another
                # thread's solve must never lose its workers mid-epoch.
                with stale._lock:
                    stale.shutdown()
            else:
                stale.shutdown()
        if _POOL is None:
            _POOL = WorkerPool(size)
            if not _ATEXIT_REGISTERED:
                atexit.register(shutdown_pool)
                _ATEXIT_REGISTERED = True
        return _POOL


def shutdown_pool() -> None:
    """Tear down the process-wide pool (no-op when none exists)."""
    global _POOL
    with _POOL_GUARD:
        if _POOL is not None:
            _POOL.shutdown()
            _POOL = None

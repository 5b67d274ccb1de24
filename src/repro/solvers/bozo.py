"""*Bozo* — a from-scratch branch-and-bound MILP solver.

The paper solved its MILP models with Bozo, L. J. Hafer's branch-and-bound
code layered on the commercial XLP simplex.  This module is the
reproduction's equivalent: LP-relaxation branch and bound layered on an
incremental LP pipeline.  The standard form is built **once** at the root
(:class:`~repro.solvers.revised.StandardFormLP`); each node mutates only
the branched variable bound in place and warm-starts the revised simplex
from its parent's optimal basis, falling back to the dense two-phase
tableau (:mod:`repro.solvers.simplex`) whenever the incremental path
signals trouble.

Features (all selectable through :class:`~repro.solvers.base.SolverOptions`):

* best-first (default) or depth-first node selection,
* most-fractional or pseudocost branching (pseudocosts learn from the
  *observed* parent-to-child LP objective degradation),
* warm-started LP relaxations (``warm_start=False`` restores the original
  cold dense solve per node),
* incumbent rounding/repair for near-integral LP solutions,
* wall-clock and node limits with a FEASIBLE (incumbent, gap > 0) result,
* parallel tree search (``workers=N``): a serial ramp opens a frontier of
  subtrees that are dispatched to a persistent shared-memory worker pool
  with a shared incumbent bound (:mod:`repro.solvers.parallel`) and
  merged deterministically, byte-identical to serial,
* full :class:`~repro.milp.solution.SolveStats` telemetry on every result.

Determinism: nodes are ordered by ``(parent LP bound, path id)`` where the
path id encodes the branching path from the root (root ``1``, down child
``2 i``, up child ``2 i + 1``).  Unlike the previous insertion-order
counter, path ids are independent of how much of the tree was pruned
before a node was created, so serial reruns — and any partition of the
tree across workers — explore ties in the same order and return the same
incumbent.
"""

from __future__ import annotations

import heapq
import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.errors import CancelledError
from repro.milp.model import MatrixForm, Model
from repro.milp.solution import Solution, SolveStats, SolveStatus, root_gap_closed
from repro.obs.progress import ProgressReporter
from repro.obs.sinks import Tracer, make_tracer
from repro.solvers.base import Solver, SolverOptions
from repro.solvers.cuts import CutPool, separate_cover, separate_gomory
from repro.solvers.revised import (
    Basis,
    RevisedStatus,
    StandardFormLP,
    extend_basis,
    solve_revised,
    solve_with_fallback,
)
from repro.solvers.simplex import LPResult, LPStatus, solve_lp

#: Dual-simplex pivot budget of one strong-branching probe.  Probes that
#: exhaust it are simply not recorded — a budgeted probe must never be
#: allowed to trigger the expensive dense fallback.
STRONG_BRANCH_ITERATIONS = 150

#: Relative root-gap closure below which a separation round counts as
#: stalled.  Once any round clears this threshold, a later sub-threshold
#: round ends the cut loop early (``reason="tailing_off"`` on its
#: ``cut_round`` event) instead of paying for more rows in every node LP.
CUT_STALL_EPS = 1e-6


@dataclass(order=True)
class _Node:
    """A branch-and-bound node ordered by ``(parent LP bound, path id)``.

    ``tiebreak`` is the node's path id: ``1`` at the root, ``2 i`` for the
    down child of node ``i`` and ``2 i + 1`` for the up child.  Equal ids
    name equal subtrees, regardless of exploration or pruning history.

    Nodes never cross a process boundary whole: the parallel pool ships
    them as explicit bound *deltas* against the root bounds (see
    :func:`repro.solvers.pool.encode_node`), so a work unit costs
    O(branched bounds + basis), never a constraint-matrix copy.
    """

    bound: float
    tiebreak: int
    lb: np.ndarray = field(compare=False)
    ub: np.ndarray = field(compare=False)
    depth: int = field(compare=False, default=0)
    #: Parent's optimal basis, the warm start for this node's LP.
    basis: Optional[Basis] = field(compare=False, default=None)
    #: Variable branched on to create this node (-1 at the root).
    branch_var: int = field(compare=False, default=-1)
    #: ``"down"`` or ``"up"`` branch direction.
    branch_dir: str = field(compare=False, default="")
    #: Fractional distance the branch must close (f down, 1-f up).
    branch_fraction: float = field(compare=False, default=0.0)


class _Pseudocosts:
    """Per-variable average objective degradation used for branching."""

    def __init__(self, n: int) -> None:
        self.up_sum = np.zeros(n)
        self.up_count = np.zeros(n)
        self.down_sum = np.zeros(n)
        self.down_count = np.zeros(n)

    def record(self, j: int, direction: str, degradation: float, fraction: float) -> None:
        per_unit = degradation / max(fraction, 1e-9)
        if direction == "up":
            self.up_sum[j] += per_unit
            self.up_count[j] += 1
        else:
            self.down_sum[j] += per_unit
            self.down_count[j] += 1

    def observe_child(self, node: _Node, child_objective: float) -> None:
        """Learn from a solved child: the true parent-to-child degradation."""
        if node.branch_var < 0:
            return
        degradation = max(child_objective - node.bound, 0.0)
        self.record(node.branch_var, node.branch_dir, degradation, node.branch_fraction)

    def score(self, j: int, fraction: float) -> float:
        up = self.up_sum[j] / self.up_count[j] if self.up_count[j] else 1.0
        down = self.down_sum[j] / self.down_count[j] if self.down_count[j] else 1.0
        # Classic product rule, guarded away from zero.
        return max(up * (1.0 - fraction), 1e-6) * max(down * fraction, 1e-6)


class _LPBackend:
    """Per-MILP LP engine: one standard form, bound mutation, warm starts.

    One instance lives for the duration of a solve (or of one subtree in a
    parallel solve).  It owns the :class:`StandardFormLP` built from the
    (presolved) matrix form and funnels every relaxation — root, dive
    steps, tree nodes — through :meth:`solve`, accumulating telemetry in a
    shared :class:`SolveStats`.  Workers of a parallel solve pass the
    fork-inherited standard form via ``sf`` instead of rebuilding it.
    """

    def __init__(
        self,
        form: MatrixForm,
        warm_start: bool,
        stats: SolveStats,
        sf: Optional[StandardFormLP] = None,
        tracer: Optional[Tracer] = None,
        pricing_block_size: int = 0,
        pricing: str = "devex",
    ) -> None:
        self.form = form
        self.stats = stats
        self.tracer = tracer
        self.pricing_block_size = pricing_block_size
        self.pricing = pricing
        if sf is not None:
            self.sf: Optional[StandardFormLP] = sf
        else:
            self.sf = StandardFormLP.from_matrix_form(form) if warm_start else None

    def _absorb_counters(self, counters) -> None:
        """Fold one solve's kernel counters into the run's SolveStats."""
        if counters is None:
            return
        stats = self.stats
        stats.bound_flips += counters.bound_flips
        stats.devex_resets += counters.devex_resets
        stats.ftran_sparsity += counters.ftran_sparsity
        stats.refactorizations += counters.refactorizations

    def _trace_lp(
        self, result: LPResult, warm: bool, fallback: bool, seconds: float
    ) -> None:
        """Emit the ``lp_solved`` event for one finished relaxation."""
        if self.tracer is None:
            return
        extra = result.counters.as_dict() if result.counters is not None else {}
        self.tracer.emit(
            "lp_solved",
            pivots=result.iterations,
            status=result.status.value,
            warm=warm,
            fallback=fallback,
            seconds=seconds,
            **extra,
        )

    def solve(
        self,
        lb: np.ndarray,
        ub: np.ndarray,
        basis: Optional[Basis] = None,
        want_reduced_costs: bool = False,
    ) -> Tuple[LPResult, Optional[Basis]]:
        """Solve the relaxation under ``lb``/``ub``; returns (result, basis)."""
        start = time.monotonic()
        self.stats.lp_solves += 1
        form = self.form
        if self.sf is None:
            result = solve_lp(
                form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq,
                lb, ub, c0=form.c0,
            )
            self.stats.lp_pivots += result.iterations
            self._absorb_counters(result.counters)
            elapsed = time.monotonic() - start
            self.stats.add_phase("lp", elapsed)
            self._trace_lp(result, warm=False, fallback=False, seconds=elapsed)
            return result, None
        self.sf.set_bounds(lb, ub)
        if basis is not None:
            self.stats.warm_starts += 1
        result, final_basis, fell_back = solve_with_fallback(
            self.sf,
            basis,
            pricing_block_size=self.pricing_block_size,
            want_reduced_costs=want_reduced_costs,
            pricing=self.pricing,
        )
        self.stats.lp_pivots += result.iterations
        self._absorb_counters(result.counters)
        if fell_back:
            self.stats.fallbacks += 1
        elif basis is not None:
            self.stats.warm_start_hits += 1
        elapsed = time.monotonic() - start
        self.stats.add_phase("lp", elapsed)
        self._trace_lp(
            result, warm=basis is not None, fallback=fell_back, seconds=elapsed
        )
        return result, final_basis

    def probe(
        self,
        lb: np.ndarray,
        ub: np.ndarray,
        basis: Optional[Basis],
        max_iterations: int = STRONG_BRANCH_ITERATIONS,
    ) -> Tuple[RevisedStatus, float]:
        """Budgeted strong-branching probe on the revised path only.

        Unlike :meth:`solve`, a probe never falls back to the dense
        oracle: blowing the pivot budget (or any numerical trouble)
        returns ``NEEDS_FALLBACK`` and the caller simply learns nothing
        from that direction.  Probes emit ordinary ``lp_solved`` events
        and accumulate into the same counters, so trace replay stays
        exact for free.
        """
        start = time.monotonic()
        self.stats.lp_solves += 1
        assert self.sf is not None
        self.sf.set_bounds(lb, ub)
        if basis is not None:
            self.stats.warm_starts += 1
            # A probe can't fall back, so every warm attempt is a "hit" in
            # the sense the replay derives from the event stream.
            self.stats.warm_start_hits += 1
        revised = solve_revised(
            self.sf, basis, max_iterations=max_iterations,
            pricing_block_size=self.pricing_block_size,
            pricing=self.pricing,
        )
        self.stats.lp_pivots += revised.iterations
        self._absorb_counters(revised.counters)
        elapsed = time.monotonic() - start
        self.stats.add_phase("lp", elapsed)
        if self.tracer is not None:
            extra = revised.counters.as_dict() if revised.counters is not None else {}
            self.tracer.emit(
                "lp_solved",
                pivots=revised.iterations,
                status=revised.status.value,
                warm=basis is not None,
                fallback=False,
                seconds=elapsed,
                **extra,
            )
        return revised.status, revised.objective


@dataclass
class _SearchOutcome:
    """What one tree (or subtree) search produced.

    ``incumbent_key`` is the ``(bound, path id)`` of the node being
    processed when the final incumbent was adopted — the node's position
    in the deterministic global exploration order.  Parallel merges use it
    to pick, among equal-objective incumbents from different subtrees, the
    one the serial search would have found first.
    """

    incumbent_x: Optional[np.ndarray] = None
    incumbent_obj: float = math.inf
    incumbent_key: Optional[Tuple[float, int]] = None
    nodes: int = 0
    hit_limit: bool = False
    root_unbounded: bool = False
    best_open_bound: float = -math.inf
    open_nodes: List[_Node] = field(default_factory=list)


class _TreeSearch:
    """One branch-and-bound tree walk over a fixed LP backend.

    The same engine drives three regimes:

    * the plain serial solve (``run`` from the root until exhaustion),
    * the parallel *ramp* (``frontier_target`` set: stop once the open
      list holds that many subtree roots and return them), and
    * a parallel *subtree* worker (seeded ``incumbent_obj``, a
      ``foreign_best`` callable for conservative cross-worker pruning, a
      ``publish`` callback broadcasting improvements, dives disabled).

    Cross-worker pruning is deliberately conservative (strictly worse than
    the foreign bound, no adoption): it can only discard nodes whose whole
    subtree is provably worse than the global optimum, so each subtree's
    reported incumbent is independent of broadcast timing — the property
    the deterministic merge in :mod:`repro.solvers.parallel` relies on.
    """

    def __init__(
        self,
        options: SolverOptions,
        form: MatrixForm,
        lp: _LPBackend,
        *,
        start: float,
        incumbent_obj: float = math.inf,
        foreign_best=None,
        publish=None,
        allow_dives: bool = True,
        allow_cuts: bool = True,
        treat_root_unbounded: bool = True,
        node_budget: int = 0,
        tracer: Optional[Tracer] = None,
        reporter: Optional[ProgressReporter] = None,
        root_lp: Optional[Tuple[float, np.ndarray, np.ndarray]] = None,
        fixed_bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        self.options = options
        self.form = form
        self.lp = lp
        self.start = start
        self.tracer = tracer
        self.reporter = reporter
        self.integral = np.where(form.integrality)[0]
        self.pseudo = _Pseudocosts(form.c.shape[0])
        self.incumbent_x: Optional[np.ndarray] = None
        self.incumbent_obj = incumbent_obj
        self.incumbent_key: Optional[Tuple[float, int]] = None
        self.foreign_best = foreign_best
        self.publish = publish
        self.allow_dives = allow_dives
        # Cuts are a *root* mechanism: the serial solve and the parallel
        # ramp separate them (tiebreak == 1), subtree workers never do —
        # they inherit the cut-augmented form through shared memory.
        self.allow_cuts = allow_cuts
        #: ``(coefficients, rhs)`` of every cut row appended to the
        #: standard form, in application order — the cut-augmented root
        #: relaxation is the original rows plus exactly these.
        self.applied_cuts: List[Tuple[np.ndarray, float]] = []
        self.treat_root_unbounded = treat_root_unbounded
        self.node_budget = node_budget if node_budget else options.node_limit
        self.nodes_processed = 0
        # Reduced-cost fixing state.  ``root_lp`` ships a ramp's root LP
        # (objective, x*, reduced costs) to parallel subtree workers so they
        # can keep re-tightening from their own incumbents; ``fixed_bounds``
        # ships the bounds already derived at dispatch time.
        self.rc_enabled = options.rc_fixing == "root"
        if root_lp is not None:
            self.root_obj, self.root_x, self.root_rc = root_lp
        else:
            self.root_obj = math.inf
            self.root_x: Optional[np.ndarray] = None
            self.root_rc: Optional[np.ndarray] = None
        if fixed_bounds is not None:
            self.fix_lb: Optional[np.ndarray] = fixed_bounds[0]
            self.fix_ub: Optional[np.ndarray] = fixed_bounds[1]
        else:
            self.fix_lb = None
            self.fix_ub = None

    # -- driver -------------------------------------------------------------
    def run(
        self, roots: List[_Node], frontier_target: int = 0
    ) -> _SearchOutcome:
        """Search from ``roots``; stop at exhaustion, a limit, or a frontier.

        With ``frontier_target > 0`` (best-first only) the walk stops as
        soon as the open list holds at least that many nodes and returns
        them in ``open_nodes`` for a caller to dispatch as subtrees.
        """
        options = self.options
        depth_first = options.node_selection == "depth_first"
        heap: List[_Node] = []
        stack: List[_Node] = []
        if depth_first:
            stack = list(roots)
        else:
            heap = list(roots)
            heapq.heapify(heap)

        def pop_node() -> Optional[_Node]:
            if depth_first:
                return stack.pop() if stack else None
            return heapq.heappop(heap) if heap else None

        def push_node(node: _Node) -> None:
            if depth_first:
                stack.append(node)
            else:
                heapq.heappush(heap, node)

        out = _SearchOutcome()
        tol = options.integrality_tolerance
        form = self.form
        should_stop = options.should_stop
        while True:
            if should_stop is not None and should_stop():
                raise CancelledError(
                    f"solve cancelled after {self.nodes_processed} nodes"
                )
            if (
                frontier_target
                and not depth_first
                and self.nodes_processed >= 1
                and len(heap) >= frontier_target
            ):
                out.open_nodes = heap
                break
            node = pop_node()
            if node is None:
                break
            if node.bound >= self.incumbent_obj - options.gap_tolerance * max(
                1.0, abs(self.incumbent_obj)
            ):
                continue  # pruned by own incumbent
            if self.foreign_best is not None:
                foreign = self.foreign_best()
                if node.bound > foreign + 1e-9 * max(1.0, abs(foreign)):
                    continue  # conservatively pruned by a broadcast incumbent
            if self.fix_ub is not None and (
                np.any(node.lb > self.fix_ub + 1e-9)
                or np.any(node.ub < self.fix_lb - 1e-9)
            ):
                continue  # branch box excluded by reduced-cost fixing
            if time.monotonic() - self.start > options.time_limit or (
                self.node_budget and self.nodes_processed >= self.node_budget
            ):
                out.hit_limit = True
                out.best_open_bound = min(
                    node.bound, *(other.bound for other in (heap or stack))
                ) if (heap or stack) else node.bound
                break

            if self.tracer is not None:
                self.tracer.emit(
                    "node_opened",
                    node=node.tiebreak,
                    bound=node.bound,
                    depth=node.depth,
                )
            want_rc = (
                self.rc_enabled and node.tiebreak == 1 and self.root_rc is None
            )
            result, node_basis = self.lp.solve(
                node.lb, node.ub, node.basis, want_reduced_costs=want_rc
            )
            self.nodes_processed += 1
            if self.reporter is not None:
                self.reporter.report(
                    nodes=self.nodes_processed,
                    incumbent=self.incumbent_obj,
                    bound=node.bound,
                )
            key = (node.bound, node.tiebreak)
            if result.status is LPStatus.INFEASIBLE:
                continue
            if result.status is LPStatus.UNBOUNDED:
                if self.nodes_processed == 1 and self.treat_root_unbounded:
                    out.root_unbounded = True
                    break
                continue
            if result.status is LPStatus.ITERATION_LIMIT:
                # Treat as unexplored; keep the parent bound so the gap stays valid.
                continue

            assert result.x is not None
            lp_obj = result.objective
            if (
                node.tiebreak == 1
                and self.allow_cuts
                and options.cuts == "auto"
                and self.lp.sf is not None
            ):
                result, node_basis = self._root_cut_loop(
                    node, result, node_basis, want_rc
                )
                if result.status is not LPStatus.OPTIMAL or result.x is None:
                    # A post-cut root LP can only fail numerically (every
                    # integer point satisfies every cut); treat it like an
                    # infeasible/unexplored root and let the terminal
                    # status logic answer from whatever incumbent exists.
                    continue
                lp_obj = result.objective
            if (
                node.tiebreak == 1
                and self.root_rc is None
                and result.reduced_costs is not None
            ):
                # Capture the root LP for reduced-cost fixing; if a seeded
                # incumbent is already in place, derive bounds immediately.
                self.root_obj = lp_obj
                self.root_x = result.x.copy()
                self.root_rc = result.reduced_costs
                if self.incumbent_x is not None:
                    self._tighten_from_root(node.tiebreak)
            self.pseudo.observe_child(node, lp_obj)
            if self.allow_dives and (
                (self.nodes_processed == 1 and self.incumbent_x is None)
                or (self.incumbent_x is None and self.nodes_processed % 16 == 0)
            ):
                # Rounding dive for a quick incumbent: always at the root,
                # then periodically for as long as the tree has none —
                # best-first search cannot prune anything without one.
                dived = self._dive(node.lb, node.ub, result.x, node_basis)
                if dived is not None:
                    objective = float(form.c @ dived) + form.c0
                    if objective < self.incumbent_obj - 1e-12:
                        self._adopt(dived, objective, key, source="dive")
            if lp_obj >= self.incumbent_obj - options.gap_tolerance * max(
                1.0, abs(self.incumbent_obj)
            ):
                continue

            xi = result.x[self.integral]
            dist = np.minimum(xi - np.floor(xi), np.ceil(xi) - xi)
            frac_mask = dist > tol
            fractional = list(zip(
                self.integral[frac_mask].tolist(),
                (xi[frac_mask] - np.floor(xi[frac_mask] + tol)).tolist(),
            ))
            if not fractional:
                x = result.x.copy()
                x[self.integral] = np.round(x[self.integral])
                if self._is_feasible(form, x):
                    obj = float(form.c @ x) + form.c0
                    if obj < self.incumbent_obj - 1e-12:
                        self._adopt(x, obj, key, source="integral")
                continue

            if (
                node.tiebreak == 1
                and options.branching == "pseudocost"
                and options.strong_branching > 0
                and self.lp.sf is not None
                and node_basis is not None
                and len(fractional) > 1
            ):
                # Root-only, candidate-limited strong branching: initialize
                # the (otherwise cold) pseudocosts with observed objective
                # degradations so _pick_branch's first decision is informed.
                candidates, probes = self._strong_branch_root(
                    node, lp_obj, result.x, fractional, node_basis
                )
                branch_j, fraction = self._pick_branch(fractional)
                if self.tracer is not None:
                    self.tracer.emit(
                        "strong_branch",
                        node=node.tiebreak,
                        candidates=candidates,
                        probes=probes,
                        chosen=int(branch_j),
                    )
            else:
                branch_j, fraction = self._pick_branch(fractional)
            value = result.x[branch_j]
            floor_value = math.floor(value + tol)

            down = _Node(
                lp_obj, 2 * node.tiebreak, node.lb.copy(), node.ub.copy(),
                node.depth + 1, basis=node_basis,
                branch_var=branch_j, branch_dir="down", branch_fraction=fraction,
            )
            down.ub[branch_j] = float(floor_value)
            up = _Node(
                lp_obj, 2 * node.tiebreak + 1, node.lb.copy(), node.ub.copy(),
                node.depth + 1, basis=node_basis,
                branch_var=branch_j, branch_dir="up", branch_fraction=1.0 - fraction,
            )
            up.lb[branch_j] = float(floor_value + 1)
            # Depth-first explores the "more integral" child first for quick
            # incumbents: push the closer-to-value branch last (popped first).
            # Best-first ignores push order — the heap key decides.
            if value - floor_value > 0.5:
                push_node(down)
                push_node(up)
            else:
                push_node(up)
                push_node(down)

        out.incumbent_x = self.incumbent_x
        out.incumbent_obj = self.incumbent_obj
        out.incumbent_key = self.incumbent_key
        out.nodes = self.nodes_processed
        return out

    def _adopt(
        self,
        x: np.ndarray,
        objective: float,
        key: Tuple[float, int],
        source: str = "integral",
    ) -> None:
        self.incumbent_x = x
        self.incumbent_obj = objective
        self.incumbent_key = key
        if self.tracer is not None:
            self.tracer.emit(
                "incumbent_found", objective=objective, node=key[1], source=source
            )
        if self.publish is not None:
            self.publish(objective)
        if self.root_rc is not None:
            self._tighten_from_root(key[1])

    def seed_incumbent(self, values: Mapping[str, float]) -> bool:
        """Validate and adopt a caller-supplied incumbent before the root.

        ``values`` must cover *every* variable of the (presolved) form by
        name, be integral where required (up to the integrality tolerance,
        which is snapped away), and satisfy every constraint.  Anything
        short of that rejects the seed — a bad seed must never be able to
        change the optimum, only the amount of tree explored.
        """
        form = self.form
        x = np.empty(form.c.shape[0])
        for j, var in enumerate(form.variables):
            value = values.get(var.name)
            if value is None:
                return False
            x[j] = float(value)
        rounded = np.round(x[self.integral])
        if np.any(
            np.abs(x[self.integral] - rounded) > self.options.integrality_tolerance
        ):
            return False
        x[self.integral] = rounded
        if not self._is_feasible(form, x):
            return False
        objective = float(form.c @ x) + form.c0
        if objective >= self.incumbent_obj - 1e-12:
            return False
        self._adopt(x, objective, (-math.inf, 0), source="seed")
        self.lp.stats.seeded_incumbent = 1
        return True

    def _tighten_from_root(self, node_id: int) -> None:
        """Derive tree-wide integral bounds from the root LP's reduced costs.

        Standard reduced-cost fixing: a variable nonbasic at its root bound
        with reduced cost ``d`` degrades the root objective by ``|d|`` per
        unit it moves inward, so it can move at most ``slack / |d|`` before
        the node is no better than the incumbent threshold.  The derived
        bounds are *never* intersected into node LPs — they only prune
        nodes whose branch box violates them (see ``run``), which is the
        same conservative-provability class as incumbent pruning and keeps
        the serial/parallel solution identity intact.  Bounds only ever
        tighten monotonically; called again after every improved incumbent.
        """
        if self.root_rc is None or not math.isfinite(self.incumbent_obj):
            return
        options = self.options
        threshold = self.incumbent_obj - options.gap_tolerance * max(
            1.0, abs(self.incumbent_obj)
        )
        slack = threshold - self.root_obj
        if not math.isfinite(slack) or slack < 0.0:
            return
        tol = options.integrality_tolerance
        rc, x0 = self.root_rc, self.root_x
        lb0, ub0 = self.form.lb, self.form.ub
        if self.fix_lb is None:
            self.fix_lb = np.array(lb0, dtype=float, copy=True)
            self.fix_ub = np.array(ub0, dtype=float, copy=True)
        count = 0
        for j in self.integral:
            d = float(rc[j])
            if d > 1e-9 and x0[j] <= lb0[j] + tol:
                new_ub = float(math.floor(x0[j] + slack / d + tol))
                if new_ub < self.fix_ub[j] - 0.5:
                    self.fix_ub[j] = new_ub
                    count += 1
            elif d < -1e-9 and x0[j] >= ub0[j] - tol:
                new_lb = float(math.ceil(x0[j] + slack / d - tol))
                if new_lb > self.fix_lb[j] + 0.5:
                    self.fix_lb[j] = new_lb
                    count += 1
        if count:
            self.lp.stats.rc_fixed_bounds += count
            if self.tracer is not None:
                self.tracer.emit("bounds_fixed", node=node_id, count=count)

    # -- root cut-and-branch ------------------------------------------------
    def _root_cut_loop(
        self,
        node: _Node,
        result: LPResult,
        node_basis: Optional[Basis],
        want_rc: bool,
    ) -> Tuple[LPResult, Optional[Basis]]:
        """Bounded root separation: Gomory + cover cuts, re-solve per round.

        Each round separates violated cuts at the current root optimum,
        appends a pool-filtered batch to the standing standard form, and
        dual-reoptimizes from the extended basis (the appended slacks stay
        dual feasible, so re-solves are a short warm repair, not a
        rebuild).  The augmented form is inherited by every tree node —
        and, in a parallel solve, shipped to the workers via shared
        memory.  Deterministic end to end: same model, same cuts.

        Separation stops early when it *tails off*: once some round has
        closed at least :data:`CUT_STALL_EPS` of relative root gap, a
        later round closing less than that abandons the loop (reason
        ``"tailing_off"`` on its ``cut_round`` event) — the remaining
        rounds would buy bound noise at the price of extra rows in every
        tree-node LP.  Instances whose rounds never move the root bound
        at all (degenerate 0/1 models like market split, where Gomory
        rows still prune by cutting fractional vertices off the tree's
        LPs) are a different regime: there the bounded ``cut_rounds``
        budget is the cost cap, and the loop runs it in full.
        """
        options = self.options
        sf = self.lp.sf
        assert sf is not None
        tol = options.integrality_tolerance
        pool = CutPool()
        first_bound = 0.0
        last_bound = 0.0
        rounds_run = 0
        total_added = 0
        total_gomory = 0
        total_cover = 0
        progressed = False  # some round closed >= CUT_STALL_EPS of gap
        for round_index in range(1, max(options.cut_rounds, 0) + 1):
            x = result.x
            if result.status is not LPStatus.OPTIMAL or x is None:
                break
            if not any(
                min(x[j] - math.floor(x[j]), math.ceil(x[j]) - x[j]) > tol
                for j in self.integral
            ):
                break  # integral: the tree search will finish at this node
            threshold = self.incumbent_obj - options.gap_tolerance * max(
                1.0, abs(self.incumbent_obj)
            )
            if result.objective >= threshold:
                break  # root already pruned by the incumbent: cuts are moot
            gomory = (
                separate_gomory(sf, node_basis, x, self.integral)
                if node_basis is not None
                else []
            )
            cover = separate_cover(self.form, x)
            pool.add(gomory + cover)
            chosen = pool.select(x)
            if not chosen:
                break
            bound_before = result.objective
            rows, rhs = pool.as_rows(chosen)
            self.applied_cuts.extend(
                (rows[k].copy(), float(rhs[k])) for k in range(len(chosen))
            )
            sf.append_ub_rows(rows, rhs)
            if node_basis is not None:
                node_basis = extend_basis(node_basis, sf, len(chosen))
            result, node_basis = self.lp.solve(
                node.lb, node.ub, node_basis, want_reduced_costs=want_rc
            )
            rounds_run += 1
            total_added += len(chosen)
            total_gomory += sum(1 for cut in chosen if cut.kind == "gomory")
            total_cover += sum(1 for cut in chosen if cut.kind == "cover")
            improved = (
                result.status is LPStatus.OPTIMAL
                and math.isfinite(result.objective)
            )
            bound_after = result.objective if improved else bound_before
            if rounds_run == 1:
                first_bound = bound_before
            last_bound = bound_after
            round_closed = root_gap_closed(bound_before, bound_after)
            tailing_off = progressed and round_closed < CUT_STALL_EPS
            if round_closed >= CUT_STALL_EPS:
                progressed = True
            if self.tracer is not None:
                extra = {"reason": "tailing_off"} if tailing_off else {}
                self.tracer.emit(
                    "cut_round",
                    round=round_index,
                    generated=len(gomory) + len(cover),
                    added=len(chosen),
                    bound_before=bound_before,
                    bound_after=bound_after,
                    **extra,
                )
            if tailing_off:
                break
        if rounds_run:
            stats = self.lp.stats
            stats.cuts_added += total_added
            stats.cut_rounds += rounds_run
            stats.root_gap_closed += root_gap_closed(first_bound, last_bound)
            if self.tracer is not None:
                self.tracer.emit(
                    "cuts_added",
                    count=total_added,
                    rounds=rounds_run,
                    gomory=total_gomory,
                    cover=total_cover,
                )
        return result, node_basis

    def _strong_branch_root(
        self,
        node: _Node,
        lp_obj: float,
        x: np.ndarray,
        fractional: List[Tuple[int, float]],
        basis: Basis,
    ) -> Tuple[int, int]:
        """Probe the most-fractional candidates to initialize pseudocosts.

        For each candidate both branch directions are solved with a short
        dual-simplex budget from the root basis; the observed objective
        degradations are recorded exactly as a solved child would record
        them, so :meth:`_Pseudocosts.score`'s product rule sees real data
        instead of the cold 1.0 defaults.  An infeasible direction records
        a huge degradation — branching there closes the subtree outright.
        Returns ``(candidates probed, LP probes run)``.
        """
        options = self.options
        tol = options.integrality_tolerance
        limit = min(options.strong_branching, len(fractional))
        candidates = sorted(
            fractional, key=lambda item: (-min(item[1], 1.0 - item[1]), item[0])
        )[:limit]
        probes = 0
        infeasible_degradation = 1e6 * (1.0 + abs(lp_obj))
        for j, fraction in candidates:
            floor_value = math.floor(x[j] + tol)
            for direction, frac_dir in (("down", fraction), ("up", 1.0 - fraction)):
                lb = node.lb.copy()
                ub = node.ub.copy()
                if direction == "down":
                    ub[j] = float(floor_value)
                else:
                    lb[j] = float(floor_value + 1)
                status, objective = self.lp.probe(lb, ub, basis)
                probes += 1
                if status is RevisedStatus.OPTIMAL:
                    self.pseudo.record(
                        j, direction, max(objective - lp_obj, 0.0), frac_dir
                    )
                elif status is RevisedStatus.INFEASIBLE:
                    self.pseudo.record(
                        j, direction, infeasible_degradation, frac_dir
                    )
                # NEEDS_FALLBACK / UNBOUNDED: budget blown or numerics —
                # learn nothing, never escalate to the dense oracle.
        self.lp.stats.strong_branch_probes += probes
        return len(candidates), probes

    # -- helpers ------------------------------------------------------------
    def _dive(
        self,
        lb: np.ndarray,
        ub: np.ndarray,
        x: np.ndarray,
        basis: Optional[Basis],
    ) -> Optional[np.ndarray]:
        """Rounding dive: repeatedly fix the most nearly-integral fractional
        variable to its rounded value and re-solve the LP, warm-starting
        each step from the previous one's basis.  When fixing to the
        nearest integer kills the LP the dive retries the opposite
        rounding before giving up, so it survives degenerate LP vertices
        (different simplex engines return different ones).  Returns a
        feasible integral point or ``None``.  At most ``2|integral|`` LP
        solves, so the dive is cheap relative to the tree it seeds."""
        tol = self.options.integrality_tolerance
        integral = self.integral
        lb = lb.copy()
        ub = ub.copy()
        current = x
        for _ in range(integral.shape[0]):
            fractional = [
                (j, current[j]) for j in integral
                if min(current[j] - math.floor(current[j]),
                       math.ceil(current[j]) - current[j]) > tol
            ]
            if not fractional:
                candidate = current.copy()
                candidate[integral] = np.round(candidate[integral])
                if self._is_feasible(self.lp.form, candidate):
                    return candidate
                return None
            j, value = min(
                fractional,
                key=lambda item: min(item[1] - math.floor(item[1]),
                                     math.ceil(item[1]) - item[1]),
            )
            nearest = float(round(value))
            other = float(math.floor(value) if nearest > value else math.ceil(value))
            result = None
            for fixed in (nearest, other):
                fixed = min(max(fixed, lb[j]), ub[j])
                try_lb, try_ub = lb.copy(), ub.copy()
                try_lb[j] = fixed
                try_ub[j] = fixed
                result, next_basis = self.lp.solve(try_lb, try_ub, basis)
                if result.status is LPStatus.OPTIMAL and result.x is not None:
                    lb, ub, basis = try_lb, try_ub, next_basis
                    break
            if result is None or result.status is not LPStatus.OPTIMAL or result.x is None:
                return None
            current = result.x
        return None

    def _pick_branch(
        self, fractional: List[Tuple[int, float]]
    ) -> Tuple[int, float]:
        """Choose the variable to branch on and its fractional part.

        Score ties break toward the lowest variable index, explicitly, so
        the chosen branch never depends on how the candidate list happened
        to be assembled.
        """
        if self.options.branching == "pseudocost":
            return max(
                fractional,
                key=lambda item: (self.pseudo.score(item[0], item[1]), -item[0]),
            )
        # Most fractional: distance of the fraction from the nearest integer.
        return max(
            fractional,
            key=lambda item: (min(item[1], 1.0 - item[1]), -item[0]),
        )

    @staticmethod
    def _is_feasible(form: MatrixForm, x: np.ndarray, tol: float = 1e-6) -> bool:
        """Re-check a rounded candidate against the original matrices."""
        if form.a_ub.size and np.any(form.a_ub @ x > form.b_ub + tol):
            return False
        if form.a_eq.size and np.any(np.abs(form.a_eq @ x - form.b_eq) > tol):
            return False
        if np.any(x < form.lb - tol) or np.any(x > form.ub + tol):
            return False
        return True


def _emit_solve_done(tracer: Optional[Tracer], solution: Solution) -> None:
    """Emit the terminal ``solve_done`` event for a finished solution.

    The payload carries the summary scalars (status, objective, bound,
    node count, worker count, wall-clock seconds) that trace replay uses
    to recover ``workers`` — and, for coarse backends with no per-node
    stream, ``nodes``/``lp_solves``.
    """
    if tracer is None:
        return
    stats = solution.stats
    tracer.emit(
        "solve_done",
        status=solution.status.value,
        objective=solution.objective,
        best_bound=solution.best_bound,
        nodes=stats.nodes if stats is not None else 0,
        workers=stats.workers if stats is not None else 0,
        workers_requested=stats.workers_requested if stats is not None else 0,
        seconds=solution.solve_seconds,
    )


class BozoSolver(Solver):
    """Branch-and-bound MILP solver over the incremental simplex pipeline."""

    name = "bozo"

    def __init__(self, options: Optional[SolverOptions] = None) -> None:
        super().__init__(options)
        #: Ramp-phase telemetry of the last parallel solve (``None`` after
        #: a serial solve).
        self.last_ramp_stats: Optional[SolveStats] = None
        #: Per-subtree worker telemetry of the last parallel solve.
        self.last_worker_stats: List[SolveStats] = []
        #: ``(coefficients, rhs)`` of the root cuts applied by the last
        #: solve (serial, or the ramp of a parallel solve): the
        #: cut-augmented root relaxation is the presolved model's rows
        #: plus exactly these ``<=`` rows.
        self.last_root_cuts: List[Tuple[np.ndarray, float]] = []

    def solve(self, model: Model) -> Solution:
        """Solve ``model`` to optimality (or the configured limits)."""
        options = self.options
        workers = options.workers
        if workers > 1 and options.clamp_workers:
            # More processes than cores makes tree search slower, not
            # faster; on a single-core machine fall back to serial.
            workers = min(workers, os.cpu_count() or 1)
        if workers > 1 and options.node_selection != "depth_first":
            from repro.solvers.parallel import solve_parallel

            return solve_parallel(self, model, workers=workers)
        self.last_ramp_stats = None
        self.last_worker_stats = []
        self.last_root_cuts = []
        return self._solve_serial(model)

    def _solve_serial(self, model: Model) -> Solution:
        start = time.monotonic()
        stats = SolveStats()
        if self.options.workers > 1:
            stats.workers_requested = self.options.workers
        tracer = make_tracer(self.options.trace)
        reporter = ProgressReporter(
            self.options.on_progress, self.options.progress_interval, start=start
        )
        if tracer is not None:
            tracer.emit("solve_started", solver=self.name)
        prepared = self._prepared_form(model, stats, start, tracer=tracer)
        if isinstance(prepared, Solution):
            _emit_solve_done(tracer, prepared)
            return prepared
        form = prepared
        lp = _LPBackend(
            form, self.options.warm_start, stats, tracer=tracer,
            pricing_block_size=self.options.pricing_block_size,
            pricing=self.options.pricing,
        )
        engine = _TreeSearch(
            self.options, form, lp, start=start, tracer=tracer, reporter=reporter
        )
        if self.options.incumbent is not None:
            engine.seed_incumbent(self.options.incumbent)
        root = _Node(-math.inf, 1, form.lb.copy(), form.ub.copy())
        outcome = engine.run([root])
        self.last_root_cuts = engine.applied_cuts
        return self._assemble(
            form, outcome, stats, start, tracer=tracer, reporter=reporter
        )

    # -- shared pipeline pieces (also used by the parallel driver) ----------
    def _prepared_form(
        self,
        model: Model,
        stats: SolveStats,
        start: float,
        tracer: Optional[Tracer] = None,
    ) -> Union[MatrixForm, Solution]:
        """Matrix form after optional presolve, or a terminal Solution."""
        form = model.to_matrices()
        if self.options.presolve:
            from repro.solvers.presolve import presolve

            presolve_start = time.monotonic()
            reduction = presolve(form)
            presolve_seconds = time.monotonic() - presolve_start
            stats.add_phase("presolve", presolve_seconds)
            if tracer is not None:
                tracer.emit("phase", name="presolve", seconds=presolve_seconds)
            if reduction.proven_infeasible:
                return Solution(
                    SolveStatus.INFEASIBLE, iterations=0,
                    solve_seconds=time.monotonic() - start, solver_name=self.name,
                    stats=stats,
                )
            assert reduction.form is not None
            form = reduction.form
        return form

    def _assemble(
        self,
        form: MatrixForm,
        out: _SearchOutcome,
        stats: SolveStats,
        start: float,
        tracer: Optional[Tracer] = None,
        reporter: Optional[ProgressReporter] = None,
    ) -> Solution:
        """Turn a search outcome into the caller-facing Solution."""
        elapsed = time.monotonic() - start
        stats.nodes = out.nodes
        search_seconds = max(
            0.0, elapsed - stats.phase_seconds.get("lp", 0.0)
            - stats.phase_seconds.get("presolve", 0.0),
        )
        stats.add_phase("search", search_seconds)
        if tracer is not None:
            tracer.emit("phase", name="search", seconds=search_seconds)
        solution = self._assemble_solution(form, out, stats, elapsed)
        _emit_solve_done(tracer, solution)
        if reporter is not None:
            reporter.report(
                nodes=stats.nodes,
                incumbent=(
                    solution.objective
                    if solution.status.has_solution
                    else math.inf
                ),
                bound=(
                    solution.best_bound
                    if not math.isnan(solution.best_bound)
                    else -math.inf
                ),
                force=True,
            )
        return solution

    def _assemble_solution(
        self,
        form: MatrixForm,
        out: _SearchOutcome,
        stats: SolveStats,
        elapsed: float,
    ) -> Solution:
        """Map the search outcome onto a status + Solution (no side effects)."""
        if out.incumbent_x is not None:
            status = SolveStatus.FEASIBLE if out.hit_limit else SolveStatus.OPTIMAL
            bound = (
                out.best_open_bound
                if out.hit_limit and out.best_open_bound > -math.inf
                else out.incumbent_obj
            )
            values = self._to_values(form, out.incumbent_x)
            return Solution(
                status=status, objective=out.incumbent_obj, values=values,
                best_bound=bound, iterations=out.nodes,
                solve_seconds=elapsed, solver_name=self.name, stats=stats,
            )
        if out.root_unbounded:
            return Solution(SolveStatus.UNBOUNDED, iterations=out.nodes,
                            solve_seconds=elapsed, solver_name=self.name, stats=stats)
        if out.hit_limit:
            bound = out.best_open_bound if out.best_open_bound > -math.inf else math.nan
            return Solution(SolveStatus.UNKNOWN, best_bound=bound,
                            iterations=out.nodes,
                            solve_seconds=elapsed, solver_name=self.name, stats=stats)
        return Solution(SolveStatus.INFEASIBLE, iterations=out.nodes,
                        solve_seconds=elapsed, solver_name=self.name, stats=stats)

    @staticmethod
    def _to_values(form: MatrixForm, x: np.ndarray) -> Dict:
        return {var: float(x[j]) for j, var in enumerate(form.variables)}

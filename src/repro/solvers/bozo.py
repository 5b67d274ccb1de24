"""*Bozo* — a from-scratch branch-and-bound MILP solver.

The paper solved its MILP models with Bozo, L. J. Hafer's branch-and-bound
code layered on the commercial XLP simplex.  This module is the
reproduction's equivalent: LP-relaxation branch and bound layered on an
incremental LP pipeline.  The standard form is built **once** at the root
(:class:`~repro.solvers.revised.StandardFormLP`); each node mutates only
the branched variable bound in place and warm-starts the revised simplex
from its parent's optimal basis.  That revised simplex is the only LP
path, as XLP was the paper's: a relaxation it cannot answer raises
:class:`~repro.errors.SolverError` rather than being re-solved by
another LP code.

The search has one policy; nothing in it is an option:

* best-first node selection,
* pseudocost branching (pseudocosts learn from the *observed*
  parent-to-child LP objective degradation), restricted to the fractional
  candidates of the highest branching priority
  (:attr:`~repro.milp.model.MatrixForm.branch_priority`, a property of
  the model),
* root strong branching on the :data:`STRONG_BRANCH_CANDIDATES` most
  fractional candidates, which seeds the pseudocosts,
* bound-propagation presolve (:mod:`repro.solvers.presolve`) before
  the root,
* at most :data:`CUT_ROUNDS` root separation rounds.

Around it: a rounding dive for a quick incumbent, wall-clock and node
limits with a FEASIBLE (incumbent, gap > 0) result, and full
:class:`~repro.milp.solution.SolveStats` telemetry on every result.

Determinism: nodes are ordered by ``(parent LP bound, -path id)`` where
the path id encodes the branching path from the root (root ``1``, down
child ``2 i``, up child ``2 i + 1``).  Path ids are independent of how
much of the tree was pruned before a node was created, so reruns explore
ties in the same order and return the same incumbent.  Negating the id
pops the deepest of tied nodes first, so a plateau of equal bounds is
searched depth-first towards an incumbent rather than level by level.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.errors import CancelledError, SolverError
from repro.milp.model import MatrixForm, Model
from repro.milp.solution import Solution, SolveStats, SolveStatus, root_gap_closed
from repro.obs.progress import ProgressReporter
from repro.obs.sinks import Tracer, make_tracer
from repro.solvers.base import Solver, SolverOptions
from repro.solvers.cuts import (
    CutPool,
    cover_knapsacks,
    separate_cover,
    separate_gomory,
)
from repro.solvers.revised import (
    Basis,
    RevisedResult,
    RevisedStatus,
    StandardFormLP,
    extend_basis,
    solve_revised,
    # Not called here; the deprecated name stays bound in this module
    # until 3.0.0 for callers that look it up or patch it on bozo.
    solve_with_fallback,  # noqa: F401
)

#: Root candidates probed by strong branching (``0`` disables it).  On
#: the serial Table II sweep, root probes cut the tree from 412 to 182
#: nodes; docs/solvers.md has the on/off matrix.
STRONG_BRANCH_CANDIDATES = 8

#: Pivot budget of one strong-branching probe.  A probe that exhausts it
#: is simply not recorded: it only skips that direction.
STRONG_BRANCH_ITERATIONS = 150

#: Pivot budget of one full relaxation (root, dive step or tree node).
#: Exhausting it raises :class:`~repro.errors.SolverError`.
LP_ITERATIONS = 20_000

#: Relative root-gap closure below which a separation round counts as
#: stalled.  Once any round clears this threshold, a later sub-threshold
#: round ends the cut loop early (``reason="tailing_off"`` on its
#: ``cut_round`` event) instead of paying for more rows in every node LP.
CUT_STALL_EPS = 1e-6

#: Maximum root separation rounds (``0`` disables the cut loop).  Five
#: was the fastest budget on the serial Table II sweep.
CUT_ROUNDS = 5


def _integrality_distance(values: np.ndarray) -> np.ndarray:
    """Distance of each value to its nearest integer."""
    return np.minimum(values - np.floor(values), np.ceil(values) - values)


@dataclass
class _Node:
    """A branch-and-bound node ordered by ``(parent LP bound, -path id)``.

    ``tiebreak`` is the node's path id: ``1`` at the root, ``2 i`` for the
    down child of node ``i`` and ``2 i + 1`` for the up child.  Equal ids
    name equal subtrees, regardless of exploration or pruning history.
    A child's id exceeds every id of a shallower level, so among nodes
    tied at one bound the deepest is popped first.
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

    def __lt__(self, other: "_Node") -> bool:
        return (self.bound, -self.tiebreak) < (other.bound, -other.tiebreak)


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

    One instance lives for the duration of a solve.  It owns the
    :class:`StandardFormLP` built from the (presolved) matrix form and
    funnels every relaxation — root, dive steps, tree nodes — through
    :meth:`solve`, accumulating telemetry in the solve's
    :class:`SolveStats`.
    """

    def __init__(
        self,
        form: MatrixForm,
        stats: SolveStats,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.form = form
        self.stats = stats
        self.tracer = tracer
        self.sf = StandardFormLP.from_matrix_form(form)

    def _run(
        self,
        lb: np.ndarray,
        ub: np.ndarray,
        basis: Optional[Basis],
        max_iterations: int,
    ) -> RevisedResult:
        """One revised solve under ``lb``/``ub``, counted and traced."""
        start = time.monotonic()
        self.sf.set_bounds(lb, ub)
        result = solve_revised(self.sf, basis, max_iterations=max_iterations)
        elapsed = time.monotonic() - start
        stats = self.stats
        stats.lp_solves += 1
        stats.lp_pivots += result.iterations
        if basis is not None:
            stats.warm_starts += 1
            stats.warm_start_hits += 1
        counters = result.counters
        if counters is not None:
            stats.bound_flips += counters.bound_flips
            stats.devex_resets += counters.devex_resets
            stats.ftran_sparsity += counters.ftran_sparsity
            stats.refactorizations += counters.refactorizations
        stats.add_phase("lp", elapsed)
        if self.tracer is not None:
            extra = counters.as_dict() if counters is not None else {}
            self.tracer.emit(
                "lp_solved",
                pivots=result.iterations,
                status=result.status.value,
                warm=basis is not None,
                fallback=False,
                seconds=elapsed,
                **extra,
            )
        return result

    def solve(
        self,
        lb: np.ndarray,
        ub: np.ndarray,
        basis: Optional[Basis] = None,
    ) -> RevisedResult:
        """Solve the relaxation under ``lb``/``ub``.

        Returns an OPTIMAL, INFEASIBLE or UNBOUNDED result; its ``basis``
        warm-starts the children when OPTIMAL.

        Raises:
            SolverError: The engine gave up on this relaxation.
        """
        result = self._run(lb, ub, basis, LP_ITERATIONS)
        if result.status is RevisedStatus.NEEDS_FALLBACK:
            raise SolverError(
                f"LP relaxation unsolved: the revised simplex gave up after "
                f"{result.iterations} pivots on {self.sf.m} rows "
                f"({'warm' if basis is not None else 'cold'} start)"
            )
        return result

    def probe(
        self,
        lb: np.ndarray,
        ub: np.ndarray,
        basis: Optional[Basis],
    ) -> RevisedResult:
        """Budgeted strong-branching probe.

        Unlike :meth:`solve`, a probe that blows its
        :data:`STRONG_BRANCH_ITERATIONS` budget (or hits any numerical
        trouble) returns ``NEEDS_FALLBACK`` and the caller simply learns
        nothing from that direction.
        """
        return self._run(lb, ub, basis, STRONG_BRANCH_ITERATIONS)


@dataclass
class _SearchOutcome:
    """What one tree search produced."""

    incumbent_x: Optional[np.ndarray] = None
    incumbent_obj: float = math.inf
    nodes: int = 0
    hit_limit: bool = False
    root_unbounded: bool = False
    best_open_bound: float = -math.inf


class _TreeSearch:
    """One branch-and-bound tree walk over a fixed LP backend."""

    def __init__(
        self,
        options: SolverOptions,
        form: MatrixForm,
        lp: _LPBackend,
        *,
        start: float,
        tracer: Optional[Tracer] = None,
        reporter: Optional[ProgressReporter] = None,
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
        self.incumbent_obj = math.inf
        #: ``(coefficients, rhs)`` of every cut row appended to the
        #: standard form, in application order — the cut-augmented root
        #: relaxation is the original rows plus exactly these.
        self.applied_cuts: List[Tuple[np.ndarray, float]] = []
        self.nodes_processed = 0

    # -- driver -------------------------------------------------------------
    def run(self, root: _Node) -> _SearchOutcome:
        """Search from ``root``; stop at exhaustion or a limit."""
        options = self.options
        heap: List[_Node] = [root]
        out = _SearchOutcome()
        tol = options.integrality_tolerance
        form = self.form
        should_stop = options.should_stop
        while True:
            if should_stop is not None and should_stop():
                raise CancelledError(
                    f"solve cancelled after {self.nodes_processed} nodes"
                )
            if not heap:
                break
            node = heapq.heappop(heap)
            if node.bound >= self.incumbent_obj - options.gap_tolerance * max(
                1.0, abs(self.incumbent_obj)
            ):
                continue  # pruned by the incumbent
            if time.monotonic() - self.start > options.time_limit or (
                options.node_limit and self.nodes_processed >= options.node_limit
            ):
                out.hit_limit = True
                # Best-first: the node just popped holds the lowest bound.
                out.best_open_bound = node.bound
                break

            if self.tracer is not None:
                self.tracer.emit(
                    "node_opened",
                    node=node.tiebreak,
                    bound=node.bound,
                    depth=node.depth,
                )
            result = self.lp.solve(node.lb, node.ub, node.basis)
            self.nodes_processed += 1
            if self.reporter is not None:
                self.reporter.report(
                    nodes=self.nodes_processed,
                    incumbent=self.incumbent_obj,
                    bound=node.bound,
                )
            if result.status is RevisedStatus.INFEASIBLE:
                continue
            if result.status is RevisedStatus.UNBOUNDED:
                if self.nodes_processed == 1:
                    out.root_unbounded = True
                    break
                continue

            if node.tiebreak == 1:
                result = self._root_cut_loop(node, result)
                if result.status is not RevisedStatus.OPTIMAL:
                    # Every integer point satisfies every cut, so an
                    # infeasible cut-augmented root means no integer
                    # point exists.
                    continue
            lp_obj = result.objective
            node_basis = result.basis
            self.pseudo.observe_child(node, lp_obj)
            if self.incumbent_x is None and (
                self.nodes_processed == 1 or self.nodes_processed % 16 == 0
            ):
                # Rounding dive for a quick incumbent: always at the root,
                # then periodically for as long as the tree has none —
                # best-first search cannot prune anything without one.
                dived = self._dive(node.lb, node.ub, result.x, node_basis)
                if dived is not None:
                    objective = float(form.c @ dived) + form.c0
                    if objective < self.incumbent_obj - 1e-12:
                        self._adopt(dived, objective, node.tiebreak, source="dive")
            if lp_obj >= self.incumbent_obj - options.gap_tolerance * max(
                1.0, abs(self.incumbent_obj)
            ):
                continue

            xi = result.x[self.integral]
            frac_mask = _integrality_distance(xi) > tol
            fractional = list(zip(
                self.integral[frac_mask].tolist(),
                (xi[frac_mask] - np.floor(xi[frac_mask] + tol)).tolist(),
            ))
            if not fractional:
                x = self._integral_point(node.lb, node.ub, result.x, node_basis)
                if x is not None:
                    obj = float(form.c @ x) + form.c0
                    if obj < self.incumbent_obj - 1e-12:
                        self._adopt(x, obj, node.tiebreak, source="integral")
                continue

            strong = (
                node.tiebreak == 1
                and STRONG_BRANCH_CANDIDATES > 0
                and len(fractional) > 1
            )
            if strong:
                # Root-only, candidate-limited strong branching: initialize
                # the (otherwise cold) pseudocosts with observed objective
                # degradations so _pick_branch's first decision is informed.
                candidates, probes = self._strong_branch_root(
                    node, lp_obj, result.x, fractional, node_basis
                )
            branch_j, fraction = self._pick_branch(fractional)
            if strong and self.tracer is not None:
                self.tracer.emit(
                    "strong_branch",
                    node=node.tiebreak,
                    candidates=candidates,
                    probes=probes,
                    chosen=int(branch_j),
                )
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
            heapq.heappush(heap, down)
            heapq.heappush(heap, up)

        out.incumbent_x = self.incumbent_x
        out.incumbent_obj = self.incumbent_obj
        out.nodes = self.nodes_processed
        return out

    def _adopt(
        self,
        x: np.ndarray,
        objective: float,
        node_id: int,
        source: str = "integral",
    ) -> None:
        self.incumbent_x = x
        self.incumbent_obj = objective
        if self.tracer is not None:
            self.tracer.emit(
                "incumbent_found", objective=objective, node=node_id, source=source
            )

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
        self._adopt(x, objective, 0, source="seed")
        self.lp.stats.seeded_incumbent = 1
        return True

    # -- root cut-and-branch ------------------------------------------------
    def _root_cut_loop(self, node: _Node, result: RevisedResult) -> RevisedResult:
        """Bounded root separation: Gomory + cover cuts, re-solve per round.

        Each round separates violated cuts at the current root optimum,
        appends a pool-filtered batch to the standing standard form, and
        dual-reoptimizes from the extended basis (the appended slacks stay
        dual feasible, so re-solves are a short warm repair, not a
        rebuild).  The augmented form is inherited by every tree node.
        Deterministic end to end: same model, same cuts.

        Separation stops early when it *tails off*: once some round has
        closed at least :data:`CUT_STALL_EPS` of relative root gap, a
        later round closing less than that abandons the loop (reason
        ``"tailing_off"`` on its ``cut_round`` event) — the remaining
        rounds would buy bound noise at the price of extra rows in every
        tree-node LP.  Instances whose rounds never move the root bound
        at all (degenerate 0/1 models like market split, where Gomory
        rows still prune by cutting fractional vertices off the tree's
        LPs) are a different regime: there the :data:`CUT_ROUNDS` budget
        is the cost cap, and the loop runs it in full.
        """
        options = self.options
        sf = self.lp.sf
        tol = options.integrality_tolerance
        pool = CutPool()
        first_bound = 0.0
        last_bound = 0.0
        rounds_run = 0
        total_added = 0
        total_gomory = 0
        total_cover = 0
        progressed = False  # some round closed >= CUT_STALL_EPS of gap
        knapsacks = None  # the form's cover knapsacks, built on first use
        for round_index in range(1, CUT_ROUNDS + 1):
            x = result.x
            if result.status is not RevisedStatus.OPTIMAL:
                break
            if not np.any(_integrality_distance(x[self.integral]) > tol):
                break  # integral: the tree search will finish at this node
            threshold = self.incumbent_obj - options.gap_tolerance * max(
                1.0, abs(self.incumbent_obj)
            )
            if result.objective >= threshold:
                break  # root already pruned by the incumbent: cuts are moot
            gomory = separate_gomory(sf, result.basis, x, self.integral)
            if knapsacks is None:
                knapsacks = cover_knapsacks(self.form)
            cover = separate_cover(self.form, x, knapsacks=knapsacks)
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
            result = self.lp.solve(
                node.lb, node.ub, extend_basis(result.basis, sf, len(chosen))
            )
            rounds_run += 1
            total_added += len(chosen)
            total_gomory += sum(1 for cut in chosen if cut.kind == "gomory")
            total_cover += sum(1 for cut in chosen if cut.kind == "cover")
            improved = (
                result.status is RevisedStatus.OPTIMAL
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
        return result

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
        tol = self.options.integrality_tolerance
        limit = min(STRONG_BRANCH_CANDIDATES, len(fractional))
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
                probe = self.lp.probe(lb, ub, basis)
                probes += 1
                if probe.status is RevisedStatus.OPTIMAL:
                    self.pseudo.record(
                        j, direction, max(probe.objective - lp_obj, 0.0), frac_dir
                    )
                elif probe.status is RevisedStatus.INFEASIBLE:
                    self.pseudo.record(
                        j, direction, infeasible_degradation, frac_dir
                    )
                # NEEDS_FALLBACK / UNBOUNDED: budget blown or numerics —
                # learn nothing from this direction.
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
            dist = _integrality_distance(current[integral])
            fractional = np.flatnonzero(dist > tol)
            if fractional.size == 0:
                return self._integral_point(lb, ub, current, basis)
            # The most nearly integral candidate; ties to the first.
            j = int(integral[fractional[np.argmin(dist[fractional])]])
            value = current[j]
            nearest = float(round(value))
            other = float(math.floor(value) if nearest > value else math.ceil(value))
            result = None
            for fixed in (nearest, other):
                fixed = min(max(fixed, lb[j]), ub[j])
                try_lb, try_ub = lb.copy(), ub.copy()
                try_lb[j] = fixed
                try_ub[j] = fixed
                result = self.lp.solve(try_lb, try_ub, basis)
                if result.status is RevisedStatus.OPTIMAL:
                    lb, ub, basis = try_lb, try_ub, result.basis
                    break
            if result is None or result.status is not RevisedStatus.OPTIMAL:
                return None
            current = result.x
        return None

    def _integral_point(
        self,
        lb: np.ndarray,
        ub: np.ndarray,
        x: np.ndarray,
        basis: Optional[Basis],
    ) -> Optional[np.ndarray]:
        """``x`` with its integral columns rounded, or ``None`` if infeasible.

        ``x`` is integral only up to the integrality tolerance, and rounding
        moves each row by up to its coefficients times that tolerance: an
        equality ``T_SE = T_SS + sum D * sigma`` can then miss by more than
        the feasibility tolerance.  In that case the LP is re-solved with
        the integral columns fixed at their rounded values, so that the
        continuous columns absorb the rounding.
        """
        form = self.lp.form
        integral = self.integral
        rounded = np.round(x[integral])
        candidate = x.copy()
        candidate[integral] = rounded
        if self._is_feasible(form, candidate):
            return candidate
        fixed_lb, fixed_ub = lb.copy(), ub.copy()
        fixed_lb[integral] = rounded
        fixed_ub[integral] = rounded
        result = self.lp.solve(fixed_lb, fixed_ub, basis)
        if result.status is not RevisedStatus.OPTIMAL:
            return None
        candidate = result.x.copy()
        candidate[integral] = rounded
        return candidate if self._is_feasible(form, candidate) else None

    def _pick_branch(
        self, fractional: List[Tuple[int, float]]
    ) -> Tuple[int, float]:
        """Choose the variable to branch on and its fractional part.

        Only the candidates of the highest branching priority present
        (:attr:`MatrixForm.branch_priority`) compete; their pseudocost
        scores decide.  Score ties break toward the lowest variable index,
        explicitly, so the chosen branch never depends on how the
        candidate list happened to be assembled.
        """
        priority = self.form.branch_priority
        top = max(priority[j] for j, _ in fractional)
        return max(
            (item for item in fractional if priority[item[0]] == top),
            key=lambda item: (self.pseudo.score(item[0], item[1]), -item[0]),
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
    node count, wall-clock seconds); for coarse backends with no per-node
    stream, trace replay takes ``nodes`` from it.  ``workers`` is always
    0 and stays only because the event schema requires it.
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
        workers=0,
        seconds=solution.solve_seconds,
    )


class BozoSolver(Solver):
    """Branch-and-bound MILP solver over the incremental simplex pipeline."""

    name = "bozo"

    def __init__(self, options: Optional[SolverOptions] = None) -> None:
        super().__init__(options)
        #: ``(coefficients, rhs)`` of the root cuts applied by the last
        #: solve: the cut-augmented root relaxation is the presolved
        #: model's rows plus exactly these ``<=`` rows.
        self.last_root_cuts: List[Tuple[np.ndarray, float]] = []

    def solve(self, model: Model) -> Solution:
        """Solve ``model`` to optimality (or the configured limits)."""
        self.last_root_cuts = []
        start = time.monotonic()
        stats = SolveStats()
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
        lp = _LPBackend(form, stats, tracer=tracer)
        engine = _TreeSearch(
            self.options, form, lp, start=start, tracer=tracer, reporter=reporter
        )
        if self.options.incumbent is not None:
            engine.seed_incumbent(self.options.incumbent)
        root = _Node(-math.inf, 1, form.lb.copy(), form.ub.copy())
        outcome = engine.run(root)
        self.last_root_cuts = engine.applied_cuts
        return self._assemble(
            form, outcome, stats, start, tracer=tracer, reporter=reporter
        )

    # -- pipeline pieces ----------------------------------------------------
    def _prepared_form(
        self,
        model: Model,
        stats: SolveStats,
        start: float,
        tracer: Optional[Tracer] = None,
    ) -> Union[MatrixForm, Solution]:
        """Matrix form after presolve, or a terminal Solution."""
        # Looked up per solve, so a wrapper or stand-in installed on the
        # presolve module reaches every solve.
        from repro.solvers.presolve import presolve

        form = model.to_matrices()
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
        return reduction.form

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

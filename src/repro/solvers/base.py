"""Common solver interface shared by the from-scratch and scipy backends."""

from __future__ import annotations

import abc
import dataclasses
import math
import warnings
from typing import Callable, Mapping, Optional

from repro.milp.model import Model
from repro.milp.solution import Solution
from repro.obs.progress import ProgressUpdate, print_progress
from repro.obs.sinks import TraceSink


@dataclasses.dataclass
class SolverOptions:
    """Options understood by every backend (backends ignore what they must).

    Attributes:
        time_limit: Wall-clock budget in seconds (``inf`` = none).
        gap_tolerance: Relative MILP gap at which the search may stop.
        integrality_tolerance: How close to an integer an LP value must be.
        node_limit: Maximum branch-and-bound nodes (``0`` = unlimited).
        node_selection: ``"best_first"`` or ``"depth_first"`` (Bozo only).
        branching: ``"pseudocost"`` (default) or ``"most_fractional"``
            (Bozo only).  Pseudocosts learn per-variable objective
            degradation from solved children, which keeps the tree small
            even when the LP returns an unhelpful degenerate vertex;
            most-fractional branching gambles on the vertex it is handed.
        presolve: Run bound-propagation presolve before branch and bound
            (Bozo only; HiGHS presolves internally).
        warm_start: Solve LP relaxations with the incremental revised
            simplex, warm-starting each branch-and-bound child from its
            parent's optimal basis (Bozo only).  ``False`` reproduces the
            original cold-start behavior: a dense two-phase tableau solve
            per node.
        workers: Parallel branch-and-bound workers (Bozo only).  ``1``
            keeps the serial search; ``N > 1`` ramps the tree serially
            until a frontier of open subtrees exists, then dispatches the
            subtrees to a persistent worker pool with a shared incumbent
            bound.  Subtrees are dispatched in deterministic key order,
            solved independently, and merged by replaying incumbents in
            that order, so the Solution (status, objective, values, best
            bound) is byte-identical to the ``workers=1`` run.  Requires
            ``best_first`` node selection — depth-first searches fall
            back to the serial path.
        frontier_target: Open-node count at which the parallel ramp stops
            and dispatches subtrees (``0`` = automatic,
            ``max(4 * workers, 8)``).  Exposed mainly so tests can force
            partitioning on tiny trees.
        incumbent: Optional warm incumbent: a mapping of variable *names*
            to values describing a known feasible integral point (e.g. a
            heuristic schedule from :mod:`repro.baselines`).  Bozo
            validates it against the (presolved) model and, when it
            checks out, adopts it before the root node so best-first
            search prunes from node 0.  An infeasible or incomplete seed
            is silently ignored — it can slow the search down but never
            change the optimal objective, though tie-broken alternative
            optima may differ from an unseeded run.
        cuts: Root-node cutting-plane mode (Bozo only).  ``"auto"``
            (default) runs a bounded separation loop at the root: Gomory
            mixed-integer cuts from the simplex tableau plus knapsack
            cover cuts from the ``<=`` rows, filtered through a cut pool
            and appended to the standing LP with a dual-simplex warm
            restart per round.  The cut-augmented relaxation is inherited
            by the whole tree (cut-and-branch) and, in a parallel solve,
            published to the workers' shared-memory form, so serial and
            parallel searches branch on the same strengthened LP.
            ``"off"`` disables separation.  Cuts are valid for every
            integral point, so the optimal objective never changes; they
            require the incremental engine (``warm_start=True``) and are
            skipped silently without it.
        cut_rounds: Maximum root separation rounds when ``cuts="auto"``
            (each round separates, appends at most a pool-capped batch,
            and re-solves).  The loop also stops early when no violated
            cut is found or the bound stops improving.
        strong_branching: Root-node strong-branching candidate budget
            (Bozo only; ``0`` disables).  At the root, with pseudocost
            branching, the ``strong_branching`` most-fractional candidates
            are probed in both directions with budgeted dual-simplex
            re-solves and the observed objective degradations initialize
            the pseudocosts — replacing the cold uniform scores that
            otherwise decide the first branchings blind.  Probes reuse the
            warm-start machinery and are counted in
            ``SolveStats.strong_branch_probes``.  Ignored under
            most-fractional branching, which keeps the deterministic
            byte-identity contract of that mode untouched.
        rc_fixing: Reduced-cost fixing mode (Bozo only).  ``"root"``
            (default) derives tree-wide integral-variable bounds from the
            root LP's reduced costs, re-tightened after every improved
            incumbent, and prunes nodes whose branch bounds violate them;
            pruning is provability-conservative (exactly like incumbent
            pruning), so serial/parallel byte-identity is preserved.
            ``"off"`` disables.
        seed: Tie-breaking seed for randomized choices.
        verbose: Deprecated — emit progress lines to stdout.  Use
            ``on_progress`` instead; ``verbose=True`` now substitutes a
            printing callback (and warns) when no callback is set.
        trace: A :class:`~repro.obs.sinks.TraceSink` receiving structured
            solve events (``node_opened``, ``lp_solved``,
            ``incumbent_found``, ...).  ``None`` disables tracing.  The
            sink never crosses a process boundary: parallel subtree
            workers buffer events privately and the driver merges them
            into this sink at join, in dispatch order.
        on_progress: Callback invoked with a
            :class:`~repro.obs.progress.ProgressUpdate` (nodes, incumbent,
            bound, gap, elapsed) at most once per ``progress_interval``
            seconds, plus once at solve end.  A callback that raises is
            disabled for the rest of the solve after a single warning.
        progress_interval: Minimum seconds between ``on_progress`` calls.
        should_stop: Cooperative-cancellation hook.  Polled once per
            branch-and-bound node (and between sweep steps); when it
            returns true the solve raises
            :class:`~repro.errors.CancelledError` instead of producing a
            Solution.  Must be cheap (it sits on the node loop) and
            thread-safe (the job service polls a ``threading.Event``).
            Like ``trace``/``on_progress`` it never crosses a process
            boundary: parallel subtree workers run with it stripped, and
            the driving process polls it between pool operations.
        pricing: Revised-simplex pricing rule (Bozo only).  ``"devex"``
            (default) maintains deterministic devex reference-framework
            weights — the fast path; ``"dantzig"`` restores the legacy
            partial-Dantzig block pricing for byte-identity against
            pre-devex oracles.  Both rules are deterministic, so
            serial/parallel identity holds under either; the optimum
            never changes.
        pricing_block_size: Partial-pricing block width for the revised
            simplex (Bozo only, ``pricing="dantzig"``).  ``0`` picks
            automatically: one block (classic full Dantzig pricing) for
            small models, fixed blocks of 256 columns above 512 columns.
            Pricing is deterministic for any block size; the optimum
            never changes.
        clamp_workers: Cap effective ``workers`` at ``os.cpu_count()``
            (default on).  Requesting more processes than cores makes
            parallel tree search *slower* than serial — the clamp falls
            all the way back to the serial path on a single-core machine.
            The requested count is recorded in
            ``SolveStats.workers_requested`` either way.  ``False``
            restores the literal request (tests force this to exercise
            the pool on small machines).
    """

    time_limit: float = math.inf
    gap_tolerance: float = 1e-9
    integrality_tolerance: float = 1e-6
    node_limit: int = 0
    node_selection: str = "best_first"
    branching: str = "pseudocost"
    presolve: bool = True
    warm_start: bool = True
    workers: int = 1
    frontier_target: int = 0
    incumbent: Optional[Mapping[str, float]] = None
    cuts: str = "auto"
    cut_rounds: int = 5
    strong_branching: int = 8
    rc_fixing: str = "root"
    seed: int = 0
    verbose: bool = False
    trace: Optional[TraceSink] = None
    on_progress: Optional[Callable[[ProgressUpdate], None]] = None
    progress_interval: float = 1.0
    should_stop: Optional[Callable[[], bool]] = None
    pricing: str = "devex"
    pricing_block_size: int = 0
    clamp_workers: bool = True


class Solver(abc.ABC):
    """Abstract MILP solver."""

    #: Registry key (e.g. ``"bozo"``); subclasses override.
    name: str = "abstract"

    def __init__(self, options: Optional[SolverOptions] = None) -> None:
        self.options = options or SolverOptions()
        if self.options.verbose:
            warnings.warn(
                "SolverOptions.verbose is deprecated; pass an on_progress "
                "callback instead (verbose currently substitutes the "
                "default printing callback)",
                DeprecationWarning,
                stacklevel=2,
            )
            if self.options.on_progress is None:
                self.options = dataclasses.replace(
                    self.options, on_progress=print_progress
                )

    @abc.abstractmethod
    def solve(self, model: Model) -> Solution:
        """Solve a model and return a :class:`Solution`."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

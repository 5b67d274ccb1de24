"""Common solver interface shared by the from-scratch and HiGHS backends."""

from __future__ import annotations

import abc
import dataclasses
import math
import warnings
from typing import Callable, Mapping, Optional

from repro.milp.model import Model
from repro.milp.solution import Solution
from repro.obs.progress import ProgressUpdate
from repro.obs.sinks import TraceSink


@dataclasses.dataclass
class SolverOptions:
    """Options understood by every backend (backends ignore what they must).

    None of them tunes Bozo's search: presolve, node order, branching,
    strong branching and the root cut loop are one fixed policy (see
    :mod:`repro.solvers.bozo`).

    Attributes:
        time_limit: Wall-clock budget in seconds (``inf`` = none).
        gap_tolerance: Relative MILP gap at which the search may stop.
        integrality_tolerance: How close to an integer an LP value must be.
        node_limit: Maximum branch-and-bound nodes (``0`` = unlimited).
        workers: Deprecated and ignored (a value other than ``1`` warns
            with ``DeprecationWarning``).  It used to request parallel
            branch and bound, which lost to the serial search on every
            measured workload and was removed in 2.3.0; every Bozo solve
            runs the serial tree search.  The field will be removed in
            the next major release.
        incumbent: Optional warm incumbent: a mapping of variable *names*
            to values describing a known feasible integral point (e.g. a
            heuristic schedule from :mod:`repro.baselines`).  Bozo
            validates it against the (presolved) model and, when it
            checks out, adopts it before the root node so best-first
            search prunes from node 0.  An infeasible or incomplete seed
            is silently ignored — it can slow the search down but never
            change the optimal objective, though tie-broken alternative
            optima may differ from an unseeded run.
        trace: A :class:`~repro.obs.sinks.TraceSink` receiving structured
            solve events (``node_opened``, ``lp_solved``,
            ``incumbent_found``, ...).  ``None`` disables tracing.
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
    """

    time_limit: float = math.inf
    gap_tolerance: float = 1e-9
    integrality_tolerance: float = 1e-6
    node_limit: int = 0
    workers: int = 1
    incumbent: Optional[Mapping[str, float]] = None
    trace: Optional[TraceSink] = None
    on_progress: Optional[Callable[[ProgressUpdate], None]] = None
    progress_interval: float = 1.0
    should_stop: Optional[Callable[[], bool]] = None

    def __post_init__(self) -> None:
        if self.workers != 1:
            warnings.warn(
                "SolverOptions.workers is deprecated and ignored: parallel "
                "branch and bound was removed in 2.3.0 and every solve runs "
                "the serial search",
                DeprecationWarning,
                stacklevel=3,
            )


class Solver(abc.ABC):
    """Abstract MILP solver."""

    #: Registry key (e.g. ``"bozo"``); subclasses override.
    name: str = "abstract"

    def __init__(self, options: Optional[SolverOptions] = None) -> None:
        self.options = options or SolverOptions()

    @abc.abstractmethod
    def solve(self, model: Model) -> Solution:
        """Solve a model and return a :class:`Solution`."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

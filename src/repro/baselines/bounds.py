"""Analytic lower bounds from the scheduling literature (§2).

Fernandez & Bussell (1973) bounded the makespan and the processor count
for homogeneous machines; Al-Mouhamed (1990) extended the completion-time
bound to graphs with communication costs.  We provide heterogeneous
adaptations — every bound is *safe* (never exceeds the true optimum) by
construction, which the property tests verify against the exact MILP.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.core.horizon import serial_lower_bound
from repro.system.library import TechnologyLibrary
from repro.taskgraph.graph import TaskGraph


def best_execution_time(graph: TaskGraph, library: TechnologyLibrary, task: str) -> float:
    """Fastest capable processor's ``D_PS`` for ``task``."""
    return min(ptype.execution_time(task) for ptype in library.capable_types(task))


def critical_path_bound(graph: TaskGraph, library: TechnologyLibrary) -> float:
    """Longest dependence chain with best-case execution and free
    communication — valid for any number of processors."""
    return serial_lower_bound(graph, library)


def work_bound(
    graph: TaskGraph,
    library: TechnologyLibrary,
    num_processors: Optional[int] = None,
) -> float:
    """Total-work bound: optimal makespan is at least the total best-case
    work divided by the processor count (pool size when ``None``)."""
    total = sum(
        best_execution_time(graph, library, subtask.name) for subtask in graph.subtasks
    )
    count = num_processors if num_processors is not None else len(library.instances())
    if count < 1:
        raise ValueError("processor count must be positive")
    return total / count


def makespan_lower_bound(
    graph: TaskGraph,
    library: TechnologyLibrary,
    num_processors: Optional[int] = None,
) -> float:
    """Max of the critical-path and total-work bounds (Fernandez-Bussell
    style, adapted to heterogeneity by using best-case times)."""
    return max(
        critical_path_bound(graph, library),
        work_bound(graph, library, num_processors),
    )


def processor_count_lower_bound(
    graph: TaskGraph,
    library: TechnologyLibrary,
    deadline: float,
) -> int:
    """Minimum processors needed to finish by ``deadline`` (work argument).

    Returns:
        ``ceil(total best-case work / deadline)`` — at least 1; ``math.inf``
        is never returned: an impossible deadline (below the critical path)
        yields a count that is simply unachievable, which callers detect by
        re-checking :func:`makespan_lower_bound`.
    """
    if deadline <= 0:
        raise ValueError("deadline must be positive")
    total = sum(
        best_execution_time(graph, library, subtask.name) for subtask in graph.subtasks
    )
    return max(1, math.ceil(total / deadline - 1e-9))


def lp_relaxation_bound(
    graph: TaskGraph,
    library: TechnologyLibrary,
    cost_cap: Optional[float] = None,
) -> float:
    """The SOS model's own LP-relaxation bound on the optimal makespan.

    Stronger than the combinatorial bounds whenever communication or the
    cost cap binds: the relaxation sees every §3.3 timing constraint, just
    with fractional mapping variables.  Always a valid lower bound (the
    MILP's feasible set is contained in the LP's).

    Raises:
        ValueError: If even the relaxation is infeasible (then the MILP is
            certainly infeasible too).
    """
    from repro.core.formulation import build_sos_model
    from repro.core.options import FormulationOptions
    from repro.solvers.registry import get_solver

    built = build_sos_model(
        graph, library, FormulationOptions(cost_cap=cost_cap)
    )
    solution = get_solver("auto").solve(built.model.relaxed())
    if not solution.status.has_solution:
        raise ValueError("LP relaxation infeasible: the instance has no design")
    return solution.objective


def cost_lower_bound(graph: TaskGraph, library: TechnologyLibrary) -> float:
    """No system is cheaper than its dearest subtask's cheapest capable type.

    Every subtask runs on some bought instance, so the system costs at
    least the cheapest type able to run it, for each subtask alone; the
    bound is the largest of those per-subtask minima.  It is coarse but
    safe: two cheap types that each cover part of the graph can undercut
    the cheapest type covering all of it, so a single-cover price is *not*
    a valid bound.
    """
    return max(
        min(ptype.cost for ptype in library.capable_types(subtask.name))
        for subtask in graph.subtasks
    )

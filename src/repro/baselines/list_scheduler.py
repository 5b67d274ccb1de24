"""List-scheduling baselines.

§2 positions SOS against the list-scheduling literature (Adam/Chandy/
Dickson's LS comparison, Hwang et al.'s ETF, El-Rewini & Lewis's MH).
These heuristics map a task graph onto a *given* processor set — exactly
the problem SOS subsumes — so they serve as baselines in our benchmark
harness: the exact MILP must never be worse, and the gap quantifies what
exact co-synthesis buys.

Two classic priority schemes are provided:

* :func:`bottom_levels` — HLFET-style static priorities (length of the
  longest remaining path, using mean execution times and remote delays).
* :func:`etf_schedule` — Earliest-Task-First: among ready tasks, place the
  (task, processor) pair that can *start* earliest, breaking ties by
  priority; communication contention is modeled through the shared
  :class:`~repro.sim.simulator.ScheduleBuilder` timelines.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.errors import SynthesisError
from repro.schedule.schedule import Schedule
from repro.sim.simulator import ScheduleBuilder
from repro.system.interconnect import InterconnectStyle
from repro.system.library import TechnologyLibrary
from repro.system.processors import ProcessorInstance
from repro.taskgraph.graph import TaskGraph


def mean_execution_time(graph: TaskGraph, library: TechnologyLibrary, task: str) -> float:
    """Average ``D_PS`` over the capable types (the usual list-scheduling
    estimate when the mapping is not yet known)."""
    times = [ptype.execution_time(task) for ptype in library.capable_types(task)]
    return sum(times) / len(times)


def bottom_levels(graph: TaskGraph, library: TechnologyLibrary) -> Dict[str, float]:
    """HLFET/b-level priorities: longest remaining path to any sink.

    Edge weights use the remote transfer delay (the pessimistic case) and
    node weights the mean execution time.
    """
    levels: Dict[str, float] = {}
    for task in reversed(graph.topological_order()):
        best_tail = 0.0
        for arc in graph.arcs_from(task):
            tail = levels[arc.consumer] + library.transfer_delay(arc.volume, remote=True)
            best_tail = max(best_tail, tail)
        levels[task] = mean_execution_time(graph, library, task) + best_tail
    return levels


def hlfet_schedule(
    graph: TaskGraph,
    library: TechnologyLibrary,
    processors: Sequence[ProcessorInstance],
    style: InterconnectStyle = InterconnectStyle.POINT_TO_POINT,
) -> Tuple[Dict[str, str], Schedule]:
    """Highest-Level-First list scheduling on a fixed processor set.

    Tasks are taken in decreasing b-level (ties by name); each is placed on
    the capable processor giving the earliest finish time.

    Returns:
        ``(mapping, schedule)``.

    Raises:
        SynthesisError: If some subtask has no capable processor in the set.
    """
    levels = bottom_levels(graph, library)
    order = _priority_topological_order(graph, levels)
    return _place_in_order(graph, library, processors, style, order)


def etf_schedule(
    graph: TaskGraph,
    library: TechnologyLibrary,
    processors: Sequence[ProcessorInstance],
    style: InterconnectStyle = InterconnectStyle.POINT_TO_POINT,
) -> Tuple[Dict[str, str], Schedule]:
    """Earliest-Task-First scheduling with communication delays.

    At each step, every ready task is probed on every capable processor;
    the pair with the earliest possible start time is committed (ties
    broken by higher b-level, then by name).

    Returns:
        ``(mapping, schedule)``.
    """
    levels = bottom_levels(graph, library)
    builder = ScheduleBuilder(graph, library, style)
    placed: set = set()
    remaining = set(graph.subtask_names)
    while remaining:
        ready = [
            task for task in remaining
            if all(arc.producer in placed for arc in graph.arcs_into(task))
        ]
        if not ready:
            raise SynthesisError("task graph has a cycle (no ready task)")
        best = None
        for task in ready:
            for inst in processors:
                if not inst.can_execute(task):
                    continue
                placement = builder.tentative(task, inst)
                key = (placement.start, -levels[task], task, inst.name)
                if best is None or key < best[0]:
                    best = (key, placement, inst)
        if best is None:
            missing = [t for t in ready if not any(p.can_execute(t) for p in processors)]
            raise SynthesisError(f"no capable processor in the set for {missing}")
        _, placement, inst = best
        builder.commit(builder.tentative(placement.task, inst))
        placed.add(placement.task)
        remaining.remove(placement.task)
    return builder.mapping(), builder.schedule()


def _priority_topological_order(
    graph: TaskGraph, priority: Dict[str, float]
) -> List[str]:
    """Topological order taking the highest-priority ready task first."""
    in_degree = {name: 0 for name in graph.subtask_names}
    for arc in graph.arcs:
        in_degree[arc.consumer] += 1
    ready = [name for name, degree in in_degree.items() if degree == 0]
    order: List[str] = []
    while ready:
        ready.sort(key=lambda name: (-priority[name], name))
        current = ready.pop(0)
        order.append(current)
        for arc in graph.arcs_from(current):
            in_degree[arc.consumer] -= 1
            if in_degree[arc.consumer] == 0:
                ready.append(arc.consumer)
    return order


def _place_in_order(
    graph: TaskGraph,
    library: TechnologyLibrary,
    processors: Sequence[ProcessorInstance],
    style: InterconnectStyle,
    order: Sequence[str],
) -> Tuple[Dict[str, str], Schedule]:
    """Place tasks in a fixed order, each on its earliest-finish processor."""
    builder = ScheduleBuilder(graph, library, style)
    for task in order:
        best = None
        for inst in processors:
            if not inst.can_execute(task):
                continue
            placement = builder.tentative(task, inst)
            key = (placement.end, placement.start, inst.name)
            if best is None or key < best[0]:
                best = (key, placement, inst)
        if best is None:
            raise SynthesisError(f"no capable processor in the set for {task}")
        _, placement, inst = best
        builder.commit(builder.tentative(task, inst))
    return builder.mapping(), builder.schedule()

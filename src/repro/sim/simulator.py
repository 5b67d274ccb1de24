"""Greedy schedule construction / discrete-event execution.

:class:`ScheduleBuilder` incrementally places subtasks onto processors,
routing their input transfers over contended communication resources, under
the paper's full semantics (fractional ``f_R``/``f_A`` ports, I/O overlap,
local vs. remote delays, per-resource exclusion).  It powers

* :func:`simulate_mapping` — execute a *given* mapping greedily (an upper
  bound on the optimal makespan for that mapping; used to cross-check the
  MILP and to evaluate heuristic allocations), and
* the list-scheduling baselines in :mod:`repro.baselines`, which probe
  placements tentatively before committing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.schedule.events import ExecutionEvent, TransferEvent
from repro.schedule.schedule import Schedule
from repro.sim.machine import Timeline
from repro.system.interconnect import InterconnectStyle
from repro.system.library import TechnologyLibrary
from repro.system.processors import ProcessorInstance
from repro.taskgraph.graph import TaskGraph


@dataclass
class Placement:
    """A tentative placement of one subtask on one processor."""

    task: str
    processor: str
    start: float
    end: float
    #: Transfers to commit with the placement (arc dest key -> event).
    transfers: List[TransferEvent]


class ScheduleBuilder:
    """Incremental schedule construction with contended resources.

    Args:
        graph: Task graph being scheduled.
        library: Delay/cost characteristics.
        style: Interconnect semantics for transfer contention.
        allow_insertion: Permit placing events in idle gaps between already
            scheduled events (insertion-based list scheduling).
    """

    def __init__(
        self,
        graph: TaskGraph,
        library: TechnologyLibrary,
        style: InterconnectStyle = InterconnectStyle.POINT_TO_POINT,
        allow_insertion: bool = True,
    ) -> None:
        self.graph = graph
        self.library = library
        self.style = style
        self.allow_insertion = allow_insertion
        self._processors: Dict[str, Timeline] = {}
        self._channels: Dict[object, Timeline] = {}
        self._executions: Dict[str, ExecutionEvent] = {}
        self._transfers: List[TransferEvent] = []

    # -- resource access ------------------------------------------------------
    def _processor_timeline(self, processor: str) -> Timeline:
        if processor not in self._processors:
            self._processors[processor] = Timeline(f"proc:{processor}")
        return self._processors[processor]

    def _channel_key(self, source: str, dest: str) -> object:
        if self.style is InterconnectStyle.BUS:
            return "bus"
        return (source, dest)

    def _channel_timeline(self, source: str, dest: str) -> Timeline:
        key = self._channel_key(source, dest)
        if key not in self._channels:
            name = "bus" if key == "bus" else f"link:{source}->{dest}"
            self._channels[key] = Timeline(name)
        return self._channels[key]

    # -- placement ------------------------------------------------------------
    def tentative(self, task: str, instance: ProcessorInstance) -> Placement:
        """Compute where ``task`` would run on ``instance`` — without committing.

        Every producer of ``task`` must already be placed.

        Raises:
            SimulationError: If ``instance`` cannot run ``task`` or a
                producer is unplaced.
        """
        if not instance.can_execute(task):
            raise SimulationError(f"{instance.name} cannot execute {task}")
        duration = instance.execution_time(task)

        # Plan input transfers and derive the start-time lower bound.  Two
        # inputs of the same task may share a channel (same producer
        # processor, e.g. on a bus), so planning happens on scratch copies
        # of the channel timelines that accumulate the tentative
        # reservations; commit() re-reserves on the real timelines.
        plans: List[Tuple[TransferEvent, Optional[Timeline]]] = []
        scratch: Dict[object, Timeline] = {}
        ready = 0.0
        for arc in self.graph.arcs_into(task):
            producer_exec = self._executions.get(arc.producer)
            if producer_exec is None:
                raise SimulationError(
                    f"cannot place {task}: producer {arc.producer} is unscheduled"
                )
            available = (
                producer_exec.start
                + arc.source.f_available * producer_exec.duration
            )
            remote = producer_exec.processor != instance.name
            delay = self.library.transfer_delay(arc.volume, remote=remote)
            if remote:
                key = self._channel_key(producer_exec.processor, instance.name)
                channel = scratch.get(key)
                if channel is None:
                    channel = self._channel_timeline(
                        producer_exec.processor, instance.name
                    ).copy()
                    scratch[key] = channel
                start = channel.earliest_slot(delay, available, self.allow_insertion)
                channel.reserve(start, delay)
            else:
                channel = None
                start = available
            event = TransferEvent(
                producer=arc.producer,
                consumer=task,
                input_index=arc.dest.index,
                source=producer_exec.processor,
                dest=instance.name,
                start=start,
                end=start + delay,
                remote=remote,
                volume=arc.volume,
            )
            plans.append((event, channel))
            # (3.3.5): arrival <= T_SS + f_R * duration.
            ready = max(ready, event.end - arc.dest.f_required * duration)

        timeline = self._processor_timeline(instance.name)
        start = timeline.earliest_slot(duration, max(0.0, ready), self.allow_insertion)
        return Placement(
            task=task,
            processor=instance.name,
            start=start,
            end=start + duration,
            transfers=[event for event, _ in plans],
        )

    def commit(self, placement: Placement) -> ExecutionEvent:
        """Reserve the resources of a tentative placement.

        The placement must be re-derived from the current state (i.e. come
        from :meth:`tentative` with no interleaving commits).
        """
        if placement.task in self._executions:
            raise SimulationError(f"subtask {placement.task} already placed")
        for event in placement.transfers:
            if event.remote:
                self._channel_timeline(event.source, event.dest).reserve(
                    event.start, event.duration
                )
            self._transfers.append(event)
        self._processor_timeline(placement.processor).reserve(
            placement.start, placement.end - placement.start
        )
        execution = ExecutionEvent(
            task=placement.task,
            processor=placement.processor,
            start=placement.start,
            end=placement.end,
        )
        self._executions[placement.task] = execution
        return execution

    # -- results ------------------------------------------------------------
    def schedule(self) -> Schedule:
        """The schedule built so far."""
        return Schedule(
            executions=list(self._executions.values()),
            transfers=list(self._transfers),
        )

    def mapping(self) -> Dict[str, str]:
        """``task -> processor name`` for every placed subtask."""
        return {task: event.processor for task, event in self._executions.items()}

    @property
    def makespan(self) -> float:
        return max((e.end for e in self._executions.values()), default=0.0)


def simulate_mapping(
    graph: TaskGraph,
    library: TechnologyLibrary,
    mapping: Mapping[str, str],
    style: InterconnectStyle = InterconnectStyle.POINT_TO_POINT,
    order: Optional[Sequence[str]] = None,
    allow_insertion: bool = True,
) -> Schedule:
    """Greedily execute a fixed subtask-to-processor mapping.

    Args:
        graph: Task graph.
        library: Delay characteristics.
        mapping: ``task -> processor instance name``; instance names must
            come from ``library.instances()``.
        style: Interconnect semantics.
        order: Placement order (must be topological); defaults to the
            graph's topological order.
        allow_insertion: Allow filling idle gaps.

    Returns:
        The greedily constructed schedule (its makespan upper-bounds the
        optimum for this mapping).

    Raises:
        SimulationError: On unknown processors, capability violations, or a
            non-topological ``order``.
    """
    instances = {inst.name: inst for inst in library.instances()}
    builder = ScheduleBuilder(graph, library, style, allow_insertion)
    sequence = list(order) if order is not None else graph.topological_order()
    if sorted(sequence) != sorted(graph.subtask_names):
        raise SimulationError("order must be a permutation of the subtasks")
    for task in sequence:
        name = mapping.get(task)
        if name is None:
            raise SimulationError(f"mapping misses subtask {task}")
        instance = instances.get(name)
        if instance is None:
            raise SimulationError(f"mapping uses unknown processor {name}")
        builder.commit(builder.tentative(task, instance))
    return builder.schedule()

"""Processor types and instances.

The paper's system model (§3.2) draws processors from a pool ``P`` of
candidate instances.  A :class:`ProcessorType` captures the cost and the
per-subtask execution-time table ``D_PS`` (with *incapable* entries — the
``-`` marks in Tables I and III — expressing Type-I heterogeneity, and
differing speeds expressing Type-II heterogeneity).  A
:class:`ProcessorInstance` is one purchasable copy of a type; the paper
names instances ``p1a``, ``p1b``, ... and we follow that convention.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import SystemModelError


@dataclass(frozen=True)
class ProcessorType:
    """A purchasable processor model.

    Attributes:
        name: Type name (``p1``, ``p2``, ... in the paper).
        cost: Purchase cost ``C_d`` of one instance.
        exec_times: ``subtask name -> execution time`` (``D_PS``).  Subtasks
            absent from the mapping cannot run on this type (Type-I
            heterogeneity).
        memory_capacity: Local-memory capacity available to subtasks mapped
            here (``None`` = unlimited).  Only enforced when the §5 memory
            extension is enabled in the formulation.
    """

    name: str
    cost: float
    exec_times: Mapping[str, float] = field(default_factory=dict)
    memory_capacity: Optional[float] = None

    def __post_init__(self) -> None:
        if self.cost < 0:
            raise SystemModelError(f"processor type {self.name}: negative cost")
        if self.memory_capacity is not None and self.memory_capacity < 0:
            raise SystemModelError(
                f"processor type {self.name}: negative memory capacity"
            )
        for task, duration in self.exec_times.items():
            if duration < 0:
                raise SystemModelError(
                    f"processor type {self.name}: negative execution time for {task}"
                )
        # Freeze the mapping so types are safely hashable/shareable.
        object.__setattr__(self, "exec_times", dict(self.exec_times))

    def can_execute(self, task: str) -> bool:
        """True when this type is functionally capable of ``task``."""
        return task in self.exec_times

    def execution_time(self, task: str) -> float:
        """``D_PS(type, task)``.

        Raises:
            SystemModelError: If the type cannot execute ``task``.
        """
        try:
            return self.exec_times[task]
        except KeyError:
            raise SystemModelError(
                f"processor type {self.name} cannot execute subtask {task}"
            ) from None

    def scaled(self, factor: float) -> "ProcessorType":
        """A copy with all execution times multiplied by ``factor``.

        Used by the paper's Experiment 2 ("increase the size of each of the
        subtasks"), which scales every ``D_PS`` entry uniformly.
        """
        return ProcessorType(
            self.name,
            self.cost,
            {task: duration * factor for task, duration in self.exec_times.items()},
            memory_capacity=self.memory_capacity,
        )

    def __hash__(self) -> int:
        return hash(
            (self.name, self.cost, self.memory_capacity,
             tuple(sorted(self.exec_times.items())))
        )


def instance_suffix(ordinal: int) -> str:
    """The paper's instance suffix: 0 -> ``a``, 1 -> ``b``, ..., 26 -> ``aa``."""
    if ordinal < 0:
        raise SystemModelError("instance ordinal must be nonnegative")
    letters = string.ascii_lowercase
    suffix = ""
    ordinal += 1  # bijective base-26
    while ordinal:
        ordinal, remainder = divmod(ordinal - 1, 26)
        suffix = letters[remainder] + suffix
    return suffix


@dataclass(frozen=True)
class ProcessorInstance:
    """One purchasable copy of a processor type.

    Attributes:
        ptype: The processor type.
        ordinal: 0-based copy number within the type.
    """

    ptype: ProcessorType
    ordinal: int

    @cached_property
    def name(self) -> str:
        """Paper-style instance name, e.g. ``p1a`` or ``p1b``."""
        return f"{self.ptype.name}{instance_suffix(self.ordinal)}"

    @property
    def cost(self) -> float:
        return self.ptype.cost

    def can_execute(self, task: str) -> bool:
        """True when this instance's type can execute ``task``."""
        return self.ptype.can_execute(task)

    def execution_time(self, task: str) -> float:
        """``D_PS`` of this instance's type for ``task``."""
        return self.ptype.execution_time(task)

    def __repr__(self) -> str:
        return f"ProcessorInstance({self.name})"

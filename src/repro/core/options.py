"""Options controlling the SOS formulation."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import ModelError
from repro.system.interconnect import InterconnectStyle


class Objective(enum.Enum):
    """What the MILP optimizes (§3.3.2 offers both)."""

    #: Minimize completion time ``T_F`` (optionally under a cost cap) —
    #: the mode used for every experiment in §4.
    MIN_MAKESPAN = "min_makespan"
    #: Minimize total system cost (optionally under a deadline).
    MIN_COST = "min_cost"
    #: Minimize ``T_F + cost_weight * cost`` — a scalarized tradeoff.  The
    #: optimum is always *some* non-inferior design; sweeping
    #: ``cost_weight`` walks the convex hull of the Pareto front.
    WEIGHTED = "weighted"


@dataclass(frozen=True)
class FormulationOptions:
    """Knobs of :class:`repro.core.formulation.SosModelBuilder`.

    Attributes:
        style: Interconnect style to synthesize for.
        objective: Optimization goal.
        cost_cap: Designer constraint ``total cost <= cost_cap`` (the knob
            the paper sweeps to enumerate non-inferior designs).
        deadline: Designer constraint ``T_F <= deadline``.
        horizon: Override for the big-M constant ``T_M``; computed tightly
            from the instance when ``None``.
        prune_ordered_pairs: The default optimum-preserving accelerations:
            skip exclusion constraints between events whose order is
            already implied by precedence (dramatically shrinks the model),
            and add one processor-load row ``T_F >= sum D * sigma`` per
            pool instance (tightens the relaxation).  Neither changes the
            optimum.  Disable to reproduce the paper's raw constraint
            structure.
        symmetry_breaking: Add lexicographic ordering between identical
            processor instances (never changes the optimal cost/performance,
            only which of several symmetric optima is returned).
        io_overlap: §3.2's assumption that processors have I/O modules so
            computation overlaps communication.  ``False`` builds the §5
            variant where a processor is busy during its own transfers.
        memory_model: Enable the §5 local-memory sizing extension (adds
            per-processor memory capacity variables and costs).
        memory_cost_per_unit: Cost of one unit of local memory (only with
            ``memory_model``).
        cost_weight: Weight on cost in the ``WEIGHTED`` objective
            (time units per cost unit).
    """

    style: InterconnectStyle = InterconnectStyle.POINT_TO_POINT
    objective: Objective = Objective.MIN_MAKESPAN
    cost_cap: Optional[float] = None
    deadline: Optional[float] = None
    horizon: Optional[float] = None
    prune_ordered_pairs: bool = True
    symmetry_breaking: bool = True
    io_overlap: bool = True
    memory_model: bool = False
    memory_cost_per_unit: float = 0.0
    cost_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.cost_weight < 0:
            raise ModelError("cost_weight must be nonnegative")
        if self.cost_cap is not None and self.cost_cap < 0:
            raise ModelError("cost_cap must be nonnegative")
        if self.deadline is not None and self.deadline < 0:
            raise ModelError("deadline must be nonnegative")
        if self.horizon is not None and self.horizon <= 0:
            raise ModelError("horizon must be positive")
        if self.memory_cost_per_unit < 0:
            raise ModelError("memory_cost_per_unit must be nonnegative")

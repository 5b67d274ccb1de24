"""Heuristic incumbent seeding for the SOS MILP.

Branch and bound cannot prune anything until it holds an incumbent; on the
SOS models the first integral solution otherwise comes from rounding dives
deep in the tree.  This module turns a list-scheduling baseline
(:mod:`repro.baselines.list_scheduler`) into a *complete* variable
assignment of the MILP — every binary and every timing variable by name —
suitable for :attr:`~repro.solvers.base.SolverOptions.incumbent`, so the
search starts with a feasible upper bound at node 0.

Construction:

1. Run ETF (or HLFET) list scheduling over the model's candidate pool.
2. Canonicalize the instance assignment so identical copies of a type are
   used in the model's symmetry-breaking order (any assignment permutes
   into this form, so no quality is lost).
3. Read the binaries straight off the mapping and the schedule: σ/β from
   the mapping, δ/γ from co-location per arc, χ from the remote routes,
   α from the execution order, φ from the transfer order.
4. Freeze the binaries and left-shift the timing variables with the same
   LP the schedule polish uses (:func:`repro.core.polish._solve_polish_lp`).

Every step is deterministic.  Any inconsistency — a route the style
forbids, a designer cap the heuristic schedule violates — surfaces as an
infeasible polish LP and the function returns ``None``; Bozo's own check
of :attr:`~repro.solvers.base.SolverOptions.incumbent` is a second,
independent gate, so a bad seed can never change the optimum, only the
amount of tree explored.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.baselines.list_scheduler import etf_schedule, hlfet_schedule
from repro.core.formulation import SosModel
from repro.core.polish import _solve_polish_lp
from repro.core.variables import ArcKey, arc_key
from repro.errors import ScheduleError, SolverError, SynthesisError
from repro.schedule.schedule import Schedule

_SCHEDULERS = {"etf": etf_schedule, "hlfet": hlfet_schedule}


def heuristic_incumbent(
    built: SosModel, scheduler: str = "best"
) -> Optional[Dict[str, float]]:
    """A complete, feasible MILP assignment from a list-scheduling run.

    Args:
        built: The SOS model to seed.
        scheduler: ``"etf"``, ``"hlfet"``, or ``"best"`` (default), which
            builds a seed from every scheduler and keeps the one with the
            lowest model objective — the two heuristics beat each other on
            different graph shapes, and a tighter seed prunes more tree.

    Returns:
        A mapping of every variable name to its value, or ``None`` when no
        consistent assignment could be constructed (the heuristic used a
        forbidden route, a designer constraint rejects the schedule, ...).
    """
    if scheduler == "best":
        best: Optional[Dict[str, float]] = None
        best_objective = np.inf
        for name in sorted(_SCHEDULERS):
            candidate = heuristic_incumbent(built, scheduler=name)
            if candidate is None:
                continue
            objective = built.model.objective_value(
                {var: candidate[var.name] for var in built.model.variables}
            )
            if objective < best_objective:
                best, best_objective = candidate, objective
        return best
    try:
        schedule_fn = _SCHEDULERS[scheduler]
    except KeyError:
        raise ValueError(
            f"unknown seeding scheduler {scheduler!r}; "
            f"expected one of {sorted(_SCHEDULERS)} or 'best'"
        ) from None
    try:
        mapping, schedule = schedule_fn(
            built.graph, built.library, built.pool, built.options.style
        )
    except (SynthesisError, ScheduleError):
        return None
    canonical = _canonical_mapping(built, mapping)
    if canonical is None:
        return None
    values = _binary_assignment(built, canonical, schedule)
    if values is None:
        return None
    return _left_shift_timings(built, values)


def _canonical_mapping(
    built: SosModel, mapping: Dict[str, str]
) -> Optional[Dict[str, str]]:
    """Permute identical instances into the symmetry-breaking order.

    The model's symmetry-breaking rows require copy ``k`` of a type to host
    a strictly later first subtask than copy ``k-1``.  Sorting the used
    copies of each type by the position of their earliest hosted subtask
    and relabeling onto the type's ordinal order satisfies that for every
    hosted subtask at once.
    """
    order_index = {name: i for i, name in enumerate(built.graph.subtask_names)}
    name_to_inst = {inst.name: inst for inst in built.pool}
    by_type: Dict[str, List[str]] = {}
    for inst in built.pool:
        by_type.setdefault(inst.ptype.name, []).append(inst.name)
    first_task: Dict[str, int] = {}
    for task, inst_name in mapping.items():
        inst = name_to_inst.get(inst_name)
        if inst is None:
            return None  # scheduler placed a task outside the candidate pool
        position = order_index[task]
        first_task[inst_name] = min(first_task.get(inst_name, position), position)
    rename: Dict[str, str] = {}
    for type_name, copies in by_type.items():
        used = sorted(
            (name for name in copies if name in first_task),
            key=lambda name: first_task[name],
        )
        for ordinal, old_name in enumerate(used):
            rename[old_name] = copies[ordinal]
    return {task: rename[inst_name] for task, inst_name in mapping.items()}


def _binary_assignment(
    built: SosModel, mapping: Dict[str, str], schedule: Schedule
) -> Optional[Dict[str, float]]:
    """Assign every binary variable from the mapping and the event times."""
    v = built.variables
    values: Dict[str, float] = {}
    producer_of: Dict[ArcKey, str] = {}
    for arc in built.graph.arcs:
        producer_of[arc_key(arc.consumer, arc.dest.index)] = arc.producer

    used = set(mapping.values())
    for (proc, task), var in v.sigma.items():
        if mapping.get(task) is None:
            return None  # the heuristic left a subtask unplaced
        values[var.name] = 1.0 if mapping[task] == proc else 0.0
    for proc, var in v.beta.items():
        values[var.name] = 1.0 if proc in used else 0.0

    for (proc, key), var in v.delta.items():
        co_located = (
            mapping[producer_of[key]] == proc and mapping[key[0]] == proc
        )
        values[var.name] = 1.0 if co_located else 0.0
    for key, var in v.gamma.items():
        remote = mapping[producer_of[key]] != mapping[key[0]]
        values[var.name] = 1.0 if remote else 0.0

    routes = {
        (mapping[arc.producer], mapping[arc.consumer])
        for arc in built.graph.arcs
        if mapping[arc.producer] != mapping[arc.consumer]
    }
    for pair, var in v.chi.items():
        values[var.name] = 1.0 if pair in routes else 0.0

    # α orders executions, φ orders transfers.  The order only *binds* when
    # the σ (resp. γ) pattern shares a resource, and in that case the
    # heuristic schedule serialized the events — so reading the order off
    # the event times is always consistent with the binaries above.
    try:
        for (a1, a2), var in v.alpha.items():
            e1 = schedule.execution_of(a1)
            e2 = schedule.execution_of(a2)
            values[var.name] = 1.0 if e1.end <= e2.start else 0.0
        for (key1, key2), var in v.phi.items():
            t1 = schedule.transfer_into(*key1)
            t2 = schedule.transfer_into(*key2)
            values[var.name] = 1.0 if t1.end <= t2.start else 0.0
    except ScheduleError:
        return None
    return values


def _left_shift_timings(
    built: SosModel, values: Dict[str, float]
) -> Optional[Dict[str, float]]:
    """Freeze the binaries and fill the timing variables by left-shift LP."""
    form = built.model.to_matrices()
    variables = form.variables
    lb = form.lb.copy()
    ub = form.ub.copy()
    c = np.zeros(len(variables))
    for j, var in enumerate(variables):
        if var.is_integral:
            fixed = values.get(var.name)
            if fixed is None:
                return None  # a binary escaped the catalogs above
            lb[j] = fixed
            ub[j] = fixed
        else:
            c[j] = 1.0
    try:
        x = _solve_polish_lp(c, form, lb, ub)
    except SolverError:
        return None  # the chosen binaries admit no feasible timing
    for j, var in enumerate(variables):
        if not var.is_integral:
            values[var.name] = float(x[j])
    return values

"""Solution, status, and solver-telemetry objects shared by every backend."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.milp.expr import INTEGRALITY_TOLERANCE, Var


def root_gap_closed(bound_before: float, bound_after: float) -> float:
    """Relative root-bound improvement from a cut loop.

    The one formula shared by the solver (when it fills
    ``SolveStats.root_gap_closed``) and trace replay (when it re-derives
    the field from ``cut_round`` events) — keeping it in one place is what
    makes the replay bit-exact.
    """
    import math

    if not (math.isfinite(bound_before) and math.isfinite(bound_after)):
        return 0.0
    return (bound_after - bound_before) / max(1.0, abs(bound_before))


class SolveStatus(enum.Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    #: A feasible incumbent exists but optimality was not proven (time limit).
    FEASIBLE = "feasible"
    #: No conclusion (time limit before any incumbent, numerical failure, ...).
    UNKNOWN = "unknown"

    @property
    def has_solution(self) -> bool:
        """True when variable values are available."""
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


@dataclass
class SolveStats:
    """Telemetry of one (or several merged) solver runs.

    Backends populate what they can observe; counters they cannot measure
    stay zero.  Instances add together with :meth:`merge`, so callers like
    the synthesizer can accumulate telemetry across a whole Pareto sweep.

    Attributes:
        nodes: Branch-and-bound nodes processed.
        lp_solves: LP relaxations solved (nodes + dives + root).
        lp_pivots: Total simplex pivots across every LP solve.
        warm_starts: LP solves attempted from an inherited basis.
        warm_start_hits: Warm-started solves that finished on the revised
            path.  Every warm start does since 2.7.0, which removed the
            dense fallback, so this equals ``warm_starts``.
        fallbacks: Always 0 since 2.7.0: bozo no longer re-solves any LP
            with the dense tableau.  The field stays because result
            objects only gain fields; renamed or removed in 3.0.0.
        workers: Always 0.  This and the next four counters described
            parallel branch and bound, which was removed in 2.3.0; they
            stay because result objects only gain fields, and documents
            written by older versions still load them.
        workers_requested: Always 0 (see ``workers``).
        subtrees_dispatched: Always 0 (see ``workers``).
        worker_idle_waits: Always 0 (see ``workers``).
        incumbent_broadcasts: Always 0 (see ``workers``).
        seeded_incumbent: 1 when a caller-supplied incumbent seed was
            validated and adopted before the root node, else 0 (merged
            records sum, so a sweep counts its seeded solves).
        cuts_added: Cutting planes appended to the root LP across every
            separation round (Gomory + cover).
        cut_rounds: Root separation rounds that actually added cuts and
            re-solved the relaxation.
        strong_branch_probes: Budgeted strong-branching LP probes run at
            the root to initialize pseudocosts.
        bound_flips: Revised-simplex nonbasic bound-to-bound moves
            (dual ratio-test flips plus primal full-box steps) that
            avoided a pivot, summed over every LP solve.
        devex_resets: Devex reference-framework resets across every LP
            solve.
        ftran_sparsity: Entering-column FTRAN results whose nonzero count
            stayed at or below half the basis rows — the hypersparse
            regime — summed over every LP solve.
        refactorizations: Basis factorizations rebuilt from scratch
            across every LP solve (cold starts, cadence/fill policy, and
            drift recoveries).
        root_gap_closed: Relative root-bound improvement from the cut
            loop, ``(bound_after - bound_before) / max(1, |bound_before|)``
            over the first and last separation round (see
            :func:`root_gap_closed`); ``0.0`` when no cuts were added.
            Merged records sum, like every other counter.
        phase_seconds: Wall-clock seconds per named phase (``"presolve"``,
            ``"lp"``, ``"search"``, ``"build"``, ...).
    """

    nodes: int = 0
    lp_solves: int = 0
    lp_pivots: int = 0
    warm_starts: int = 0
    warm_start_hits: int = 0
    fallbacks: int = 0
    workers: int = 0
    workers_requested: int = 0
    subtrees_dispatched: int = 0
    worker_idle_waits: int = 0
    incumbent_broadcasts: int = 0
    seeded_incumbent: int = 0
    cuts_added: int = 0
    cut_rounds: int = 0
    strong_branch_probes: int = 0
    bound_flips: int = 0
    devex_resets: int = 0
    ftran_sparsity: int = 0
    refactorizations: int = 0
    root_gap_closed: float = 0.0
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def warm_start_hit_rate(self) -> float:
        """Fraction of warm-start attempts that finished on the revised path."""
        if not self.warm_starts:
            return 0.0
        return self.warm_start_hits / self.warm_starts

    def add_phase(self, name: str, seconds: float) -> None:
        """Accumulate wall-clock time into a named phase."""
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds

    def merge(self, other: "SolveStats") -> "SolveStats":
        """Accumulate another run's counters into this record (returns self)."""
        self.nodes += other.nodes
        self.lp_solves += other.lp_solves
        self.lp_pivots += other.lp_pivots
        self.warm_starts += other.warm_starts
        self.warm_start_hits += other.warm_start_hits
        self.fallbacks += other.fallbacks
        self.workers = max(self.workers, other.workers)
        self.workers_requested = max(self.workers_requested, other.workers_requested)
        self.subtrees_dispatched += other.subtrees_dispatched
        self.worker_idle_waits += other.worker_idle_waits
        self.incumbent_broadcasts += other.incumbent_broadcasts
        self.seeded_incumbent += other.seeded_incumbent
        self.cuts_added += other.cuts_added
        self.cut_rounds += other.cut_rounds
        self.strong_branch_probes += other.strong_branch_probes
        self.bound_flips += other.bound_flips
        self.devex_resets += other.devex_resets
        self.ftran_sparsity += other.ftran_sparsity
        self.refactorizations += other.refactorizations
        self.root_gap_closed += other.root_gap_closed
        for name, seconds in other.phase_seconds.items():
            self.add_phase(name, seconds)
        return self

    def as_dict(self) -> Dict[str, object]:
        """JSON-compatible mapping of every counter (phases under ``phase_seconds``)."""
        return {
            "nodes": self.nodes,
            "lp_solves": self.lp_solves,
            "lp_pivots": self.lp_pivots,
            "warm_starts": self.warm_starts,
            "warm_start_hits": self.warm_start_hits,
            "fallbacks": self.fallbacks,
            "workers": self.workers,
            "workers_requested": self.workers_requested,
            "subtrees_dispatched": self.subtrees_dispatched,
            "worker_idle_waits": self.worker_idle_waits,
            "incumbent_broadcasts": self.incumbent_broadcasts,
            "seeded_incumbent": self.seeded_incumbent,
            "cuts_added": self.cuts_added,
            "cut_rounds": self.cut_rounds,
            "strong_branch_probes": self.strong_branch_probes,
            "bound_flips": self.bound_flips,
            "devex_resets": self.devex_resets,
            "ftran_sparsity": self.ftran_sparsity,
            "refactorizations": self.refactorizations,
            "root_gap_closed": self.root_gap_closed,
            "phase_seconds": dict(self.phase_seconds),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SolveStats":
        """Rebuild a record from :meth:`as_dict` output (inverse round trip).

        Unknown keys are ignored and missing counters default to zero, so
        documents written by older or newer versions both load.
        """
        stats = cls()
        for name in (
            "nodes", "lp_solves", "lp_pivots", "warm_starts",
            "warm_start_hits", "fallbacks", "workers", "workers_requested",
            "subtrees_dispatched", "worker_idle_waits",
            "incumbent_broadcasts", "seeded_incumbent",
            "cuts_added", "cut_rounds", "strong_branch_probes",
            "bound_flips", "devex_resets", "ftran_sparsity",
            "refactorizations",
        ):
            setattr(stats, name, int(data.get(name, 0)))
        stats.root_gap_closed = float(data.get("root_gap_closed", 0.0))
        phases = data.get("phase_seconds") or {}
        stats.phase_seconds = {
            str(name): float(seconds) for name, seconds in phases.items()
        }
        return stats

    def summary(self) -> str:
        """One-line human-readable telemetry summary."""
        parts = [
            f"nodes={self.nodes}",
            f"lp_solves={self.lp_solves}",
            f"pivots={self.lp_pivots}",
        ]
        if self.warm_starts:
            parts.append(
                f"warm-start hit rate {self.warm_start_hit_rate:.0%} "
                f"({self.warm_start_hits}/{self.warm_starts})"
            )
        if self.fallbacks:
            parts.append(f"fallbacks={self.fallbacks}")
        if self.seeded_incumbent:
            parts.append("seeded")
        if self.cuts_added:
            parts.append(
                f"cuts={self.cuts_added} ({self.cut_rounds} rounds, "
                f"gap closed {self.root_gap_closed:.1%})"
            )
        if self.strong_branch_probes:
            parts.append(f"sb_probes={self.strong_branch_probes}")
        for name in sorted(self.phase_seconds):
            parts.append(f"{name}={self.phase_seconds[name]:.3f}s")
        return ", ".join(parts)


@dataclass
class Solution:
    """Result of solving a model.

    Attributes:
        status: Solve outcome.
        objective: Objective value of the returned assignment (``nan`` when
            no assignment is available).
        values: Variable assignment, keyed by :class:`Var`.
        best_bound: Best proven dual bound (equals ``objective`` at optimality).
        iterations: Simplex iterations (LP) or B&B nodes processed (MILP).
        solve_seconds: Wall-clock time spent in the solver.
        solver_name: Which backend produced this solution.
        stats: Solver telemetry (:class:`SolveStats`); ``None`` only for
            solutions constructed outside a backend (e.g. loaded from disk).
    """

    status: SolveStatus
    objective: float = float("nan")
    values: Dict[Var, float] = field(default_factory=dict)
    best_bound: float = float("nan")
    iterations: int = 0
    solve_seconds: float = 0.0
    solver_name: str = ""
    stats: Optional[SolveStats] = None

    def value(self, var: Var) -> float:
        """Value of one variable in this solution."""
        return self.values[var]

    def rounded_value(self, var: Var) -> float:
        """Value with integral variables snapped to the nearest integer.

        Solvers return values like ``0.9999999997`` for binaries; schedule
        extraction uses this accessor so downstream logic sees clean 0/1.
        """
        value = self.values[var]
        if var.is_integral and abs(value - round(value)) <= 1e-4:
            return float(round(value))
        return value

    def is_integral(self, tol: float = INTEGRALITY_TOLERANCE) -> bool:
        """True when every integral variable takes an integer value."""
        return all(
            abs(value - round(value)) <= tol
            for var, value in self.values.items()
            if var.is_integral
        )

    @property
    def gap(self) -> float:
        """Relative optimality gap between incumbent and bound (0 at optimality)."""
        import math

        if math.isnan(self.objective) or math.isnan(self.best_bound):
            return float("inf")
        denom = max(1.0, abs(self.objective))
        return abs(self.objective - self.best_bound) / denom

    def as_name_dict(self) -> Dict[str, float]:
        """Values keyed by variable name (for serialization / debugging)."""
        return {var.name: value for var, value in self.values.items()}


def merge_values(*assignments: Mapping[Var, float]) -> Dict[Var, float]:
    """Merge several partial assignments (later ones win)."""
    merged: Dict[Var, float] = {}
    for assignment in assignments:
        merged.update(assignment)
    return merged

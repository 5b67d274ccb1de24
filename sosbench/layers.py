"""Per-layer metrics: names, units, predictions, and how the traced run fills them.

Each entry names the end-to-end metric and workload the layer should
move, written down before any optimisation is measured against it.  A
layer that does no work on a workload reports ``0`` there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from sosbench.tracing import ROOT_LAYER, SpanRecorder


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str


_FORMULATION = ("op_p50_s/ops_per_s on designs_highs, miss latency on service_v1_mix; "
                "no change on sweep_ex1_bozo")
_REVISED = ("op_p50_s on sweep_ex1_bozo and sweep_ex1_bozo_w2; "
            "no change on designs_highs, service_v1_mix")
_CUTS = "op_p50_s on sweep_ex1_bozo"
_BOZO = "op_p50_s on sweep_ex1_bozo and sweep_ex1_bozo_w2"
_PARALLEL = "op_p50_s and peak_rss_mb on sweep_ex1_bozo_w2 only"
_HIGHS = "op_p50_s/ops_per_s on designs_highs, miss latency on service_v1_mix"
_CERTIFY = "designs_highs op_p50_s and service_v1_mix miss latency (under 1% today)"
_SERVICE = "op_p50_s (hits), ops_per_s and miss latency on service_v1_mix"
_TRACE = "nothing end to end: cost of the traced run's wrappers"

PER_LAYER: tuple = (
    LayerMetric("formulation.build_s", "s", "lower", _FORMULATION),
    LayerMetric("formulation.builds", "count", "lower", _FORMULATION),
    LayerMetric("formulation.vars", "count", "lower", _FORMULATION),
    LayerMetric("formulation.rows", "count", "lower", _FORMULATION),
    LayerMetric("milp.to_matrices_s", "s", "lower", "designs_highs op_p50_s; small on the sweeps"),
    LayerMetric("presolve.self_s", "s", "lower", "op_p50_s on sweep_ex1_bozo (about 2%)"),
    LayerMetric("revised.lp_s", "s", "lower", _REVISED),
    LayerMetric("revised.lp_solves", "count", "lower", _REVISED),
    LayerMetric("revised.pivots", "count", "lower", _REVISED),
    LayerMetric("revised.pivots_per_s", "1/s", "higher", _REVISED),
    LayerMetric("revised.fallbacks", "count", "lower", _REVISED),
    LayerMetric("revised.warm_hit_rate", "ratio", "higher", _REVISED),
    LayerMetric("revised.bound_flips", "count", "higher", _REVISED),
    LayerMetric("revised.refactorizations", "count", "lower", _REVISED),
    LayerMetric("cuts.separate_s", "s", "lower", _CUTS),
    LayerMetric("cuts.added", "count", "lower", _CUTS),
    LayerMetric("cuts.rounds", "count", "lower", _CUTS),
    LayerMetric("cuts.gap_closed_per_cut", "ratio", "higher", _CUTS),
    LayerMetric("bozo.solve_s", "s", "lower", _BOZO),
    LayerMetric("bozo.search_self_s", "s", "lower", _BOZO),
    LayerMetric("bozo.nodes", "count", "lower", _BOZO),
    LayerMetric("bozo.nodes_per_s", "1/s", "higher", _BOZO),
    LayerMetric("parallel.solve_s", "s", "lower", _PARALLEL),
    LayerMetric("parallel.self_s", "s", "lower", _PARALLEL),
    LayerMetric("parallel.subtrees_dispatched", "count", "lower", _PARALLEL),
    LayerMetric("parallel.incumbent_broadcasts", "count", "lower", _PARALLEL),
    LayerMetric("parallel.worker_idle_waits", "count", "lower", _PARALLEL),
    LayerMetric("highs.solve_s", "s", "lower", _HIGHS),
    LayerMetric("highs.solves", "count", "lower", _HIGHS),
    LayerMetric("polish.left_shift_s", "s", "lower", "op_p50_s on designs_highs (about 5%)"),
    LayerMetric("extraction.extract_s", "s", "lower", _CERTIFY),
    LayerMetric("validate.violations_s", "s", "lower", _CERTIFY),
    LayerMetric("synthesis.self_s", "s", "lower",
                "the synthesis code around the layers, on every workload"),
    LayerMetric("service.hit_p50_s", "s", "lower", _SERVICE),
    LayerMetric("service.miss_p50_s", "s", "lower", _SERVICE),
    LayerMetric("service.overhead_p50_s", "s", "lower", _SERVICE),
    LayerMetric("service.queue_wait_p50_s", "s", "lower", _SERVICE),
    LayerMetric("service.run_p50_s", "s", "lower", _SERVICE),
    LayerMetric("service.cache_hit_rate", "ratio", "higher", _SERVICE),
    LayerMetric("service.solves", "count", "lower", _SERVICE),
    LayerMetric("service.cache_hits", "count", "higher", _SERVICE),
    LayerMetric("service.dedup_hits", "count", "higher", _SERVICE),
    LayerMetric("service.batches", "count", "higher", _SERVICE),
    LayerMetric("service.inline_fallbacks", "count", "lower", _SERVICE),
    LayerMetric("service.http_429", "count", "lower", _SERVICE),
    LayerMetric("trace.overhead_ratio", "ratio", "lower", _TRACE),
    LayerMetric("trace.op_wall_s", "s", "lower", _TRACE),
    LayerMetric("trace.unaccounted_share", "ratio", "lower", _TRACE),
)

UNITS: Dict[str, str] = {metric.name: metric.unit for metric in PER_LAYER}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class LayerTotals:
    """Counters drained from a recorder after each traced op.

    Draining between ops keeps the traced run from holding every built
    model; sizes and ``SolveStats`` are read outside the timed op.
    """

    def __init__(self) -> None:
        from repro.milp.solution import SolveStats

        self.stats = SolveStats()
        self.builds = 0
        self.vars = 0
        self.rows = 0

    def drain(self, recorder: SpanRecorder) -> None:
        for solution in recorder.results.pop("bozo", []):
            if solution.stats is not None:
                self.stats.merge(solution.stats)
        for built in recorder.results.pop("formulation", []):
            size = built.model.stats()
            self.builds += 1
            self.vars += size.num_variables
            self.rows += size.num_constraints


def solver_layers(recorder: SpanRecorder, totals: LayerTotals, ops: int) -> Dict[str, float]:
    """Per-op layer values of the in-process workloads.

    Times and counts are totals over the traced ops divided by ``ops``;
    rates are ratios of totals.  Counters come from the ``SolveStats``
    of every outermost ``BozoSolver.solve`` result.
    """
    self_s, inclusive, calls = recorder.self_s, recorder.inclusive_s, recorder.calls
    stats = totals.stats
    lp_phase = stats.phase_seconds.get("lp", 0.0)
    per_op = {
        "formulation.build_s": self_s["formulation"],
        "formulation.builds": calls["formulation"],
        "milp.to_matrices_s": self_s["milp"],
        "presolve.self_s": self_s["presolve"],
        "revised.lp_s": self_s["revised"],
        "revised.lp_solves": stats.lp_solves,
        "revised.pivots": stats.lp_pivots,
        "revised.fallbacks": stats.fallbacks,
        "revised.bound_flips": stats.bound_flips,
        "revised.refactorizations": stats.refactorizations,
        "cuts.separate_s": self_s["cuts"],
        "cuts.added": stats.cuts_added,
        "cuts.rounds": stats.cut_rounds,
        "bozo.solve_s": inclusive["bozo"],
        "bozo.search_self_s": self_s["bozo"],
        "bozo.nodes": stats.nodes,
        "parallel.solve_s": inclusive["parallel"],
        "parallel.self_s": self_s["parallel"],
        "parallel.subtrees_dispatched": stats.subtrees_dispatched,
        "parallel.incumbent_broadcasts": stats.incumbent_broadcasts,
        "parallel.worker_idle_waits": stats.worker_idle_waits,
        "highs.solve_s": self_s["highs"],
        "highs.solves": calls["highs"],
        "polish.left_shift_s": self_s["polish"],
        "extraction.extract_s": self_s["extraction"],
        "validate.violations_s": self_s["validate"],
        "synthesis.self_s": self_s[ROOT_LAYER],
    }
    values = {name: total / max(ops, 1) for name, total in per_op.items()}
    values.update({
        "formulation.vars": _ratio(totals.vars, totals.builds),
        "formulation.rows": _ratio(totals.rows, totals.builds),
        "revised.pivots_per_s": _ratio(stats.lp_pivots, lp_phase),
        "revised.warm_hit_rate": stats.warm_start_hit_rate,
        "cuts.gap_closed_per_cut": _ratio(stats.root_gap_closed, stats.cuts_added),
        "bozo.nodes_per_s": _ratio(stats.nodes, inclusive["bozo"]),
    })
    return values


def complete(values: Dict[str, float], names: Iterable[str] = UNITS) -> List[tuple]:
    """``(name, value, unit)`` for every per-layer metric, zero-filled."""
    return [(name, float(values.get(name, 0.0)), UNITS[name]) for name in names]

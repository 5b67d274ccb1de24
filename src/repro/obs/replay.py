"""Replay a trace into :class:`~repro.milp.solution.SolveStats`.

The cross-check behind the observability layer: every counter a solver
reports must be *derivable* from its event stream.  :func:`replay_stats`
re-derives a :class:`SolveStats` from a trace using only the events —
nodes from ``node_opened``, pivots and LP timings from ``lp_solved``,
non-LP phase timings from ``phase`` events — and reproduces the solver's
own accumulation order (events in stream order, solver runs merged in
call order), so the result matches the returned telemetry **exactly**,
floating-point phase timings included.

The one deliberate exception: backends that expose no per-node stream
(HiGHS) emit only coarse begin/end events, so a run with no ``node_opened``
and no ``lp_solved`` events takes ``nodes``/``lp_solves`` from its
``solve_done`` summary instead.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Union

from repro.milp.solution import SolveStats, root_gap_closed
from repro.obs.events import TraceEvent, event_from_dict


def read_trace(source: Union[str, Path, Iterable[str]]) -> List[TraceEvent]:
    """Load events from a JSONL file path (or an iterable of JSON lines)."""
    if isinstance(source, (str, Path)):
        lines: Iterable[str] = Path(source).read_text(encoding="utf-8").splitlines()
    else:
        lines = source
    events = []
    for line in lines:
        line = line.strip()
        if line:
            events.append(event_from_dict(json.loads(line)))
    return events


def split_runs(events: Iterable[TraceEvent]) -> List[List[TraceEvent]]:
    """Split a trace into per-solve runs at ``solve_started`` boundaries.

    Events before the first ``solve_started`` (e.g. ``sweep_step`` markers
    between solves of a Pareto sweep) are dropped: they belong to the
    orchestration layer, not to any single solver run.
    """
    runs: List[List[TraceEvent]] = []
    current: List[TraceEvent] = []
    in_run = False
    for event in events:
        if event.type == "solve_started":
            if current:
                runs.append(current)
            current = [event]
            in_run = True
        elif event.type == "sweep_step":
            continue  # orchestration marker, not part of a solver run
        elif in_run:
            current.append(event)
            if event.type == "solve_done":
                runs.append(current)
                current = []
                in_run = False
    if current:
        runs.append(current)
    return runs


def _replay_run(run: List[TraceEvent]) -> SolveStats:
    """Replay one solver run (``solve_started`` .. ``solve_done``)."""
    stats = SolveStats()
    first_cut_bound = None
    last_cut_bound = None
    for event in run:
        if event.type == "node_opened":
            stats.nodes += 1
        elif event.type == "lp_solved":
            stats.lp_solves += 1
            stats.lp_pivots += int(event.data["pivots"])
            if event.data["warm"]:
                stats.warm_starts += 1
                if not event.data["fallback"]:
                    stats.warm_start_hits += 1
            if event.data["fallback"]:
                stats.fallbacks += 1
            # Kernel counters ride as optional extras (absent where a
            # pre-2.7.0 trace records a dense-oracle answer).
            stats.bound_flips += int(event.data.get("bound_flips", 0))
            stats.devex_resets += int(event.data.get("devex_resets", 0))
            stats.ftran_sparsity += int(event.data.get("ftran_sparsity", 0))
            stats.refactorizations += int(event.data.get("refactorizations", 0))
            stats.add_phase("lp", float(event.data["seconds"]))
        elif event.type == "phase":
            stats.add_phase(str(event.data["name"]), float(event.data["seconds"]))
        elif event.type == "incumbent_found":
            if event.data.get("source") == "seed":
                stats.seeded_incumbent += 1
        elif event.type == "cut_round":
            stats.cut_rounds += 1
            stats.cuts_added += int(event.data["added"])
            if first_cut_bound is None:
                first_cut_bound = float(event.data["bound_before"])
            last_cut_bound = float(event.data["bound_after"])
        elif event.type == "strong_branch":
            stats.strong_branch_probes += int(event.data["probes"])
    if first_cut_bound is not None:
        # Same shared formula the solver uses, so the float matches exactly.
        stats.root_gap_closed = root_gap_closed(first_cut_bound, last_cut_bound)
    done = next((e for e in reversed(run) if e.type == "solve_done"), None)
    if done is not None:
        if stats.nodes == 0 and stats.lp_solves == 0:
            # Coarse backend (HiGHS): no per-node stream; trust the summary.
            stats.nodes = int(done.data.get("nodes", 0))
            stats.lp_solves = int(done.data.get("lp_solves", stats.nodes))
    return stats


def replay_stats(events: Iterable[TraceEvent]) -> SolveStats:
    """Derive the aggregate :class:`SolveStats` a trace's solves reported.

    A single-solve trace replays to that solve's exact telemetry, and a
    ``synthesize`` call's trace (primary + secondary solve) replays to its
    merged stats exactly — the stream-order fold here is the same fold the
    synthesizer performs.  Sweep-level aggregates over many ``synthesize``
    calls match on every integer counter but can differ from the sweep's
    own nested fold in the last bits of the floating-point phase timings
    (the sweep folds per-call pairs before summing).
    """
    total = SolveStats()
    for run in split_runs(list(events)):
        total.merge(_replay_run(run))
    return total

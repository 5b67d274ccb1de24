"""Human-readable trace summaries (the ``sos trace`` report).

:func:`render_trace_summary` turns a list of :class:`TraceEvent` into a
plain-text report with three sections:

* a **bound-convergence timeline** — one row per milestone event
  (``solve_started``, ``incumbent_found``, ``sweep_step``,
  ``solve_done``) annotated with the best dual bound
  tracked from the ``node_opened`` stream;
* a **per-phase profile** — seconds per named phase, LP time included;
* a **per-worker profile** — events, nodes, LP solves, and LP seconds
  per worker id.

Everything is stdlib string formatting: the report must render in any
environment that can read the JSONL file.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List

from repro.obs.events import TraceEvent

#: Event types that get their own timeline row.
_TIMELINE_TYPES = frozenset(
    {
        "solve_started",
        "incumbent_found",
        "sweep_step",
        "solve_done",
    }
)


def _fmt(value: object) -> str:
    """Render a payload value compactly (6 significant digits for floats)."""
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return str(value)
        return f"{value:.6g}"
    return str(value)


def _timeline_detail(event: TraceEvent) -> str:
    """The per-type annotation shown on a timeline row."""
    data = event.data
    if event.type == "solve_started":
        return f"solver={data.get('solver', '?')}"
    if event.type == "incumbent_found":
        return (
            f"objective={_fmt(data.get('objective'))} "
            f"node={data.get('node')} source={data.get('source')}"
        )
    if event.type == "sweep_step":
        return (
            f"index={data.get('index')} kind={data.get('kind')} "
            f"feasible={data.get('feasible')}"
        )
    if event.type == "solve_done":
        return (
            f"status={data.get('status')} objective={_fmt(data.get('objective'))} "
            f"nodes={data.get('nodes')} seconds={_fmt(data.get('seconds'))}"
        )
    return ""


def render_trace_summary(events: Iterable[TraceEvent]) -> str:
    """Render a trace as a timeline + phase profile + worker profile.

    Args:
        events: Trace events (e.g. from :func:`repro.obs.replay.read_trace`).

    Returns:
        A multi-line plain-text report; ``"(empty trace)"`` for no events.
    """
    stream = list(events)
    if not stream:
        return "(empty trace)"

    t0 = min(event.t for event in stream)
    span = max(event.t for event in stream) - t0
    solves = sum(1 for e in stream if e.type == "solve_started")
    workers = sorted({event.worker for event in stream})

    lines: List[str] = [
        f"trace: {len(stream)} events over {span:.3f}s, "
        f"{solves} solve(s), {len(workers)} worker id(s)",
        "",
        "bound-convergence timeline",
        f"  {'t(s)':>9}  {'w':>2}  {'event':<19} detail",
    ]

    best_bound = -math.inf
    for event in stream:
        if event.type == "node_opened":
            bound = event.data.get("bound")
            if isinstance(bound, (int, float)) and bound > best_bound:
                best_bound = float(bound)
            continue
        if event.type not in _TIMELINE_TYPES:
            continue
        bound_note = "" if math.isinf(best_bound) else f"  [bound={_fmt(best_bound)}]"
        lines.append(
            f"  {event.t - t0:9.3f}  {event.worker:>2}  "
            f"{event.type:<19} {_timeline_detail(event)}{bound_note}"
        )

    phase_totals: Dict[str, float] = {}
    per_worker: Dict[int, Dict[str, float]] = {
        worker: {"events": 0, "nodes": 0, "lp_solves": 0, "lp_seconds": 0.0}
        for worker in workers
    }
    for event in stream:
        row = per_worker[event.worker]
        row["events"] += 1
        if event.type == "node_opened":
            row["nodes"] += 1
        elif event.type == "lp_solved":
            row["lp_solves"] += 1
            seconds = float(event.data.get("seconds", 0.0))
            row["lp_seconds"] += seconds
            phase_totals["lp"] = phase_totals.get("lp", 0.0) + seconds
        elif event.type == "phase":
            name = str(event.data.get("name", "?"))
            phase_totals[name] = phase_totals.get(name, 0.0) + float(
                event.data.get("seconds", 0.0)
            )

    lines += ["", "per-phase profile"]
    if phase_totals:
        total = sum(phase_totals.values())
        for name in sorted(phase_totals, key=phase_totals.get, reverse=True):
            seconds = phase_totals[name]
            share = seconds / total if total else 0.0
            lines.append(f"  {name:<10} {seconds:10.4f}s  {share:6.1%}")
    else:
        lines.append("  (no phase data)")

    lines += [
        "",
        "per-worker profile",
        f"  {'w':>2}  {'events':>7}  {'nodes':>7}  {'lp_solves':>9}  {'lp_seconds':>10}",
    ]
    for worker in workers:
        row = per_worker[worker]
        lines.append(
            f"  {worker:>2}  {int(row['events']):>7}  {int(row['nodes']):>7}  "
            f"{int(row['lp_solves']):>9}  {row['lp_seconds']:>10.4f}"
        )
    return "\n".join(lines)

"""Structured solve tracing and progress reporting (the observability layer).

``repro.obs`` is a zero-dependency (stdlib-only) subsystem that turns a
running solve into a structured, replayable event stream:

* :class:`TraceEvent` — one typed event (``node_opened``, ``lp_solved``,
  ``incumbent_found``, ...) with a monotonic timestamp and a worker id.
* :class:`TraceSink` — the protocol every sink implements; shipped sinks
  are :class:`JsonlTraceSink` (one JSON object per line),
  :class:`MemoryTraceSink` (in-memory ring buffer), and
  :class:`NullTraceSink` (discard everything).
* :class:`Tracer` — the thin emitter solvers hold: stamps events with the
  clock and the worker id before handing them to the sink.
* :class:`ProgressReporter` / :class:`ProgressUpdate` — rate-limited
  ``on_progress`` callbacks carrying nodes/incumbent/bound/gap.
* :func:`replay_stats` — re-derive a :class:`~repro.milp.solution.SolveStats`
  from a trace, field for field, so telemetry can be cross-checked against
  the event stream.
* :func:`render_trace_summary` — the ``sos trace`` report: a
  bound-convergence timeline plus per-phase and per-worker profiles.

Attach a sink through :class:`~repro.solvers.base.SolverOptions`::

    from repro.obs import JsonlTraceSink
    from repro.solvers.base import SolverOptions

    with JsonlTraceSink("solve.jsonl") as sink:
        options = SolverOptions(trace=sink)
        ...

See ``docs/observability.md`` for the full event schema.
"""

from repro.obs.events import (
    ENVELOPE_FIELDS,
    EVENT_SCHEMA,
    TraceEvent,
    check_schema,
    event_from_dict,
)
from repro.obs.progress import ProgressReporter, ProgressUpdate, print_progress
from repro.obs.replay import read_trace, replay_stats, split_runs
from repro.obs.report import render_trace_summary
from repro.obs.sinks import (
    JsonlTraceSink,
    MemoryTraceSink,
    NullTraceSink,
    Tracer,
    TraceSink,
    make_tracer,
)

__all__ = [
    "ENVELOPE_FIELDS",
    "EVENT_SCHEMA",
    "TraceEvent",
    "check_schema",
    "event_from_dict",
    "ProgressReporter",
    "ProgressUpdate",
    "print_progress",
    "read_trace",
    "replay_stats",
    "split_runs",
    "render_trace_summary",
    "JsonlTraceSink",
    "MemoryTraceSink",
    "NullTraceSink",
    "Tracer",
    "TraceSink",
    "make_tracer",
]

"""Typed trace events and their schema.

Every event carries three envelope fields — ``type``, ``t`` (a
``time.monotonic()`` timestamp), and ``worker`` (the emitter's id; every
solver emits ``0``) — plus a per-type payload.
:data:`EVENT_SCHEMA` names the payload keys every event of a type must
carry; emitters may add extra keys (e.g. ``lp_solved`` attaches the
revised-simplex pivot counters when the incremental path answered).

The JSONL wire format flattens the envelope and the payload into one
object per line::

    {"type": "incumbent_found", "t": 12.25, "worker": 2,
     "objective": 41.0, "node": 37, "source": "integral"}

Non-finite floats serialize as JSON's ``Infinity``/``NaN`` extensions
(the Python :mod:`json` default), which :func:`json.loads` round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping

#: Envelope keys shared by every event; payload keys must not shadow them.
ENVELOPE_FIELDS = ("type", "t", "worker")

#: Required payload keys per event type.  Emitters may add extra keys;
#: consumers must tolerate them (the schema is additive across versions).
EVENT_SCHEMA: Dict[str, frozenset] = {
    # A solver run began (one per backend `solve` call).
    "solve_started": frozenset({"solver"}),
    # A branch-and-bound node was popped for processing.
    "node_opened": frozenset({"node", "bound", "depth"}),
    # One LP relaxation finished (tree nodes and dive steps alike).
    "lp_solved": frozenset({"pivots", "status", "warm", "fallback", "seconds"}),
    # A strictly-improving integral incumbent was adopted.
    "incumbent_found": frozenset({"objective", "node", "source"}),
    # One root separation round appended cuts and re-solved the root LP.
    "cut_round": frozenset(
        {"round", "generated", "added", "bound_before", "bound_after"}
    ),
    # Summary after the root cut loop: total cuts now in the LP.
    "cuts_added": frozenset({"count", "rounds", "gomory", "cover"}),
    # Root strong branching probed candidates to initialize pseudocosts.
    "strong_branch": frozenset({"node", "candidates", "probes", "chosen"}),
    # One step of a Pareto sweep finished.  ``kind`` is always "canonical"
    # (both sweeps run the plain §4 loop); the field stays so trace
    # documents keep their schema.
    "sweep_step": frozenset({"index", "kind", "feasible"}),
    # Wall-clock attribution for a named non-LP phase (presolve, search, ...).
    "phase": frozenset({"name", "seconds"}),
    # The solver run ended; carries the summary scalars (``workers`` is
    # always 0 since parallel branch and bound was removed).
    "solve_done": frozenset(
        {"status", "objective", "best_bound", "nodes", "workers", "seconds"}
    ),
    # -- service-layer events (repro.service) -------------------------------
    # A result-cache lookup answered from the store (no solver invoked).
    "cache_hit": frozenset({"key", "kind"}),
    # A result-cache lookup found nothing; a solve will follow.
    "cache_miss": frozenset({"key", "kind"}),
    # A freshly solved result entered the cache.
    "cache_store": frozenset({"key", "kind", "bytes"}),
    # The LRU byte budget pushed an entry out of the in-memory tier.
    "cache_evict": frozenset({"key", "bytes"}),
    # A synthesis job changed state (queued -> running -> done/...).
    "job_status": frozenset({"job", "status", "kind"}),
}


@dataclass(frozen=True)
class TraceEvent:
    """One structured solve event.

    Attributes:
        type: Event type, a key of :data:`EVENT_SCHEMA`.
        t: ``time.monotonic()`` timestamp at emission.
        worker: The emitting :class:`~repro.obs.sinks.Tracer`'s id;
            ``0`` for every solver and the sweep orchestrator.
        data: The per-type payload (see :data:`EVENT_SCHEMA`).
    """

    type: str
    t: float
    worker: int
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Flatten envelope + payload into one JSON-compatible mapping."""
        merged: Dict[str, Any] = {"type": self.type, "t": self.t, "worker": self.worker}
        merged.update(self.data)
        return merged


def event_from_dict(document: Mapping[str, Any]) -> TraceEvent:
    """Rebuild a :class:`TraceEvent` from its flattened JSONL form."""
    payload = {k: v for k, v in document.items() if k not in ENVELOPE_FIELDS}
    return TraceEvent(
        type=str(document["type"]),
        t=float(document["t"]),
        worker=int(document.get("worker", 0)),
        data=payload,
    )


def check_schema(events) -> List[str]:
    """Validate events against :data:`EVENT_SCHEMA`; returns problem strings.

    An empty list means every event has a known type, carries every
    required payload key, and shadows no envelope field.  Extra payload
    keys are allowed by design.
    """
    problems: List[str] = []
    for index, event in enumerate(events):
        required = EVENT_SCHEMA.get(event.type)
        if required is None:
            problems.append(f"event {index}: unknown type {event.type!r}")
            continue
        missing = required - set(event.data)
        if missing:
            problems.append(
                f"event {index} ({event.type}): missing fields {sorted(missing)}"
            )
        shadowed = set(event.data) & set(ENVELOPE_FIELDS)
        if shadowed:
            problems.append(
                f"event {index} ({event.type}): payload shadows envelope "
                f"fields {sorted(shadowed)}"
            )
    return problems

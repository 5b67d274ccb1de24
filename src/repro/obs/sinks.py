"""Trace sinks: where structured solve events go.

A sink is anything with ``emit(event)`` and ``close()``
(:class:`TraceSink`).  Three implementations ship:

* :class:`JsonlTraceSink` — append one JSON object per line to a file;
  the durable, replayable format ``sos trace`` consumes.
* :class:`MemoryTraceSink` — an in-memory ring buffer; what tests
  inspect.
* :class:`NullTraceSink` — discard everything (an always-on instrument
  point with zero retention).

:class:`Tracer` is the emitter half: solvers hold one per solve, and it
stamps the clock and worker id onto every event before the sink sees it.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path
from typing import IO, Any, List, Optional, Protocol, Union, runtime_checkable

from repro.obs.events import TraceEvent


@runtime_checkable
class TraceSink(Protocol):
    """What solvers need from a sink: ``emit`` plus idempotent ``close``."""

    def emit(self, event: TraceEvent) -> None:
        """Record one event.  Must be cheap; called on the solver hot path."""
        ...

    def close(self) -> None:
        """Flush and release resources; safe to call more than once."""
        ...


class NullTraceSink:
    """A sink that discards every event (tracing disabled, shape kept)."""

    def emit(self, event: TraceEvent) -> None:
        """Discard ``event``."""

    def close(self) -> None:
        """No-op."""

    def __enter__(self) -> "NullTraceSink":
        """Context-manager support (symmetric with the real sinks)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """No-op on exit."""
        self.close()


class MemoryTraceSink:
    """An in-memory ring buffer of events.

    Args:
        maxlen: Keep only the newest ``maxlen`` events (``None`` keeps
            everything).  The ring form bounds memory on long solves when
            only the tail matters.
    """

    def __init__(self, maxlen: Optional[int] = None) -> None:
        self._events: deque = deque(maxlen=maxlen)

    @property
    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._events)

    def emit(self, event: TraceEvent) -> None:
        """Append ``event``, evicting the oldest past ``maxlen``."""
        self._events.append(event)

    def close(self) -> None:
        """No-op (the buffer stays readable after close)."""

    def __len__(self) -> int:
        """Number of retained events."""
        return len(self._events)

    def __enter__(self) -> "MemoryTraceSink":
        """Context-manager support."""
        return self

    def __exit__(self, *exc_info) -> None:
        """No-op on exit."""
        self.close()


class JsonlTraceSink:
    """Append events to a JSONL file (one flattened JSON object per line).

    Args:
        target: A path (opened for writing, closed by :meth:`close`) or an
            already-open text file object (left open; the caller owns it).
    """

    def __init__(self, target: Union[str, Path, IO[str]]) -> None:
        if hasattr(target, "write"):
            self._file: IO[str] = target  # type: ignore[assignment]
            self._owns_file = False
        else:
            self._file = open(target, "w", encoding="utf-8")
            self._owns_file = True
        self._closed = False

    def emit(self, event: TraceEvent) -> None:
        """Serialize ``event`` as one JSON line."""
        self._file.write(json.dumps(event.to_dict()) + "\n")

    def close(self) -> None:
        """Flush, and close the file if this sink opened it."""
        if self._closed:
            return
        self._closed = True
        self._file.flush()
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "JsonlTraceSink":
        """Context-manager support: ``with JsonlTraceSink(path) as sink:``."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Close on scope exit."""
        self.close()


class Tracer:
    """Event emitter: stamps clock + worker id onto payloads.

    Solvers hold one ``Tracer`` per solve and call
    :meth:`emit`; a ``None`` tracer (tracing disabled) costs a single
    ``is not None`` check on the hot path.

    Args:
        sink: Destination sink (shared between tracers is fine within one
            process).
        worker: Worker id stamped onto every event.
        clock: Timestamp source; injectable for deterministic tests.
    """

    __slots__ = ("sink", "worker", "_clock")

    def __init__(self, sink, worker: int = 0, clock=time.monotonic) -> None:
        self.sink = sink
        self.worker = worker
        self._clock = clock

    def emit(self, event_type: str, **data: Any) -> None:
        """Emit one event of ``event_type`` with payload ``data``."""
        self.sink.emit(TraceEvent(event_type, self._clock(), self.worker, data))


def make_tracer(sink, worker: int = 0) -> Optional[Tracer]:
    """A :class:`Tracer` over ``sink``, or ``None`` when ``sink`` is ``None``.

    The helper keeps solver call sites to one line: they thread the
    returned value and guard emissions with ``if tracer is not None``.
    """
    if sink is None:
        return None
    return Tracer(sink, worker=worker)

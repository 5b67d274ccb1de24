"""Rate-limited progress reporting for long solves.

:class:`ProgressReporter` wraps a user callback (``SolverOptions.on_progress``)
and enforces the two guarantees solvers need to call it from the hot path:

* **Rate limiting** — at most one report per ``interval`` seconds (plus a
  forced final report at solve end), so a million-node search does not
  spend its time formatting progress lines.
* **Exception isolation** — a callback that raises is disabled after a
  single :class:`RuntimeWarning`; a broken progress bar must never kill
  a multi-hour solve.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class ProgressUpdate:
    """One progress snapshot handed to an ``on_progress`` callback.

    Attributes:
        nodes: Branch-and-bound nodes processed so far.
        incumbent: Best integral objective found (``inf`` when none yet).
        bound: Best proven dual bound (``-inf`` before the root solves).
        gap: Relative incumbent/bound gap (``inf`` without an incumbent).
        elapsed: Seconds since the solve began.
    """

    nodes: int
    incumbent: float
    bound: float
    gap: float
    elapsed: float

    def __str__(self) -> str:
        """Compact single-line rendering (what :func:`print_progress` prints)."""
        incumbent = "-" if math.isinf(self.incumbent) else f"{self.incumbent:.6g}"
        gap = "-" if math.isinf(self.gap) else f"{self.gap:.2%}"
        return (
            f"[{self.elapsed:8.2f}s] nodes={self.nodes} "
            f"incumbent={incumbent} bound={self.bound:.6g} gap={gap}"
        )


class ProgressReporter:
    """Invoke a progress callback at most once per ``interval`` seconds.

    Args:
        callback: The user's ``on_progress`` function; ``None`` makes every
            :meth:`report` a no-op (so solvers can call unconditionally).
        interval: Minimum seconds between callbacks (forced reports exempt).
        clock: Timestamp source; injectable for deterministic tests.
        start: Solve start time; defaults to the clock's value at
            construction and anchors :attr:`ProgressUpdate.elapsed`.
    """

    def __init__(
        self,
        callback: Optional[Callable[[ProgressUpdate], None]],
        interval: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        start: Optional[float] = None,
    ) -> None:
        self._callback = callback
        self._interval = interval
        self._clock = clock
        self._start = clock() if start is None else start
        self._last = -math.inf
        self._disabled = callback is None

    @property
    def enabled(self) -> bool:
        """False when there is no callback or it was disabled after raising."""
        return not self._disabled

    def report(
        self,
        *,
        nodes: int,
        incumbent: float = math.inf,
        bound: float = -math.inf,
        force: bool = False,
    ) -> None:
        """Maybe invoke the callback with a fresh :class:`ProgressUpdate`.

        Args:
            nodes: Nodes processed so far.
            incumbent: Current best integral objective (``inf`` if none).
            bound: Current best dual bound.
            force: Bypass the rate limit (used for the final report).
        """
        if self._disabled:
            return
        now = self._clock()
        if not force and now - self._last < self._interval:
            return
        self._last = now
        if math.isinf(incumbent):
            gap = math.inf
        else:
            gap = abs(incumbent - bound) / max(1.0, abs(incumbent))
        update = ProgressUpdate(
            nodes=nodes,
            incumbent=incumbent,
            bound=bound,
            gap=gap,
            elapsed=now - self._start,
        )
        try:
            self._callback(update)  # type: ignore[misc]
        except Exception as exc:  # noqa: BLE001 - isolation is the contract
            self._disabled = True
            warnings.warn(
                f"on_progress callback raised {exc!r}; progress reporting "
                "disabled for the rest of this solve",
                RuntimeWarning,
                stacklevel=2,
            )


def print_progress(update: ProgressUpdate) -> None:
    """A ready-made ``on_progress`` callback: one line per update on stdout."""
    print(str(update), flush=True)

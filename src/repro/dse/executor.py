"""The study orchestrator: one Pareto sweep per grid point, resumable.

:func:`run_study` walks a :class:`~repro.dse.axes.SpaceSpec` grid and
synthesizes each point's full non-inferior front with the existing
machinery — :meth:`Synthesizer.pareto_sweep
<repro.synthesis.synthesizer.Synthesizer.pareto_sweep>` through the
service-tier :class:`~repro.service.cache.ResultCache` — so a study is
exactly as fast and as cached as the layers under it.

Two mechanisms make thousand-point studies practical:

* **Result cache** — every point's sweep is content-addressed by the
  same fingerprint the job service uses, so re-running a study (or
  sharing a disk cache directory between studies, machines, or the
  HTTP service) answers solved points without building a model.
* **JSONL manifest** — each *completed* point appends one line
  ``{"point_id", "fingerprint", "status", ...}`` to the manifest file,
  flushed immediately.  A study killed mid-grid resumes by replaying
  the manifest: completed points load their fronts straight from the
  cache by fingerprint (no solve, no duplicate work), the interrupted
  point and everything after it solve normally.  Re-running a finished
  study is a pure warm no-op.  Manifest entries are keyed by
  *fingerprint*, so editing the spec invalidates exactly the points
  whose content changed.

Per-point failures that mean "this library variant admits no feasible
system" (an uncoverable subset, an infeasible formulation) are recorded
as infeasible grid points, not study failures.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.dse.axes import GridPoint, SpaceSpec
from repro.dse.surface import FrontierSurface, SurfacePoint
from repro.errors import InfeasibleError, SynthesisError, SystemModelError
from repro.synthesis.synthesizer import Synthesizer
from repro.taskgraph.graph import TaskGraph

#: Manifest lines written by this build (bump on schema change; loaders
#: ignore lines with a different version rather than misreading them).
MANIFEST_VERSION = 1


@dataclass
class StudyResult:
    """What :func:`run_study` returns: the surface plus an honest ledger.

    Attributes:
        surface: The assembled :class:`FrontierSurface`.
        points_total: Grid size.
        replayed: Points answered by manifest replay (front loaded from
            the cache by fingerprint; no synthesizer ran).
        cache_hits: Points whose sweep was answered by the result cache
            (a synthesizer ran, but solved nothing).
        solved: Points that actually swept (cold work).
        infeasible: Points with no feasible system.
        seconds: Wall-clock of the whole study.
        manifest_path: The manifest journaled to, if any.
    """

    surface: FrontierSurface
    points_total: int = 0
    replayed: int = 0
    cache_hits: int = 0
    solved: int = 0
    infeasible: int = 0
    seconds: float = 0.0
    manifest_path: Optional[Path] = None

    @property
    def warm_fraction(self) -> float:
        """Fraction of points answered without solving (replay + cache)."""
        if self.points_total == 0:
            return 0.0
        return (self.replayed + self.cache_hits) / self.points_total

    def summary(self) -> str:
        """One-line human summary (what ``sos dse run`` prints)."""
        return (
            f"{self.points_total} points: {self.solved} solved, "
            f"{self.cache_hits} cache hits, {self.replayed} replayed, "
            f"{self.infeasible} infeasible "
            f"(warm fraction {self.warm_fraction:.0%}, "
            f"{self.seconds:.2f}s)"
        )


@dataclass
class _Manifest:
    """The study journal: append-only JSONL keyed by sweep fingerprint."""

    path: Optional[Path]
    entries: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Optional[Union[str, Path]]) -> "_Manifest":
        """Read completed-point entries; tolerate torn final lines.

        A study killed mid-write leaves at most one truncated line at
        the tail; unparseable or wrong-version lines are skipped, so a
        resume never trusts a record it cannot read.
        """
        if path is None:
            return cls(None)
        path = Path(path)
        entries: Dict[str, Dict[str, object]] = {}
        if path.exists():
            for line in path.read_text().splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue  # torn tail from a mid-write kill
                if (
                    not isinstance(entry, dict)
                    or entry.get("version") != MANIFEST_VERSION
                    or "fingerprint" not in entry
                ):
                    continue
                entries[str(entry["fingerprint"])] = entry
        return cls(path, entries)

    def record(self, entry: Dict[str, object]) -> None:
        """Append one completed point, flushed so a kill cannot lose it."""
        entry = {"version": MANIFEST_VERSION, **entry}
        self.entries[str(entry["fingerprint"])] = entry
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as handle:
            handle.write(json.dumps(entry) + "\n")
            handle.flush()


def run_study(
    graph: TaskGraph,
    spec: SpaceSpec,
    *,
    solver: str = "auto",
    max_designs: int = 64,
    cost_step: float = 1e-4,
    cache: Optional["ResultCache"] = None,
    manifest: Optional[Union[str, Path]] = None,
    validate: bool = True,
    on_point: Optional[Callable[[GridPoint, str], None]] = None,
) -> StudyResult:
    """Sweep every grid point of ``spec`` and assemble the surface.

    Args:
        graph: The application task graph (shared across the grid).
        spec: The technology space to explore.
        solver: Backend name per point (``"auto"``, ``"highs"``,
            ``"bozo"``).
        max_designs: Per-point front-size bound (part of the cache key).
        cost_step: Per-point sweep cap decrement (part of the cache key).
        cache: Optional :class:`~repro.service.cache.ResultCache`.  With
            a disk-tier cache, finished points survive restarts and
            manifest replay needs no solver at all.
        manifest: Optional JSONL journal path.  Existing entries whose
            fingerprints match are replayed instead of re-solved; new
            completions are appended as they land.
        validate: Independently validate every design.
        on_point: Optional callback ``(grid_point, status)`` after each
            point, where status is ``"replayed"``, ``"cache_hit"``,
            ``"solved"``, or ``"infeasible"``.  Exceptions propagate —
            the manifest already holds every completed point, so an
            aborting callback behaves exactly like a mid-study kill.

    Returns:
        A :class:`StudyResult`; per-point fronts are byte-identical to
        standalone ``pareto_sweep`` calls on the same transformed
        library (property-tested).
    """
    started = time.perf_counter()
    journal = _Manifest.load(manifest)
    result = StudyResult(
        surface=FrontierSurface(spec.axis_names(), [], graph_name=graph.name),
        manifest_path=journal.path,
    )
    points: List[SurfacePoint] = []
    for grid_point in spec.points():
        result.points_total += 1
        synth = Synthesizer(
            graph, grid_point.library, style=grid_point.style, solver=solver,
        )
        key = synth.sweep_fingerprint(
            max_designs=max_designs, cost_step=cost_step
        )
        status, front = _resolve_point(
            result, journal, key, synth, graph, grid_point,
            max_designs=max_designs, cost_step=cost_step,
            validate=validate, cache=cache,
        )
        points.append(
            SurfacePoint(
                grid_point.point_id, grid_point.coords, grid_point.library,
                grid_point.style, key, front,
                from_cache=status in ("replayed", "cache_hit"),
            )
        )
        if on_point is not None:
            on_point(grid_point, status)
    result.surface = FrontierSurface(
        spec.axis_names(), points, graph_name=graph.name
    )
    result.seconds = time.perf_counter() - started
    return result


def _resolve_point(
    result: StudyResult,
    journal: _Manifest,
    key: str,
    synth: Synthesizer,
    graph: TaskGraph,
    grid_point: GridPoint,
    *,
    max_designs: int,
    cost_step: float,
    validate: bool,
    cache: Optional["ResultCache"],
):
    """One grid point: manifest replay, cached sweep, or cold solve.

    Returns ``(status, front_or_None)`` and updates the result counters;
    every terminal outcome lands one manifest line.
    """
    entry = journal.entries.get(key)
    if entry is not None:
        if entry.get("status") == "infeasible":
            result.replayed += 1
            result.infeasible += 1
            return "replayed", None
        if cache is not None:
            front = cache.get_front(key, graph, grid_point.library)
            if front is not None:
                result.replayed += 1
                return "replayed", front
        # Entry exists but the front is unrecoverable (no cache, or the
        # entry was evicted from every tier): fall through and re-solve.
    hits_before = cache.hits if cache is not None else 0
    point_started = time.perf_counter()
    try:
        front = synth.pareto_sweep(
            max_designs=max_designs, cost_step=cost_step,
            validate=validate, cache=cache,
        )
    except (InfeasibleError, SynthesisError, SystemModelError):
        result.infeasible += 1
        journal.record({
            "point_id": grid_point.point_id,
            "fingerprint": key,
            "status": "infeasible",
            "coords": dict(grid_point.coords),
            "seconds": round(time.perf_counter() - point_started, 6),
        })
        return "infeasible", None
    was_hit = cache is not None and cache.hits > hits_before
    if was_hit:
        result.cache_hits += 1
    else:
        result.solved += 1
    journal.record({
        "point_id": grid_point.point_id,
        "fingerprint": key,
        "status": "done",
        "coords": dict(grid_point.coords),
        "designs": len(front),
        "min_cost": min(design.cost for design in front),
        "min_makespan": min(design.makespan for design in front),
        "cached": was_hit,
        "seconds": round(time.perf_counter() - point_started, 6),
    })
    return ("cache_hit" if was_hit else "solved"), front

"""Problem catalogue and reference answers shared by every workload.

Every problem a workload can draw is named by a catalogue key and an
interconnect style.  ``reference.json`` stores each one's Pareto front as
(cost, makespan) rows, swept with HiGHS by ``make_reference.py`` and
recorded only when bozo returns the same row at every row's cost cap.
The answer to a capped ``synthesize`` call is then read off the front:
the fastest design whose cost fits the cap.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Generator seeds of the ``layered_random(6, 3)`` instances a seed may
#: draw.  Seed 5 is left out: its fractional-port variant needs about
#: 0.8s per solve, well above the rest, and would make the mix lopsided.
LAYERED_SEEDS: Tuple[int, ...] = (0, 1, 2, 3, 4, 6, 7)

#: Fronts whose costlier rows bozo needs minutes for: only this many of
#: the cheapest rows are cross-checked, and a workload may ask only for
#: those.  (Bozo answers gaussian_elimination(4) at cap 2 in about 2s and
#: at cap 4 in about 35s; at cap 7 it runs past two minutes, as it does on
#: fork_join(4) uncapped and at cap 8.)
CHECKED_ROWS: Dict[str, int] = {"gaussian_elimination4@p2p": 2, "fork_join4@p2p": 2}

#: Relative tolerance when comparing a makespan or cost to the reference.
TOLERANCE = 1e-6

Point = Tuple[float, float]


def layered_key(generator_seed: int, fractional: bool) -> str:
    """Catalogue key of one ``layered_random(6, 3)`` instance."""
    return f"layered6x3_s{generator_seed}" + ("_frac" if fractional else "")


def catalogue_keys() -> List[str]:
    """Every catalogue key, in a fixed order."""
    keys = ["example1", "fft_butterfly4", "gaussian_elimination4",
            "fork_join3", "fork_join4"]
    for seed in LAYERED_SEEDS:
        keys += [layered_key(seed, False), layered_key(seed, True)]
    return keys


def reference_entries() -> List[Tuple[str, str]]:
    """The (key, style) pairs whose fronts ``reference.json`` records."""
    entries = [("example1", style) for style in ("p2p", "bus", "ring")]
    return entries + [(key, "p2p") for key in catalogue_keys()[1:]]


@lru_cache(maxsize=None)
def build_problem(key: str):
    """``(graph, library)`` for a catalogue key (built once per process)."""
    from repro.system.examples import example1_library
    from repro.system.generators import random_library, speed_graded_library
    from repro.taskgraph.examples import example1
    from repro.taskgraph.generators import fork_join, layered_random
    from repro.taskgraph.suites import fft_butterfly, gaussian_elimination

    if key == "example1":
        return example1(), example1_library()
    shaped = {
        "fft_butterfly4": lambda: fft_butterfly(4),
        "gaussian_elimination4": lambda: gaussian_elimination(4),
        "fork_join3": lambda: fork_join(3),
        "fork_join4": lambda: fork_join(4),
    }
    if key in shaped:
        graph = shaped[key]()
        return graph, speed_graded_library(graph)
    for seed in LAYERED_SEEDS:
        for fractional in (False, True):
            if key == layered_key(seed, fractional):
                graph = layered_random(6, 3, seed=seed, fractional_ports=fractional)
                return graph, random_library(graph, seed=seed)
    raise KeyError(f"unknown catalogue key {key!r}")


@lru_cache(maxsize=None)
def problem_document(key: str):
    """The ``/v1`` ``problem`` field: a builtin name or an inline document."""
    if key == "example1":
        return "example1"
    from repro.taskgraph.serialization import graph_to_dict

    graph, library = build_problem(key)
    return {"graph": graph_to_dict(graph), "library": library.to_dict()}


def style_of(name: str):
    """The :class:`InterconnectStyle` for a ``/v1`` style name."""
    from repro.system.interconnect import InterconnectStyle

    return {"p2p": InterconnectStyle.POINT_TO_POINT, "bus": InterconnectStyle.BUS,
            "ring": InterconnectStyle.RING}[name]


def load_reference(path: Path = REFERENCE_PATH) -> Dict:
    """The parsed reference document (fronts plus recorded counts)."""
    with open(path) as handle:
        return json.load(handle)


def front_of(reference: Dict, key: str, style: str) -> List[Point]:
    """The reference Pareto front of ``key`` under ``style``, fastest first."""
    return [tuple(row) for row in reference["fronts"][f"{key}@{style}"]]


def expected_point(front: Sequence[Point], cap: Optional[float],
                   checked: Optional[int] = None) -> Point:
    """The (cost, makespan) a min-makespan solve under ``cap`` must return.

    Front costs fall as makespans rise, so the answer is the first
    (fastest) row whose cost fits the cap.  ``checked`` limits the answer
    to that many of the cheapest rows (see :data:`CHECKED_ROWS`).
    """
    for index, (cost, makespan) in enumerate(front):
        if cap is None or cost <= cap + TOLERANCE:
            if checked is not None and index < len(front) - checked:
                raise ValueError(f"cap {cap} asks for a row bozo did not check")
            return cost, makespan
    raise ValueError(f"cap {cap} is below the cheapest design")


def reference_point(reference: Dict, key: str, style: str, cap: Optional[float]) -> Point:
    """The cross-checked answer for ``key`` under ``style`` and ``cap``."""
    return expected_point(front_of(reference, key, style), cap,
                          CHECKED_ROWS.get(f"{key}@{style}"))


def same_point(got: Point, want: Point) -> bool:
    """True when two (cost, makespan) points agree within tolerance."""
    return all(abs(a - b) <= TOLERANCE * max(1.0, abs(b)) for a, b in zip(got, want))

"""Property: per-point study fronts are byte-identical to standalone sweeps.

The acceptance claim of the DSE tier: running a grid study through
``run_study`` (with its cache keys and manifest plumbing) must produce, at every grid point, the *exact* front a
standalone ``pareto_sweep`` call on the same transformed library yields
— compared as serialized JSON, so any drift in designs, schedules, or
ordering fails loudly.
"""

import json

import pytest

from repro.dse import (
    SpaceSpec,
    interconnect_styles,
    link_costs,
    remote_delays,
    run_study,
    scale_prices,
    scale_speeds,
)
from repro.dse.axes import PointConfig
from repro.service.cache import ResultCache
from repro.synthesis.synthesizer import Synthesizer
from repro.system.examples import example1_library
from repro.system.generators import random_library
from repro.taskgraph.examples import example1
from repro.taskgraph.generators import layered_random

MAX_DESIGNS = 3


def canonical(front) -> str:
    """A front's full JSON with wall-clock metadata zeroed.

    ``solve_seconds`` is a timing measurement, not part of the result;
    everything else — designs, costs, makespans, mappings, schedules,
    ordering — must match byte for byte.
    """
    document = front.to_dict()
    for design in document["designs"]:
        design["solve_seconds"] = 0.0
    # Solver telemetry carries phase wall times; it is not the front.
    document.pop("stats", None)
    return json.dumps(document, sort_keys=True)

#: Seeded (graph, axes) scenarios: random SOS graphs under random axis
#: combinations, kept small enough that the whole matrix solves in CI.
SCENARIOS = [
    ("example1-price-remote", None,
     lambda: [scale_prices(0.5, 1.0), remote_delays(2.0)]),
    ("example1-style", None,
     lambda: [interconnect_styles("p2p", "bus")]),
    ("random-seed1-speed-link", 1,
     lambda: [scale_speeds(1.0, 2.0), link_costs(0.5)]),
    ("random-seed7-price-style", 7,
     lambda: [scale_prices(0.75), interconnect_styles("p2p", "ring")]),
    ("random-seed11-remote", 11,
     lambda: [remote_delays(0.5, 1.5)]),
]


def _problem(seed):
    if seed is None:
        return example1(), example1_library()
    graph = layered_random(5, 3, seed=seed)
    return graph, random_library(graph, seed=seed, num_types=2)


@pytest.mark.parametrize(
    "label,seed,axes_factory", SCENARIOS, ids=[s[0] for s in SCENARIOS]
)
def test_study_fronts_match_standalone_sweeps(label, seed, axes_factory):
    graph, library = _problem(seed)
    spec = SpaceSpec(library, axes_factory())
    result = run_study(
        graph, spec, solver="highs", max_designs=MAX_DESIGNS,
        cache=ResultCache(),
    )
    assert result.points_total == len(spec)
    for grid_point, surface_point in zip(spec.points(), result.surface):
        assert grid_point.point_id == surface_point.point_id
        standalone = Synthesizer(
            graph, grid_point.library, style=grid_point.style,
            solver="highs",
        ).pareto_sweep(max_designs=MAX_DESIGNS)
        assert surface_point.front is not None
        assert canonical(surface_point.front) == canonical(standalone), (
            f"{label}: front drift at {grid_point.point_id}"
        )


def test_transform_composition_matches_manual_application():
    """The grid's transformed library equals hand-applied transforms."""
    library = example1_library()
    axes = [scale_prices(0.5), remote_delays(2.0), link_costs(0.25)]
    spec = SpaceSpec(library, axes)
    (point,) = list(spec.points())
    config = PointConfig(library)
    for axis in axes:
        config = axis.values[0].apply(config)
    assert point.library.to_dict() == config.library.to_dict()


def test_cached_study_point_fronts_stay_byte_identical():
    """Warm (cache-answered) fronts are byte-identical to cold ones."""
    graph, library = _problem(None)
    spec = SpaceSpec(library, [scale_prices(0.5, 1.0)])
    cache = ResultCache()
    cold = run_study(graph, spec, solver="highs",
                     max_designs=MAX_DESIGNS, cache=cache)
    warm = run_study(graph, spec, solver="highs",
                     max_designs=MAX_DESIGNS, cache=cache)
    assert warm.cache_hits == warm.points_total
    for before, after in zip(cold.surface, warm.surface):
        # Cache round trips preserve the whole document, timings included.
        assert (
            json.dumps(after.front.to_dict(), sort_keys=True)
            == json.dumps(before.front.to_dict(), sort_keys=True)
        )

"""Cross-style properties of the formulation.

When communication is free and instantaneous (``D_CR = D_CL = 0``,
``C_L = 0``), the interconnect cannot matter: point-to-point, bus, and
ring must all synthesize systems with identical optimal cost and makespan.
With communication priced back in, the styles order themselves:
point-to-point is never slower than the bus (dedicated links subsume the
shared medium), and the nearest-neighbor ring is never faster than
point-to-point (it only forbids mappings).
"""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.synthesis.synthesizer import Synthesizer
from repro.system.generators import random_library
from repro.system.interconnect import InterconnectStyle
from repro.taskgraph.generators import layered_random


def free_comm(library):
    return dataclasses.replace(library, remote_delay=0.0, local_delay=0.0,
                               link_cost=0.0)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 5000))
def test_bus_coincides_with_p2p_under_free_communication(seed):
    """With free instantaneous communication, contention and link cost both
    vanish, so the bus and point-to-point optima must coincide.  The
    nearest-neighbor ring is deliberately excluded: it restricts *which*
    processors may communicate (a topological constraint that free
    communication does not relax), so it may legitimately be slower."""
    graph = layered_random(6, 3, seed=seed)
    library = free_comm(random_library(graph, seed=seed, num_types=2))
    results = {}
    for style in (InterconnectStyle.POINT_TO_POINT, InterconnectStyle.BUS,
                  InterconnectStyle.RING):
        design = Synthesizer(graph, library, style=style).synthesize()
        results[style] = (design.cost, design.makespan)
    assert results[InterconnectStyle.BUS] == pytest.approx(
        results[InterconnectStyle.POINT_TO_POINT]
    )
    ring_cost, ring_makespan = results[InterconnectStyle.RING]
    p2p_cost, p2p_makespan = results[InterconnectStyle.POINT_TO_POINT]
    assert ring_makespan >= p2p_makespan - 1e-6


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 5000))
def test_style_makespan_ordering(seed):
    """p2p <= bus and p2p <= ring at unlimited cost."""
    graph = layered_random(6, 3, seed=seed)
    library = random_library(graph, seed=seed, num_types=2)
    p2p = Synthesizer(graph, library).synthesize(minimize_secondary=False)
    bus = Synthesizer(graph, library, style=InterconnectStyle.BUS).synthesize(
        minimize_secondary=False
    )
    ring = Synthesizer(graph, library, style=InterconnectStyle.RING).synthesize(
        minimize_secondary=False
    )
    assert p2p.makespan <= bus.makespan + 1e-6
    assert p2p.makespan <= ring.makespan + 1e-6


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 5000))
@example(seed=183)  # HiGHS once returned status 4 on the ring model
def test_uniprocessor_design_is_style_independent(seed):
    """Capping to 1 processor removes all communication: styles agree."""
    from repro.core.designer import DesignerConstraints

    graph = layered_random(5, 2, seed=seed)
    library = random_library(graph, seed=seed, num_types=2)
    results = set()
    for style in (InterconnectStyle.POINT_TO_POINT, InterconnectStyle.BUS,
                  InterconnectStyle.RING):
        design = Synthesizer(
            graph, library, style=style,
            constraints=DesignerConstraints().limit_processors(1),
        ).synthesize()
        results.add((design.cost, round(design.makespan, 6)))
    assert len(results) == 1

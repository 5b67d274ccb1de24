"""Regression guard: design-first branching keeps the Table II sweep small."""

import pytest

from repro.paper.expected import TABLE_II_POINTS
from repro.synthesis.synthesizer import Synthesizer


def test_bozo_table_ii_sweep_branches_on_the_architecture_first(
    ex1_graph, ex1_library
):
    front = Synthesizer(ex1_graph, ex1_library, solver="bozo").pareto_sweep()
    points = [(d.cost, d.makespan) for d in front]
    assert points[: len(TABLE_II_POINTS)] == [
        (pytest.approx(c), pytest.approx(t)) for c, t in TABLE_II_POINTS
    ]
    # 783 nodes with beta/sigma branched first; 2136 when every fractional
    # binary competes alike.  If the priorities stop reaching the branching
    # rule, this bound fails.
    assert front.stats.nodes < 1000

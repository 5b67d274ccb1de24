"""Regression guard: the serial Table II sweep on bozo, front and exact counters."""

import pytest

from repro.paper.expected import TABLE_II_POINTS
from repro.service.cache import ResultCache
from repro.synthesis.synthesizer import Synthesizer
from repro.system.examples import example1_library
from repro.taskgraph.examples import example1


@pytest.fixture(scope="module")
def cache():
    return ResultCache()


@pytest.fixture(scope="module")
def front(cache):
    return Synthesizer(example1(), example1_library(), solver="bozo").pareto_sweep(
        cache=cache
    )


def test_bozo_table_ii_sweep_branches_on_the_architecture_first(front):
    points = [(d.cost, d.makespan) for d in front]
    assert points[: len(TABLE_II_POINTS)] == [
        (pytest.approx(c), pytest.approx(t)) for c, t in TABLE_II_POINTS
    ]
    # The serial sweep's counters repeat exactly for the same code, so any
    # change to the search shows here.  If the beta/sigma priorities stop
    # reaching the branching rule, the sweep grows to ~1341 nodes.  The
    # cut-round and probe counts pin bozo's CUT_ROUNDS and
    # STRONG_BRANCH_CANDIDATES, which the benchmark does not compare.
    stats = front.stats
    assert (
        stats.nodes, stats.lp_pivots, stats.lp_solves, stats.cuts_added,
        stats.cut_rounds, stats.strong_branch_probes, stats.fallbacks,
    ) == (182, 6264, 500, 213, 37, 64, 0)
    # The revised kernel's own counters: the Table II tree is chaotic under
    # last-bit changes, so a kernel change that is not byte-identical moves
    # these even where the node count happens to survive.
    assert (
        stats.bound_flips, stats.refactorizations, stats.devex_resets,
        stats.ftran_sparsity,
    ) == (1261, 1034, 967, 1495)


def test_sweep_answered_from_the_cache_keeps_per_design_nodes(
    front, ex1_graph, ex1_library, cache
):
    hits = cache.stats()["hits"]
    cached = Synthesizer(ex1_graph, ex1_library, solver="bozo").pareto_sweep(
        cache=cache
    )
    assert cache.stats()["hits"] == hits + 1
    assert [d.nodes for d in cached] == [d.nodes for d in front] == [1, 31, 1, 1, 1]

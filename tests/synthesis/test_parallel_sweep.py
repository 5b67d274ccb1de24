"""Deprecated ``SolverOptions(workers=N)`` runs the serial search.

sosbench's ``sweep_ex1_bozo_w2`` workload still passes ``workers=2``, so
these tests guard that path: it warns, starts no process, and returns
exactly what the default options return, down to the schedules and the
solver counters.
"""

import multiprocessing

import pytest

from repro.solvers.base import SolverOptions
from repro.synthesis.io import design_to_document
from repro.synthesis.synthesizer import Synthesizer
from repro.system.examples import example1_library
from repro.taskgraph.examples import example1
from repro.taskgraph.generators import layered_random
from tests.conftest import make_library


def workers2():
    with pytest.warns(DeprecationWarning, match="workers"):
        return SolverOptions(workers=2)


def counters(stats):
    """Every SolveStats field except the wall-clock phase timings."""
    document = stats.as_dict()
    del document["phase_seconds"]
    return document


def document(design):
    """The design document (schedule included) minus its wall-clock time."""
    fields = design_to_document(design)
    del fields["solve_seconds"]
    return fields


def front_key(front):
    """Every design document, the caps and the solver counters."""
    return (
        [document(design) for design in front],
        front.caps,
        counters(front.stats),
    )


def sweep(graph, library, options, **kwargs):
    return Synthesizer(
        graph, library, solver="bozo", solver_options=options,
    ).pareto_sweep(**kwargs)


def random_problem(seed):
    graph = layered_random(4, 2, seed=seed)
    library = make_library(
        {"fast": (8, {t: 1 for t in graph.subtask_names}),
         "slow": (3, {t: 3 for t in graph.subtask_names})},
        instances_per_type=2, remote_delay=0.5,
    )
    return graph, library


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_sos_graph_front_identical(seed):
    graph, library = random_problem(seed)
    serial = sweep(graph, library, None)
    deprecated = sweep(graph, library, workers2())
    assert front_key(deprecated) == front_key(serial)


def test_max_designs_truncates_like_serial():
    graph, library = random_problem(0)
    serial = sweep(graph, library, None, max_designs=2)
    deprecated = sweep(graph, library, workers2(), max_designs=2)
    assert len(deprecated) == len(serial) == 2
    assert front_key(deprecated) == front_key(serial)


def test_example1_workers2_solve_is_the_serial_solve():
    """The w2 benchmark's warm-up call: one capped example1 solve."""
    serial = Synthesizer(example1(), example1_library(), solver="bozo")
    want = serial.synthesize(cost_cap=5.5)
    before = set(multiprocessing.active_children())
    deprecated = Synthesizer(
        example1(), example1_library(), solver="bozo",
        solver_options=workers2(),
    )
    got = deprecated.synthesize(cost_cap=5.5)
    assert set(multiprocessing.active_children()) <= before
    assert (got.cost, got.makespan) == (5, 7)
    assert document(got) == document(want)
    assert counters(deprecated.last_stats) == counters(serial.last_stats)

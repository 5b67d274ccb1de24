"""``SolverOptions(workers=N)`` sweeps: parallel B&B per cap, serial front.

Example 1's parallel sweep is pinned end to end by
``tests/test_cli.py::TestCommands::test_sweep_workers_prints_serial_front``.
"""

import pytest

from repro.solvers.base import SolverOptions
from repro.synthesis.synthesizer import Synthesizer
from repro.taskgraph.generators import layered_random
from tests.conftest import make_library


def front_key(front):
    """The Pareto points and caps.

    Under pseudocost branching a parallel solve may return an alternative
    optimal schedule, so only the points are compared.
    """
    return [(design.cost, design.makespan) for design in front], front.caps


def sweep(graph, library, workers, **kwargs):
    """A bozo sweep; ``workers > 1`` forces the pool to partition the tree."""
    options = SolverOptions(
        workers=workers, frontier_target=2, clamp_workers=False,
    )
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
    serial = sweep(graph, library, workers=1)
    parallel = sweep(graph, library, workers=2)
    assert parallel.stats.subtrees_dispatched > 0
    assert front_key(parallel) == front_key(serial)


def test_max_designs_truncates_like_serial():
    graph, library = random_problem(0)
    serial = sweep(graph, library, workers=1, max_designs=2)
    parallel = sweep(graph, library, workers=2, max_designs=2)
    assert len(parallel) == len(serial) == 2
    assert front_key(parallel) == front_key(serial)

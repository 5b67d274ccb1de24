"""Deprecated ``pareto_sweep(workers=N)``: warns, returns the serial front."""

import pytest

from repro.synthesis.synthesizer import Synthesizer
from repro.system.examples import example1_library
from repro.taskgraph.examples import example1
from repro.taskgraph.generators import layered_random
from tests.conftest import make_library


def front_key(front):
    """Fronts compared field by field, minus run-to-run wall clock."""
    rows = []
    for design in front:
        row = design.to_dict()
        row.pop("solve_seconds")
        rows.append(row)
    return rows


def test_example1_front_identical_to_serial():
    serial = Synthesizer(
        example1(), example1_library(), solver="highs"
    ).pareto_sweep()
    synth = Synthesizer(example1(), example1_library(), solver="highs")
    with pytest.warns(DeprecationWarning, match="workers"):
        parallel = synth.pareto_sweep(workers=3)
    assert front_key(parallel) == front_key(serial)
    # The keyword maps onto SolverOptions(workers=N) for this sweep only.
    assert synth.solver_options is None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_sos_graph_front_identical(seed):
    graph = layered_random(5, 2, seed=seed)
    library = make_library(
        {"fast": (8, {t: 1 for t in graph.subtask_names}),
         "slow": (3, {t: 3 for t in graph.subtask_names})},
        instances_per_type=2, remote_delay=0.5,
    )
    serial = Synthesizer(graph, library, solver="highs").pareto_sweep()
    with pytest.warns(DeprecationWarning):
        parallel = Synthesizer(
            graph, library, solver="highs"
        ).pareto_sweep(workers=4)
    assert front_key(parallel) == front_key(serial)


def test_max_designs_truncates_like_serial():
    serial = Synthesizer(
        example1(), example1_library(), solver="highs"
    ).pareto_sweep(max_designs=2)
    with pytest.warns(DeprecationWarning):
        parallel = Synthesizer(
            example1(), example1_library(), solver="highs"
        ).pareto_sweep(max_designs=2, workers=3)
    assert len(parallel) == len(serial) == 2
    assert front_key(parallel) == front_key(serial)

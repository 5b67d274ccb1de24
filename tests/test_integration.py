"""End-to-end integration and cross-validation tests.

The reproduction's trust chain: the MILP optimum must (1) pass the
independent constraint validator, (2) be *achievable* by the greedy
discrete-event simulator replaying its mapping and per-processor order,
and (3) never be beaten by any heuristic baseline.  Property tests run the
whole chain on random instances with both solver backends.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines.bounds import cost_lower_bound, makespan_lower_bound
from repro.baselines.heuristic_synthesis import heuristic_pareto
from repro.core.options import FormulationOptions
from repro.errors import InfeasibleError
from repro.schedule.validate import validate_schedule
from repro.sim.simulator import simulate_mapping
from repro.synthesis.synthesizer import Synthesizer
from repro.system.interconnect import InterconnectStyle
from repro.taskgraph.generators import layered_random
from tests.conftest import make_library


def random_library(seed, tasks):
    import random

    rng = random.Random(seed)
    spec = {}
    for index in range(rng.randint(2, 3)):
        cost = rng.randint(2, 9)
        times = {
            task: rng.randint(1, 5)
            for task in tasks
            if rng.random() < 0.85 or index == 0  # type 0 covers everything
        }
        spec[f"p{index + 1}"] = (cost, times)
    return make_library(
        spec, instances_per_type=2, remote_delay=rng.choice([0.5, 1.0]),
        local_delay=rng.choice([0.0, 0.1]),
    )


class TestMilpSimulatorCrossValidation:
    def test_example1_mapping_replay(self, ex1_graph, ex1_library):
        """Replaying the MILP mapping through the simulator achieves the
        same makespan (the greedy schedule cannot beat the optimum and the
        optimum's mapping admits a greedy schedule as good)."""
        design = Synthesizer(ex1_graph, ex1_library).synthesize()
        replay_order = sorted(
            ex1_graph.subtask_names,
            key=lambda task: design.schedule.execution_of(task).start,
        )
        replay = simulate_mapping(
            ex1_graph, ex1_library, design.mapping, order=replay_order
        )
        assert replay.makespan == pytest.approx(design.makespan)

    def test_example1_heuristic_front_dominated(self, ex1_graph, ex1_library):
        exact = Synthesizer(ex1_graph, ex1_library).pareto_sweep()
        heuristic = heuristic_pareto(ex1_graph, ex1_library)
        for h in heuristic:
            better_exact = [
                e for e in exact if e.cost <= h.cost + 1e-9
            ]
            assert better_exact, h
            assert min(e.makespan for e in better_exact) <= h.makespan + 1e-9


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000))
@example(seed=2755)  # two partial types undercut the one full-cover type
def test_random_instance_full_chain(seed):
    """Exact synthesis on random instances: validator-clean designs whose
    makespan respects the analytic lower bounds and heuristic upper bounds."""
    graph = layered_random(6, 3, seed=seed, fractional_ports=(seed % 3 == 0))
    library = random_library(seed, graph.subtask_names)
    synth = Synthesizer(graph, library)
    design = synth.synthesize()

    assert design.violations() == []
    assert design.makespan >= makespan_lower_bound(graph, library) - 1e-6
    assert design.cost >= cost_lower_bound(graph, library) - 1e-6

    heuristic = heuristic_pareto(graph, library, schedulers=("etf",))
    fastest_heuristic = min(d.makespan for d in heuristic)
    assert design.makespan <= fastest_heuristic + 1e-6


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_bozo_and_highs_agree_on_random_instances(seed):
    """Both solver backends find the same optimal makespan."""
    graph = layered_random(5, 2, seed=seed)
    library = random_library(seed, graph.subtask_names).with_instances(1)
    highs = Synthesizer(graph, library, solver="highs").synthesize(
        minimize_secondary=False
    )
    bozo = Synthesizer(graph, library, solver="bozo").synthesize(
        minimize_secondary=False
    )
    assert bozo.makespan == pytest.approx(highs.makespan, abs=1e-5)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_bus_never_faster_than_p2p(seed):
    """The shared bus can only serialize transfers, never accelerate them."""
    graph = layered_random(6, 3, seed=seed)
    library = random_library(seed, graph.subtask_names)
    p2p = Synthesizer(graph, library).synthesize(minimize_secondary=False)
    bus = Synthesizer(graph, library, style=InterconnectStyle.BUS).synthesize(
        minimize_secondary=False
    )
    assert bus.makespan >= p2p.makespan - 1e-6


class TestProcessorLoadRowsCutNoDesign:
    """The default model's processor-load rows keep every optimum.

    ``prune_ordered_pairs=False`` builds the paper's rows alone; the
    default adds the load rows (and drops provably ordered pairs).  Both
    must reach the same (cost, makespan), and each design must validate.
    """

    VARIANTS = {
        "p2p": {},
        "bus": {"style": InterconnectStyle.BUS},
        "ring": {"style": InterconnectStyle.RING},
        "no-io-overlap": {"io_overlap": False},
        "memory": {"memory_model": True, "memory_cost_per_unit": 0.25},
    }

    @staticmethod
    def _design(graph, library, variant, prune, cost_cap):
        options = FormulationOptions(prune_ordered_pairs=prune, **variant)
        try:
            design = Synthesizer(
                graph, library, style=options.style, solver="bozo", options=options
            ).synthesize(cost_cap=cost_cap)
        except InfeasibleError:
            return None
        assert design.violations() == []
        return design.cost, design.makespan

    def _assert_same_optimum(self, graph, library, variant, cost_cap=None):
        default = self._design(graph, library, variant, True, cost_cap)
        faithful = self._design(graph, library, variant, False, cost_cap)
        assert (default is None) == (faithful is None)
        if faithful is not None:
            assert default == (pytest.approx(faithful[0]), pytest.approx(faithful[1]))

    @pytest.mark.parametrize("variant, cost_cap", [
        ("p2p", 6.9999), ("p2p", 4.9999), ("bus", 6.9999), ("bus", 4.9999),
        ("ring", None), ("ring", 6.9999), ("no-io-overlap", None),
        ("no-io-overlap", 6.9999), ("memory", None), ("memory", 6.9999),
    ])
    def test_example1(self, ex1_graph, ex1_library, variant, cost_cap):
        self._assert_same_optimum(
            ex1_graph, ex1_library, self.VARIANTS[variant], cost_cap
        )

    @pytest.mark.parametrize("variant", ["p2p", "bus", "no-io-overlap"])
    @pytest.mark.parametrize("seed", [2, 3, 5, 6])
    def test_layered_random(self, seed, variant):
        graph = layered_random(5, 2, seed=seed)
        library = random_library(seed, graph.subtask_names)
        self._assert_same_optimum(graph, library, self.VARIANTS[variant])


class TestDeadlineCostMonotonicity:
    def test_tighter_deadline_costs_more(self, ex1_graph, ex1_library):
        from repro.core.options import Objective

        synth = Synthesizer(ex1_graph, ex1_library)
        costs = []
        for deadline in (7.0, 4.0, 3.0, 2.5):
            design = synth.synthesize(objective=Objective.MIN_COST, deadline=deadline)
            costs.append(design.cost)
        assert costs == sorted(costs)
        assert costs == [5.0, 7.0, 13.0, 14.0]

"""Tests for greedy schedule construction and mapping simulation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.schedule.validate import validate_schedule
from repro.sim.simulator import ScheduleBuilder, simulate_mapping
from repro.system.examples import example1_library, example2_library
from repro.system.interconnect import InterconnectStyle
from repro.taskgraph.examples import example1, example2
from repro.taskgraph.generators import layered_random
from tests.conftest import make_library


class TestSimulateMapping:
    def test_uniprocessor_example1(self):
        graph, library = example1(), example1_library()
        mapping = {task: "p2a" for task in graph.subtask_names}
        schedule = simulate_mapping(graph, library, mapping)
        # All on p2: serial sum = 3+1+2+1 = 7 (Table II design 4).
        assert schedule.makespan == pytest.approx(7.0)
        assert validate_schedule(graph, library, schedule) == []

    def test_figure2_mapping_reaches_optimum(self):
        """The greedy simulator achieves 2.5 on design 1's mapping."""
        graph, library = example1(), example1_library()
        mapping = {"S1": "p1a", "S2": "p2a", "S4": "p2a", "S3": "p3a"}
        schedule = simulate_mapping(graph, library, mapping)
        assert schedule.makespan == pytest.approx(2.5)

    def test_example2_design2_mapping(self):
        """Table IV design 2: p1a={S1,S4,S7}, p1b={S3,S6,S9}, p3a={S2,S5,S8}."""
        graph, library = example2(), example2_library()
        mapping = {
            "S1": "p1a", "S4": "p1a", "S7": "p1a",
            "S3": "p1b", "S6": "p1b", "S9": "p1b",
            "S2": "p3a", "S5": "p3a", "S8": "p3a",
        }
        schedule = simulate_mapping(graph, library, mapping)
        assert schedule.makespan == pytest.approx(6.0)
        assert validate_schedule(graph, library, schedule) == []

    def test_simulated_schedules_always_validate(self):
        graph, library = example2(), example2_library()
        mapping = {task: "p2a" for task in graph.subtask_names}
        for style in (InterconnectStyle.POINT_TO_POINT, InterconnectStyle.BUS):
            schedule = simulate_mapping(graph, library, mapping, style=style)
            assert validate_schedule(graph, library, schedule, style=style) == []

    def test_missing_task_in_mapping(self):
        graph, library = example1(), example1_library()
        with pytest.raises(SimulationError, match="misses"):
            simulate_mapping(graph, library, {"S1": "p1a"})

    def test_unknown_processor(self):
        graph, library = example1(), example1_library()
        mapping = {task: "p9z" for task in graph.subtask_names}
        with pytest.raises(SimulationError, match="unknown processor"):
            simulate_mapping(graph, library, mapping)

    def test_incapable_processor(self):
        graph, library = example1(), example1_library()
        mapping = {task: "p3a" for task in graph.subtask_names}
        with pytest.raises(SimulationError, match="cannot execute"):
            simulate_mapping(graph, library, mapping)

    def test_order_must_be_permutation(self):
        graph, library = example1(), example1_library()
        mapping = {task: "p2a" for task in graph.subtask_names}
        with pytest.raises(SimulationError, match="permutation"):
            simulate_mapping(graph, library, mapping, order=["S1", "S2"])

    def test_custom_order_changes_schedule(self):
        graph, library = example1(), example1_library()
        mapping = {task: "p2a" for task in graph.subtask_names}
        default = simulate_mapping(graph, library, mapping)
        reordered = simulate_mapping(
            graph, library, mapping, order=["S2", "S1", "S3", "S4"]
        )
        assert default.makespan == pytest.approx(reordered.makespan)  # both serial
        assert default.task_order_on("p2a") != reordered.task_order_on("p2a")


class TestScheduleBuilder:
    def test_tentative_does_not_commit(self, tiny_graph, tiny_library):
        builder = ScheduleBuilder(tiny_graph, tiny_library)
        instances = {i.name: i for i in tiny_library.instances()}
        builder.commit(builder.tentative("A", instances["fasta"]))
        before = builder.makespan
        builder.tentative("B", instances["fastb"])
        assert builder.makespan == before
        assert not builder.schedule().has_task("B")

    def test_unplaced_producer_rejected(self, tiny_graph, tiny_library):
        builder = ScheduleBuilder(tiny_graph, tiny_library)
        instances = {i.name: i for i in tiny_library.instances()}
        with pytest.raises(SimulationError, match="unscheduled"):
            builder.tentative("B", instances["fasta"])

    def test_double_commit_rejected(self, tiny_graph, tiny_library):
        builder = ScheduleBuilder(tiny_graph, tiny_library)
        instances = {i.name: i for i in tiny_library.instances()}
        placement = builder.tentative("A", instances["fasta"])
        builder.commit(placement)
        with pytest.raises(SimulationError, match="already placed"):
            builder.commit(placement)

    def test_remote_transfer_occupies_channel(self, tiny_graph, tiny_library):
        builder = ScheduleBuilder(tiny_graph, tiny_library)
        instances = {i.name: i for i in tiny_library.instances()}
        builder.commit(builder.tentative("A", instances["fasta"]))
        placement = builder.tentative("B", instances["slowa"])
        # A ends at 1; remote transfer of volume 2 takes 2 -> arrival 3.
        assert placement.start == pytest.approx(3.0)

    def test_fractional_ports_allow_early_start(self):
        from repro.taskgraph.graph import TaskGraph

        graph = TaskGraph()
        graph.add_subtask("A")
        graph.add_subtask("B")
        graph.connect("A", "B", volume=1.0, f_available=0.5, f_required=0.5)
        library = make_library(
            {"p": (1, {"A": 2, "B": 2})}, instances_per_type=2, remote_delay=1.0
        )
        instances = {i.name: i for i in library.instances()}
        builder = ScheduleBuilder(graph, library)
        builder.commit(builder.tentative("A", instances["pa"]))
        placement = builder.tentative("B", instances["pb"])
        # Output at 1.0, transfer 1.0-2.0, B may start at 2.0 - 0.5*2 = 1.0.
        assert placement.start == pytest.approx(1.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 300))
def test_random_graphs_simulate_and_validate(seed):
    """Greedy schedules on random graphs always pass the paper validator."""
    graph = layered_random(8, 3, seed=seed, fractional_ports=(seed % 2 == 0))
    tasks = graph.subtask_names
    library = make_library(
        {"fast": (8, {t: 1 for t in tasks}), "slow": (2, {t: 3 for t in tasks})},
        instances_per_type=2, remote_delay=0.5,
    )
    instances = [i.name for i in library.instances()]
    mapping = {task: instances[index % len(instances)]
               for index, task in enumerate(tasks)}
    schedule = simulate_mapping(graph, library, mapping)
    assert validate_schedule(graph, library, schedule) == []
    assert schedule.makespan > 0

"""Tests for the analytic lower bounds (safety checked against known optima)."""

import pytest

from repro.baselines.bounds import (
    best_execution_time,
    cost_lower_bound,
    critical_path_bound,
    makespan_lower_bound,
    processor_count_lower_bound,
    work_bound,
)
from repro.system.examples import example1_library, example2_library
from repro.taskgraph.examples import example1, example2


class TestMakespanBounds:
    def test_best_execution_time(self):
        assert best_execution_time(example1(), example1_library(), "S3") == 1.0

    def test_critical_path_is_safe_example1(self):
        """Table II: the true optimum at any cost is 2.5."""
        assert critical_path_bound(example1(), example1_library()) <= 2.5 + 1e-9

    def test_critical_path_is_safe_example2(self):
        """Table IV: the true optimum at any cost is 5."""
        assert critical_path_bound(example2(), example2_library()) <= 5.0 + 1e-9

    def test_work_bound_single_processor(self):
        # Total best-case work on example2: S1..S9 fastest times.
        bound = work_bound(example2(), example2_library(), num_processors=1)
        total = sum(
            best_execution_time(example2(), example2_library(), f"S{i}")
            for i in range(1, 10)
        )
        assert bound == pytest.approx(total)

    def test_work_bound_shrinks_with_processors(self):
        one = work_bound(example2(), example2_library(), 1)
        three = work_bound(example2(), example2_library(), 3)
        assert three == pytest.approx(one / 3)

    def test_combined_bound_is_max(self):
        graph, library = example2(), example2_library()
        combined = makespan_lower_bound(graph, library, 2)
        assert combined == max(
            critical_path_bound(graph, library), work_bound(graph, library, 2)
        )

    def test_invalid_processor_count(self):
        with pytest.raises(ValueError):
            work_bound(example1(), example1_library(), 0)


class TestProcessorCountBound:
    def test_safe_against_table_iv(self):
        """Table IV design 1 finishes in 5 with 3 processors, so the bound
        at deadline 5 must not exceed 3."""
        bound = processor_count_lower_bound(example2(), example2_library(), 5.0)
        assert 1 <= bound <= 3

    def test_generous_deadline_needs_one(self):
        assert processor_count_lower_bound(example2(), example2_library(), 100.0) == 1

    def test_invalid_deadline(self):
        with pytest.raises(ValueError):
            processor_count_lower_bound(example1(), example1_library(), 0.0)


class TestLpRelaxationBound:
    def test_safe_on_example1(self):
        from repro.baselines.bounds import lp_relaxation_bound

        bound = lp_relaxation_bound(example1(), example1_library())
        assert 0.0 <= bound <= 2.5 + 1e-9

    def test_tightens_under_cost_cap(self):
        from repro.baselines.bounds import lp_relaxation_bound

        loose = lp_relaxation_bound(example1(), example1_library())
        capped = lp_relaxation_bound(example1(), example1_library(), cost_cap=5)
        assert capped >= loose - 1e-9
        assert capped <= 7.0 + 1e-9  # true optimum at cap 5

    def test_infeasible_cap_raises(self):
        from repro.baselines.bounds import lp_relaxation_bound

        with pytest.raises(ValueError, match="infeasible"):
            lp_relaxation_bound(example1(), example1_library(), cost_cap=1)


class TestCostBound:
    def test_single_covering_type(self):
        # Some example1 subtask runs only on types costing 4 or more.
        assert cost_lower_bound(example1(), example1_library()) == 4.0

    def test_safe_against_table_ii(self):
        """No Table II design is cheaper than the bound."""
        bound = cost_lower_bound(example1(), example1_library())
        assert bound <= 5.0  # cheapest paper design

    def test_no_single_cover(self):
        from tests.conftest import make_library

        from repro.taskgraph.graph import TaskGraph

        graph = TaskGraph()
        graph.add_subtask("A")
        graph.add_subtask("B")
        graph.connect("A", "B")
        library = make_library(
            {"pa": (7, {"A": 1}), "pb": (9, {"B": 1})}
        )
        # Both must be bought; the bound is the max of per-task cheapest.
        assert cost_lower_bound(graph, library) == 9.0

    def test_partial_types_undercut_the_full_cover(self):
        """Two cheap types that each cover part of the graph beat the one
        type covering all of it, so the bound must not be the cover price."""
        from tests.conftest import make_library

        from repro.taskgraph.graph import TaskGraph

        graph = TaskGraph()
        for name in ("A", "B", "C"):
            graph.add_subtask(name)
        graph.connect("A", "B")
        graph.connect("B", "C")
        library = make_library(
            {
                "full": (7, {"A": 1, "B": 1, "C": 1}),
                "left": (2, {"A": 1, "B": 1}),
                "right": (2, {"B": 1, "C": 1}),
            }
        )
        # "left" + "right" cost 4 < 7 and run every subtask.
        assert cost_lower_bound(graph, library) == 2.0

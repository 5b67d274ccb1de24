"""Tests for the from-scratch branch-and-bound MILP solver ("Bozo"),
including agreement property tests against HiGHS."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.formulation import SosModelBuilder
from repro.core.options import FormulationOptions, Objective
from repro.milp.expr import VarType
from repro.milp.model import Model
from repro.milp.solution import SolveStatus
from repro.solvers.base import SolverOptions
from repro.solvers.bozo import BozoSolver
from repro.solvers.highs import HighsSolver
from repro.system.examples import example1_library
from repro.taskgraph.examples import example1
from repro.taskgraph.generators import layered_random
from tests.conftest import make_library


def knapsack_model(weights, values, capacity):
    model = Model("knapsack")
    xs = [model.add_binary(f"x{i}") for i in range(len(weights))]
    model.add(sum(w * x for w, x in zip(weights, xs)) <= capacity)
    model.maximize(sum(v * x for v, x in zip(values, xs)))
    return model, xs


class TestBasics:
    def test_knapsack_optimum(self):
        model, xs = knapsack_model([3, 4, 5, 8, 9, 2], [2, 3, 4, 6, 7, 1], 13)
        solution = BozoSolver().solve(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert -solution.objective == pytest.approx(10.0)

    def test_pure_lp_needs_no_branching(self):
        model = Model()
        x = model.add_continuous("x", ub=3)
        model.minimize(-x)
        solution = BozoSolver().solve(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(-3.0)
        assert solution.iterations == 1  # a single node

    def test_general_integer_variable(self):
        model = Model()
        x = model.add_var("x", vtype=VarType.INTEGER, ub=10)
        model.add(2 * x <= 7)
        model.minimize(-x)
        solution = BozoSolver().solve(model)
        assert solution.values[x] == pytest.approx(3.0)

    def test_infeasible(self):
        model = Model()
        x = model.add_binary("x")
        model.add(x >= 0.4)
        model.add(x <= 0.6)  # no integer point
        solution = BozoSolver().solve(model)
        assert solution.status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        model = Model()
        x = model.add_continuous("x")
        model.minimize(-x)
        solution = BozoSolver().solve(model)
        assert solution.status is SolveStatus.UNBOUNDED

    def test_equality_with_binaries(self):
        model = Model()
        xs = [model.add_binary(f"x{i}") for i in range(4)]
        model.add(sum(xs) == 2)
        model.minimize(xs[0] + 2 * xs[1] + 3 * xs[2] + 4 * xs[3])
        solution = BozoSolver().solve(model)
        assert solution.objective == pytest.approx(3.0)

    def test_solution_is_integral(self):
        model, xs = knapsack_model([2, 3, 4], [1, 2, 3], 5)
        solution = BozoSolver().solve(model)
        assert solution.is_integral()

    def test_best_bound_matches_at_optimality(self):
        model, _ = knapsack_model([2, 3, 4], [1, 2, 3], 5)
        solution = BozoSolver().solve(model)
        assert solution.best_bound == pytest.approx(solution.objective)


class TestOptions:
    def test_pseudocost_branching_matches(self):
        model, _ = knapsack_model([5, 7, 4, 3, 9], [4, 6, 3, 2, 8], 14)
        solution = BozoSolver().solve(model)
        reference = HighsSolver().solve(model)
        assert solution.objective == pytest.approx(reference.objective)

    def test_node_limit_yields_feasible_or_unknown(self):
        model, _ = knapsack_model(list(range(2, 12)), list(range(1, 11)), 20)
        options = SolverOptions(node_limit=2)
        solution = BozoSolver(options).solve(model)
        assert solution.status in (
            SolveStatus.FEASIBLE, SolveStatus.UNKNOWN, SolveStatus.OPTIMAL
        )

    def test_time_limit_zero(self):
        model, _ = knapsack_model([2, 3], [1, 2], 4)
        options = SolverOptions(time_limit=0.0)
        solution = BozoSolver(options).solve(model)
        # Either it finished the root before the clock check, or it bailed.
        assert solution.status in (
            SolveStatus.OPTIMAL, SolveStatus.FEASIBLE, SolveStatus.UNKNOWN
        )


@st.composite
def random_milp(draw):
    n = draw(st.integers(2, 6))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    costs = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    capacity = draw(st.integers(0, sum(weights)))
    cover = draw(st.integers(0, n))
    return weights, costs, capacity, cover


@settings(max_examples=40, deadline=None)
@given(random_milp())
def test_agrees_with_highs_on_random_milps(problem):
    """Optimal objectives of the two independent MILP solvers must match."""
    weights, costs, capacity, cover = problem

    def build():
        model = Model()
        xs = [model.add_binary(f"x{i}") for i in range(len(weights))]
        y = model.add_continuous("y", ub=5)
        model.add(sum(w * x for w, x in zip(weights, xs)) + y <= capacity)
        model.add(sum(xs) >= cover)
        model.minimize(sum(c * x for c, x in zip(costs, xs)) - 0.25 * y)
        return model

    ours = BozoSolver().solve(build())
    reference = HighsSolver().solve(build())
    assert ours.status == reference.status
    if ours.status is SolveStatus.OPTIMAL:
        assert ours.objective == pytest.approx(reference.objective, abs=1e-6)


class TestNoDenseFallback:
    """Example 1's LPs are all answered by the revised simplex, the only
    LP path: ``fallbacks`` stays 0."""

    @pytest.mark.parametrize("cost_cap", [None, 5.5])
    def test_example1_needs_no_fallback(self, cost_cap):
        built = SosModelBuilder(
            example1(), example1_library(), FormulationOptions(cost_cap=cost_cap)
        ).build()
        solution = BozoSolver().solve(built.model)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.stats.lp_solves > 0
        assert solution.stats.fallbacks == 0


class TestUnsolvedRelaxationIsLoud:
    def test_exhausted_pivot_budget_raises(self, monkeypatch):
        """A full relaxation the engine gives up on raises SolverError
        naming the rows, pivots and start; no answer is returned."""
        from repro.errors import SolverError
        from repro.solvers import bozo

        monkeypatch.setattr(bozo, "LP_ITERATIONS", 1)
        built = SosModelBuilder(example1(), example1_library()).build()
        with pytest.raises(SolverError, match=r"after 1 pivots on \d+ rows \(cold start\)"):
            BozoSolver().solve(built.model)


class TestTiedBounds:
    """Nodes tied at one bound are popped deepest first."""

    def test_load_plateau_reaches_optimum_within_node_limit(self):
        # Without I/O overlap the processor-load rows hold the bound at
        # 4.0 over a wide plateau while the root dive's incumbent is 7.
        # Popping the ties shallowest first searches that plateau level by
        # level and still holds makespan 7 after 2,000 nodes.
        built = SosModelBuilder(
            example1(), example1_library(),
            FormulationOptions(io_overlap=False, cost_cap=13.9999),
        ).build()
        solution = BozoSolver(SolverOptions(node_limit=2000)).solve(built.model)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(4.0)


class TestRoundedIntegralPoints:
    """A node LP whose integral columns sit within the integrality
    tolerance of integers is answered by the rounded point, re-solved with
    those columns fixed when rounding alone misses an equality row."""

    def test_near_integral_optimum_is_not_dropped(self):
        # Rounding the LP optimum moves ``T_SE = T_SS + sum D * sigma`` by
        # ~2e-6; dropping that node made bozo call a feasible model
        # infeasible.
        graph = layered_random(5, 2, seed=3)
        library = make_library(
            {
                "p1": (4, {"S1": 5, "S3": 5, "S4": 1, "S2": 4, "S5": 2}),
                "p2": (5, {"S3": 5, "S4": 2, "S2": 2}),
            },
            instances_per_type=2,
        )
        built = SosModelBuilder(
            graph, library,
            FormulationOptions(objective=Objective.MIN_COST, deadline=7.000001),
        ).build()
        reference = HighsSolver().solve(built.model)
        ours = BozoSolver().solve(built.model)
        assert reference.objective == pytest.approx(14.0)
        assert ours.status is SolveStatus.OPTIMAL
        assert ours.objective == pytest.approx(reference.objective)

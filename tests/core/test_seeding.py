"""Heuristic incumbent seeding: completeness, feasibility, and pruning.

The seed must be a *complete* feasible assignment (every variable by
name), must never change the optimum — a bad seed is rejected, a good one
only shrinks the tree — and must actually shrink the tree on the paper
example.
"""

import pytest

import repro
from repro.core.formulation import SosModelBuilder
from repro.core.options import FormulationOptions
from repro.core.seeding import heuristic_incumbent
from repro.solvers.base import SolverOptions
from repro.solvers.bozo import BozoSolver
from repro.synthesis.synthesizer import Synthesizer
from repro.taskgraph.generators import layered_random
from tests.conftest import make_library


@pytest.fixture
def ex1_model(ex1_graph, ex1_library):
    return SosModelBuilder(ex1_graph, ex1_library, FormulationOptions()).build()


def seed_objective(built, seed):
    return built.model.objective_value(
        {var: seed[var.name] for var in built.model.variables}
    )


class TestConstruction:
    def test_seed_is_complete_and_feasible(self, ex1_model):
        seed = heuristic_incumbent(ex1_model)
        assert seed is not None
        names = {var.name for var in ex1_model.model.variables}
        assert set(seed) == names  # full coverage, no extras
        values = {var: seed[var.name] for var in ex1_model.model.variables}
        assert ex1_model.model.infeasibilities(values) == []

    def test_seed_respects_symmetry_breaking(self, tiny_graph):
        # Two identical copies per type: the symmetry rows only admit the
        # canonical labeling, so feasibility here proves the relabeling in
        # _canonical_mapping works.
        library = make_library(
            {"fast": (8, {"A": 1, "B": 1}), "slow": (3, {"A": 4, "B": 4})},
            instances_per_type=2, remote_delay=0.5,
        )
        built = SosModelBuilder(tiny_graph, library, FormulationOptions()).build()
        seed = heuristic_incumbent(built)
        assert seed is not None
        values = {var: seed[var.name] for var in built.model.variables}
        assert built.model.infeasibilities(values) == []

    def test_best_mode_is_no_worse_than_either_scheduler(self, ex1_model):
        best = heuristic_incumbent(ex1_model, scheduler="best")
        assert best is not None
        best_obj = seed_objective(ex1_model, best)
        for name in ("etf", "hlfet"):
            single = heuristic_incumbent(ex1_model, scheduler=name)
            if single is not None:
                assert best_obj <= seed_objective(ex1_model, single) + 1e-9

    def test_random_graphs_yield_feasible_seeds(self):
        for seed_value in range(3):
            graph = layered_random(5, 2, seed=seed_value)
            library = make_library(
                {"fast": (8, {t: 1 for t in graph.subtask_names}),
                 "slow": (3, {t: 3 for t in graph.subtask_names})},
                instances_per_type=2, remote_delay=0.5,
            )
            built = SosModelBuilder(graph, library, FormulationOptions()).build()
            seed = heuristic_incumbent(built)
            assert seed is not None, f"no seed for graph seed={seed_value}"
            values = {var: seed[var.name] for var in built.model.variables}
            assert built.model.infeasibilities(values) == [], seed_value

    def test_unknown_scheduler_raises(self, ex1_model):
        with pytest.raises(ValueError, match="unknown seeding scheduler"):
            heuristic_incumbent(ex1_model, scheduler="magic")


class TestSolverSeeding:
    def test_seed_never_changes_the_optimum(self, ex1_model):
        seed = heuristic_incumbent(ex1_model)
        plain = BozoSolver(SolverOptions()).solve(ex1_model.model)
        seeded = BozoSolver(SolverOptions(incumbent=seed)).solve(ex1_model.model)
        assert seeded.objective == pytest.approx(plain.objective, abs=1e-9)
        assert seeded.stats.seeded_incumbent == 1

    def test_seed_prunes_the_tree(self):
        # Example 1 now solves at the root under the devex kernel, so
        # pruning is observable only on an instance with a real tree;
        # this seeded random graph takes ~100 nodes unseeded.
        graph = layered_random(5, 2, seed=7)
        library = make_library(
            {"fast": (8, {t: 1 for t in graph.subtask_names}),
             "slow": (3, {t: 3 for t in graph.subtask_names})},
            instances_per_type=2, remote_delay=0.5,
        )
        built = SosModelBuilder(graph, library, FormulationOptions()).build()
        seed = heuristic_incumbent(built)
        plain = BozoSolver(SolverOptions()).solve(built.model)
        seeded = BozoSolver(SolverOptions(incumbent=seed)).solve(built.model)
        assert seeded.objective == pytest.approx(plain.objective, abs=1e-9)
        assert seeded.stats.nodes < plain.stats.nodes

    def test_infeasible_seed_is_rejected(self, ex1_model):
        zeros = {var.name: 0.0 for var in ex1_model.model.variables}
        plain = BozoSolver(SolverOptions()).solve(ex1_model.model)
        seeded = BozoSolver(SolverOptions(incumbent=zeros)).solve(ex1_model.model)
        assert seeded.stats.seeded_incumbent == 0
        assert seeded.objective == pytest.approx(plain.objective, abs=1e-9)

    def test_partial_seed_is_rejected(self, ex1_model):
        seed = heuristic_incumbent(ex1_model)
        partial = dict(seed)
        partial.pop(sorted(partial)[0])
        solution = BozoSolver(SolverOptions(incumbent=partial)).solve(
            ex1_model.model
        )
        assert solution.stats.seeded_incumbent == 0


class TestSynthesizerFlag:
    def test_removed_keyword_is_rejected(self, ex1_graph, ex1_library):
        # Synthesis has no seeding mode; a caller with a model passes
        # heuristic_incumbent(...) as SolverOptions.incumbent instead.
        with pytest.raises(TypeError, match="seed_incumbent"):
            Synthesizer(ex1_graph, ex1_library, seed_incumbent=True)
        with pytest.raises(TypeError, match="seed_incumbent"):
            repro.synthesize(ex1_graph, ex1_library, seed_incumbent=True)

"""Error-path coverage: the library must fail loudly and specifically."""

import pytest

from repro.errors import (
    InfeasibleError,
    ModelError,
    ReproError,
    SolverError,
    SynthesisError,
    SystemModelError,
    TaskGraphError,
)
from repro.milp.model import Model
from repro.milp.solution import Solution, SolveStatus
from repro.solvers.base import Solver, SolverOptions
from repro.solvers.registry import register_solver
from repro.synthesis.synthesizer import Synthesizer
from repro.system.examples import example1_library
from repro.taskgraph.examples import example1


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc_type in (InfeasibleError, ModelError, SolverError,
                         SynthesisError, SystemModelError, TaskGraphError):
            assert issubclass(exc_type, ReproError)

    def test_infeasible_is_a_solver_error(self):
        assert issubclass(InfeasibleError, SolverError)


class _StuckSolver(Solver):
    """A backend that always gives up without a solution."""

    name = "stuck"

    def solve(self, model: Model) -> Solution:
        return Solution(SolveStatus.UNKNOWN, solver_name=self.name)


class TestSynthesizerErrorPaths:
    def test_unknown_status_raises_synthesis_error(self):
        register_solver("stuck", lambda options: _StuckSolver(options))
        try:
            synth = Synthesizer(example1(), example1_library(), solver="stuck")
            with pytest.raises(SynthesisError, match="without a usable solution"):
                synth.synthesize()
        finally:
            from repro.solvers import registry

            registry._REGISTRY.pop("stuck", None)

    def test_uncoverable_graph_raises_early(self):
        from repro.system.library import TechnologyLibrary
        from repro.system.processors import ProcessorType

        bad_library = TechnologyLibrary(
            types=(ProcessorType("p", 1, {"S1": 1}),)  # cannot run S2..S4
        )
        with pytest.raises(SystemModelError, match="S2"):
            Synthesizer(example1(), bad_library).synthesize()

    def test_infeasible_message_names_the_cap(self):
        synth = Synthesizer(example1(), example1_library())
        with pytest.raises(InfeasibleError, match="cost_cap=1"):
            synth.synthesize(cost_cap=1)

    def test_sweep_on_infeasible_instance(self):
        """A sweep where even the first solve fails must raise cleanly."""
        from repro.core.designer import DesignerConstraints

        synth = Synthesizer(
            example1(), example1_library(),
            constraints=DesignerConstraints().must_finish_by("S3", 0.1),
        )
        with pytest.raises((SynthesisError, InfeasibleError)):
            synth.pareto_sweep()

    @pytest.mark.parametrize("method, kwargs, error", [
        # Zero would re-solve one cap until max_designs copies pile up,
        ("pareto_sweep", {"cost_step": 0}, ValueError),
        ("pareto_sweep", {"cost_step": -1.0}, ValueError),
        # and NaN would stop after one design, a front cache= would keep.
        ("pareto_sweep", {"cost_step": float("nan")}, ValueError),
        ("pareto_sweep", {"cost_step": float("inf")}, ValueError),
        ("pareto_sweep_by_deadline", {"time_step": 0}, ValueError),
        ("pareto_sweep_by_deadline", {"time_step": float("nan")}, ValueError),
        # Removed in 2.0.0: use SolverOptions(workers=N).
        ("pareto_sweep", {"workers": 2}, TypeError),
    ])
    def test_bad_sweep_arguments_rejected(self, method, kwargs, error):
        synth = Synthesizer(example1(), example1_library())
        with pytest.raises(error):
            getattr(synth, method)(**kwargs)
        assert synth.total_solve_seconds == 0.0  # rejected before solving


class TestBadInputs:
    def test_time_limited_solver_returns_incumbent_or_unknown(self):
        """A drastically time-limited Bozo still answers coherently."""
        from repro.core.formulation import build_sos_model
        from repro.solvers.bozo import BozoSolver

        built = build_sos_model(example1(), example1_library())
        solution = BozoSolver(SolverOptions(time_limit=0.05)).solve(built.model)
        assert solution.status in (
            SolveStatus.OPTIMAL, SolveStatus.FEASIBLE, SolveStatus.UNKNOWN,
        )
        if solution.status is SolveStatus.FEASIBLE:
            assert solution.objective >= solution.best_bound - 1e-6

    def test_node_limited_highs(self):
        from repro.core.formulation import build_sos_model
        from repro.solvers.highs import HighsSolver

        built = build_sos_model(example1(), example1_library())
        solution = HighsSolver(SolverOptions(node_limit=1)).solve(built.model)
        assert solution.status in (
            SolveStatus.OPTIMAL, SolveStatus.FEASIBLE, SolveStatus.UNKNOWN,
        )

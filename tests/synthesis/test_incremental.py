"""Tests for the one-model-per-synthesizer pipeline.

A :class:`Synthesizer` builds its §3.3 MILP once and re-targets it for
every solve: the designer cost cap, the deadline and the objective.  The
contract: every :class:`~repro.milp.model.MatrixForm` a backend receives
equals, array for array and variable for variable, what a fresh
``SosModelBuilder(graph, library, options).build()`` (plus the designer
constraints) exports for that solve's options.  Designs must therefore be
exactly those of a pipeline that rebuilds the model for every solve.
"""

import dataclasses

import pytest

import repro
import repro.synthesis.synthesizer as synth_mod
from repro.core.designer import DesignerConstraints
from repro.core.formulation import SosModelBuilder
from repro.core.options import Objective
from repro.milp.solution import SolveStats
from repro.service.jobs import SweepRequest
from repro.solvers import registry
from repro.synthesis.synthesizer import Synthesizer
from repro.system.interconnect import InterconnectStyle

FORM_ARRAYS = (
    "c", "a_ub", "b_ub", "a_eq", "b_eq", "lb", "ub", "integrality",
    "branch_priority",
)


def design_fingerprint(design):
    """Everything a design exposes except wall-clock timing."""
    document = design.to_dict()
    document.pop("solve_seconds", None)
    return document


def front_fingerprint(front):
    return [design_fingerprint(design) for design in front]


class Received:
    """Counts model builds and records what every backend solve receives."""

    def __init__(self, monkeypatch):
        self.builds = []
        #: ``(options, form)`` per backend solve, in solve order.
        self.solves = []
        self._real_build = SosModelBuilder.build
        real_build = self._real_build
        real_get_solver = registry.get_solver

        def counting_build(builder):
            built = real_build(builder)
            self.builds.append(built)
            return built

        def capturing_get_solver(name, options=None):
            backend = real_get_solver(name, options)
            real_solve = backend.solve

            def solve(model):
                (built,) = [b for b in self.builds if b.model is model]
                self.solves.append((built.options, model.to_matrices()))
                return real_solve(model)

            backend.solve = solve
            return backend

        monkeypatch.setattr(SosModelBuilder, "build", counting_build)
        monkeypatch.setattr(synth_mod, "get_solver", capturing_get_solver)

    def fresh_form(self, synth, options):
        """What a fresh build for ``options`` exports (not counted)."""
        built = self._real_build(SosModelBuilder(synth.graph, synth.library, options))
        if synth.constraints is not None and not synth.constraints.is_empty():
            synth.constraints.apply(built)
        return built.model.to_matrices()

    def assert_all_fresh(self, synth):
        assert self.solves, "no backend solve was recorded"
        for options, form in self.solves:
            assert_same_form(form, self.fresh_form(synth, options))


def assert_same_form(got, want):
    for name in FORM_ARRAYS:
        left, right = getattr(got, name), getattr(want, name)
        assert left.dtype == right.dtype, name
        assert left.shape == right.shape, name
        assert left.tobytes() == right.tobytes(), name
    assert got.c0 == want.c0
    assert [v.name for v in got.variables] == [v.name for v in want.variables]


@pytest.fixture
def received(monkeypatch):
    return Received(monkeypatch)


def cold_model_for(self, options):
    """The pre-retargeting pipeline: a fresh model for every solve."""
    built = SosModelBuilder(self.graph, self.library, options).build()
    if self.constraints is not None and not self.constraints.is_empty():
        self.constraints.apply(built)
    self.last_model = built
    return built


@pytest.fixture
def cold(monkeypatch):
    """Build a synthesizer whose every solve rebuilds its model."""
    def make(*args, **kwargs):
        synth = Synthesizer(*args, **kwargs)
        monkeypatch.setattr(
            synth, "_model_for", cold_model_for.__get__(synth, Synthesizer)
        )
        return synth

    return make


class TestRetargetedEqualsFresh:
    def test_single_solves_through_one_model(self, received, ex1_graph, ex1_library):
        synth = Synthesizer(ex1_graph, ex1_library)
        calls = (
            dict(),
            dict(cost_cap=13),
            dict(deadline=4.0),
            dict(cost_cap=7, deadline=5.0),
            dict(objective=Objective.MIN_COST),
            dict(deadline=4.0, objective=Objective.MIN_COST),
            dict(objective=Objective.WEIGHTED),
            dict(cost_cap=13, minimize_secondary=False),
            dict(cost_cap=13),
        )
        for kwargs in calls:
            synth.synthesize(**kwargs)
        assert len(received.builds) == 1
        received.assert_all_fresh(synth)
        objectives = [options.objective for options, _ in received.solves]
        assert Objective.WEIGHTED in objectives
        assert objectives.count(Objective.MIN_COST) >= 3

    def test_cost_sweep_steps(self, received, ex1_graph, ex1_library):
        synth = Synthesizer(ex1_graph, ex1_library)
        front = synth.pareto_sweep()
        assert len(received.builds) == 1
        received.assert_all_fresh(synth)
        # Pin each solve's options to the sweep's own caps, independently
        # of the model's bookkeeping: (cap, no deadline, min T_F) then
        # (cap, deadline at that T_F, min cost), and a final infeasible cap.
        solves = [options for options, _ in received.solves]
        assert len(solves) == 2 * len(front) + 1
        for index, cap in enumerate(front.caps):
            primary, secondary = solves[2 * index], solves[2 * index + 1]
            assert (primary.cost_cap, primary.deadline) == (cap, None)
            assert primary.objective is Objective.MIN_MAKESPAN
            assert secondary.cost_cap == cap
            assert secondary.deadline == pytest.approx(front[index].makespan, abs=1e-4)
            assert secondary.objective is Objective.MIN_COST
        assert solves[-1].cost_cap == pytest.approx(front[-1].cost - 1e-4)

    def test_deadline_sweep_steps(self, received, ex1_graph, ex1_library):
        synth = Synthesizer(ex1_graph, ex1_library)
        front = synth.pareto_sweep_by_deadline()
        assert len(front) >= 4
        assert len(received.builds) == 1
        received.assert_all_fresh(synth)

    @pytest.mark.parametrize("style", list(InterconnectStyle))
    def test_every_style(self, received, ex1_graph, ex1_library, style):
        synth = Synthesizer(ex1_graph, ex1_library, style=style)
        synth.pareto_sweep(max_designs=3)
        synth.synthesize(deadline=5.0, objective=Objective.MIN_COST)
        assert len(received.builds) == 1
        received.assert_all_fresh(synth)

    def test_designer_constraints_stay_after_designer_rows(
        self, received, ex1_graph, ex1_library
    ):
        constraints = DesignerConstraints().limit_processors(2).release_at("S2", 0.5)
        synth = Synthesizer(ex1_graph, ex1_library, constraints=constraints)
        synth.synthesize()
        synth.synthesize(cost_cap=7)
        synth.synthesize(deadline=7.0, objective=Objective.MIN_COST)
        synth.synthesize()
        assert len(received.builds) == 1
        received.assert_all_fresh(synth)

    def test_bozo_backend(self, received, tiny_graph, tiny_library):
        synth = Synthesizer(tiny_graph, tiny_library, solver="bozo")
        synth.pareto_sweep()
        synth.pareto_sweep_by_deadline()
        assert len(received.builds) == 1
        received.assert_all_fresh(synth)


class TestBuildCount:
    def test_synthesize_builds_once(self, received, ex1_graph, ex1_library):
        Synthesizer(ex1_graph, ex1_library).synthesize()
        assert len(received.builds) == 1
        assert len(received.solves) == 2  # primary + secondary

    def test_sweep_builds_once(self, received, ex1_graph, ex1_library):
        front = Synthesizer(ex1_graph, ex1_library).pareto_sweep()
        assert len(front) == 5
        assert len(received.builds) == 1
        assert len(received.solves) == 11

    def test_module_level_synthesize_builds_once(self, received, ex1_graph, ex1_library):
        repro.synthesize(ex1_graph, ex1_library, cost_cap=7.2)
        assert len(received.builds) == 1


class TestIncrementalSweepsMatchCold:
    """Re-targeted runs return exactly the designs of per-solve rebuilds."""

    def test_example1_cost_sweep_identical(self, cold, ex1_graph, ex1_library):
        expected = cold(ex1_graph, ex1_library).pareto_sweep()
        front = Synthesizer(ex1_graph, ex1_library).pareto_sweep()
        assert front_fingerprint(front) == front_fingerprint(expected)
        assert front.caps == expected.caps

    def test_example1_deadline_sweep_identical(self, cold, ex1_graph, ex1_library):
        expected = cold(ex1_graph, ex1_library).pareto_sweep_by_deadline()
        front = Synthesizer(ex1_graph, ex1_library).pareto_sweep_by_deadline()
        assert front_fingerprint(front) == front_fingerprint(expected)

    def test_bozo_backend_sweep_identical(self, cold, tiny_graph, tiny_library):
        expected = cold(tiny_graph, tiny_library, solver="bozo").pareto_sweep()
        front = Synthesizer(tiny_graph, tiny_library, solver="bozo").pareto_sweep()
        assert front_fingerprint(front) == front_fingerprint(expected)
        assert front.stats.nodes == expected.stats.nodes
        assert front.stats.lp_pivots == expected.stats.lp_pivots

    def test_model_is_built_once(self, ex1_graph, ex1_library):
        synth = Synthesizer(ex1_graph, ex1_library)
        synth.synthesize(cost_cap=13)
        first = synth.last_model
        synth.synthesize(cost_cap=7, minimize_secondary=False)
        assert synth.last_model is first  # re-targeted, not rebuilt
        assert first.options.cost_cap == 7
        assert first.family_counts["designer-cost-cap"] == 1
        assert "designer-deadline" not in first.family_counts  # dropped again

    def test_single_solves_match_cold(self, cold, ex1_graph, ex1_library):
        """Mixed per-call caps/deadlines/objectives through one model."""
        reference = cold(ex1_graph, ex1_library)
        synth = Synthesizer(ex1_graph, ex1_library)
        calls = (
            dict(cost_cap=13),
            dict(deadline=4.0, objective=Objective.MIN_COST),
            dict(),
            dict(objective=Objective.WEIGHTED),
            dict(cost_cap=5),
        )
        for kwargs in calls:
            want = reference.synthesize(**kwargs)
            got = synth.synthesize(**kwargs)
            assert design_fingerprint(got) == design_fingerprint(want)

    def test_returned_designs_survive_retargeting(self, ex1_graph, ex1_library):
        synth = Synthesizer(ex1_graph, ex1_library)
        design = synth.synthesize(cost_cap=13)
        snapshot = design_fingerprint(design)
        front = synth.pareto_sweep(max_designs=2)
        front_snapshot = front_fingerprint(front)
        synth.synthesize(cost_cap=5)
        synth.synthesize(deadline=4.0, objective=Objective.MIN_COST)
        assert design_fingerprint(design) == snapshot
        assert front_fingerprint(front) == front_snapshot
        assert design.violations() == []


class TestRemovedIncremental:
    def test_synthesizer_keyword_is_rejected(self, tiny_graph, tiny_library):
        with pytest.raises(TypeError, match="incremental"):
            Synthesizer(tiny_graph, tiny_library, incremental=True)

    def test_synthesize_keyword_is_rejected(self, tiny_graph, tiny_library):
        with pytest.raises(TypeError, match="incremental"):
            repro.synthesize(tiny_graph, tiny_library, incremental=True)

    def test_sweep_request_field_is_rejected(self, tiny_graph, tiny_library):
        with pytest.raises(TypeError, match="incremental"):
            SweepRequest(tiny_graph, tiny_library, incremental=True)


class TestSolveStatsSurfaced:
    @pytest.mark.parametrize("backend", ["bozo", "highs"])
    def test_last_stats_populated(self, tiny_graph, tiny_library, backend):
        synth = Synthesizer(tiny_graph, tiny_library, solver=backend)
        synth.synthesize()
        stats = synth.last_stats
        assert stats is not None
        assert stats.lp_solves > 0 or stats.nodes > 0
        assert stats.phase_seconds  # at least one timed phase
        assert "nodes" in stats.summary()

    def test_bozo_stats_count_warm_starts(self, tiny_graph, tiny_library):
        synth = Synthesizer(tiny_graph, tiny_library, solver="bozo")
        synth.synthesize()
        stats = synth.last_stats
        assert stats.lp_pivots >= 0
        assert stats.warm_start_hits <= stats.warm_starts
        assert 0.0 <= stats.warm_start_hit_rate <= 1.0

    def test_total_stats_accumulate(self, tiny_graph, tiny_library):
        synth = Synthesizer(tiny_graph, tiny_library, solver="bozo")
        synth.synthesize()
        after_one = dataclasses.replace(synth.total_stats)
        synth.synthesize(cost_cap=20)
        assert synth.total_stats.lp_solves > after_one.lp_solves

    def test_design_solution_keeps_stats(self, tiny_graph, tiny_library):
        """The polish step must not strip the telemetry off the solution."""
        synth = Synthesizer(tiny_graph, tiny_library, solver="bozo")
        synth.synthesize()
        assert isinstance(synth.last_stats, SolveStats)


class TestBackendSolutionNotMutated:
    def test_synthesize_leaves_backend_solution_alone(
        self, tiny_graph, tiny_library, monkeypatch
    ):
        """``synthesize`` merges timings/stats from its two solves into a
        *new* Solution; the objects the backend returned must be unchanged
        (callers and caches may hold references to them)."""
        captured = []
        real_get_solver = registry.get_solver

        def capturing_get_solver(name, options=None):
            backend = real_get_solver(name, options)
            real_solve = backend.solve

            def solve(model):
                solution = real_solve(model)
                captured.append((solution, solution.solve_seconds, solution.stats))
                return solution

            backend.solve = solve
            return backend

        monkeypatch.setattr(synth_mod, "get_solver", capturing_get_solver)
        synth = Synthesizer(tiny_graph, tiny_library, solver="bozo")
        synth.synthesize()
        assert len(captured) >= 2  # primary + secondary solve
        for solution, seconds, stats in captured:
            assert solution.solve_seconds == seconds
            assert solution.stats is stats

"""Tests for the shared solver interface and options."""

import math

import pytest

from repro.solvers.base import Solver, SolverOptions


class TestSolverOptions:
    def test_defaults(self):
        options = SolverOptions()
        assert math.isinf(options.time_limit)
        assert options.gap_tolerance == pytest.approx(1e-9)
        assert options.node_limit == 0
        assert options.node_selection == "best_first"
        assert options.branching == "pseudocost"
        assert options.cuts == "auto"
        assert options.presolve is True

    def test_overrides(self):
        options = SolverOptions(time_limit=5.0, node_selection="depth_first",
                                branching="most_fractional", presolve=False,
                                cuts="off")
        assert options.time_limit == 5.0
        assert options.node_selection == "depth_first"
        assert options.branching == "most_fractional"
        assert options.presolve is False
        assert options.cuts == "off"


class TestSolverAbc:
    def test_cannot_instantiate_abstract(self):
        with pytest.raises(TypeError):
            Solver()  # type: ignore[abstract]

    def test_default_options_created(self):
        class Impl(Solver):
            name = "impl"

            def solve(self, model):
                """Trivial stub."""
                raise NotImplementedError

        solver = Impl()
        assert isinstance(solver.options, SolverOptions)
        assert "Impl" in repr(solver)

    def test_options_injected(self):
        class Impl(Solver):
            name = "impl"

            def solve(self, model):
                """Trivial stub."""
                raise NotImplementedError

        options = SolverOptions(time_limit=1.0)
        assert Impl(options).options is options

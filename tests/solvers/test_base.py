"""Tests for the shared solver interface and options."""

import dataclasses
import math

import pytest

from repro.solvers.base import Solver, SolverOptions


class TestSolverOptions:
    def test_defaults(self):
        options = SolverOptions()
        assert math.isinf(options.time_limit)
        assert options.gap_tolerance == pytest.approx(1e-9)
        assert options.node_limit == 0
        assert options.incumbent is None

    def test_overrides(self):
        options = SolverOptions(time_limit=5.0, node_limit=7)
        assert options.time_limit == 5.0
        assert options.node_limit == 7

    @pytest.mark.parametrize("field, value", [
        ("node_selection", "best_first"),
        ("branching", "pseudocost"),
        ("strong_branching", 8),
        ("cut_rounds", 5),
        ("seed", 0),  # nothing read it: bozo makes no randomized choice
        ("presolve", True),  # bozo always presolves
        ("cuts", "auto"),  # bozo always runs the root cut loop
    ])
    def test_removed_search_fields_are_rejected(self, field, value):
        # Bozo's search policy is fixed; even the old default is refused.
        with pytest.raises(TypeError, match=field):
            SolverOptions(**{field: value})

    def test_field_count(self):
        assert len(dataclasses.fields(SolverOptions)) == 10


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

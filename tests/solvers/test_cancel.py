"""Tests for cooperative cancellation (``SolverOptions.should_stop``)."""

import pytest

from repro.errors import CancelledError
from repro.solvers.base import SolverOptions
from repro.synthesis.synthesizer import Synthesizer


class TestShouldStop:
    def test_immediate_cancel_raises(self, tiny_graph, tiny_library):
        synth = Synthesizer(
            tiny_graph, tiny_library, solver="bozo",
            solver_options=SolverOptions(should_stop=lambda: True),
        )
        with pytest.raises(CancelledError, match="cancelled"):
            synth.synthesize()

    def test_cancel_is_polled_per_node(self, ex1_graph, ex1_library):
        """The flag is observed mid-search, not just at solve start."""
        polls = {"count": 0}

        # Example 1 solves in four nodes under the devex kernel, so the
        # threshold must sit strictly inside that budget to exercise a
        # mid-search cancellation.
        def stop_after_two() -> bool:
            polls["count"] += 1
            return polls["count"] > 2

        synth = Synthesizer(
            ex1_graph, ex1_library, solver="bozo",
            solver_options=SolverOptions(should_stop=stop_after_two),
        )
        with pytest.raises(CancelledError):
            synth.synthesize()
        assert polls["count"] == 3  # stopped at the first poll returning True

    def test_false_flag_does_not_change_the_solve(self, tiny_graph, tiny_library):
        plain = Synthesizer(tiny_graph, tiny_library, solver="bozo").synthesize()
        flagged = Synthesizer(
            tiny_graph, tiny_library, solver="bozo",
            solver_options=SolverOptions(should_stop=lambda: False),
        ).synthesize()
        assert flagged.makespan == plain.makespan
        assert flagged.cost == plain.cost

    def test_sweep_cancels_between_designs(self, tiny_graph, tiny_library):
        """A sweep is many solves; the flag must stop the whole sweep."""
        calls = {"count": 0}

        # The first design completes after 4 polls on this instance; a
        # threshold of 5 lets design one finish and stops the sweep on
        # design two.
        def stop_late() -> bool:
            calls["count"] += 1
            return calls["count"] > 5

        synth = Synthesizer(
            tiny_graph, tiny_library, solver="bozo",
            solver_options=SolverOptions(should_stop=stop_late),
        )
        with pytest.raises(CancelledError):
            synth.pareto_sweep()

    def test_parallel_solve_cancels(self, tiny_graph, tiny_library):
        # The deprecated workers field runs the serial search, which
        # still honours should_stop.
        with pytest.warns(DeprecationWarning):
            options = SolverOptions(workers=2, should_stop=lambda: True)
        synth = Synthesizer(
            tiny_graph, tiny_library, solver="bozo", solver_options=options,
        )
        with pytest.raises(CancelledError):
            synth.synthesize()

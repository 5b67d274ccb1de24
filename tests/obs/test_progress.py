"""Progress callbacks: rate limiting, exception isolation, verbose removal."""

import math
import warnings

import pytest

from repro.obs import MemoryTraceSink, ProgressReporter, ProgressUpdate
from repro.obs.progress import print_progress
from repro.solvers.base import Solver, SolverOptions
from repro.solvers.bozo import BozoSolver

from tests.solvers.instances import market_split


class FakeClock:
    """A manually-advanced monotonic clock for deterministic rate tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestRateLimit:
    def test_at_most_one_report_per_interval(self):
        clock = FakeClock()
        seen = []
        reporter = ProgressReporter(seen.append, interval=1.0, clock=clock)
        reporter.report(nodes=1)          # fires (first report)
        clock.now = 0.5
        reporter.report(nodes=2)          # suppressed: inside the interval
        clock.now = 1.0
        reporter.report(nodes=3)          # fires: interval elapsed
        assert [u.nodes for u in seen] == [1, 3]

    def test_force_bypasses_the_limit(self):
        clock = FakeClock()
        seen = []
        reporter = ProgressReporter(seen.append, interval=60.0, clock=clock)
        reporter.report(nodes=1)
        reporter.report(nodes=2, force=True)
        assert [u.nodes for u in seen] == [1, 2]

    def test_none_callback_is_a_noop(self):
        reporter = ProgressReporter(None)
        assert not reporter.enabled
        reporter.report(nodes=1)  # must not raise

    def test_update_fields(self):
        clock = FakeClock()
        seen = []
        reporter = ProgressReporter(seen.append, interval=0.0, clock=clock)
        clock.now = 2.0
        reporter.report(nodes=10, incumbent=50.0, bound=40.0)
        (update,) = seen
        assert update == ProgressUpdate(
            nodes=10, incumbent=50.0, bound=40.0, gap=0.2, elapsed=2.0
        )

    def test_gap_is_inf_without_incumbent(self):
        seen = []
        reporter = ProgressReporter(seen.append, interval=0.0, clock=FakeClock())
        reporter.report(nodes=1)
        assert math.isinf(seen[0].gap)


class TestExceptionIsolation:
    def test_raising_callback_is_disabled_with_one_warning(self):
        clock = FakeClock()
        calls = []

        def bad(update):
            calls.append(update)
            raise ValueError("broken progress bar")

        reporter = ProgressReporter(bad, interval=0.0, clock=clock)
        with pytest.warns(RuntimeWarning, match="progress reporting"):
            reporter.report(nodes=1)
        assert not reporter.enabled
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            reporter.report(nodes=2)
        assert len(calls) == 1

    def test_raising_callback_does_not_kill_a_solve(self):
        def bad(update):
            raise RuntimeError("boom")

        options = SolverOptions(on_progress=bad, progress_interval=0.0)
        with pytest.warns(RuntimeWarning):
            solution = BozoSolver(options).solve(market_split(2, 8, 0))
        assert solution.stats is not None
        assert solution.stats.nodes >= 1


class TestVerboseDeprecation:
    """``SolverOptions.verbose`` finished its deprecation: removed in 2.0.0.

    ``on_progress=print_progress`` prints the lines it used to.
    """

    def test_no_warning_without_verbose(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            BozoSolver(SolverOptions())
        with pytest.raises(TypeError, match="verbose"):
            SolverOptions(verbose=True)

    def test_progress_lines_printed_during_verbose_solve(self, capsys):
        options = SolverOptions(on_progress=print_progress,
                                progress_interval=0.0)
        solver = BozoSolver(options)
        solver.solve(market_split(2, 8, 0))
        out = capsys.readouterr().out
        assert "nodes=" in out and "bound=" in out


class TestTraceAndProgressTogether:
    def test_trace_and_progress_coexist(self):
        sink = MemoryTraceSink()
        seen = []
        options = SolverOptions(
            trace=sink, on_progress=seen.append, progress_interval=0.0
        )
        BozoSolver(options).solve(market_split(2, 8, 0))
        assert len(sink.events) > 0
        assert len(seen) > 0
        assert seen[-1].nodes == sum(
            1 for e in sink.events if e.type == "node_opened"
        )


class TestSolverBaseIsUntouched:
    def test_solver_subclasses_still_construct_bare(self):
        class Dummy(Solver):
            name = "dummy"

            def solve(self, model):
                raise NotImplementedError

        assert Dummy().options.on_progress is None

"""The deprecated parallel surface: ``SolverOptions.workers`` and
``repro.solvers.parallel.solve_parallel`` both run the serial search."""

import pytest

from repro.errors import UnknownSolverError
from repro.solvers import bozo
from repro.solvers.base import SolverOptions
from repro.solvers.bozo import BozoSolver
from repro.solvers.parallel import solve_parallel
from repro.solvers.registry import get_solver

from tests.solvers.instances import market_split

#: The SolveStats counters that described parallel search; always 0 now.
WORKER_COUNTERS = (
    "workers", "workers_requested", "subtrees_dispatched",
    "worker_idle_waits", "incumbent_broadcasts",
)


def counters(stats):
    """Every SolveStats field except the wall-clock phase timings."""
    document = stats.as_dict()
    del document["phase_seconds"]
    return document


def assert_same_solution(got, want):
    assert got.status == want.status
    assert got.objective == want.objective
    assert got.best_bound == want.best_bound
    assert got.values == want.values
    assert counters(got.stats) == counters(want.stats)


class TestByteIdentity:
    def test_workers4_matches_serial_exactly(self, monkeypatch):
        # Without root cuts: the deprecated field is ignored whatever the
        # search does.
        monkeypatch.setattr(bozo, "CUT_ROUNDS", 0)
        model = market_split(3, 14, 0)
        serial = BozoSolver().solve(model)
        with pytest.warns(DeprecationWarning, match="workers"):
            options = SolverOptions(workers=4)
        assert serial.iterations >= 200  # a real tree, not a root solve
        assert_same_solution(BozoSolver(options).solve(model), serial)

    def test_rerun_determinism(self):
        model = market_split(3, 14, 1)
        first = BozoSolver().solve(model)
        second = BozoSolver().solve(model)
        assert_same_solution(second, first)

    def test_pseudocost_objective_identity(self):
        # The default options: the deprecated field changes nothing.
        model = market_split(3, 14, 0)
        serial = BozoSolver().solve(model)
        with pytest.warns(DeprecationWarning):
            options = SolverOptions(workers=4)
        assert_same_solution(BozoSolver(options).solve(model), serial)


class TestTelemetry:
    def test_serial_solve_reports_no_parallel_telemetry(self):
        model = market_split(3, 12, 0)
        with pytest.warns(DeprecationWarning):
            options = SolverOptions(workers=2)
        for solver in (BozoSolver(), BozoSolver(options)):
            stats = solver.solve(model).stats
            assert [getattr(stats, name) for name in WORKER_COUNTERS] == [0] * 5
            assert "workers" not in stats.summary()


class TestDeprecatedEntryPoints:
    def test_solve_parallel_warns_and_solves_serially(self):
        model = market_split(3, 12, 0)
        serial = BozoSolver().solve(model)
        with pytest.warns(DeprecationWarning, match="solve_parallel"):
            solution = solve_parallel(BozoSolver(), model, workers=2)
        assert_same_solution(solution, serial)

    def test_bozo_parallel_is_not_registered(self):
        with pytest.raises(UnknownSolverError, match="bozo-parallel"):
            get_solver("bozo-parallel")

    def test_default_workers_do_not_warn(self, recwarn):
        SolverOptions(workers=1)
        assert not [w for w in recwarn if w.category is DeprecationWarning]

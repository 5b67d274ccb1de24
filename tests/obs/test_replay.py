"""Trace replay: SolveStats rebuilt from the event stream, field for field.

The acceptance bar for the tracing subsystem is that a trace is the
ground truth: for any single solve, feeding the recorded events to
:func:`replay_stats` reproduces the returned ``SolveStats`` exactly,
including the floating-point phase timings.
"""

import repro
from repro.obs import MemoryTraceSink, check_schema, replay_stats, split_runs
from repro.solvers.base import SolverOptions
from repro.solvers.bozo import BozoSolver

from tests.solvers.instances import market_split


def _solve_traced():
    """Solve a market-split MILP with a memory sink; (solution, events)."""
    sink = MemoryTraceSink()
    solution = BozoSolver(SolverOptions(trace=sink)).solve(market_split(3, 14, 0))
    return solution, sink.events


class TestReplayExactness:
    def test_serial_replay_matches_stats_field_for_field(self):
        solution, events = _solve_traced()
        assert solution.stats is not None
        assert solution.stats.strong_branch_probes > 0
        assert check_schema(events) == []
        replayed = replay_stats(events)
        assert replayed == solution.stats
        assert replayed.phase_seconds == solution.stats.phase_seconds

    def test_seeded_replay_matches_stats(self):
        """seeded_incumbent derives from the incumbent_found event of the
        seed; a seeded solve must replay exactly."""
        from repro.core.formulation import SosModelBuilder
        from repro.core.options import FormulationOptions
        from repro.core.seeding import heuristic_incumbent
        from repro.system.examples import example1_library
        from repro.taskgraph.examples import example1

        built = SosModelBuilder(
            example1(), example1_library(), FormulationOptions()
        ).build()
        seed = heuristic_incumbent(built)
        assert seed is not None
        sink = MemoryTraceSink()
        solution = BozoSolver(
            SolverOptions(incumbent=seed, trace=sink)
        ).solve(built.model)
        assert solution.stats.seeded_incumbent == 1
        assert check_schema(sink.events) == []
        assert replay_stats(sink.events) == solution.stats

    def test_cut_and_strong_branch_fields_replay_exactly(self):
        """cuts_added / cut_rounds / strong_branch_probes are integer event
        sums; root_gap_closed is recomputed from the first and last
        ``cut_round`` bounds through the same shared formula the solver
        uses, so all four replay bit-exact — and must be *nonzero* here,
        or the test would pass vacuously."""
        sink = MemoryTraceSink()
        solution = BozoSolver(SolverOptions(trace=sink)).solve(
            market_split(3, 14, 0)
        )
        stats = solution.stats
        assert stats.cuts_added > 0
        assert stats.cut_rounds > 0
        assert stats.strong_branch_probes > 0
        assert check_schema(sink.events) == []
        replayed = replay_stats(sink.events)
        assert replayed.cuts_added == stats.cuts_added
        assert replayed.cut_rounds == stats.cut_rounds
        assert replayed.strong_branch_probes == stats.strong_branch_probes
        assert replayed.root_gap_closed == stats.root_gap_closed
        assert replayed == stats

    def test_synthesize_call_replay_matches_last_stats(self):
        sink = MemoryTraceSink()
        synth = repro.Synthesizer(
            repro.example1(), repro.example1_library(),
            solver="bozo", solver_options=SolverOptions(trace=sink),
        )
        synth.synthesize()
        assert synth.last_stats is not None
        assert check_schema(sink.events) == []
        assert replay_stats(sink.events) == synth.last_stats


class TestStreamStructure:
    def test_one_run_per_solve_started(self):
        _, events = _solve_traced()
        runs = split_runs(events)
        assert len(runs) == 1
        assert runs[0][0].type == "solve_started"
        assert runs[0][-1].type == "solve_done"

    def test_node_count_matches_node_opened_events(self):
        solution, events = _solve_traced()
        opened = sum(1 for e in events if e.type == "node_opened")
        assert opened == solution.stats.nodes

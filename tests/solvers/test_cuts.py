"""Tests for the root cut-and-branch layer and strong branching."""

import numpy as np
import pytest

from repro.milp.solution import SolveStatus
from repro.obs import MemoryTraceSink, check_schema, replay_stats
from repro.solvers.base import SolverOptions
from repro.solvers.bozo import BozoSolver
from repro.solvers.cuts import Cut, CutPool
from repro.solvers.highs import HighsSolver

from tests.solvers.test_parallel import market_split


def _solve(model, **kwargs):
    return BozoSolver(SolverOptions(**kwargs)).solve(model)


class TestObjectivePreservation:
    def test_market_split_cuts_on_off_and_highs_agree(self):
        model = market_split(3, 14, 0)
        on = _solve(model, cuts="auto")
        off = _solve(model, cuts="off")
        reference = HighsSolver().solve(model)
        assert on.status is SolveStatus.OPTIMAL
        assert on.objective == pytest.approx(off.objective, abs=1e-9)
        assert on.objective == pytest.approx(reference.objective, abs=1e-6)
        assert on.stats.cuts_added > 0
        assert off.stats.cuts_added == 0

    def test_node_count_strictly_decreases_on_market_split_3x16(self):
        model = market_split(3, 16, 0)
        on = _solve(model, cuts="auto")
        off = _solve(model, cuts="off")
        assert on.objective == pytest.approx(off.objective, abs=1e-9)
        assert on.stats.nodes < off.stats.nodes

    def test_applied_cuts_do_not_cut_the_optimum(self):
        # Every cut row the solver appended must be satisfied by the
        # integer optimum of the *uncut* solve — cuts trim only
        # fractional vertices.  presolve=False keeps the cut coefficient
        # space aligned with the model's own column order.
        model = market_split(3, 14, 0)
        solver = BozoSolver(SolverOptions(cuts="auto", presolve=False))
        solution = solver.solve(model)
        assert solver.last_root_cuts
        x = np.array([solution.values[var] for var in model.variables])
        for coeffs, rhs in solver.last_root_cuts:
            assert float(coeffs @ x) <= rhs + 1e-6

    def test_cuts_off_matches_pre_cut_behavior(self):
        model = market_split(2, 10, 0)
        off = _solve(model, cuts="off")
        assert off.stats.cuts_added == 0
        assert off.stats.cut_rounds == 0
        assert off.stats.root_gap_closed == 0.0


class TestParallelIdentity:
    def test_deterministic_workers4_byte_identical_with_cuts(self):
        model = market_split(3, 14, 0)
        serial = _solve(model, cuts="auto", branching="most_fractional")
        parallel = _solve(
            model, cuts="auto", branching="most_fractional",
            workers=4, clamp_workers=False,
        )
        assert parallel.status == serial.status
        assert parallel.objective == serial.objective
        assert parallel.best_bound == serial.best_bound
        assert parallel.values == serial.values
        # Cuts ran once, during the ramp — identically to the serial root.
        assert parallel.stats.cut_rounds == serial.stats.cut_rounds
        assert parallel.stats.cuts_added == serial.stats.cuts_added

    def test_pseudocost_workers4_objective_identity_with_cuts(self):
        model = market_split(3, 13, 1)
        serial = _solve(model, cuts="auto")
        parallel = _solve(
            model, cuts="auto", workers=4, clamp_workers=False,
        )
        assert parallel.status == serial.status
        assert abs(parallel.objective - serial.objective) <= 1e-9
        assert abs(parallel.best_bound - serial.best_bound) <= 1e-9

    def test_workers_never_separate_cuts(self):
        sink = MemoryTraceSink()
        options = SolverOptions(
            cuts="auto", workers=4, clamp_workers=False, trace=sink,
        )
        BozoSolver(options).solve(market_split(3, 14, 0))
        for event in sink.events:
            if event.type in ("cut_round", "cuts_added", "strong_branch"):
                assert event.worker == 0, event.type


class TestStrongBranching:
    def test_probes_recorded_under_pseudocost(self):
        solution = _solve(market_split(3, 14, 0), branching="pseudocost")
        assert solution.stats.strong_branch_probes > 0

    def test_disabled_with_zero_candidates(self):
        solution = _solve(
            market_split(3, 14, 0), branching="pseudocost", strong_branching=0,
        )
        assert solution.stats.strong_branch_probes == 0

    def test_most_fractional_regime_untouched(self):
        # Strong branching must not fire under most_fractional branching:
        # that regime's byte identity depends on branching being a pure
        # function of each node.
        model = market_split(3, 12, 0)
        first = _solve(model, branching="most_fractional")
        second = _solve(model, branching="most_fractional")
        assert first.stats.strong_branch_probes == 0
        assert first.values == second.values

    def test_objective_unchanged_by_strong_branching(self):
        model = market_split(3, 13, 0)
        with_sb = _solve(model, branching="pseudocost", strong_branching=8)
        without = _solve(model, branching="pseudocost", strong_branching=0)
        assert with_sb.objective == pytest.approx(without.objective, abs=1e-9)


class TestEventsAndReplay:
    def test_cut_events_validate_and_match_stats(self):
        sink = MemoryTraceSink()
        solution = BozoSolver(
            SolverOptions(cuts="auto", trace=sink)
        ).solve(market_split(3, 14, 0))
        assert check_schema(sink.events) == []
        rounds = [e for e in sink.events if e.type == "cut_round"]
        summaries = [e for e in sink.events if e.type == "cuts_added"]
        assert len(rounds) == solution.stats.cut_rounds > 0
        assert len(summaries) == 1
        assert summaries[0].data["count"] == solution.stats.cuts_added
        assert summaries[0].data["rounds"] == solution.stats.cut_rounds
        assert sum(e.data["added"] for e in rounds) == solution.stats.cuts_added

    def test_replay_reconstructs_cut_and_strong_branch_fields_exactly(self):
        sink = MemoryTraceSink()
        solution = BozoSolver(
            SolverOptions(cuts="auto", branching="pseudocost", trace=sink)
        ).solve(market_split(3, 14, 0))
        stats = solution.stats
        assert stats.cuts_added > 0 and stats.strong_branch_probes > 0
        replayed = replay_stats(sink.events)
        assert replayed.cuts_added == stats.cuts_added
        assert replayed.cut_rounds == stats.cut_rounds
        assert replayed.strong_branch_probes == stats.strong_branch_probes
        assert replayed.root_gap_closed == stats.root_gap_closed  # bit-exact
        assert replayed == stats

    def test_replay_exact_with_workers4_and_cuts(self):
        sink = MemoryTraceSink()
        solution = BozoSolver(SolverOptions(
            cuts="auto", branching="most_fractional",
            workers=4, clamp_workers=False, trace=sink,
        )).solve(market_split(3, 14, 0))
        replayed = replay_stats(sink.events)
        assert replayed == solution.stats


class TestCutPool:
    def _cut(self, coeffs, rhs):
        coeffs = np.asarray(coeffs, dtype=float)
        return Cut(
            coeffs=coeffs, rhs=rhs, kind="cover",
            norm=float(np.linalg.norm(coeffs)),
        )

    def test_duplicates_collapse(self):
        pool = CutPool()
        added = pool.add([self._cut([1.0, 1.0], 1.0), self._cut([1.0, 1.0], 1.0)])
        assert added == 1
        chosen = pool.select(np.array([1.0, 1.0]))
        assert len(chosen) == 1

    def test_only_violated_cuts_selected(self):
        pool = CutPool()
        pool.add([
            self._cut([1.0, 0.0], 2.0),   # satisfied at x
            self._cut([0.0, 1.0], 0.25),  # violated at x
        ])
        chosen = pool.select(np.array([1.0, 1.0]))
        assert len(chosen) == 1
        assert chosen[0].rhs == 0.25

    def test_parallel_cuts_filtered(self):
        pool = CutPool()
        pool.add([
            self._cut([1.0, 0.0], 0.25),
            self._cut([1.0, 1e-4], 0.20),  # nearly the same direction
        ])
        chosen = pool.select(np.array([1.0, 1.0]))
        assert len(chosen) == 1

    def test_unselected_cuts_age_out(self):
        pool = CutPool()
        pool.add([self._cut([1.0, 0.0], 2.0)])  # never violated
        satisfied_point = np.array([0.0, 0.0])
        for _ in range(10):
            assert pool.select(satisfied_point) == []
        assert not pool.candidates


class TestOptions:
    def test_cuts_require_warm_start(self):
        # Without the incremental standard form there is no tableau to
        # separate from; the solve silently proceeds uncut.
        solution = _solve(market_split(3, 12, 0), cuts="auto", warm_start=False)
        assert solution.stats.cuts_added == 0
        assert solution.status is SolveStatus.OPTIMAL

    def test_cut_rounds_cap_respected(self):
        solution = _solve(market_split(3, 14, 0), cuts="auto", cut_rounds=2)
        assert solution.stats.cut_rounds <= 2

    def test_fingerprint_distinguishes_cut_options(self, ex1_graph, ex1_library):
        from repro.service.fingerprint import fingerprint_request

        def fp(**kwargs):
            return fingerprint_request(
                "synthesize", ex1_graph, ex1_library, solver="bozo",
                solver_options=SolverOptions(**kwargs),
            )

        baseline = fp()
        assert fp(cuts="off") != baseline
        assert fp(cut_rounds=3) != baseline
        assert fp(strong_branching=0) != baseline
        assert fp() == baseline

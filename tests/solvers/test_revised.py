"""Property tests for the warm-started revised simplex.

The dense two-phase tableau in :mod:`repro.solvers.simplex` is the
correctness oracle: on every LP, cold or warm, the revised engine's
status and objective must match the oracle's to tight tolerance.  The
suites below fuzz the three regimes branch and bound exercises — cold
solves, chains of bound mutations (each warm-started from the previous
basis), and objective swaps — over randomized SOS-shaped LPs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.formulation import SosModelBuilder
from repro.solvers.presolve import presolve
from repro.solvers.revised import (
    AT_FREE,
    AT_LB,
    AT_UB,
    BASIC,
    Basis,
    RevisedStatus,
    StandardFormLP,
    solve_revised,
    solve_with_fallback,
)
from repro.solvers.simplex import solve_lp
from repro.system.examples import example1_library
from repro.taskgraph.examples import example1

OBJECTIVE_TOL = 1e-7


def random_sos_like_lp(rng):
    """An LP shaped like an SOS relaxation: boxed [0,1]-ish variables,
    nonnegative costs, a mix of <= rows and consistent = rows."""
    n = int(rng.integers(4, 14))
    m_ub = int(rng.integers(2, 12))
    m_eq = int(rng.integers(0, 3))
    c = np.abs(rng.normal(size=n))
    a_ub = rng.normal(size=(m_ub, n))
    b_ub = np.abs(rng.normal(size=m_ub)) * 3 + 1
    a_eq = rng.normal(size=(m_eq, n))
    lb = np.zeros(n)
    ub = np.where(rng.random(n) < 0.5, 1.0, rng.random(n) * 5 + 1)
    b_eq = a_eq @ (lb + 0.3 * (ub - lb)) if m_eq else np.zeros(0)
    return c, a_ub, b_ub, a_eq, b_eq, lb, ub


def random_lp_with_edges(rng):
    """:func:`random_sos_like_lp`, sometimes with no rows at all (free
    and negative-cost columns included) and sometimes with an extra row
    no point of the box satisfies."""
    c, a_ub, b_ub, a_eq, b_eq, lb, ub = random_sos_like_lp(rng)
    n = c.shape[0]
    draw = rng.random()
    if draw < 0.1:
        c = rng.normal(size=n)
        lb = np.where(rng.random(n) < 0.2, -np.inf, lb)
        ub = np.where(rng.random(n) < 0.2, np.inf, ub)
        return c, np.zeros((0, n)), np.zeros(0), np.zeros((0, n)), np.zeros(0), lb, ub
    if draw < 0.35:
        # sum(x) >= 1 + sum(ub): beyond every point of the box.
        a_ub = np.vstack([a_ub, -np.ones(n)])
        b_ub = np.append(b_ub, -1.0 - float(np.sum(ub)))
    return c, a_ub, b_ub, a_eq, b_eq, lb, ub


def assert_matches_oracle(revised, dense):
    """Status must agree; on OPTIMAL so must the objective."""
    assert revised.status.name == dense.status.name
    if revised.status is RevisedStatus.OPTIMAL:
        scale = 1.0 + abs(dense.objective)
        assert abs(revised.objective - dense.objective) <= OBJECTIVE_TOL * scale


class TestStandardFormLP:
    def test_shapes_and_logical_columns(self):
        """Slacks get [0, inf) boxes, equality artificials get [0, 0]."""
        sf = StandardFormLP(
            c=np.array([1.0, 2.0]),
            a_ub=np.array([[1.0, 1.0]]), b_ub=np.array([3.0]),
            a_eq=np.array([[1.0, -1.0]]), b_eq=np.array([0.5]),
            lb=np.zeros(2), ub=np.ones(2),
        )
        assert (sf.n, sf.m, sf.ncols) == (2, 2, 4)
        assert sf.up[2] == np.inf and sf.lo[2] == 0.0  # slack
        assert sf.up[3] == 0.0 and sf.lo[3] == 0.0     # artificial

    def test_set_bounds_mutates_in_place(self):
        sf = StandardFormLP(
            c=np.array([1.0]), a_ub=np.array([[1.0]]), b_ub=np.array([4.0]),
            a_eq=np.zeros((0, 1)), b_eq=np.zeros(0),
            lb=np.zeros(1), ub=np.ones(1),
        )
        sf.set_bounds(np.array([0.5]), np.array([0.75]))
        assert sf.lo[0] == 0.5 and sf.up[0] == 0.75
        assert sf.up[1] == np.inf  # logical untouched

    def test_logical_basis_always_exists(self):
        """Even costs pulling toward an infinite bound yield a start
        (phase 1 repairs it); the seed's dual-only start could not."""
        sf = StandardFormLP(
            c=np.array([-1.0]), a_ub=np.array([[-1.0]]), b_ub=np.array([4.0]),
            a_eq=np.zeros((0, 1)), b_eq=np.zeros(0),
            lb=np.zeros(1), ub=np.array([np.inf]),
        )
        basis = sf.logical_basis()
        assert basis.status[0] in (AT_LB, AT_UB, AT_FREE)
        assert basis.status[1] == BASIC
        result = solve_revised(sf)
        assert result.status is RevisedStatus.UNBOUNDED


class TestColdAgainstOracle:
    def test_random_lps_cold_and_warm(self):
        """Every cold solve, and every warm re-solve after B&B-style bound
        changes, agrees with the dense tableau; the draw includes
        infeasible and zero-row LPs, and none gives up."""
        rng = np.random.default_rng(2024)
        seen = set()
        for _ in range(200):
            c, a_ub, b_ub, a_eq, b_eq, lb, ub = random_lp_with_edges(rng)
            sf = StandardFormLP(c, a_ub, b_ub, a_eq, b_eq, lb, ub)
            revised = solve_revised(sf)
            assert_matches_oracle(revised, solve_lp(c, a_ub, b_ub, a_eq, b_eq, lb, ub))
            seen.add((revised.status, sf.m == 0))
            if revised.status is not RevisedStatus.OPTIMAL:
                continue
            basis = revised.basis
            cur_lb, cur_ub = lb, ub
            for _ in range(3):
                j = int(rng.integers(0, sf.n))
                cur_lb, cur_ub = cur_lb.copy(), cur_ub.copy()
                if rng.random() < 0.5:
                    cur_ub[j] = max(cur_lb[j], np.floor(cur_ub[j] * rng.random()))
                else:
                    cur_lb[j] = min(cur_ub[j], np.ceil(cur_lb[j] + rng.random()))
                sf.set_bounds(cur_lb, cur_ub)
                warm = solve_revised(sf, basis)
                assert_matches_oracle(
                    warm, solve_lp(c, a_ub, b_ub, a_eq, b_eq, cur_lb, cur_ub)
                )
                if warm.status is RevisedStatus.OPTIMAL:
                    basis = warm.basis
        assert {
            (RevisedStatus.OPTIMAL, False), (RevisedStatus.INFEASIBLE, False),
            (RevisedStatus.OPTIMAL, True), (RevisedStatus.UNBOUNDED, True),
        } <= seen

    def test_zero_row_lp_optimal(self):
        """With no rows every column sits on its cost-side bound."""
        sf = StandardFormLP(
            np.array([1.0, -2.0, 0.0]), np.zeros((0, 3)), np.zeros(0),
            np.zeros((0, 3)), np.zeros(0),
            np.array([0.5, 0.0, -np.inf]), np.array([1.0, 4.0, np.inf]),
        )
        result = solve_revised(sf)
        assert result.status is RevisedStatus.OPTIMAL
        assert result.objective == pytest.approx(-7.5)
        assert np.array_equal(result.x, [0.5, 4.0, 0.0])
        assert result.basis.basic.size == 0

    def test_zero_row_lp_unbounded(self):
        """A negative cost on an infinite upper bound is a ray."""
        sf = StandardFormLP(
            np.array([1.0, -1.0]), np.zeros((0, 2)), np.zeros(0),
            np.zeros((0, 2)), np.zeros(0), np.zeros(2), np.array([1.0, np.inf]),
        )
        assert solve_revised(sf).status is RevisedStatus.UNBOUNDED

    def test_example1_root_relaxation(self):
        """The real Example 1 root LP: same optimum, competitive pivots."""
        built = SosModelBuilder(example1(), example1_library()).build()
        form = presolve(built.model.to_matrices()).form
        sf = StandardFormLP.from_matrix_form(form)
        revised = solve_revised(sf)
        dense = solve_lp(form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq,
                         form.lb, form.ub, c0=form.c0)
        assert revised.status is RevisedStatus.OPTIMAL
        assert revised.objective == pytest.approx(dense.objective, abs=1e-6)
        assert revised.basis is not None

    def test_fallback_wrapper_always_answers(self):
        """solve_with_fallback warns and hands back solve_revised's answer."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            c, a_ub, b_ub, a_eq, b_eq, lb, ub = random_sos_like_lp(rng)
            sf = StandardFormLP(c, a_ub, b_ub, a_eq, b_eq, lb, ub)
            with pytest.warns(DeprecationWarning, match="solve_revised"):
                result, basis, fell_back = solve_with_fallback(sf)
            direct = solve_revised(sf)
            assert result.status is direct.status
            assert result.iterations == direct.iterations
            assert basis is result.basis and not fell_back
            if direct.status is RevisedStatus.OPTIMAL:
                assert result.objective == direct.objective
                assert np.array_equal(basis.basic, direct.basis.basic)


class TestWarmStarts:
    def test_branch_and_bound_bound_mutation_chains(self):
        """Every bound-mutation pattern B&B produces: floor the upper bound
        or ceil the lower bound of one variable, re-solving warm from the
        previous optimal basis each time."""
        rng = np.random.default_rng(77)
        warm_total = dense_total = 0
        chains = 0
        for _ in range(25):
            c, a_ub, b_ub, a_eq, b_eq, lb, ub = random_sos_like_lp(rng)
            sf = StandardFormLP(c, a_ub, b_ub, a_eq, b_eq, lb, ub)
            root = solve_revised(sf)
            if root.status is not RevisedStatus.OPTIMAL:
                continue
            chains += 1
            basis = root.basis
            cur_lb, cur_ub = lb.copy(), ub.copy()
            for _ in range(8):
                j = int(rng.integers(0, sf.n))
                if rng.random() < 0.5:
                    cur_ub = cur_ub.copy()
                    cur_ub[j] = max(cur_lb[j], np.floor(cur_ub[j] * rng.random()))
                else:
                    cur_lb = cur_lb.copy()
                    cur_lb[j] = min(cur_ub[j], np.ceil(cur_lb[j] + rng.random()))
                sf.set_bounds(cur_lb, cur_ub)
                warm = solve_revised(sf, basis)
                dense = solve_lp(c, a_ub, b_ub, a_eq, b_eq, cur_lb, cur_ub)
                assert_matches_oracle(warm, dense)
                if warm.status is RevisedStatus.OPTIMAL:
                    warm_total += warm.iterations
                    dense_total += dense.iterations
                    basis = warm.basis
        assert chains >= 15
        # The entire point of warm starting: far fewer pivots than the
        # dense rebuild needs on the same sequence of LPs.
        assert warm_total * 2 <= dense_total

    def test_objective_swap_keeps_primal_feasibility(self):
        """Pareto-style objective retargeting warm-starts via primal simplex."""
        rng = np.random.default_rng(99)
        for _ in range(15):
            c, a_ub, b_ub, a_eq, b_eq, lb, ub = random_sos_like_lp(rng)
            sf = StandardFormLP(c, a_ub, b_ub, a_eq, b_eq, lb, ub)
            result = solve_revised(sf)
            if result.status is not RevisedStatus.OPTIMAL:
                continue
            for _ in range(3):
                c2 = np.abs(rng.normal(size=sf.n))
                sf.set_objective(c2)
                warm = solve_revised(sf, result.basis)
                dense = solve_lp(c2, a_ub, b_ub, a_eq, b_eq, lb, ub)
                assert_matches_oracle(warm, dense)
                if warm.status is RevisedStatus.OPTIMAL:
                    result = warm

    def test_warm_start_does_not_mutate_input_basis(self):
        """The caller's basis survives the solve (children share a parent's)."""
        c = np.array([1.0, 1.0])
        sf = StandardFormLP(
            c, np.array([[1.0, 1.0]]), np.array([1.5]),
            np.zeros((0, 2)), np.zeros(0), np.zeros(2), np.ones(2),
        )
        first = solve_revised(sf)
        assert first.status is RevisedStatus.OPTIMAL
        snapshot = Basis(first.basis.basic.copy(), first.basis.status.copy())
        sf.set_bounds(np.zeros(2), np.array([1.0, 0.0]))
        solve_revised(sf, first.basis)
        assert np.array_equal(first.basis.basic, snapshot.basic)
        assert np.array_equal(first.basis.status, snapshot.status)

    def test_infeasible_child_detected(self):
        """Tightening bounds past feasibility must report INFEASIBLE, as a
        B&B child whose branch empties the feasible region would."""
        c = np.array([1.0])
        a_eq = np.array([[1.0]])
        sf = StandardFormLP(
            c, np.zeros((0, 1)), np.zeros(0), a_eq, np.array([0.5]),
            np.zeros(1), np.ones(1),
        )
        root = solve_revised(sf)
        assert root.status is RevisedStatus.OPTIMAL
        sf.set_bounds(np.array([0.8]), np.array([1.0]))
        child = solve_revised(sf, root.basis)
        assert child.status is RevisedStatus.INFEASIBLE

    def test_phase1_residual_infeasibility_is_certified(self, monkeypatch):
        """An infeasible LP whose warm start is not dual feasible ends in
        phase 1 at an optimum with residual infeasibility.  The engine
        confirms that on a fresh factorization and returns INFEASIBLE
        itself.  (A parallel ``workers=2`` Table II sweep reached this
        exit once before parallel branch and bound was removed; the
        serial sweep never does.)"""
        from repro.solvers import revised

        exits = []
        dual_feasible = revised._Engine.dual_feasible
        phase1_loop = revised._Engine.phase1_loop

        def recording_dual_feasible(engine, d):
            verdict = dual_feasible(engine, d)
            exits.append(("dual_feasible", verdict))
            return verdict

        def recording_phase1_loop(engine):
            result = phase1_loop(engine)
            exits.append(("phase1", None if result is None else result.status))
            return result

        monkeypatch.setattr(revised._Engine, "dual_feasible", recording_dual_feasible)
        monkeypatch.setattr(revised._Engine, "phase1_loop", recording_phase1_loop)
        # min x1 + 2 x2 s.t. x1 + x2 >= 1 on [0, 1]^2: optimum 1 at x1 = 1.
        sf = StandardFormLP(
            np.array([1.0, 2.0]), np.array([[-1.0, -1.0]]), np.array([-1.0]),
            np.zeros((0, 2)), np.zeros(0), np.zeros(2), np.ones(2),
        )
        root = solve_revised(sf)
        assert root.status is RevisedStatus.OPTIMAL
        # A new objective breaks dual feasibility; the boxes empty the LP.
        sf.set_objective(np.array([-1.0, -3.0]))
        sf.set_bounds(np.zeros(2), np.array([0.4, 0.4]))
        exits.clear()
        warm = solve_revised(sf, root.basis)
        assert warm.status is RevisedStatus.INFEASIBLE
        assert exits == [
            ("dual_feasible", False), ("phase1", RevisedStatus.INFEASIBLE),
        ]
        assert warm.basis is None and warm.counters.refactorizations == 2


class TestKernelCounters:
    def test_sweep_stats_count_every_engine_refactorization(self, monkeypatch):
        """Infeasible and unbounded engine returns carry their counters, so
        ``SolveStats.refactorizations`` over the bozo Table II sweep equals
        the ``_Engine.refactor`` calls made, and each solve still replays
        exactly from its trace."""
        import repro
        from repro.obs import MemoryTraceSink, replay_stats, split_runs
        from repro.solvers import revised
        from repro.solvers.base import SolverOptions
        from repro.solvers.bozo import BozoSolver

        calls = 0
        refactor = revised._Engine.refactor

        def counting_refactor(engine):
            nonlocal calls
            calls += 1
            return refactor(engine)

        solutions = []
        solve = BozoSolver.solve

        def recording_solve(solver, model):
            solution = solve(solver, model)
            solutions.append(solution)
            return solution

        monkeypatch.setattr(revised._Engine, "refactor", counting_refactor)
        monkeypatch.setattr(BozoSolver, "solve", recording_solve)
        sink = MemoryTraceSink()
        front = repro.Synthesizer(
            example1(), example1_library(), solver="bozo",
            solver_options=SolverOptions(trace=sink),
        ).pareto_sweep()
        assert calls > 0
        assert front.stats.refactorizations == calls
        assert sum(s.stats.refactorizations for s in solutions) == calls
        runs = split_runs(sink.events)
        assert [replay_stats(run) for run in runs] == [s.stats for s in solutions]


class TestEngineRecovery:
    """The engine recovers from numerical trouble instead of giving up."""

    @staticmethod
    def tightened_warm_start():
        """A solved LP whose basic ``x2`` the new box cuts off: the warm
        re-solve starts dual feasible and repairs in the dual loop.

        min -x1 - x2 s.t. x1 + x2 <= 1.5 on [0, 1]^2 (optimum -1.5), then
        ``x2 <= 0.2`` (optimum -1.2).
        """
        c = np.array([-1.0, -1.0])
        a_ub, b_ub = np.array([[1.0, 1.0]]), np.array([1.5])
        sf = StandardFormLP(c, a_ub, b_ub, np.zeros((0, 2)), np.zeros(0),
                            np.zeros(2), np.ones(2))
        root = solve_revised(sf)
        assert root.status is RevisedStatus.OPTIMAL
        lb, ub = np.zeros(2), np.array([1.0, 0.2])
        sf.set_bounds(lb, ub)
        oracle = solve_lp(c, a_ub, b_ub, np.zeros((0, 2)), np.zeros(0), lb, ub)
        return sf, root.basis, oracle

    def test_dual_loop_reprices_after_a_tiny_post_refactor_pivot(self, monkeypatch):
        """The entering column of a dual iteration is picked from a row
        priced on the current factors.  When its FTRAN pivot is tiny, the
        engine refactorizes; if the pivot is still tiny on the fresh
        factors, the iteration is priced again from the refreshed state
        rather than abandoned.  Injected here: the first two entering
        FTRANs of the dual loop come back scaled to nothing."""
        from repro.solvers import revised

        dual_loop = revised._Engine.dual_loop
        entering_column = revised._Engine.entering_column
        injected = []

        def dual_loop_with_tiny_pivots(engine, d):
            engine.tiny_ftrans = 2
            return dual_loop(engine, d)

        def faulty_entering_column(engine, j):
            w = entering_column(engine, j)
            if getattr(engine, "tiny_ftrans", 0):
                engine.tiny_ftrans -= 1
                injected.append(j)
                return w * 1e-12
            return w

        monkeypatch.setattr(revised._Engine, "dual_loop", dual_loop_with_tiny_pivots)
        monkeypatch.setattr(revised._Engine, "entering_column", faulty_entering_column)
        sf, basis, oracle = self.tightened_warm_start()
        warm = solve_revised(sf, basis)
        assert len(injected) == 2
        assert warm.status is RevisedStatus.OPTIMAL
        assert_matches_oracle(warm, oracle)
        assert warm.counters.dual_pivots >= 1
        assert warm.counters.refactorizations == 2  # the start, then the drift

    def test_dual_loop_gives_up_on_pivots_tiny_on_every_factorization(self, monkeypatch):
        """The re-pricing is capped: a pivot that stays tiny however often
        the basis is refactorized still ends the solve."""
        from repro.solvers import revised

        sf, basis, _ = self.tightened_warm_start()
        entering_column = revised._Engine.entering_column
        monkeypatch.setattr(
            revised._Engine, "entering_column",
            lambda engine, j: entering_column(engine, j) * 1e-12,
        )
        warm = solve_revised(sf, basis)
        assert warm.status is RevisedStatus.NEEDS_FALLBACK

    def test_singular_start_basis_is_repaired(self):
        """Two equal basic columns make the start basis singular; the
        engine swaps one for a logical and solves the LP."""
        c = np.array([-1.0, -2.0])
        a_ub, b_ub = np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([1.0, 3.0])
        lb, ub = np.zeros(2), np.ones(2)
        sf = StandardFormLP(c, a_ub, b_ub, np.zeros((0, 2)), np.zeros(0), lb, ub)
        status = np.array([BASIC, BASIC, AT_LB, AT_LB], dtype=np.int8)
        singular = Basis(np.array([0, 1]), status)
        result = solve_revised(sf, singular)
        oracle = solve_lp(c, a_ub, b_ub, np.zeros((0, 2)), np.zeros(0), lb, ub)
        assert result.status is RevisedStatus.OPTIMAL
        assert_matches_oracle(result, oracle)

    def test_singular_refactorization_in_phase1_is_repaired(self):
        """Capping example1's cost at 6.9999 and raising ``T_F``'s lower
        bound to 4 leads a warm phase 1 onto a singular basis (the eta
        file accepted it; the refactorization does not).  The engine
        repairs the basis and bozo finds the optimum HiGHS finds."""
        from repro.core.options import FormulationOptions
        from repro.solvers import revised
        from repro.solvers.bozo import BozoSolver
        from repro.solvers.highs import HighsSolver

        built = SosModelBuilder(
            example1(), example1_library(), FormulationOptions(cost_cap=6.9999)
        ).build()
        built.variables.t_f.lb = 4.0
        refactor = revised._Engine.refactor
        singular = []

        def recording_refactor(engine):
            ok = refactor(engine)
            if not ok:
                singular.append(engine.iterations)
            return ok

        highs = HighsSolver().solve(built.model)
        try:
            revised._Engine.refactor = recording_refactor
            bozo = BozoSolver().solve(built.model)
        finally:
            revised._Engine.refactor = refactor
        assert singular  # the repair ran
        assert highs.objective == pytest.approx(7.0)
        assert bozo.objective == pytest.approx(highs.objective, abs=1e-6)

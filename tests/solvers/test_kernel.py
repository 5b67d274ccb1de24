"""Property tests for the simplex hot path: devex, flips, cut tailing-off.

Three claims the hot path makes, checked against the dense tableau
oracle, HiGHS, or the cut loop's own trace events:

* **Devex pricing is exact** — the only pricing rule must land on the
  oracle's optimal objective on every LP, cold and warm, and Bozo's
  MILP optimum must match HiGHS.
* **The bound-flipping ratio test is exact** — long dual steps through
  boxed columns must reproduce the oracle objective while actually
  flipping (the counter proves the path is exercised).
* **The cut loop knows when to stop** — once cuts stop closing root gap
  the loop exits early with ``reason="tailing_off"`` on its trace event.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.milp.model import Model, VarType
from repro.obs import MemoryTraceSink
from repro.solvers import bozo
from repro.solvers.base import SolverOptions
from repro.solvers.bozo import BozoSolver
from repro.solvers.highs import HighsSolver
from repro.solvers.revised import RevisedStatus, StandardFormLP, solve_revised
from repro.solvers.simplex import solve_lp
from tests.solvers.instances import market_split
from tests.solvers.test_revised import assert_matches_oracle, random_sos_like_lp


def branch_chain(rng, sf, lb, ub, steps=6):
    """Yield B&B-style bound mutations: floor an upper or ceil a lower."""
    cur_lb, cur_ub = lb.copy(), ub.copy()
    for _ in range(steps):
        j = int(rng.integers(0, sf.n))
        if rng.random() < 0.5:
            cur_ub = cur_ub.copy()
            cur_ub[j] = max(cur_lb[j], np.floor(cur_ub[j] * rng.random()))
        else:
            cur_lb = cur_lb.copy()
            cur_lb[j] = min(cur_ub[j], np.ceil(cur_lb[j] + rng.random()))
        yield cur_lb, cur_ub


class TestDevexAgainstOracle:
    def test_devex_matches_oracle_on_random_lps(self):
        """Cold devex solves agree with the dense tableau on ~40 LPs."""
        rng = np.random.default_rng(31)
        agreed = 0
        for _ in range(40):
            c, a_ub, b_ub, a_eq, b_eq, lb, ub = random_sos_like_lp(rng)
            devex = solve_revised(StandardFormLP(c, a_ub, b_ub, a_eq, b_eq, lb, ub))
            assert_matches_oracle(devex, solve_lp(c, a_ub, b_ub, a_eq, b_eq, lb, ub))
            if devex.status is RevisedStatus.OPTIMAL:
                agreed += 1
        assert agreed >= 30

    def test_devex_matches_oracle_on_warm_chains(self):
        """Warm devex re-solves along branch chains match the oracle."""
        rng = np.random.default_rng(32)
        chains = 0
        for _ in range(10):
            c, a_ub, b_ub, a_eq, b_eq, lb, ub = random_sos_like_lp(rng)
            sf = StandardFormLP(c, a_ub, b_ub, a_eq, b_eq, lb, ub)
            root = solve_revised(sf)
            if root.status is not RevisedStatus.OPTIMAL:
                continue
            chains += 1
            basis = root.basis
            for cur_lb, cur_ub in branch_chain(rng, sf, lb, ub):
                sf.set_bounds(cur_lb, cur_ub)
                warm = solve_revised(sf, basis)
                dense = solve_lp(c, a_ub, b_ub, a_eq, b_eq, cur_lb, cur_ub)
                assert_matches_oracle(warm, dense)
                if warm.status is RevisedStatus.OPTIMAL:
                    basis = warm.basis
        assert chains >= 6

    def test_bozo_matches_highs_end_to_end(self):
        """A full MILP solve lands on the HiGHS optimum."""
        model = market_split(3, 10, 0)
        bozo = BozoSolver().solve(model)
        highs = HighsSolver().solve(model)
        assert bozo.objective == pytest.approx(highs.objective)


class TestBoundFlips:
    def test_flips_happen_and_answers_match_oracle(self):
        """Tight boxes force long dual steps: the flip counter must move
        while every warm answer still matches the dense tableau."""
        rng = np.random.default_rng(41)
        flips = 0
        checked = 0
        for _ in range(20):
            c, a_ub, b_ub, a_eq, b_eq, lb, ub = random_sos_like_lp(rng)
            ub = np.minimum(ub, 1.0)  # tight boxes: flips become likely
            sf = StandardFormLP(c, a_ub, b_ub, a_eq, b_eq, lb, ub)
            root = solve_revised(sf)
            if root.status is not RevisedStatus.OPTIMAL:
                continue
            basis = root.basis
            for cur_lb, cur_ub in branch_chain(rng, sf, lb, ub):
                sf.set_bounds(cur_lb, cur_ub)
                warm = solve_revised(sf, basis)
                if warm.counters is not None:
                    flips += warm.counters.bound_flips
                dense = solve_lp(c, a_ub, b_ub, a_eq, b_eq, cur_lb, cur_ub)
                assert_matches_oracle(warm, dense)
                checked += 1
                if warm.status is RevisedStatus.OPTIMAL:
                    basis = warm.basis
        assert checked >= 40
        assert flips > 0

    def test_all_columns_boxed_at_bound(self):
        """Every structural at a bound with a unit box: the ratio test has
        only flip candidates until the last one enters."""
        c = np.array([-1.0, -2.0, -3.0])
        a_ub = np.array([[1.0, 1.0, 1.0]])
        b_ub = np.array([1.5])
        sf = StandardFormLP(
            c, a_ub, b_ub, np.zeros((0, 3)), np.zeros(0),
            np.zeros(3), np.ones(3),
        )
        root = solve_revised(sf)
        assert root.status is RevisedStatus.OPTIMAL
        assert root.objective == pytest.approx(-4.0)  # x3=1, x2 split
        # Child: fix x2 to zero; the re-solve must flip its way back.
        sf.set_bounds(np.zeros(3), np.array([1.0, 1.0, 0.0]))
        warm = solve_revised(sf, root.basis)
        assert warm.status is RevisedStatus.OPTIMAL
        assert warm.objective == pytest.approx(-2.5)

    def test_free_variable_lp_still_answers(self):
        """Free columns (no finite bound either side) take the general
        path and must match the oracle."""
        c = np.array([1.0, 1.0])
        a_eq = np.array([[1.0, -1.0]])
        b_eq = np.array([0.25])
        sf = StandardFormLP(
            c, np.zeros((0, 2)), np.zeros(0), a_eq, b_eq,
            np.array([-np.inf, 0.0]), np.array([np.inf, 2.0]),
        )
        result = solve_revised(sf)
        dense = solve_lp(
            c, np.zeros((0, 2)), np.zeros(0), a_eq, b_eq,
            np.array([-np.inf, 0.0]), np.array([np.inf, 2.0]),
        )
        assert_matches_oracle(result, dense)


class TestDegeneracy:
    def test_degenerate_ties_hand_over_to_bland(self):
        """Massively degenerate LP (duplicate rows, tied costs): the stall
        detector must hand over to Bland's rule rather than cycle."""
        n = 6
        c = np.ones(n)
        row = np.ones((1, n))
        a_ub = np.vstack([row, row, row, 2 * row])  # duplicates + scaling
        b_ub = np.array([3.0, 3.0, 3.0, 6.0])
        sf = StandardFormLP(
            c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0),
            np.zeros(n), np.ones(n),
        )
        result = solve_revised(sf)
        assert result.status is RevisedStatus.OPTIMAL
        assert result.objective == pytest.approx(0.0)


def tailing_model(cycle=5, binaries=8, seed=0):
    """An odd antihole plus a market-split block: round one of cuts closes
    real root gap (the cycle), later rounds generate cuts that cannot move
    the bound (the balance rows) — the tailing-off exit's home turf."""
    rng = random.Random(seed)
    m = Model(f"tailing_{cycle}_{binaries}_{seed}")
    x = [m.add_var(f"x{j}", vtype=VarType.BINARY) for j in range(cycle)]
    for i in range(cycle):
        m.add(2.0 * x[i] + 2.0 * x[(i + 1) % cycle] <= 3.0, name=f"edge{i}")
    y = [m.add_var(f"y{j}", vtype=VarType.BINARY) for j in range(binaries)]
    surplus = [m.add_var(f"sp{i}", lb=0) for i in range(2)]
    deficit = [m.add_var(f"sm{i}", lb=0) for i in range(2)]
    for i in range(2):
        weights = [rng.randrange(100) for _ in range(binaries)]
        m.add(
            sum(w * yj for w, yj in zip(weights, y))
            + surplus[i] - deficit[i] == sum(weights) // 2,
            name=f"row{i}",
        )
    m.minimize(sum(-1.0 * v for v in x) + sum(surplus) + sum(deficit))
    return m


class TestCutTailingOff:
    def test_cut_loop_exits_early_with_reason(self, monkeypatch):
        """The loop stops as soon as a progressed round closes nothing,
        stamping ``reason="tailing_off"`` on the final cut_round event."""
        monkeypatch.setattr(bozo, "CUT_ROUNDS", 8)
        sink = MemoryTraceSink()
        solution = BozoSolver(
            SolverOptions(trace=sink)
        ).solve(tailing_model())
        rounds = [e for e in sink.events if e.type == "cut_round"]
        assert 0 < len(rounds) < 8  # exited before the budget
        assert rounds[-1].data.get("reason") == "tailing_off"
        assert all(e.data.get("reason") is None for e in rounds[:-1])
        assert solution.stats.cut_rounds == len(rounds)

    def test_stalled_from_the_start_runs_no_extra_rounds(self, monkeypatch):
        """Pure market split: the bound never moves, so no round ever
        'progresses' and the loop must not claim tailing-off — cuts here
        earn their keep by pruning nodes, not by moving the root bound."""
        monkeypatch.setattr(bozo, "CUT_ROUNDS", 3)
        sink = MemoryTraceSink()
        BozoSolver(
            SolverOptions(trace=sink)
        ).solve(market_split(3, 10, 0))
        rounds = [e for e in sink.events if e.type == "cut_round"]
        assert all(e.data.get("reason") is None for e in rounds)

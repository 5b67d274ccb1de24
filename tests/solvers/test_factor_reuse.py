"""The sparse kernel's factor cache reuses verified factors bit for bit.

``_SparseLUFactor.refactor`` looks up each ordered basis in a small
per-form cache before calling ``splu``.  Reuse is only sound because a
fresh factorization of identical arrays is deterministic, so these tests
check both halves of the claim:

* **Invisible** — the bozo Table II sweep with the cache and with its
  size forced to 0 yields the same front, the same per-solve
  ``SolveStats`` counters and traces that replay exactly; the cached run
  only calls ``splu`` less often.
* **Safe** — a hit answers FTRAN/BTRAN bit-identically to a fresh
  factor, the cache dies with the CSC matrix it factorized
  (``append_ub_rows``), it never grows past its bound,
  and it never holds a singular factor.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.formulation import SosModelBuilder
from repro.solvers import revised
from repro.solvers.revised import (
    DENSE_KERNEL_MAX,
    FACTOR_CACHE_SIZE,
    RevisedStatus,
    StandardFormLP,
    _SparseLUFactor,
    solve_revised,
)
from repro.system.examples import example1_library
from repro.taskgraph.examples import example1


@pytest.fixture
def splu_calls(monkeypatch):
    """Count ``splu`` calls made through the revised kernel."""
    calls = []
    splu = revised._splu

    def counting_splu(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(revised, "_splu", counting_splu)
    return calls


def example1_form() -> StandardFormLP:
    """Example 1's standard form: large enough for the sparse kernel."""
    form = SosModelBuilder(example1(), example1_library()).build().model.to_matrices()
    sf = StandardFormLP.from_matrix_form(form)
    assert sf.m > DENSE_KERNEL_MAX
    return sf


def optimal_basic(sf: StandardFormLP) -> np.ndarray:
    """The ordered basic columns of the LP relaxation's optimum."""
    result = solve_revised(sf)
    assert result.status is RevisedStatus.OPTIMAL
    return result.basis.basic.copy()


def fresh_factor(sf: StandardFormLP, basic: np.ndarray, monkeypatch) -> _SparseLUFactor:
    """A factor of ``basic`` computed with the cache switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(revised, "FACTOR_CACHE_SIZE", 0)
        factor = _SparseLUFactor(sf)
        assert factor.refactor(basic)
    return factor


def assert_solves_identical(a: _SparseLUFactor, b: _SparseLUFactor, m: int) -> None:
    rng = np.random.default_rng(7)
    rhs = rng.normal(size=m)
    assert np.array_equal(a.ftran(rhs), b.ftran(rhs))
    assert np.array_equal(a.btran(rhs), b.btran(rhs))
    for i in (0, m // 2, m - 1):
        assert np.array_equal(a.btran_unit(i), b.btran_unit(i))


class TestFactorCache:
    def test_basis_gather_matches_scipy_column_indexing(self):
        """The CSC gather hands ``splu`` exactly the arrays scipy's
        ``a_csc()[:, basic]`` builds, so the LU cannot change."""
        sf = example1_form()
        csc = sf.a_csc()
        rng = np.random.default_rng(3)
        for basic in (optimal_basic(sf), rng.permutation(sf.ncols)[: sf.m]):
            gathered = revised._basis_csc(csc, basic)
            sliced = csc[:, basic].tocsc()
            for name in ("indptr", "indices", "data"):
                mine, scipys = getattr(gathered, name), getattr(sliced, name)
                assert mine.dtype == scipys.dtype
                assert np.array_equal(mine, scipys)
            assert gathered.shape == sliced.shape

    def test_repeat_basis_factors_once_and_solves_bit_identically(
        self, splu_calls, monkeypatch
    ):
        sf = example1_form()
        basic = optimal_basic(sf)
        del splu_calls[:]
        first = _SparseLUFactor(sf)
        assert first.refactor(basic)
        second = _SparseLUFactor(sf)
        assert second.refactor(basic.copy())
        assert len(splu_calls) == 1
        assert second.lu is first.lu
        assert_solves_identical(second, fresh_factor(sf, basic, monkeypatch), sf.m)

    def test_hit_clears_the_eta_file(self, monkeypatch):
        sf = example1_form()
        basic = optimal_basic(sf)
        factor = _SparseLUFactor(sf)
        assert factor.refactor(basic)
        factor.update(0, factor.ftran_column(0))
        assert factor.etas and factor.fill > 0
        assert factor.refactor(basic)
        assert factor.etas == [] and factor.fill == 0
        assert_solves_identical(factor, fresh_factor(sf, basic, monkeypatch), sf.m)

    def test_reordered_basis_is_a_different_key(self, splu_calls):
        sf = example1_form()
        basic = optimal_basic(sf)
        del splu_calls[:]
        factor = _SparseLUFactor(sf)
        assert factor.refactor(basic)
        assert factor.refactor(basic[::-1].copy())
        assert len(splu_calls) == 2

    def test_append_ub_rows_drops_the_cache(self, splu_calls):
        sf = example1_form()
        basic = optimal_basic(sf)
        factor = _SparseLUFactor(sf)
        assert factor.refactor(basic)
        assert sf._factors
        sf.append_ub_rows(np.ones((1, sf.n)), np.array([1e6]))
        assert sf._factors == {}
        extended = np.concatenate([basic, [sf.ncols - 1]])
        del splu_calls[:]
        assert _SparseLUFactor(sf).refactor(extended)
        assert len(splu_calls) == 1

    @pytest.mark.parametrize("size", [0, 1, FACTOR_CACHE_SIZE])
    def test_cache_never_exceeds_its_bound(self, size, monkeypatch):
        monkeypatch.setattr(revised, "FACTOR_CACHE_SIZE", size)
        sf = example1_form()
        basic = optimal_basic(sf)
        rng = np.random.default_rng(0)
        factor = _SparseLUFactor(sf)
        for _ in range(FACTOR_CACHE_SIZE + 3):
            assert factor.refactor(rng.permutation(basic))
            assert len(sf._factors) <= size
        assert len(sf._factors) == size

    def test_least_recently_used_goes_first(self, monkeypatch):
        monkeypatch.setattr(revised, "FACTOR_CACHE_SIZE", 2)
        sf = example1_form()
        basic = optimal_basic(sf)
        keep, drop, new = basic, basic[::-1].copy(), np.roll(basic, 1)
        factor = _SparseLUFactor(sf)
        for order in (keep, drop, keep, new):
            assert factor.refactor(order)
        assert set(sf._factors) == {keep.tobytes(), new.tobytes()}

    def test_singular_basis_is_never_stored(self, splu_calls):
        sf = example1_form()
        basic = optimal_basic(sf)
        singular = basic.copy()
        singular[1] = singular[0]
        sf._factors.clear()
        del splu_calls[:]
        factor = _SparseLUFactor(sf)
        for _ in range(2):
            assert not factor.refactor(singular)
            assert sf._factors == {}
        assert len(splu_calls) == 2


def _record_sweep(monkeypatch):
    """Run the traced bozo Table II sweep; return front, per-solve stats,
    per-run trace events and the ``splu`` call count."""
    import repro
    from repro.obs import MemoryTraceSink, split_runs
    from repro.solvers.base import SolverOptions
    from repro.solvers.bozo import BozoSolver

    solutions = []
    calls = 0
    solve = BozoSolver.solve
    splu = revised._splu

    def recording_solve(solver, model):
        solution = solve(solver, model)
        solutions.append(solution)
        return solution

    def counting_splu(matrix, *args, **kwargs):
        nonlocal calls
        calls += 1
        return splu(matrix, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(BozoSolver, "solve", recording_solve)
        patch.setattr(revised, "_splu", counting_splu)
        sink = MemoryTraceSink()
        front = repro.Synthesizer(
            example1(), example1_library(), solver="bozo",
            solver_options=SolverOptions(trace=sink),
        ).pareto_sweep()
    return front, [s.stats for s in solutions], split_runs(sink.events), calls


def _untimed(stats):
    return dataclasses.replace(stats, phase_seconds={})


def _front_rows(front):
    rows = []
    for design in front:
        row = design.to_dict()
        del row["solve_seconds"]
        rows.append(row)
    return rows


class TestSweepIdentity:
    def test_table2_sweep_identical_with_and_without_the_cache(self, monkeypatch):
        """The serial sweep's front and every per-solve counter are the
        same with the factor cache on and off; only ``splu`` calls drop."""
        from repro.obs import replay_stats

        cached = _record_sweep(monkeypatch)
        monkeypatch.setattr(revised, "FACTOR_CACHE_SIZE", 0)
        uncached = _record_sweep(monkeypatch)

        for front, stats, runs, _ in (cached, uncached):
            assert [replay_stats(run) for run in runs] == stats
        assert _front_rows(cached[0]) == _front_rows(uncached[0])
        assert cached[0].caps == uncached[0].caps
        assert [_untimed(s) for s in cached[1]] == [_untimed(s) for s in uncached[1]]
        assert [_untimed(replay_stats(run)) for run in cached[2]] == [
            _untimed(replay_stats(run)) for run in uncached[2]
        ]
        assert sum(s.fallbacks for s in cached[1]) == 0
        assert cached[3] < uncached[3]

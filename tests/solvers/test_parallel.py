"""Parallel branch and bound: determinism, node encoding, telemetry."""

import pickle
import random

import numpy as np
import pytest

from repro.core.formulation import SosModelBuilder
from repro.core.options import FormulationOptions
from repro.milp.expr import VarType
from repro.milp.model import Model
from repro.solvers.base import SolverOptions
from repro.solvers.bozo import BozoSolver, _Node
from repro.solvers.parallel import ParallelBozoSolver
from repro.solvers.pool import decode_node, encode_node
from repro.solvers.registry import get_solver
from repro.solvers.shm import AttachedForm, FormPublication, live_segments
from repro.solvers.revised import StandardFormLP
from repro.taskgraph.generators import layered_random
from tests.conftest import make_library


def sos_model(num_tasks: int, layers: int, seed: int):
    """A small SOS-shaped synthesis MILP from a random layered task graph."""
    graph = layered_random(num_tasks, layers, seed=seed)
    library = make_library(
        {"fast": (8, {t: 1 for t in graph.subtask_names}),
         "slow": (3, {t: 3 for t in graph.subtask_names})},
        instances_per_type=2, remote_delay=0.5,
    )
    return SosModelBuilder(graph, library, FormulationOptions()).build()


def market_split(rows: int, binaries: int, seed: int) -> Model:
    """Small equality-balancing MILP with a large branch-and-bound tree."""
    rng = random.Random(seed)
    model = Model(f"market_split_{rows}x{binaries}_s{seed}")
    x = [model.add_var(f"x{j}", vtype=VarType.BINARY) for j in range(binaries)]
    surplus = [model.add_var(f"sp{i}", lb=0) for i in range(rows)]
    deficit = [model.add_var(f"sm{i}", lb=0) for i in range(rows)]
    for i in range(rows):
        weights = [rng.randrange(100) for _ in range(binaries)]
        target = sum(weights) // 2
        model.add(
            sum(w * xj for w, xj in zip(weights, x))
            + surplus[i] - deficit[i] == target,
            name=f"row{i}",
        )
    model.minimize(sum(surplus) + sum(deficit))
    return model


def _mf(workers, **kwargs):
    """Most-fractional branching: the byte-identity regime (branching is a
    pure function of each node, so subtree workers replay the serial tree).
    ``clamp_workers=False`` so the pool actually engages on small CI
    machines (the clamp would silently serialize workers > cpu_count)."""
    kwargs.setdefault("clamp_workers", False)
    return SolverOptions(workers=workers, branching="most_fractional", **kwargs)


class TestByteIdentity:
    def test_workers4_matches_serial_exactly(self):
        model = market_split(3, 14, 0)
        serial = BozoSolver(_mf(1)).solve(model)
        parallel = BozoSolver(_mf(4)).solve(model)
        assert serial.iterations >= 200  # a real tree, not a root solve
        assert parallel.status == serial.status
        assert parallel.objective == serial.objective
        assert parallel.best_bound == serial.best_bound
        assert parallel.values == serial.values

    def test_rerun_determinism(self):
        model = market_split(3, 14, 1)
        first = BozoSolver(_mf(3)).solve(model)
        second = BozoSolver(_mf(3)).solve(model)
        assert first.values == second.values
        assert first.objective == second.objective

    def test_pseudocost_objective_identity(self):
        # Pseudocost branching learns across subtrees, so the *vertex* may
        # legitimately differ between serial and parallel runs among
        # alternative optima — but the optimum itself never does.
        model = market_split(3, 14, 0)
        serial = BozoSolver(SolverOptions(workers=1)).solve(model)
        parallel = BozoSolver(
            SolverOptions(workers=4, clamp_workers=False)
        ).solve(model)
        assert parallel.status == serial.status
        assert parallel.objective == pytest.approx(serial.objective, abs=1e-9)
        assert parallel.best_bound == pytest.approx(serial.best_bound, abs=1e-9)

    def test_sos_model_identity_with_forced_partition(self):
        # An SOS-shaped synthesis MILP has a small tree; frontier_target=2
        # forces partitioning so the parallel machinery actually engages.
        # SOS objectives are continuous sums, and the incremental LP
        # kernel's results carry last-ulp history dependence, so identity
        # here is asserted to solver tolerance (the market-split tests
        # above assert exact equality).
        built = sos_model(num_tasks=4, layers=2, seed=1)
        serial = BozoSolver(_mf(1)).solve(built.model)
        parallel = BozoSolver(_mf(2, frontier_target=2)).solve(built.model)
        assert parallel.stats.subtrees_dispatched >= 1
        assert parallel.status == serial.status
        assert parallel.objective == pytest.approx(serial.objective, abs=1e-9)
        assert set(parallel.values) == set(serial.values)
        for var, value in serial.values.items():
            assert parallel.values[var] == pytest.approx(value, abs=1e-6), var

    def test_depth_first_falls_back_to_serial(self):
        model = market_split(3, 12, 2)
        serial = BozoSolver(_mf(1, node_selection="depth_first")).solve(model)
        parallel = BozoSolver(_mf(4, node_selection="depth_first")).solve(model)
        assert parallel.values == serial.values
        assert parallel.stats.subtrees_dispatched == 0


class TestTelemetry:
    def test_worker_stats_sum_to_total(self):
        model = market_split(3, 14, 0)
        solver = BozoSolver(_mf(4))
        solution = solver.solve(model)
        ramp = solver.last_ramp_stats
        workers = solver.last_worker_stats
        assert ramp is not None and workers
        assert solution.stats.subtrees_dispatched == len(workers)
        for counter in ("nodes", "lp_solves", "lp_pivots",
                        "warm_starts", "warm_start_hits", "fallbacks"):
            total = getattr(ramp, counter) + sum(
                getattr(w, counter) for w in workers
            )
            assert getattr(solution.stats, counter) == total, counter
        assert solution.stats.workers == 4
        assert solution.stats.incumbent_broadcasts >= 0

    def test_serial_solve_reports_no_parallel_telemetry(self):
        model = market_split(3, 12, 0)
        solution = BozoSolver(_mf(1)).solve(model)
        assert solution.stats.subtrees_dispatched == 0
        assert solution.stats.incumbent_broadcasts == 0

    def test_summary_mentions_workers(self):
        model = market_split(3, 12, 0)
        solution = BozoSolver(_mf(2)).solve(model)
        assert "workers=2" in solution.stats.summary()


class TestNodeEncoding:
    def _form(self, n=6):
        model = market_split(2, n, 0)
        form = model.to_matrices()
        return StandardFormLP.from_matrix_form(form), form

    def test_encode_decode_roundtrips_bounds(self):
        _, form = self._form(n=40)
        root_lb, root_ub = form.lb.copy(), form.ub.copy()
        lb, ub = root_lb.copy(), root_ub.copy()
        ub[3] = 0.0   # down branch
        lb[17] = 1.0  # up branch
        node = _Node(1.5, 6, lb.copy(), ub.copy(), depth=2,
                     branch_var=17, branch_dir="up", branch_fraction=0.4)
        payload = encode_node(node, root_lb, root_ub)
        restored = decode_node(payload, root_lb, root_ub)
        assert np.array_equal(restored.lb, lb)
        assert np.array_equal(restored.ub, ub)
        assert restored.bound == node.bound
        assert restored.tiebreak == node.tiebreak
        assert restored.depth == node.depth
        assert restored.branch_var == 17
        assert restored.branch_dir == "up"

    def test_encoding_ships_deltas_not_dense_bounds(self):
        _, form = self._form(n=40)
        root_lb, root_ub = form.lb.copy(), form.ub.copy()
        ub = root_ub.copy()
        ub[3] = 0.0  # one branched bound out of 40+
        node = _Node(1.5, 6, root_lb.copy(), ub)
        delta_bytes = pickle.dumps(encode_node(node, root_lb, root_ub))
        dense_bytes = pickle.dumps(node)
        assert len(delta_bytes) < len(dense_bytes) / 2


class TestSharedMemory:
    def test_publication_attach_roundtrip(self):
        form = market_split(2, 10, 0).to_matrices()
        sf = StandardFormLP.from_matrix_form(form)
        with FormPublication(form, sf) as pub:
            assert pub.name in live_segments()
            attached = AttachedForm(pub.spec)
            assert np.array_equal(attached.form.a_ub, form.a_ub)
            assert np.array_equal(attached.form.lb, form.lb)
            assert np.array_equal(attached.sf.a, sf.a)
            assert np.array_equal(attached.sf.lo, sf.lo)
            # Matrices are zero-copy read-only views; vectors are private
            # per-worker copies (the LP backend mutates bounds in place).
            assert not attached.sf.a.flags.writeable
            assert attached.sf.lo.flags.writeable
            attached.sf.lo[0] = -123.0
            assert sf.lo[0] != -123.0
            attached.close()
        assert pub.name not in live_segments()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=pub.name)

    def test_publication_released_on_exception(self):
        form = market_split(2, 8, 0).to_matrices()
        with pytest.raises(RuntimeError, match="boom"):
            with FormPublication(form, None) as pub:
                name = pub.name
                raise RuntimeError("boom")
        assert name not in live_segments()

    def test_attach_without_standard_form(self):
        form = market_split(2, 8, 0).to_matrices()
        with FormPublication(form, None) as pub:
            attached = AttachedForm(pub.spec)
            # The publication builds the standard form itself.
            assert np.array_equal(
                attached.sf.a, StandardFormLP.from_matrix_form(form).a
            )
            assert np.array_equal(attached.form.c, form.c)
            attached.close()


class TestEdgeCases:
    def test_infeasible_model_parallel(self):
        model = Model("infeasible")
        x = model.add_var("x", vtype=VarType.BINARY)
        model.add(x >= 0.4, name="lo")
        model.add(x <= 0.6, name="hi")
        model.minimize(x)
        solution = BozoSolver(_mf(4)).solve(model)
        assert not solution.status.has_solution

    def test_registry_exposes_parallel_solver(self):
        solver = get_solver("bozo-parallel")
        assert isinstance(solver, ParallelBozoSolver)
        assert solver.options.workers >= 2
        model = market_split(2, 8, 0)
        reference = BozoSolver().solve(model)
        solution = solver.solve(model)
        assert solution.objective == pytest.approx(reference.objective, abs=1e-9)

    def test_clamp_caps_workers_at_cpu_count(self):
        import os

        cores = os.cpu_count() or 1
        model = market_split(3, 12, 0)
        requested = cores + 7
        solution = BozoSolver(
            _mf(requested, clamp_workers=True)
        ).solve(model)
        assert solution.stats.workers_requested == requested
        assert solution.stats.workers <= cores
        if cores == 1:
            # Single core: the clamp falls back to the serial path.
            assert solution.stats.subtrees_dispatched == 0
            assert solution.stats.workers == 0

    def test_clamped_run_matches_unclamped_objective(self):
        model = market_split(3, 12, 1)
        clamped = BozoSolver(_mf(4, clamp_workers=True)).solve(model)
        unclamped = BozoSolver(_mf(4)).solve(model)
        assert clamped.objective == pytest.approx(unclamped.objective, abs=1e-9)
        assert clamped.values == unclamped.values

    def test_tiny_tree_short_circuits_before_partition(self):
        model = Model("tiny")
        x = model.add_var("x", vtype=VarType.INTEGER, lb=0, ub=3)
        model.add(2 * x <= 5, name="cap")
        model.minimize(-x)
        solution = BozoSolver(_mf(4)).solve(model)
        assert solution.objective == pytest.approx(-2.0)
        assert solution.stats.subtrees_dispatched == 0

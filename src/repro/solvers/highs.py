"""HiGHS backend via :func:`scipy.optimize.milp`.

The from-scratch :class:`~repro.solvers.bozo.BozoSolver` reproduces the
paper's solver technology; this backend provides an independent modern
solver behind the same interface.  The two must agree on optimal
objectives — a property the test suite checks on random instances — and
HiGHS is the default for the largest Example-2 models, where 1991-era
Bozo needed hours (Table IV's runtime column).  HiGHS branches by its
own rules and ignores the model's branching priorities.
"""

from __future__ import annotations

import math
import time
from typing import Dict

import numpy as np
from scipy import optimize

from repro.milp.model import Model
from repro.milp.solution import Solution, SolveStats, SolveStatus
from repro.obs.sinks import make_tracer
from repro.solvers.base import Solver


class HighsSolver(Solver):
    """MILP solver backed by ``scipy.optimize.milp`` (HiGHS)."""

    name = "highs"

    def solve(self, model: Model) -> Solution:
        """Solve ``model`` with HiGHS via ``scipy.optimize.milp``.

        HiGHS runs as a black box, so tracing is coarse: one
        ``solve_started``, one ``phase`` covering the whole call, and one
        ``solve_done`` carrying the node/LP counts (trace replay reads
        them from there in the absence of per-node events).
        """
        start = time.monotonic()
        tracer = make_tracer(self.options.trace)
        if tracer is not None:
            tracer.emit("solve_started", solver=self.name)
        form = model.to_matrices()
        # One sparse matrix for both row blocks, shared with the polish LP.
        matrix, lower, upper = form.stacked_rows()
        constraints = (
            optimize.LinearConstraint(matrix, lower, upper) if matrix.shape[0] else None
        )
        bounds = optimize.Bounds(form.lb, form.ub)

        options: Dict[str, object] = {"mip_rel_gap": self.options.gap_tolerance}
        if math.isfinite(self.options.time_limit):
            options["time_limit"] = self.options.time_limit
        if self.options.node_limit:
            options["node_limit"] = self.options.node_limit

        result = optimize.milp(
            c=form.c,
            constraints=constraints,
            bounds=bounds,
            integrality=form.integrality,
            options=options,
        )
        if result.status not in (0, 1, 2, 3) and result.x is None:
            # HiGHS occasionally aborts with "Solve error" (status 4) on
            # instances its presolve mangles; the same model solves fine
            # with presolve off, so retry once before reporting UNKNOWN.
            # The retry runs on whatever is left of the configured time
            # budget (a status-4 abort near the limit must not double the
            # wall-clock spend); with nothing left, skip it.
            retry_options: Dict[str, object] = {**options, "presolve": False}
            remaining = math.inf
            if math.isfinite(self.options.time_limit):
                remaining = self.options.time_limit - (time.monotonic() - start)
                retry_options["time_limit"] = max(remaining, 0.0)
            if remaining > 0:
                result = optimize.milp(
                    c=form.c,
                    constraints=constraints,
                    bounds=bounds,
                    integrality=form.integrality,
                    options=retry_options,
                )
        elapsed = time.monotonic() - start

        status = {
            0: SolveStatus.OPTIMAL,
            1: SolveStatus.FEASIBLE,  # iteration/time limit with incumbent
            2: SolveStatus.INFEASIBLE,
            3: SolveStatus.UNBOUNDED,
        }.get(result.status, SolveStatus.UNKNOWN)
        if status is SolveStatus.FEASIBLE and result.x is None:
            status = SolveStatus.UNKNOWN

        values: Dict = {}
        objective = math.nan
        if result.x is not None:
            x = np.asarray(result.x, dtype=float)
            x[form.integrality] = np.round(x[form.integrality])
            values = dict(zip(form.variables, x.tolist()))
            objective = float(form.c @ x) + form.c0

        bound = objective
        if result.x is not None and getattr(result, "mip_dual_bound", None) is not None:
            bound = float(result.mip_dual_bound) + form.c0

        nodes = int(getattr(result, "mip_node_count", 0) or 0)
        stats = SolveStats(nodes=nodes)
        # HiGHS does not report LP pivot counts through scipy; record the
        # node count as a lower bound on LP solves so telemetry stays
        # comparable across backends.
        stats.lp_solves = nodes
        stats.add_phase("solve", elapsed)

        solution = Solution(
            status=status,
            objective=objective,
            values=values,
            best_bound=bound,
            iterations=nodes,
            solve_seconds=elapsed,
            solver_name=self.name,
            stats=stats,
        )
        if tracer is not None:
            tracer.emit("phase", name="solve", seconds=elapsed)
            tracer.emit(
                "solve_done",
                status=status.value,
                objective=objective,
                best_bound=bound,
                nodes=nodes,
                workers=0,
                seconds=elapsed,
                lp_solves=stats.lp_solves,
            )
        return solution

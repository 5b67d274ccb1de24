"""LP left-shift polish of a solved SOS model.

The MILP only pins the makespan; individual events may sit anywhere that
satisfies the constraints, and two-pass optimization adds an epsilon of
deadline slack.  This module canonicalizes a solution: with every binary
variable fixed to its solved value, the remaining problem is a pure LP, and
minimizing the *sum of all timing variables* yields the unique earliest
("left-shifted") schedule for the chosen configuration.  The LP is solved
with HiGHS through :func:`scipy.optimize.milp`.  The result is
deterministic, epsilon-free, and matches how the paper draws Figure 2.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.core.formulation import SosModel
from repro.errors import SolverError
from repro.milp.solution import Solution


def left_shift(built: SosModel, solution: Solution) -> Solution:
    """Return a new solution with every event as early as possible.

    Args:
        built: The solved SOS model.
        solution: A feasible solution of ``built.model`` (binaries are read
            from it and frozen).

    Raises:
        SolverError: If the polish LP unexpectedly fails (it is feasible by
            construction, since the input solution satisfies it).
    """
    # The form the backend just solved: the model keeps its last export,
    # so the polish LP exports nothing of its own.
    form = built.model.to_matrices()
    variables = form.variables
    n = len(variables)

    lb = form.lb.copy()
    ub = form.ub.copy()
    for j, var in enumerate(variables):
        if var.is_integral:
            value = solution.rounded_value(var)
            lb[j] = value
            ub[j] = value

    v = built.variables
    timing_vars = (
        list(v.t_ss.values()) + list(v.t_se.values()) + list(v.t_ia.values())
        + list(v.t_oa.values()) + list(v.t_cs.values()) + list(v.t_ce.values())
        + [v.t_f] + list(v.memory.values())
    )
    timing_indices = {var.index for var in timing_vars}
    c = np.zeros(n)
    for j in timing_indices:
        c[j] = 1.0

    x = _solve_polish_lp(c, form, lb, ub)
    values = dict(zip(variables, x.tolist()))
    polished = Solution(
        status=solution.status,
        objective=built.model.objective_value(values),
        values=values,
        best_bound=solution.best_bound,
        iterations=solution.iterations,
        solve_seconds=solution.solve_seconds,
        solver_name=solution.solver_name,
        stats=solution.stats,
    )
    return polished


def _solve_polish_lp(c: np.ndarray, form, lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Solve the polish LP with HiGHS, on the form's shared sparse rows."""
    matrix, lower, upper = form.stacked_rows()
    result = milp(
        c,
        constraints=LinearConstraint(matrix, lower, upper) if matrix.shape[0] else None,
        bounds=Bounds(lb, ub),
    )
    if result.status != 0:
        raise SolverError(f"left-shift LP failed: scipy status {result.status}")
    return np.asarray(result.x, dtype=float)

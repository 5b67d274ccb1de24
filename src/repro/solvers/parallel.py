"""Deprecated: parallel branch and bound was removed in 2.3.0.

The shared-memory worker pool lost to the serial search on every measured
workload, so it is gone and every Bozo solve runs the serial tree search.
Only :func:`solve_parallel` remains, as a deprecated alias of
``solver.solve(model)``; it will be removed in the next major release.
"""

from __future__ import annotations

import warnings
from typing import Optional

from repro.milp.model import Model
from repro.milp.solution import Solution
from repro.solvers.bozo import BozoSolver


def solve_parallel(
    solver: BozoSolver, model: Model, workers: Optional[int] = None
) -> Solution:
    """Deprecated: warn and return ``solver.solve(model)``.

    ``workers`` is ignored.
    """
    warnings.warn(
        "solve_parallel is deprecated: parallel branch and bound was removed "
        "in 2.3.0; call solver.solve(model)",
        DeprecationWarning,
        stacklevel=2,
    )
    return solver.solve(model)

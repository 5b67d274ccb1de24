"""A from-scratch dense two-phase primal simplex solver: the LP oracle.

Hafer's *Bozo*, which the paper used, ran branch and bound over one LP
code, the commercial XLP simplex; the reproduction's
:mod:`repro.solvers.bozo` likewise runs every relaxation through one
engine, the revised simplex in :mod:`repro.solvers.revised`.  This
tableau engine is not on that path.  It is the independent reference the
revised engine is property-tested against, public so tests and users
can cross-check any LP.  It is deliberately a classic textbook tableau
method, vectorized with numpy:

* variables are shifted/split so every column is nonnegative,
* finite upper bounds become explicit rows,
* phase 1 minimizes artificial variables; phase 2 the real objective,
* Dantzig pricing with an automatic switch to Bland's rule to break
  cycling.

It solves the LP relaxations produced by the SOS formulation (hundreds of
rows) in milliseconds, which is all the paper's instances require.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Optional, Tuple

import numpy as np

#: Feasibility / pivot tolerance used throughout the tableau method.
EPS = 1e-9
#: After this many consecutive Dantzig pivots without objective progress we
#: switch to Bland's rule, which is slower but provably acyclic.
STALL_LIMIT = 64


class LPStatus(enum.Enum):
    """Outcome of a linear-program solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


@dataclasses.dataclass
class LPResult:
    """Result of :func:`solve_lp`.

    Attributes:
        status: Solve outcome.
        x: Primal solution in the *original* variable space (``None``
            unless status is OPTIMAL).
        objective: ``c @ x + c0`` at the solution.
        iterations: Total simplex pivots across both phases.
    """

    status: LPStatus
    x: Optional[np.ndarray]
    objective: float
    iterations: int


def solve_lp(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    c0: float = 0.0,
    max_iterations: int = 200_000,
) -> LPResult:
    """Minimize ``c @ x + c0`` s.t. ``a_ub x <= b_ub``, ``a_eq x == b_eq``,
    ``lb <= x <= ub``.

    Args:
        c: Objective coefficients, shape ``(n,)``.
        a_ub: Inequality matrix, shape ``(m_ub, n)``.
        b_ub: Inequality right-hand sides.
        a_eq: Equality matrix, shape ``(m_eq, n)``.
        b_eq: Equality right-hand sides.
        lb: Per-variable lower bounds (``-inf`` allowed).
        ub: Per-variable upper bounds (``+inf`` allowed).
        c0: Objective constant.
        max_iterations: Pivot budget across both phases.

    Returns:
        An :class:`LPResult`; ``x`` is in the caller's variable space.
    """
    c = np.asarray(c, dtype=float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    n = c.shape[0]
    if np.any(lb > ub + EPS):
        return LPResult(LPStatus.INFEASIBLE, None, math.nan, 0)

    # --- variable transformation to y >= 0 ---------------------------------
    # For each original variable x_j:
    #   finite lb:            x_j = lb_j + y_j            (shift)
    #   lb = -inf, finite ub: x_j = ub_j - y_j            (reflect)
    #   free both sides:      x_j = y_j^+ - y_j^-         (split)
    shift = np.zeros(n)
    scale = np.ones(n)
    split_cols = []  # original indices of free variables (get a second column)
    for j in range(n):
        if math.isfinite(lb[j]):
            shift[j] = lb[j]
        elif math.isfinite(ub[j]):
            shift[j] = ub[j]
            scale[j] = -1.0
        else:
            split_cols.append(j)

    def transform_matrix(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Rewrite columns of ``a`` in y-space; returns (A_y, rhs_shift)."""
        if a.size == 0:
            return np.zeros((a.shape[0], n + len(split_cols))), np.zeros(a.shape[0])
        rhs_shift = a @ shift
        a_y = a * scale  # broadcast per column
        if split_cols:
            a_y = np.hstack([a_y, -a[:, split_cols]])
        return a_y, rhs_shift

    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n) if np.size(a_ub) else np.zeros((0, n))
    b_ub = np.asarray(b_ub, dtype=float).reshape(-1)
    a_eq = np.asarray(a_eq, dtype=float).reshape(-1, n) if np.size(a_eq) else np.zeros((0, n))
    b_eq = np.asarray(b_eq, dtype=float).reshape(-1)

    a_ub_y, ub_shift = transform_matrix(a_ub)
    a_eq_y, eq_shift = transform_matrix(a_eq)
    b_ub_y = b_ub - ub_shift
    b_eq_y = b_eq - eq_shift

    # Finite upper bounds in y-space become extra <= rows: y_j <= span_j.
    span_rows = []
    span_rhs = []
    total_cols = n + len(split_cols)
    for j in range(n):
        if math.isfinite(lb[j]) and math.isfinite(ub[j]):
            if ub[j] - lb[j] <= EPS:
                continue  # fixed variable: y_j <= 0 handled by nonnegativity
            row = np.zeros(total_cols)
            row[j] = 1.0
            span_rows.append(row)
            span_rhs.append(ub[j] - lb[j])
    if span_rows:
        a_ub_y = np.vstack([a_ub_y, np.vstack(span_rows)])
        b_ub_y = np.concatenate([b_ub_y, np.asarray(span_rhs)])

    # Fixed variables (lb == ub): their y must be 0; drop them by zeroing the
    # objective (their contribution is inside the shift already) and forcing
    # y_j <= 0 via an upper bound row is wasteful -- instead clamp columns.
    fixed = np.isfinite(lb) & np.isfinite(ub) & (ub - lb <= EPS)
    if np.any(fixed):
        a_ub_y[:, np.where(fixed)[0]] = 0.0
        a_eq_y[:, np.where(fixed)[0]] = 0.0

    c_y = c * scale
    if split_cols:
        c_y = np.concatenate([c_y, -c[split_cols]])
    if np.any(fixed):
        c_y[np.where(fixed)[0]] = 0.0
    obj_shift = float(c @ shift) + c0

    status, y, iterations = _two_phase(c_y, a_ub_y, b_ub_y, a_eq_y, b_eq_y, max_iterations)
    if status is not LPStatus.OPTIMAL:
        return LPResult(status, None, math.nan, iterations)

    # Map back to x-space.
    x = shift + scale * y[:n]
    for k, j in enumerate(split_cols):
        x[j] = y[j] - y[n + k]
    if np.any(fixed):
        x[np.where(fixed)[0]] = lb[np.where(fixed)[0]]
    objective = float(c @ x) + c0
    return LPResult(LPStatus.OPTIMAL, x, objective, iterations)


def _two_phase(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    max_iterations: int,
) -> Tuple[LPStatus, Optional[np.ndarray], int]:
    """Two-phase simplex for min c@y, A_ub y <= b_ub, A_eq y = b_eq, y >= 0."""
    n = c.shape[0]
    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq
    if m == 0:
        # No rows: every y >= 0 is feasible, so any negative cost is a ray.
        if np.any(c < -EPS):
            return LPStatus.UNBOUNDED, None, 0
        return LPStatus.OPTIMAL, np.zeros(n), 0

    # Row block [A | slacks | artificials], with b >= 0 after sign flips.
    a = np.vstack([a_ub, a_eq]) if m else np.zeros((0, n))
    b = np.concatenate([b_ub, b_eq])
    negative = b < 0
    a[negative] *= -1.0
    b[negative] *= -1.0

    # Slack columns: +1 for a <=-row kept as-is, -1 (surplus) for a flipped
    # <=-row; equality rows get no slack.
    slack = np.zeros((m, m_ub))
    for i in range(m_ub):
        slack[i, i] = -1.0 if negative[i] else 1.0

    # Artificial columns for every row whose slack cannot serve as a basic
    # start (flipped <= rows and all equality rows).
    needs_artificial = np.ones(m, dtype=bool)
    for i in range(m_ub):
        needs_artificial[i] = bool(negative[i])
    artificial_rows = np.where(needs_artificial)[0]
    num_artificial = artificial_rows.shape[0]
    art = np.zeros((m, num_artificial))
    for k, i in enumerate(artificial_rows):
        art[i, k] = 1.0

    tableau = np.hstack([a, slack, art]) if m else np.zeros((0, n + m_ub))
    total = n + m_ub + num_artificial

    basis = np.empty(m, dtype=int)
    art_col = n + m_ub
    for i in range(m):
        if needs_artificial[i]:
            basis[i] = art_col
            art_col += 1
        else:
            basis[i] = n + i  # its own slack

    iterations = 0

    if num_artificial:
        # Phase 1: minimize the sum of artificials.
        phase1_cost = np.zeros(total)
        phase1_cost[n + m_ub :] = 1.0
        status, iterations = _simplex_core(
            tableau, b, phase1_cost, basis, max_iterations, iterations
        )
        if status is not LPStatus.OPTIMAL:
            return status, None, iterations
        phase1_value = float(phase1_cost[basis] @ b)
        if phase1_value > 1e-7:
            return LPStatus.INFEASIBLE, None, iterations
        # Pivot remaining artificials out of the basis where possible.
        for i in range(m):
            if basis[i] >= n + m_ub:
                pivot_col = -1
                for j in range(n + m_ub):
                    if abs(tableau[i, j]) > 1e-7:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    _pivot(tableau, b, basis, i, pivot_col)
                # A row with no eligible column is redundant; its artificial
                # stays basic at value 0, which is harmless in phase 2 because
                # the artificial columns are now frozen out of pricing.

    # Phase 2: real objective; artificial columns are excluded from pricing.
    phase2_cost = np.concatenate([c, np.zeros(m_ub), np.full(num_artificial, np.inf)])
    status, iterations = _simplex_core(
        tableau, b, phase2_cost, basis, max_iterations, iterations, priced_cols=n + m_ub
    )
    if status is not LPStatus.OPTIMAL:
        return status, None, iterations

    y = np.zeros(total)
    y[basis] = b
    return LPStatus.OPTIMAL, y[:n], iterations


def _pivot(tableau: np.ndarray, b: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Gauss-Jordan pivot on (row, col)."""
    pivot_value = tableau[row, col]
    tableau[row] /= pivot_value
    b[row] /= pivot_value
    column = tableau[:, col].copy()
    column[row] = 0.0
    tableau -= np.outer(column, tableau[row])
    b -= column * b[row]
    # Guard against drift: basic feasibility requires b >= 0.
    np.maximum(b, 0.0, out=b, where=(b > -1e-9) & (b < 0))
    basis[row] = col


def _simplex_core(
    tableau: np.ndarray,
    b: np.ndarray,
    cost: np.ndarray,
    basis: np.ndarray,
    max_iterations: int,
    iterations: int,
    priced_cols: Optional[int] = None,
) -> Tuple[LPStatus, int]:
    """Run primal simplex pivots until optimality/unboundedness.

    Args:
        tableau: Row-reduced constraint matrix (modified in place).
        b: Basic solution values (modified in place).
        cost: Objective over all columns; ``inf`` marks frozen columns.
        basis: Current basic column per row (modified in place).
        max_iterations: Global pivot budget.
        iterations: Pivots already spent (returned count includes these).
        priced_cols: Only columns ``< priced_cols`` are candidates to enter.
    """
    m = tableau.shape[0]
    if m == 0:
        return LPStatus.OPTIMAL, iterations
    limit = priced_cols if priced_cols is not None else tableau.shape[1]
    use_bland = False
    stall = 0
    last_objective = math.inf

    while iterations < max_iterations:
        # Reduced costs: cost_j - cost_B @ tableau[:, j].
        cost_basis = cost[basis]
        if np.any(np.isinf(cost_basis)):
            # A frozen (artificial) column is basic at value 0; treat its
            # cost as 0 -- it contributes nothing and must never leave 0.
            cost_basis = np.where(np.isinf(cost_basis), 0.0, cost_basis)
        reduced = cost[:limit] - cost_basis @ tableau[:, :limit]

        if use_bland:
            candidates = np.where(reduced < -EPS)[0]
            if candidates.size == 0:
                return LPStatus.OPTIMAL, iterations
            entering = int(candidates[0])
        else:
            entering = int(np.argmin(reduced))
            if reduced[entering] >= -EPS:
                return LPStatus.OPTIMAL, iterations

        column = tableau[:, entering]
        positive = column > EPS
        if not np.any(positive):
            return LPStatus.UNBOUNDED, iterations
        ratios = np.full(m, np.inf)
        ratios[positive] = b[positive] / column[positive]
        leaving = int(np.argmin(ratios))
        if use_bland:
            # Bland: among minimal ratios choose the smallest basis index.
            best = ratios[leaving]
            ties = np.where(ratios <= best + EPS)[0]
            leaving = int(min(ties, key=lambda i: basis[i]))

        _pivot(tableau, b, basis, leaving, entering)
        iterations += 1

        objective = float(np.where(np.isinf(cost[basis]), 0.0, cost[basis]) @ b)
        if objective < last_objective - EPS:
            stall = 0
            last_objective = objective
        else:
            stall += 1
            if stall >= STALL_LIMIT:
                use_bland = True

    return LPStatus.ITERATION_LIMIT, iterations

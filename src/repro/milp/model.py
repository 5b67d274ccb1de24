"""The MILP model container.

A :class:`Model` owns variables, constraints, and an objective.  It knows
nothing about *how* to solve itself; solver backends (see
:mod:`repro.solvers`) consume the matrix form produced by
:meth:`Model.to_matrices`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.milp.constraint import Constraint, Sense, validate_constraint
from repro.milp.expr import LinExpr, Number, Var, VarType


@dataclass(frozen=True)
class ModelStats:
    """Size statistics of a model (reported alongside the paper's counts)."""

    num_variables: int
    num_continuous: int
    num_binary: int
    num_integer: int
    num_constraints: int
    num_nonzeros: int

    def __str__(self) -> str:
        return (
            f"{self.num_variables} variables "
            f"({self.num_continuous} continuous, {self.num_binary} binary, "
            f"{self.num_integer} integer), "
            f"{self.num_constraints} constraints, {self.num_nonzeros} nonzeros"
        )


@dataclass
class MatrixForm:
    """Dense matrix encoding of a model, consumed by solver backends.

    The encoding is ``minimize c @ x + c0`` subject to
    ``A_ub @ x <= b_ub``, ``A_eq @ x == b_eq``, ``lb <= x <= ub``, with
    ``integrality[j]`` true for integral columns.  Row order within each
    block matches the model's constraint order.  ``branch_priority[j]`` is
    column ``j``'s branching class (:attr:`Var.branch_priority`); it
    defaults to all zeros, so a hand-built form branches on every
    fractional column alike.
    """

    c: np.ndarray
    c0: float
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray
    variables: Tuple[Var, ...]
    branch_priority: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.branch_priority is None:
            self.branch_priority = np.zeros(self.c.shape[0], dtype=int)


class Model:
    """A mixed integer-linear program.

    Example:
        >>> m = Model("tiny")
        >>> x = m.add_var("x", ub=4)
        >>> y = m.add_var("y", vtype=VarType.BINARY)
        >>> _ = m.add(x + 2 * y <= 5, name="cap")
        >>> m.minimize(-x - y)
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._variables: List[Var] = []
        self._names: Dict[str, Var] = {}
        self._constraints: List[Constraint] = []
        self._objective: LinExpr = LinExpr()
        self._constraint_counter = 0
        #: The last :meth:`to_matrices` export; dropped on every change.
        self._form: Optional[MatrixForm] = None

    def _changed(self) -> None:
        self._form = None

    # -- variables ------------------------------------------------------------
    def add_var(
        self,
        name: str,
        vtype: VarType = VarType.CONTINUOUS,
        lb: Number = 0.0,
        ub: Number = math.inf,
        priority: int = 0,
    ) -> Var:
        """Create a variable owned by this model.

        Args:
            name: Unique name; duplicates raise :class:`ModelError`.
            vtype: Variable domain.
            lb: Lower bound (ignored for binaries, which are always [0, 1]).
            ub: Upper bound (ignored for binaries).
            priority: Branching class (:attr:`Var.branch_priority`);
                higher classes are branched on first.

        Returns:
            The created :class:`Var`.
        """
        if name in self._names:
            raise ModelError(f"duplicate variable name {name!r} in model {self.name!r}")
        var = Var(name, vtype=vtype, lb=lb, ub=ub, index=len(self._variables),
                  branch_priority=priority)
        self._changed()
        self._variables.append(var)
        self._names[name] = var
        return var

    def add_binary(self, name: str, priority: int = 0) -> Var:
        """Shorthand for a binary variable."""
        return self.add_var(name, vtype=VarType.BINARY, priority=priority)

    def add_continuous(self, name: str, lb: Number = 0.0, ub: Number = math.inf) -> Var:
        """Shorthand for a continuous variable."""
        return self.add_var(name, vtype=VarType.CONTINUOUS, lb=lb, ub=ub)

    def var_by_name(self, name: str) -> Var:
        """Look up a variable by its name."""
        try:
            return self._names[name]
        except KeyError:
            raise ModelError(f"no variable named {name!r} in model {self.name!r}") from None

    @property
    def variables(self) -> Tuple[Var, ...]:
        return tuple(self._variables)

    # -- constraints ------------------------------------------------------------
    def add(
        self, constraint: Constraint, name: str = "", position: Optional[int] = None
    ) -> Constraint:
        """Add a constraint (validating it is one, not a chained-comparison bool).

        The row is appended, or inserted before row ``position`` when given.
        """
        constraint = validate_constraint(constraint)
        for var in constraint.expr.variables():
            if var.index < 0 or var.index >= len(self._variables) or self._variables[var.index] is not var:
                raise ModelError(
                    f"constraint uses variable {var.name!r} that does not belong to model {self.name!r}"
                )
        if not name:
            name = f"c{self._constraint_counter}"
        self._constraint_counter += 1
        constraint.name = name
        self._changed()
        if position is None:
            self._constraints.append(constraint)
        else:
            self._constraints.insert(position, constraint)
        return constraint

    def remove(self, constraint: Constraint) -> None:
        """Delete a constraint this model holds (matched by identity)."""
        for row, held in enumerate(self._constraints):
            if held is constraint:
                self._changed()
                del self._constraints[row]
                return
        raise ModelError(
            f"constraint {constraint.name!r} is not in model {self.name!r}"
        )

    def add_all(self, constraints: Iterable[Constraint], prefix: str = "") -> List[Constraint]:
        """Add several constraints, optionally named ``prefix0, prefix1, ...``."""
        added = []
        for offset, constraint in enumerate(constraints):
            name = f"{prefix}{offset}" if prefix else ""
            added.append(self.add(constraint, name=name))
        return added

    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        return tuple(self._constraints)

    # -- objective ------------------------------------------------------------
    def minimize(self, expr: LinExpr | Var | Number) -> None:
        """Set a minimization objective."""
        self._changed()
        self._objective = LinExpr() + expr

    def maximize(self, expr: LinExpr | Var | Number) -> None:
        """Set a maximization objective (stored negated; models always minimize)."""
        self._changed()
        self._objective = -(LinExpr() + expr)

    @property
    def objective(self) -> LinExpr:
        """The (minimization) objective expression."""
        return self._objective

    # -- inspection ------------------------------------------------------------
    def stats(self) -> ModelStats:
        """Size statistics (variable/constraint/nonzero counts)."""
        num_binary = sum(1 for v in self._variables if v.vtype is VarType.BINARY)
        num_integer = sum(1 for v in self._variables if v.vtype is VarType.INTEGER)
        num_continuous = len(self._variables) - num_binary - num_integer
        nonzeros = sum(len(c.expr.coeffs) for c in self._constraints)
        return ModelStats(
            num_variables=len(self._variables),
            num_continuous=num_continuous,
            num_binary=num_binary,
            num_integer=num_integer,
            num_constraints=len(self._constraints),
            num_nonzeros=nonzeros,
        )

    def is_feasible(self, values: Mapping[Var, Number], tol: float = 1e-6) -> bool:
        """Check a full assignment against bounds, integrality, and constraints."""
        return not self.infeasibilities(values, tol=tol)

    def infeasibilities(self, values: Mapping[Var, Number], tol: float = 1e-6) -> List[str]:
        """Human-readable list of everything an assignment violates."""
        problems: List[str] = []
        for var in self._variables:
            if var not in values:
                problems.append(f"variable {var.name} has no value")
                continue
            value = float(values[var])
            if value < var.lb - tol or value > var.ub + tol:
                problems.append(f"variable {var.name}={value:g} outside [{var.lb:g}, {var.ub:g}]")
            if var.is_integral and abs(value - round(value)) > 1e-4:
                problems.append(f"variable {var.name}={value:g} not integral")
        for constraint in self._constraints:
            try:
                if not constraint.is_satisfied(values, tol=tol):
                    problems.append(
                        f"constraint {constraint.name}: "
                        f"{constraint.expr.evaluate(values):g} {constraint.sense.value} "
                        f"{constraint.rhs:g} violated"
                    )
            except ModelError as exc:
                problems.append(str(exc))
        return problems

    def objective_value(self, values: Mapping[Var, Number]) -> float:
        """Objective under an assignment."""
        return self._objective.evaluate(values)

    # -- matrix export ------------------------------------------------------------
    def to_matrices(self) -> MatrixForm:
        """Dense matrix form for solver backends.

        ``GE`` rows are negated into ``LE`` rows; ``EQ`` rows go to the
        equality block.  Column order is variable insertion order.

        The export is kept until the model changes through one of its own
        methods (``add_var``, ``add``, ``remove``, ``minimize``,
        ``maximize``), so a backend and the polish LP after it share one
        form.  Its arrays are read-only for that reason.  Editing a
        :class:`Var`'s bounds or a :class:`Constraint`'s ``rhs`` in place
        after an export is not seen by the next export.
        """
        if self._form is not None:
            return self._form
        n = len(self._variables)
        c = np.zeros(n)
        for var, coeff in self._objective.coeffs.items():
            c[self._column(var)] = coeff

        # One pass over the rows gathers (row, column, value) triplets;
        # each block is then filled by a single scatter.
        ub_rows: List[int] = []
        ub_cols: List[int] = []
        ub_vals: List[float] = []
        ub_rhs: List[float] = []
        ge_rows: List[int] = []
        eq_rows: List[int] = []
        eq_cols: List[int] = []
        eq_vals: List[float] = []
        eq_rhs: List[float] = []
        for constraint in self._constraints:
            coeffs = constraint.expr.coeffs
            if constraint.sense is Sense.EQ:
                rows, cols, vals, rhs = eq_rows, eq_cols, eq_vals, eq_rhs
                rhs.append(constraint.rhs)
            else:
                rows, cols, vals, rhs = ub_rows, ub_cols, ub_vals, ub_rhs
                if constraint.sense is Sense.GE:
                    ge_rows.append(len(rhs))
                    rhs.append(-constraint.rhs)
                else:
                    rhs.append(constraint.rhs)
            rows.extend([len(rhs) - 1] * len(coeffs))
            cols.extend([var.index for var in coeffs])
            vals.extend(coeffs.values())

        a_ub = np.zeros((len(ub_rhs), n))
        a_ub[ub_rows, ub_cols] = ub_vals
        # Negate whole rows, so a GE row's zeros are -0.0 like its terms'
        # signs: the bytes do not depend on how the rows were gathered.
        a_ub[ge_rows] = -a_ub[ge_rows]
        a_eq = np.zeros((len(eq_rhs), n))
        a_eq[eq_rows, eq_cols] = eq_vals

        form = MatrixForm(
            c=c,
            c0=self._objective.constant,
            a_ub=a_ub,
            b_ub=np.asarray(ub_rhs, dtype=float),
            a_eq=a_eq,
            b_eq=np.asarray(eq_rhs, dtype=float),
            lb=np.asarray([v.lb for v in self._variables], dtype=float),
            ub=np.asarray([v.ub for v in self._variables], dtype=float),
            integrality=np.asarray([v.is_integral for v in self._variables], dtype=bool),
            variables=self.variables,
            branch_priority=np.asarray(
                [v.branch_priority for v in self._variables], dtype=int
            ),
        )
        for array in (form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq,
                      form.lb, form.ub, form.integrality, form.branch_priority):
            array.flags.writeable = False
        self._form = form
        return form

    def _column(self, var: Var) -> int:
        """Column of ``var``, which must belong to this model."""
        index = var.index
        if not 0 <= index < len(self._variables) or self._variables[index] is not var:
            raise ModelError(
                f"objective uses variable {var.name!r} that does not belong to model {self.name!r}"
            )
        return index

    # -- derivation --------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Model":
        """A deep, independent copy (fresh Var objects, same structure)."""
        clone = Model(name or self.name)
        mapping: Dict[Var, Var] = {}
        for var in self._variables:
            mapping[var] = clone.add_var(
                var.name, var.vtype, var.lb, var.ub, priority=var.branch_priority
            )
        for constraint in self._constraints:
            expr = LinExpr({mapping[v]: c for v, c in constraint.expr.coeffs.items()})
            clone.add(Constraint(expr, constraint.sense, constraint.rhs),
                      name=constraint.name)
        clone._objective = LinExpr(
            {mapping[v]: c for v, c in self._objective.coeffs.items()},
            self._objective.constant,
        )
        return clone

    def relaxed(self, name: Optional[str] = None) -> "Model":
        """The LP relaxation: a copy with every variable made continuous.

        Binaries keep their [0, 1] box; general integers keep their bounds.
        The relaxation's optimum lower-bounds the MILP's — the quantity
        branch and bound prunes with.
        """
        clone = self.copy(name or f"{self.name}_lp")
        clone._changed()
        for var in clone._variables:
            if var.vtype is not VarType.CONTINUOUS:
                var.vtype = VarType.CONTINUOUS
        return clone

    def __repr__(self) -> str:
        return f"Model({self.name!r}: {self.stats()})"

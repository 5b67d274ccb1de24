"""The MILP model container.

A :class:`Model` owns variables, constraints, and an objective.  It knows
nothing about *how* to solve itself; solver backends (see
:mod:`repro.solvers`) consume the matrix form produced by
:meth:`Model.to_matrices`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

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

    :meth:`stacked_rows` gives both row blocks as one sparse matrix for
    the HiGHS calls; it is built once per form and shared by every caller.
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

    #: The row encoding :meth:`Model.to_matrices` exported from, if any.
    _rows: Optional["_Rows"] = field(default=None, init=False, repr=False, compare=False)
    _stacked: Optional[Tuple[sparse.csc_array, np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.branch_priority is None:
            self.branch_priority = np.zeros(self.c.shape[0], dtype=int)

    def stacked_rows(self) -> Tuple[sparse.csc_array, np.ndarray, np.ndarray]:
        """``(A, lower, upper)``: ``a_ub`` over ``a_eq`` as one CSC matrix.

        The rows read ``lower <= A @ x <= upper``, with ``lower = -inf`` on
        the ``a_ub`` rows.  ``A`` holds the same arrays SciPy derives from
        the dense blocks (explicit zeros dropped, row indices sorted within
        each column).  Computed on first use and kept; the arrays are
        read-only.
        """
        if self._stacked is None:
            if self._rows is not None:
                matrix = self._rows.stacked(self.c.shape[0])
            else:
                matrix = sparse.csc_array(np.vstack((self.a_ub, self.a_eq)))
            lower = np.concatenate((np.full(self.b_ub.shape[0], -np.inf), self.b_eq))
            upper = np.concatenate((self.b_ub, self.b_eq))
            for array in (matrix.data, matrix.indices, matrix.indptr, lower, upper):
                array.flags.writeable = False
            self._stacked = (matrix, lower, upper)
        return self._stacked


#: Row edits an export splices in; past this many it re-reads every row.
_MAX_ROW_EDITS = 16

_LE, _GE, _EQ = 0, 1, 2
_SENSE_CODES = {Sense.LE: _LE, Sense.GE: _GE, Sense.EQ: _EQ}


class _Rows:
    """Every constraint's terms as flat arrays, in model row order.

    Row ``i`` owns ``counts[i]`` consecutive entries of ``cols``/``vals``,
    in its expression's term order, with coefficients as written (``GE``
    rows are negated only when the blocks are made).  A row edit splices
    one row in or out, so an export after a few edits re-reads no other
    constraint.
    """

    __slots__ = ("counts", "cols", "vals", "senses", "rhs", "_matrix")

    def __init__(self, counts, cols, vals, senses, rhs) -> None:
        self.counts = counts
        self.cols = cols
        self.vals = vals
        self.senses = senses
        self.rhs = rhs
        self._matrix: Optional[sparse.csc_array] = None

    @classmethod
    def of(cls, constraints: Sequence[Constraint]) -> "_Rows":
        terms = [constraint.expr.coeffs for constraint in constraints]
        counts = np.fromiter(map(len, terms), dtype=np.intp, count=len(terms))
        nonzeros = int(counts.sum())
        return cls(
            counts,
            np.fromiter((var.index for row in terms for var in row), dtype=np.intp,
                        count=nonzeros),
            np.fromiter((a for row in terms for a in row.values()), dtype=float,
                        count=nonzeros),
            np.fromiter((_SENSE_CODES[constraint.sense] for constraint in constraints),
                        dtype=np.int8, count=len(terms)),
            np.fromiter((constraint.rhs for constraint in constraints), dtype=float,
                        count=len(terms)),
        )

    def insert(self, row: int, constraint: Constraint) -> "_Rows":
        """The rows with ``constraint`` inserted before row ``row``."""
        new = _Rows.of((constraint,))
        start = int(self.counts[:row].sum())
        return _Rows(
            np.insert(self.counts, row, new.counts),
            np.concatenate((self.cols[:start], new.cols, self.cols[start:])),
            np.concatenate((self.vals[:start], new.vals, self.vals[start:])),
            np.insert(self.senses, row, new.senses),
            np.insert(self.rhs, row, new.rhs),
        )

    def delete(self, row: int) -> "_Rows":
        """The rows without row ``row``."""
        start = int(self.counts[:row].sum())
        stop = start + int(self.counts[row])
        return _Rows(
            np.delete(self.counts, row),
            np.concatenate((self.cols[:start], self.cols[stop:])),
            np.concatenate((self.vals[:start], self.vals[stop:])),
            np.delete(self.senses, row),
            np.delete(self.rhs, row),
        )

    def _layout(self):
        """Each entry's row and its ``GE``-negated value, which rows are
        equalities, and each row's index in its block."""
        eq = self.senses == _EQ
        block_row = np.empty(eq.shape[0], dtype=np.intp)
        block_row[~eq] = np.arange(eq.shape[0] - int(eq.sum()))
        block_row[eq] = np.arange(int(eq.sum()))
        entry_row = np.repeat(np.arange(eq.shape[0]), self.counts)
        values = np.where(self.senses[entry_row] == _GE, -self.vals, self.vals)
        return entry_row, values, eq, block_row

    def blocks(self, n: int):
        """``(a_ub, b_ub, a_eq, b_eq)``, with ``GE`` rows negated into ``a_ub``."""
        entry_row, values, eq, block_row = self._layout()
        ge = self.senses == _GE
        rhs = np.where(ge, -self.rhs, self.rhs)
        entry_eq = eq[entry_row]
        blocks = []
        for rows, entries in ((~eq, ~entry_eq), (eq, entry_eq)):
            a = np.empty((int(rows.sum()), n))
            # A GE row is negated whole, so its zeros are -0.0 like its
            # terms' signs: the bytes do not depend on how rows are gathered.
            a[...] = np.where(ge[rows], -0.0, 0.0)[:, None]
            a[block_row[entry_row[entries]], self.cols[entries]] = values[entries]
            blocks += (a, rhs[rows])
        return tuple(blocks)

    def stacked(self, n: int) -> sparse.csc_array:
        """The nonzeros of ``a_ub`` over ``a_eq`` as a CSC matrix, made
        once and shared by every form of these rows.

        The rows are laid out as CSR, ``a_ub`` rows then ``a_eq`` rows, and
        SciPy's CSR-to-CSC conversion leaves each column's row indices
        sorted, as its conversion of the dense blocks does.
        """
        if self._matrix is None:
            entry_row, values, eq, _ = self._layout()
            counts, cols = self.counts, self.cols
            keep = values != 0.0
            if not keep.all():  # explicit zeros are not stored
                values, cols = values[keep], cols[keep]
                counts = np.bincount(entry_row[keep], minlength=eq.shape[0])
            order = np.concatenate((np.flatnonzero(~eq), np.flatnonzero(eq)))
            starts = np.cumsum(counts) - counts
            stacked_counts = counts[order]
            indptr = np.zeros(eq.shape[0] + 1, dtype=np.int32)
            np.cumsum(stacked_counts, out=indptr[1:])
            take = np.repeat(starts[order] - indptr[:-1], stacked_counts) + np.arange(indptr[-1])
            self._matrix = sparse.csr_array(
                (values[take], cols[take].astype(np.int32), indptr), shape=(eq.shape[0], n)
            ).tocsc()
        return self._matrix


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
        #: The rows and columns of the last export, kept across row and
        #: objective changes, and the row edits made since.
        self._exported: Optional[MatrixForm] = None
        self._row_edits: List[Tuple[int, Optional[Constraint]]] = []

    def _changed(self) -> None:
        """Drop the export and everything kept from it."""
        self._form = None
        self._exported = None
        self._row_edits = []

    def _row_edited(self, row: int, constraint: Optional[Constraint]) -> None:
        """Note an insert (``constraint`` before ``row``) or a delete (``None``)."""
        self._form = None
        if self._exported is None:
            return
        if len(self._row_edits) >= _MAX_ROW_EDITS:
            self._changed()
            return
        self._row_edits.append((row, constraint))

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
        variables = self._variables
        count = len(variables)
        for var in constraint.expr.coeffs:
            index = var.index
            if not 0 <= index < count or variables[index] is not var:
                raise ModelError(
                    f"constraint uses variable {var.name!r} that does not belong to model {self.name!r}"
                )
        if not name:
            name = f"c{self._constraint_counter}"
        self._constraint_counter += 1
        constraint.name = name
        rows = len(self._constraints)
        if position is None:
            row = rows
        else:  # where list.insert puts it
            row = min(position if position >= 0 else max(position + rows, 0), rows)
        self._row_edited(row, constraint)
        self._constraints.insert(row, constraint)
        return constraint

    def remove(self, constraint: Constraint) -> None:
        """Delete a constraint this model holds (matched by identity)."""
        for row, held in enumerate(self._constraints):
            if held is constraint:
                self._row_edited(row, None)
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
        self._form = None
        self._objective = LinExpr() + expr

    def maximize(self, expr: LinExpr | Var | Number) -> None:
        """Set a maximization objective (stored negated; models always minimize)."""
        self._form = None
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
        form.  Its arrays are read-only for that reason.  After a change
        the next export re-reads only what changed: the objective after
        ``minimize``/``maximize``, the inserted rows after ``add`` or
        ``remove`` (a few at a time), everything after ``add_var``.  So
        editing a :class:`Var`'s bounds or a :class:`Constraint`'s terms
        or ``rhs`` in place after an export is not seen by later exports.
        """
        if self._form is not None:
            return self._form
        n = len(self._variables)
        c = np.zeros(n)
        for var, coeff in self._objective.coeffs.items():
            c[self._column(var)] = coeff

        previous = self._exported
        if previous is None:
            rows = _Rows.of(self._constraints)
            form = MatrixForm(
                c, self._objective.constant, *rows.blocks(n),
                lb=np.asarray([v.lb for v in self._variables], dtype=float),
                ub=np.asarray([v.ub for v in self._variables], dtype=float),
                integrality=np.asarray([v.is_integral for v in self._variables], dtype=bool),
                variables=self.variables,
                branch_priority=np.asarray(
                    [v.branch_priority for v in self._variables], dtype=int
                ),
            )
        elif self._row_edits:
            rows = previous._rows
            for row, constraint in self._row_edits:
                rows = rows.delete(row) if constraint is None else rows.insert(row, constraint)
            a_ub, b_ub, a_eq, b_eq = rows.blocks(n)
            form = dataclasses.replace(previous, c=c, c0=self._objective.constant,
                                       a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        else:
            rows = previous._rows
            form = dataclasses.replace(previous, c=c, c0=self._objective.constant)
        form._rows = rows
        for array in (form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq,
                      form.lb, form.ub, form.integrality, form.branch_priority):
            array.flags.writeable = False
        self._row_edits = []
        self._exported = self._form = form
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

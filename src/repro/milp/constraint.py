"""Linear constraints for the MILP modeling layer."""

from __future__ import annotations

import enum
from typing import Dict, Mapping, Union

from repro.errors import ModelError
from repro.milp.expr import LinExpr, Number, Var


class Sense(enum.Enum):
    """Relational sense of a linear constraint."""

    LE = "<="
    GE = ">="
    EQ = "="


class Constraint:
    """A linear constraint ``expr (<=|>=|=) rhs``.

    Internally normalized so that ``expr`` carries all variable terms and a
    zero constant, with the constant folded into ``rhs``.  Constraints are
    produced by comparing :class:`~repro.milp.expr.LinExpr` /
    :class:`~repro.milp.expr.Var` objects, e.g. ``model.add(x + y <= 3)``.

    Attributes:
        expr: Left-hand side with ``constant == 0``.
        sense: Relational sense.
        rhs: Right-hand-side scalar.
        name: Assigned when the constraint is added to a model.
    """

    __slots__ = ("expr", "sense", "rhs", "name")

    def __init__(self, expr: LinExpr, sense: Sense, rhs: Number, name: str = "") -> None:
        normalized = expr.copy()
        rhs_value = float(rhs) - normalized.constant
        normalized.constant = 0.0
        self.expr = normalized
        self.sense = sense
        self.rhs = rhs_value
        self.name = name

    @classmethod
    def from_terms(
        cls, coeffs: Dict[Var, float], sense: Sense, rhs: float
    ) -> "Constraint":
        """``sum(coeffs[v] * v) (sense) rhs`` over an already-built term dict.

        The dict is owned by the constraint, not copied; its coefficients
        must be nonzero floats, as comparisons of expressions produce.
        """
        constraint = cls.__new__(cls)
        constraint.expr = LinExpr()
        constraint.expr.coeffs = coeffs
        constraint.sense = sense
        constraint.rhs = float(rhs)
        constraint.name = ""
        return constraint

    @classmethod
    def _from_comparison(
        cls,
        left: Union[LinExpr, Var, Number],
        right: Union[LinExpr, Var, Number],
        sense: Sense,
    ) -> "Constraint":
        left_expr = left if isinstance(left, LinExpr) else LinExpr() + left
        difference = left_expr - right
        rhs = -difference.constant
        difference.constant = 0.0
        return cls(difference, sense, rhs)

    def is_satisfied(self, values: Mapping[Var, Number], tol: float = 1e-6) -> bool:
        """Check this constraint under a variable assignment.

        Args:
            values: Mapping from variables to values.
            tol: Absolute feasibility tolerance.
        """
        lhs = self.expr.evaluate(values)
        if self.sense is Sense.LE:
            return lhs <= self.rhs + tol
        if self.sense is Sense.GE:
            return lhs >= self.rhs - tol
        return abs(lhs - self.rhs) <= tol

    def violation(self, values: Mapping[Var, Number]) -> float:
        """Nonnegative amount by which the constraint is violated (0 if satisfied)."""
        lhs = self.expr.evaluate(values)
        if self.sense is Sense.LE:
            return max(0.0, lhs - self.rhs)
        if self.sense is Sense.GE:
            return max(0.0, self.rhs - lhs)
        return abs(lhs - self.rhs)

    def __bool__(self) -> bool:
        # Truth-testing a constraint is always a bug: it happens when Python
        # chains comparisons ('a <= b <= c') or when a constraint is used in
        # an 'if'.  Fail loudly instead of silently dropping half the chain.
        raise ModelError(
            "a Constraint has no truth value; avoid chained comparisons like "
            "'a <= b <= c' when building constraints"
        )

    def __repr__(self) -> str:
        label = f" [{self.name}]" if self.name else ""
        return f"Constraint({self.expr!r} {self.sense.value} {self.rhs:g}{label})"


def validate_constraint(constraint: object) -> Constraint:
    """Ensure an object passed to ``Model.add`` really is a constraint.

    A common modeling bug is writing ``model.add(x <= y <= z)`` (Python
    chains comparisons and the result is a bool) — this helper turns that
    mistake into a clear error.
    """
    if isinstance(constraint, bool):
        raise ModelError(
            "got a bool instead of a Constraint; avoid chained comparisons "
            "like 'a <= b <= c' when building constraints"
        )
    if not isinstance(constraint, Constraint):
        raise ModelError(f"expected a Constraint, got {type(constraint).__name__}")
    return constraint

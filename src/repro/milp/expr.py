"""Linear expressions and decision variables for the MILP modeling layer.

This module provides the two building blocks of every model:

* :class:`Var` — a named decision variable with a domain (continuous,
  integer, or binary) and bounds.
* :class:`LinExpr` — an affine expression ``sum(coeff * var) + constant``
  supporting natural arithmetic (``+``, ``-``, ``*`` by scalars) and
  comparison operators that build :class:`~repro.milp.constraint.Constraint`
  objects.

The design mirrors miniature modeling layers such as PuLP, which the paper's
authors approximated with hand-written matrix generators for Bozo/XLP.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Iterable, Mapping, Tuple, Union

from repro.errors import ModelError

Number = Union[int, float]

#: Variables with |value - round(value)| below this are considered integral.
INTEGRALITY_TOLERANCE = 1e-6


class VarType(enum.Enum):
    """Domain of a decision variable."""

    CONTINUOUS = "continuous"
    INTEGER = "integer"
    BINARY = "binary"


class Var:
    """A single decision variable.

    Variables are created through :meth:`repro.milp.model.Model.add_var`
    (which assigns the ``index``); constructing one directly is only useful
    in tests.

    Attributes:
        name: Unique (per model) human-readable identifier.
        vtype: Domain of the variable.
        lb: Lower bound (``-inf`` allowed for continuous variables).
        ub: Upper bound (``+inf`` allowed).
        index: Column index inside the owning model, assigned by the model.
        branch_priority: Branching class for branch and bound.  Bozo
            branches only among the fractional candidates of the highest
            class present; backends without a notion of priority ignore it.
    """

    __slots__ = ("name", "vtype", "lb", "ub", "index", "branch_priority")

    def __init__(
        self,
        name: str,
        vtype: VarType = VarType.CONTINUOUS,
        lb: Number = 0.0,
        ub: Number = math.inf,
        index: int = -1,
        branch_priority: int = 0,
    ) -> None:
        if vtype is VarType.BINARY:
            lb, ub = 0.0, 1.0
        if lb > ub:
            raise ModelError(f"variable {name!r}: lower bound {lb} exceeds upper bound {ub}")
        self.name = name
        self.vtype = vtype
        self.lb = float(lb)
        self.ub = float(ub)
        self.index = index
        self.branch_priority = int(branch_priority)

    @property
    def is_integral(self) -> bool:
        """True for binary and general-integer variables."""
        return self.vtype is not VarType.CONTINUOUS

    # Identity hashing, with the C-level slot: models hash their variables
    # hundreds of thousands of times per build.  Dicts keyed by Var keep
    # insertion order, so no row or column order depends on the hash.
    __hash__ = object.__hash__

    def __eq__(self, other: object):  # type: ignore[override]
        # Equality against expressions builds a constraint; identity otherwise.
        if isinstance(other, (Var, LinExpr, int, float)):
            return LinExpr.from_term(self).__eq__(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Var({self.name!r}, {self.vtype.value}, [{self.lb}, {self.ub}])"

    # -- arithmetic: delegate to LinExpr ------------------------------------
    def __add__(self, other):
        return LinExpr.from_term(self) + other

    __radd__ = __add__

    def __sub__(self, other):
        return LinExpr.from_term(self) - other

    def __rsub__(self, other):
        return (-LinExpr.from_term(self)) + other

    def __mul__(self, other):
        return LinExpr.from_term(self) * other

    __rmul__ = __mul__

    def __truediv__(self, other):
        return LinExpr.from_term(self) / other

    def __neg__(self):
        return LinExpr.from_term(self, coeff=-1.0)

    def __le__(self, other):
        return LinExpr.from_term(self) <= other

    def __ge__(self, other):
        return LinExpr.from_term(self) >= other


class LinExpr:
    """An affine expression ``sum_i coeffs[v_i] * v_i + constant``.

    Instances are immutable from the caller's point of view: every
    arithmetic operation returns a new expression.  Terms with coefficient
    exactly ``0.0`` are dropped eagerly so expressions stay sparse.
    """

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs: Mapping[Var, Number] | None = None, constant: Number = 0.0) -> None:
        self.coeffs: Dict[Var, float] = {}
        if coeffs:
            for var, coeff in coeffs.items():
                if not isinstance(var, Var):
                    raise ModelError(f"LinExpr term key must be a Var, got {type(var).__name__}")
                value = float(coeff)
                if value != 0.0:
                    self.coeffs[var] = value
        self.constant = float(constant)

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_term(cls, var: Var, coeff: Number = 1.0) -> "LinExpr":
        """Build the expression ``coeff * var``."""
        return cls({var: coeff})

    @classmethod
    def sum(cls, terms: Iterable[Union["LinExpr", Var, Number]]) -> "LinExpr":
        """Sum an iterable of expressions, variables, and scalars.

        Faster and clearer than ``functools.reduce(operator.add, ...)`` for
        the long sums that constraint generators produce.
        """
        result = cls()
        for term in terms:
            result._iadd(term)
        return result

    # -- inspection ----------------------------------------------------------
    def variables(self) -> Tuple[Var, ...]:
        """The variables appearing with nonzero coefficient."""
        return tuple(self.coeffs)

    def coefficient(self, var: Var) -> float:
        """Coefficient of ``var`` (0.0 if absent)."""
        return self.coeffs.get(var, 0.0)

    def is_constant(self) -> bool:
        """True when no variable appears."""
        return not self.coeffs

    def evaluate(self, values: Mapping[Var, Number]) -> float:
        """Value of the expression under a variable assignment.

        Args:
            values: Mapping from every variable in the expression to a value.

        Raises:
            ModelError: If a variable has no value in ``values``.
        """
        total = self.constant
        for var, coeff in self.coeffs.items():
            if var not in values:
                raise ModelError(f"no value supplied for variable {var.name!r}")
            total += coeff * float(values[var])
        return total

    def copy(self) -> "LinExpr":
        """An independent copy (the term dict is not shared)."""
        fresh = LinExpr()
        fresh.coeffs = dict(self.coeffs)
        fresh.constant = self.constant
        return fresh

    # -- in-place helper (private; used to keep sums O(n)) --------------------
    def _iadd(self, other: Union["LinExpr", Var, Number], sign: float = 1.0) -> "LinExpr":
        if isinstance(other, LinExpr):
            for var, coeff in other.coeffs.items():
                updated = self.coeffs.get(var, 0.0) + sign * coeff
                if updated == 0.0:
                    self.coeffs.pop(var, None)
                else:
                    self.coeffs[var] = updated
            self.constant += sign * other.constant
        elif isinstance(other, Var):
            updated = self.coeffs.get(other, 0.0) + sign
            if updated == 0.0:
                self.coeffs.pop(other, None)
            else:
                self.coeffs[other] = updated
        elif isinstance(other, (int, float)):
            self.constant += sign * float(other)
        else:
            raise ModelError(f"cannot add {type(other).__name__} to a linear expression")
        return self

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other):
        return self.copy()._iadd(other)

    __radd__ = __add__

    def __sub__(self, other):
        return self.copy()._iadd(other, sign=-1.0)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            raise ModelError("a linear expression can only be multiplied by a scalar "
                             "(products of variables must be linearized explicitly)")
        if scalar == 0:
            return LinExpr()
        result = LinExpr()
        result.coeffs = {var: coeff * float(scalar) for var, coeff in self.coeffs.items()}
        result.constant = self.constant * float(scalar)
        return result

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, float)):
            raise ModelError("a linear expression can only be divided by a scalar")
        if scalar == 0:
            raise ZeroDivisionError("division of a linear expression by zero")
        return self * (1.0 / scalar)

    def __neg__(self):
        return self * -1.0

    # -- comparisons build constraints -----------------------------------------
    def __le__(self, other):
        from repro.milp.constraint import Constraint, Sense

        return Constraint._from_comparison(self, other, Sense.LE)

    def __ge__(self, other):
        from repro.milp.constraint import Constraint, Sense

        return Constraint._from_comparison(self, other, Sense.GE)

    def __eq__(self, other):  # type: ignore[override]
        from repro.milp.constraint import Constraint, Sense

        if isinstance(other, (LinExpr, Var, int, float)):
            return Constraint._from_comparison(self, other, Sense.EQ)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # expressions are not hashable

    def __repr__(self) -> str:
        parts = [f"{coeff:+g}*{var.name}" for var, coeff in self.coeffs.items()]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return "LinExpr(" + " ".join(parts) + ")"

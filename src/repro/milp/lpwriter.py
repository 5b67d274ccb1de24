"""CPLEX-LP-format writer.

The paper's toolchain handed matrix files to XLP; we provide the modern
equivalent — an LP-file export — so models can be inspected by hand or fed
to external solvers for cross-checking.  Branching priorities
(:attr:`~repro.milp.expr.Var.branch_priority`) are not written: the
format has no field for them.
"""

from __future__ import annotations

import io
import math
from typing import TextIO

from repro.milp.expr import LinExpr
from repro.milp.model import Model
from repro.milp.mps import _sanitize


def _format_expr(expr: LinExpr, name_of: dict) -> str:
    parts = []
    for var, coeff in sorted(expr.coeffs.items(), key=lambda item: item[0].index):
        sign = "+" if coeff >= 0 else "-"
        magnitude = abs(coeff)
        if parts or sign == "-":
            parts.append(sign)
        if magnitude == 1.0:
            parts.append(name_of[var])
        else:
            parts.append(f"{magnitude:.17g} {name_of[var]}")
    if not parts:
        parts.append("0")
    return " ".join(parts)


def write_lp(model: Model, stream: TextIO) -> None:
    """Write ``model`` to ``stream`` in CPLEX LP format."""
    name_of = {var: _sanitize(var.name) for var in model.variables}
    if len(set(name_of.values())) != len(name_of):
        # Disambiguate collisions introduced by sanitization.
        for var in model.variables:
            name_of[var] = f"{name_of[var]}_{var.index}"

    stream.write(f"\\ Model: {model.name}\n")
    stream.write("Minimize\n")
    stream.write(f" obj: {_format_expr(model.objective, name_of)}\n")

    stream.write("Subject To\n")
    for constraint in model.constraints:
        sense = {"<=": "<=", ">=": ">=", "=": "="}[constraint.sense.value]
        rhs = constraint.rhs + 0.0  # normalize -0.0 to 0.0
        stream.write(
            f" {_sanitize(constraint.name)}: "
            f"{_format_expr(constraint.expr, name_of)} {sense} {rhs:.17g}\n"
        )

    stream.write("Bounds\n")
    for var in model.variables:
        name = name_of[var]
        lb = "-inf" if math.isinf(var.lb) else f"{var.lb:.17g}"
        ub = "+inf" if math.isinf(var.ub) else f"{var.ub:.17g}"
        if var.lb == 0.0 and math.isinf(var.ub):
            continue  # LP default bound
        stream.write(f" {lb} <= {name} <= {ub}\n")

    binaries = [name_of[v] for v in model.variables if v.vtype.value == "binary"]
    integers = [name_of[v] for v in model.variables if v.vtype.value == "integer"]
    if binaries:
        stream.write("Binary\n")
        for name in binaries:
            stream.write(f" {name}\n")
    if integers:
        stream.write("General\n")
        for name in integers:
            stream.write(f" {name}\n")
    stream.write("End\n")


def lp_string(model: Model) -> str:
    """The LP-format text of a model."""
    buffer = io.StringIO()
    write_lp(model, buffer)
    return buffer.getvalue()

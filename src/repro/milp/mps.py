"""MPS-format writer and reader: the package's model-exchange format.

The paper's toolchain exchanged matrix files between the generator and
XLP; MPS is the modern interchange format every external solver reads.
The writer emits free-format MPS (``NAME``/``ROWS``/``COLUMNS`` with
integrality markers/``RHS``/``BOUNDS``/``ENDATA``) and the reader parses
the same subset — which is also the common core of the format — so a
model round-trips through write+read preserving its mathematical content
exactly, and the files feed straight into HiGHS for cross-checking.
Branching priorities are not part of that content: the format has no
field for them, so a read model has every priority at 0.
"""

from __future__ import annotations

import io
import math
import re
from typing import Dict, List, TextIO, Tuple

from repro.errors import ModelError
from repro.milp.constraint import Constraint, Sense
from repro.milp.expr import LinExpr, VarType
from repro.milp.model import Model

_OBJECTIVE_ROW = "obj"
_NAME_SANITIZER = re.compile(r"[^A-Za-z0-9_.]")
_ROW_SENSE = {Sense.LE: "L", Sense.GE: "G", Sense.EQ: "E"}
_SENSE_OF = {"L": Sense.LE, "G": Sense.GE, "E": Sense.EQ}


def _sanitize(name: str) -> str:
    """Make a variable/row name legal in MPS files."""
    clean = _NAME_SANITIZER.sub("_", name)
    if not clean or clean[0].isdigit():
        clean = "v_" + clean
    return clean


def write_mps(model: Model, stream: TextIO) -> None:
    """Write ``model`` to ``stream`` in free-format MPS."""
    name_of = {var: _sanitize(var.name) for var in model.variables}
    if len(set(name_of.values())) != len(name_of):
        for var in model.variables:
            name_of[var] = f"{name_of[var]}_{var.index}"
    row_names = []
    seen = set()
    for index, constraint in enumerate(model.constraints):
        name = _sanitize(constraint.name) if constraint.name else f"c{index}"
        if name in seen or name == _OBJECTIVE_ROW:
            name = f"{name}_{index}"
        seen.add(name)
        row_names.append(name)

    stream.write(f"NAME          {_sanitize(model.name)}\n")
    stream.write("ROWS\n")
    stream.write(f" N  {_OBJECTIVE_ROW}\n")
    for name, constraint in zip(row_names, model.constraints):
        stream.write(f" {_ROW_SENSE[constraint.sense]}  {name}\n")

    # Per-variable column entries: objective first, then rows in order.
    entries: Dict[object, List[Tuple[str, float]]] = {var: [] for var in model.variables}
    for var, coeff in model.objective.coeffs.items():
        if coeff:
            entries[var].append((_OBJECTIVE_ROW, float(coeff)))
    for name, constraint in zip(row_names, model.constraints):
        for var, coeff in constraint.expr.coeffs.items():
            if coeff:
                entries[var].append((name, float(coeff)))

    stream.write("COLUMNS\n")
    integral = False
    for var in model.variables:
        wants_integral = var.vtype.value in ("binary", "integer")
        if wants_integral != integral:
            marker = "INTORG" if wants_integral else "INTEND"
            stream.write(f"    MARKER    'MARKER'    '{marker}'\n")
            integral = wants_integral
        for row, coeff in entries[var]:
            stream.write(f"    {name_of[var]}  {row}  {coeff:.17g}\n")
        if not entries[var]:
            # A variable with no nonzeros still needs a column record so
            # readers (including ours) learn it exists.
            stream.write(f"    {name_of[var]}  {_OBJECTIVE_ROW}  0\n")
    if integral:
        stream.write("    MARKER    'MARKER'    'INTEND'\n")

    stream.write("RHS\n")
    for name, constraint in zip(row_names, model.constraints):
        rhs = constraint.rhs + 0.0  # normalize -0.0
        if rhs:
            stream.write(f"    RHS  {name}  {rhs:.17g}\n")
    if model.objective.constant:
        # MPS convention: an RHS entry on the objective row is the
        # *negated* objective constant.
        stream.write(f"    RHS  {_OBJECTIVE_ROW}  {-model.objective.constant:.17g}\n")

    stream.write("BOUNDS\n")
    for var in model.variables:
        name = name_of[var]
        lb, ub = var.lb, var.ub
        if lb == ub:
            stream.write(f" FX BND  {name}  {lb:.17g}\n")
        elif math.isinf(lb) and math.isinf(ub):
            stream.write(f" FR BND  {name}\n")
        else:
            # Explicit pairs everywhere: MPS readers disagree on the
            # default upper bound of integer columns, so never rely on it.
            if math.isinf(lb):
                stream.write(f" MI BND  {name}\n")
            else:
                stream.write(f" LO BND  {name}  {lb:.17g}\n")
            if not math.isinf(ub):
                stream.write(f" UP BND  {name}  {ub:.17g}\n")
    stream.write("ENDATA\n")


def mps_string(model: Model) -> str:
    """The MPS-format text of a model."""
    buffer = io.StringIO()
    write_mps(model, buffer)
    return buffer.getvalue()


def read_mps(text: str) -> Model:
    """Parse free-format MPS text into a :class:`Model`.

    Supports the subset the writer emits: one ``N`` row, ``L``/``G``/``E``
    rows, integrality markers, ``RHS``, and ``LO``/``UP``/``FX``/``FR``/
    ``MI``/``PL``/``BV`` bounds.  ``RANGES`` is rejected.

    Raises:
        ModelError: On malformed or unsupported input.
    """
    objective_row = None
    row_sense: Dict[str, Sense] = {}
    row_order: List[str] = []
    columns: Dict[str, List[Tuple[str, float]]] = {}
    column_order: List[str] = []
    integral: Dict[str, bool] = {}
    rhs: Dict[str, float] = {}
    bounds: List[Tuple[str, str, float]] = []

    section = None
    in_integral = False
    for raw in text.splitlines():
        line = raw.split("*")[0].rstrip()
        if not line.strip():
            continue
        if not line[0].isspace():
            tokens = line.split()
            section = tokens[0].upper()
            if section == "ENDATA":
                break
            if section == "RANGES":
                raise ModelError("MPS RANGES section is not supported")
            if section not in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "OBJSENSE"):
                raise ModelError(f"unsupported MPS section: {section!r}")
            continue
        tokens = line.split()
        if section == "ROWS":
            if len(tokens) != 2:
                raise ModelError(f"malformed ROWS line: {line!r}")
            kind, name = tokens[0].upper(), tokens[1]
            if kind == "N":
                if objective_row is None:
                    objective_row = name
                continue
            if kind not in _SENSE_OF:
                raise ModelError(f"unknown row type {kind!r} in {line!r}")
            row_sense[name] = _SENSE_OF[kind]
            row_order.append(name)
        elif section == "COLUMNS":
            if "'MARKER'" in tokens:
                in_integral = "'INTORG'" in tokens
                continue
            if len(tokens) not in (3, 5):
                raise ModelError(f"malformed COLUMNS line: {line!r}")
            name = tokens[0]
            if name not in columns:
                columns[name] = []
                column_order.append(name)
                integral[name] = in_integral
            for row, value in zip(tokens[1::2], tokens[2::2]):
                columns[name].append((row, float(value)))
        elif section == "RHS":
            if len(tokens) not in (3, 5):
                raise ModelError(f"malformed RHS line: {line!r}")
            for row, value in zip(tokens[1::2], tokens[2::2]):
                rhs[row] = float(value)
        elif section == "BOUNDS":
            kind = tokens[0].upper()
            if kind in ("FR", "MI", "PL", "BV") and len(tokens) == 3:
                bounds.append((kind, tokens[2], 0.0))
            elif kind in ("LO", "UP", "FX") and len(tokens) == 4:
                bounds.append((kind, tokens[2], float(tokens[3])))
            else:
                raise ModelError(f"unsupported bound line: {line!r}")
        elif section in ("NAME", "OBJSENSE"):
            continue
        elif section is None:
            raise ModelError(f"MPS data before any section header: {line!r}")

    if objective_row is None:
        raise ModelError("MPS text has no objective (N) row")

    model = Model("from_mps")
    variables = {name: model.add_var(name) for name in column_order}
    for name, var in variables.items():
        if integral[name]:
            var.vtype = VarType.INTEGER

    objective = LinExpr()
    row_exprs: Dict[str, LinExpr] = {name: LinExpr() for name in row_order}
    for name, records in columns.items():
        var = variables[name]
        for row, value in records:
            if row == objective_row:
                objective = objective + value * var
            elif row in row_exprs:
                row_exprs[row] = row_exprs[row] + value * var
            else:
                raise ModelError(f"column entry for unknown row {row!r}")
    objective.constant = -rhs.pop(objective_row, 0.0)

    for row in rhs:
        if row not in row_exprs:
            raise ModelError(f"RHS entry for unknown row {row!r}")
    for name in row_order:
        model.add(
            Constraint(row_exprs[name], row_sense[name], rhs.get(name, 0.0)),
            name=name,
        )
    model.minimize(objective)

    for kind, name, value in bounds:
        var = variables.get(name)
        if var is None:
            raise ModelError(f"bound for unknown column {name!r}")
        if kind == "LO":
            var.lb = value
        elif kind == "UP":
            var.ub = value
            if value < 0 and var.lb == 0.0:
                # Historical MPS quirk: a negative UP with default LO
                # frees the lower bound.
                var.lb = -math.inf
        elif kind == "FX":
            var.lb = var.ub = value
        elif kind == "FR":
            var.lb, var.ub = -math.inf, math.inf
        elif kind == "MI":
            var.lb = -math.inf
        elif kind == "PL":
            var.ub = math.inf
        elif kind == "BV":
            var.vtype = VarType.BINARY
            var.lb, var.ub = 0.0, 1.0

    # Integer columns on [0, 1] are binaries for modeling purposes.
    for var in model.variables:
        if var.vtype is VarType.INTEGER and var.lb == 0.0 and var.ub == 1.0:
            var.vtype = VarType.BINARY
    return model

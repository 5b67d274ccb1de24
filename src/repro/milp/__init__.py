"""A from-scratch MILP modeling layer (variables, expressions, models).

This is the reproduction's stand-in for the matrix generators the SOS
authors wrote by hand for Bozo/XLP: a small, typed modeling API in the
spirit of PuLP, consumed by the solver backends in :mod:`repro.solvers`.
"""

from repro.milp.constraint import Constraint, Sense
from repro.milp.expr import INTEGRALITY_TOLERANCE, LinExpr, Var, VarType
from repro.milp.model import MatrixForm, Model, ModelStats
from repro.milp.mps import mps_string, read_mps, write_mps
from repro.milp.solution import Solution, SolveStats, SolveStatus

__all__ = [
    "Constraint",
    "Sense",
    "INTEGRALITY_TOLERANCE",
    "LinExpr",
    "Var",
    "VarType",
    "read_mps",
    "mps_string",
    "write_mps",
    "MatrixForm",
    "Model",
    "ModelStats",
    "Solution",
    "SolveStats",
    "SolveStatus",
]

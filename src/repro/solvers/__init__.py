"""Solver backends: a from-scratch simplex + branch-and-bound ("Bozo") and
an independent HiGHS (scipy) cross-check, behind one interface.

The LP pipeline is layered: :class:`StandardFormLP` is built once per MILP
and mutated in place, and :func:`solve_revised`, bozo's only LP path,
warm-starts from a previous basis.  The dense tableau :func:`solve_lp` is
the reference oracle tests compare against; :func:`solve_with_fallback`
is a deprecated alias kept until 3.0.0."""

from repro.milp.solution import SolveStats
from repro.solvers.base import Solver, SolverOptions
from repro.solvers.bozo import BozoSolver
from repro.solvers.presolve import PresolveResult, presolve
from repro.solvers.registry import available_solvers, get_solver, register_solver
from repro.solvers.revised import (
    Basis,
    RevisedResult,
    RevisedStatus,
    StandardFormLP,
    solve_revised,
    solve_with_fallback,
)
from repro.solvers.simplex import LPResult, LPStatus, solve_lp

__all__ = [
    "Solver",
    "SolverOptions",
    "SolveStats",
    "BozoSolver",
    "PresolveResult",
    "presolve",
    "available_solvers",
    "get_solver",
    "register_solver",
    "Basis",
    "RevisedResult",
    "RevisedStatus",
    "StandardFormLP",
    "solve_revised",
    "solve_with_fallback",
    "LPResult",
    "LPStatus",
    "solve_lp",
]

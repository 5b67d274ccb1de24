"""Solver registry: look up backends by name.

``"auto"`` picks HiGHS (via :func:`scipy.optimize.milp`) whenever it is
registered, and the from-scratch Bozo solver otherwise.
"""

from __future__ import annotations

import difflib
from typing import Callable, Dict, Optional, Type

from repro.errors import UnknownSolverError
from repro.solvers.base import Solver, SolverOptions

_REGISTRY: Dict[str, Callable[[Optional[SolverOptions]], Solver]] = {}


def register_solver(name: str, factory: Callable[[Optional[SolverOptions]], Solver]) -> None:
    """Register a backend under ``name`` (overwrites an existing entry)."""
    _REGISTRY[name] = factory


def available_solvers() -> tuple:
    """Names of all registered backends (plus ``auto``)."""
    return tuple(sorted(_REGISTRY)) + ("auto",)


def resolve_solver_name(name: str = "auto") -> str:
    """The concrete backend ``"auto"`` resolves to on this host.

    Used by the service layer's fingerprints: a cache key must name the
    backend that would actually run, not the alias, so results computed
    under ``auto`` never collide across hosts with different backends.
    """
    if name == "auto":
        return "highs" if "highs" in _REGISTRY else "bozo"
    return name


def get_solver(name: str = "auto", options: Optional[SolverOptions] = None) -> Solver:
    """Instantiate a solver backend.

    Args:
        name: ``"bozo"``, ``"highs"``, or ``"auto"``.
        options: Shared solver options.

    Raises:
        UnknownSolverError: For an unknown name; the message lists the
            registered backends and suggests the nearest name if one is
            close.
    """
    name = resolve_solver_name(name)
    try:
        factory = _REGISTRY[name]
    except KeyError:
        message = (
            f"unknown solver {name!r}; available: {', '.join(available_solvers())}"
        )
        close = difflib.get_close_matches(name, available_solvers(), n=1)
        if close:
            message += f" (did you mean {close[0]!r}?)"
        raise UnknownSolverError(message) from None
    return factory(options)


def _register_builtins() -> None:
    from repro.solvers.bozo import BozoSolver

    register_solver("bozo", lambda options: BozoSolver(options))

    from repro.solvers.highs import HighsSolver

    register_solver("highs", lambda options: HighsSolver(options))


_register_builtins()

"""Exception hierarchy for the SOS reproduction library.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Subsystems raise the most specific subclass available.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ModelError(ReproError):
    """A MILP model was constructed or used incorrectly."""


class SolverError(ReproError):
    """A solver failed in a way that is not simply infeasibility."""


class UnknownSolverError(SolverError):
    """An unrecognized solver name was requested from the registry.

    The message lists the registered backends and, when a close match
    exists, suggests the likely intended name.  Subclasses
    :class:`SolverError`, so ``except SolverError`` call sites keep
    working.
    """


class InfeasibleError(SolverError):
    """The model was proven infeasible."""


class CancelledError(ReproError):
    """A solve was cooperatively cancelled.

    Raised from inside the branch-and-bound node loop (and the sweep
    orchestrators) when :attr:`~repro.solvers.base.SolverOptions.should_stop`
    returns true.  Deliberately *not* a :class:`SolverError`: cancellation
    is a caller decision, not a backend failure, and retry loops (e.g. the
    job service's transient-failure retries) must never swallow it.
    """


class TaskGraphError(ReproError):
    """A task data-flow graph violates the task-model rules."""


class SystemModelError(ReproError):
    """A technology library or architecture violates the system-model rules."""


class SynthesisError(ReproError):
    """Synthesis could not produce a design (e.g. no capable processor)."""


class ScheduleError(ReproError):
    """A schedule is malformed."""


class ValidationError(ScheduleError):
    """A schedule violates one of the paper's correctness constraints.

    The message names the violated constraint family using the paper's
    equation numbers (e.g. ``processor-usage-exclusion (3.3.9)``).
    """


class SimulationError(ReproError):
    """The discrete-event simulator detected an inconsistency (e.g. deadlock)."""

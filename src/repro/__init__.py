"""SOS — Synthesis of Application-Specific Heterogeneous Multiprocessor Systems.

A complete, from-scratch reproduction of Prakash & Parker (ISCA 1992):
MILP co-synthesis of the processor set, interconnect, subtask mapping, and
static schedule of an application-specific heterogeneous multiprocessor.

Quickstart::

    import repro

    design = repro.synthesize(repro.example1(), repro.example1_library())
    print(design.describe())
    print(design.gantt())

    synth = repro.Synthesizer(repro.example1(), repro.example1_library())
    front = synth.pareto_sweep()           # every non-inferior system

``repro.synthesize`` is the one-call entrypoint; ``repro.Synthesizer``
is the stateful driver for sweeps and repeated solves.  The stable
public surface is documented in ``docs/api.md``; structured solve
tracing lives in :mod:`repro.obs` (see ``docs/observability.md``).
"""

from repro.core import (
    DesignerConstraints,
    FormulationOptions,
    Objective,
    SosModelBuilder,
    build_sos_model,
)
from repro.errors import (
    InfeasibleError,
    ReproError,
    SolverError,
    SynthesisError,
    TaskGraphError,
    UnknownSolverError,
    ValidationError,
)
from repro.synthesis import Design, ParetoFront, Synthesizer, synthesize
from repro.system import (
    Architecture,
    InterconnectStyle,
    Link,
    ProcessorInstance,
    ProcessorType,
    TechnologyLibrary,
    example1_library,
    example2_library,
)
from repro.taskgraph import TaskGraph, example1, example2

__version__ = "2.10.0"

__all__ = [
    "DesignerConstraints",
    "FormulationOptions",
    "Objective",
    "SosModelBuilder",
    "build_sos_model",
    "InfeasibleError",
    "ReproError",
    "SolverError",
    "SynthesisError",
    "TaskGraphError",
    "UnknownSolverError",
    "ValidationError",
    "Design",
    "ParetoFront",
    "Synthesizer",
    "synthesize",
    "Architecture",
    "InterconnectStyle",
    "Link",
    "ProcessorInstance",
    "ProcessorType",
    "TechnologyLibrary",
    "example1_library",
    "example2_library",
    "TaskGraph",
    "example1",
    "example2",
    "__version__",
]

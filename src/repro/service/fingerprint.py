"""Canonical, process-stable fingerprints of synthesis requests.

The content address behind the service's result cache: two requests get
the same fingerprint exactly when they describe the same solve — same
task-graph *structure*, same technology library, same formulation and
designer constraints, same solver backend (and library version), and the
same request parameters.  The hash is stable across processes and
``PYTHONHASHSEED`` values because it never touches Python's builtin
``hash``:

* the task graph serializes through
  :func:`repro.taskgraph.serialization.graph_to_dict` and is then
  *canonicalized* — subtasks sorted by name, arcs sorted by endpoint —
  so insertion order cannot leak into the digest;
* every mapping is JSON-encoded with ``sort_keys=True``, so dict
  insertion order cannot leak either;
* sets (e.g. ``DesignerConstraints.forbid_types``) are sorted before
  encoding.

Semantically distinct requests differ in the canonical document (a cost
cap, a deadline, a different backend, ...) and therefore in the digest.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, Optional

from repro.core.options import FormulationOptions, Objective
from repro.solvers.base import SolverOptions
from repro.solvers.registry import resolve_solver_name
from repro.system.interconnect import InterconnectStyle
from repro.system.library import TechnologyLibrary
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.serialization import graph_to_dict

#: Bump when the canonical document's schema changes so stale on-disk
#: cache entries can never be misread as current ones.
FINGERPRINT_VERSION = 6

#: SolverOptions fields that can change the *returned solution* (bounds,
#: limits, tie-breaking).  ``incumbent`` is listed even though it is
#: optimum-preserving by design: an incumbent changes which alternative
#: optimum the tree visits first (and a *wrong* seed is rejected, but a
#: tie-valued one can win the adoption tie-break), so cached vertices may
#: legitimately differ.
_SOLVER_FIELDS = (
    "time_limit",
    "gap_tolerance",
    "integrality_tolerance",
    "node_limit",
    "incumbent",
)

#: SolverOptions fields that provably cannot change the returned solution
#: — ``workers`` (deprecated and ignored), ``trace``/``on_progress``/
#: ``progress_interval`` (observation only), ``should_stop``
#: (external cancellation, surfaces as an *aborted* result that is never
#: cached).  Left out of the digest so equivalent requests share cache
#: entries.  Together with ``_SOLVER_FIELDS`` this partitions every
#: :class:`SolverOptions` field; a test enforces the partition so new
#: fields must be classified explicitly.
RESULT_INVARIANT_SOLVER_FIELDS = (
    "workers",
    "trace",
    "on_progress",
    "progress_interval",
    "should_stop",
)

#: FormulationOptions fields baked into every model this request builds.
#: ``cost_cap``/``deadline``/``objective`` are request parameters, listed
#: separately by the caller.
_FORMULATION_FIELDS = (
    "style",
    "horizon",
    "prune_ordered_pairs",
    "symmetry_breaking",
    "io_overlap",
    "memory_model",
    "memory_cost_per_unit",
    "cost_weight",
)


def canonical_graph(graph: TaskGraph) -> Dict[str, Any]:
    """Order-invariant graph document: content, not construction history.

    Subtasks are sorted by name and arcs by their (producer, output,
    consumer, input) endpoints, so two graphs built in different orders —
    or reloaded from JSON — canonicalize identically.  The display name
    is dropped: it does not change the problem.
    """
    document = graph_to_dict(graph)
    document.pop("name", None)
    document["subtasks"] = sorted(
        document["subtasks"], key=lambda entry: entry["name"]
    )
    document["arcs"] = sorted(
        document["arcs"],
        key=lambda arc: (
            arc["producer"], arc["output_index"], arc["consumer"], arc["input_index"]
        ),
    )
    return document


def canonical_constraints(constraints) -> Optional[Dict[str, Any]]:
    """Deterministic document for a :class:`DesignerConstraints` bundle.

    ``None`` (or an empty bundle) canonicalizes to ``None`` so a request
    with no constraints hashes the same whether the field was omitted or
    an empty bundle was passed.
    """
    if constraints is None or constraints.is_empty():
        return None
    return {
        "pin": dict(constraints.pin),
        "forbid": {task: sorted(procs) for task, procs in constraints.forbid.items()},
        "colocate": sorted(sorted(pair) for pair in constraints.colocate),
        "separate": sorted(sorted(pair) for pair in constraints.separate),
        "release": dict(constraints.release),
        "finish_by": dict(constraints.finish_by),
        "max_processors": constraints.max_processors,
        "forbid_types": sorted(constraints.forbid_types),
    }


def _clean(value: Any) -> Any:
    """Strict-JSON-safe scalar: non-finite floats become their repr strings."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _solver_document(options: Optional[SolverOptions]) -> Dict[str, Any]:
    options = options or SolverOptions()
    document = {}
    for name in _SOLVER_FIELDS:
        value = getattr(options, name)
        if name == "incumbent" and value is not None:
            # Any Mapping is accepted at the solver boundary; canonicalize
            # to a plain sorted dict so insertion order and mapping type
            # cannot leak into the digest.
            value = {key: _clean(value[key]) for key in sorted(value)}
        document[name] = _clean(value)
    return document


def _formulation_document(options: Optional[FormulationOptions]) -> Dict[str, Any]:
    options = options or FormulationOptions()
    document = {}
    for name in _FORMULATION_FIELDS:
        value = getattr(options, name)
        if isinstance(value, InterconnectStyle):
            value = value.value
        document[name] = _clean(value)
    return document


def canonical_request(
    kind: str,
    graph: TaskGraph,
    library: TechnologyLibrary,
    *,
    solver: str = "auto",
    solver_options: Optional[SolverOptions] = None,
    formulation: Optional[FormulationOptions] = None,
    constraints=None,
    **params: Any,
) -> Dict[str, Any]:
    """The full canonical document a fingerprint digests.

    Args:
        kind: Request kind — ``"synthesize"`` or ``"sweep"`` (distinct
            kinds never collide even with identical parameters).
        graph: Application task graph (canonicalized order-invariantly).
        library: Technology library.
        solver: Backend name; ``"auto"`` is resolved to the concrete
            backend so the key names what actually runs.
        solver_options: Result-affecting solver fields (see
            ``_SOLVER_FIELDS``).
        formulation: Base formulation options (style, model variants).
        constraints: Optional :class:`DesignerConstraints`.
        **params: Request parameters (``cost_cap``, ``deadline``,
            ``objective``, ``max_designs``, ``cost_step``, ...).  Enum
            values are replaced by their stable ``.value`` strings.
    """
    from repro import __version__  # local: repro/__init__ is a heavy import

    clean_params = {}
    for name, value in sorted(params.items()):
        if isinstance(value, (Objective, InterconnectStyle)):
            value = value.value
        clean_params[name] = _clean(value)
    return {
        "fingerprint_version": FINGERPRINT_VERSION,
        "kind": kind,
        "graph": canonical_graph(graph),
        "library": library.to_dict(),
        "formulation": _formulation_document(formulation),
        "constraints": canonical_constraints(constraints),
        "solver": resolve_solver_name(solver),
        "solver_version": __version__,
        "solver_options": _solver_document(solver_options),
        "params": clean_params,
    }


def fingerprint_request(
    kind: str,
    graph: TaskGraph,
    library: TechnologyLibrary,
    **kwargs: Any,
) -> str:
    """SHA-256 hex digest of the canonical request document.

    Same signature as :func:`canonical_request`; this is the content
    address the cache, the job manager's single-flight table, and the
    HTTP API all key on.
    """
    document = canonical_request(kind, graph, library, **kwargs)
    encoded = json.dumps(
        document, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()

"""Design persistence: save a synthesized design, reload it later.

``Design.to_dict`` captures structure, mapping, schedule, and metrics; this
module adds the inverse, which needs the problem context (graph + library)
to rebuild processor instances and re-derive costs.  The CLI's ``validate``
command and any archival workflow build on this.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from repro.errors import SynthesisError
from repro.schedule.schedule import Schedule
from repro.synthesis.design import Design
from repro.system.architecture import Architecture, Link
from repro.system.interconnect import InterconnectStyle
from repro.system.library import TechnologyLibrary
from repro.taskgraph.graph import TaskGraph


def design_from_dict(
    graph: TaskGraph,
    library: TechnologyLibrary,
    data: Dict,
) -> Design:
    """Rebuild a :class:`Design` from :meth:`Design.to_dict` output.

    Args:
        graph: The task graph the design was synthesized for (designs do
            not embed their problem; pass the same one).
        library: The technology library (for instances and pricing).
        data: The serialized design document.

    Raises:
        SynthesisError: On malformed documents or references to unknown
            processors/subtasks.
    """
    try:
        style = InterconnectStyle(data.get("style", "point_to_point"))
        schedule = Schedule.from_dict(data["schedule"])
        mapping = dict(data["mapping"])
        processor_names = list(data["processors"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SynthesisError(f"malformed design document: {exc}") from exc

    instances = {inst.name: inst for inst in library.instances()}
    missing = [name for name in processor_names if name not in instances]
    if missing:
        raise SynthesisError(f"design references unknown processors: {missing}")
    unknown_tasks = [task for task in mapping if task not in graph]
    if unknown_tasks:
        raise SynthesisError(f"design references unknown subtasks: {unknown_tasks}")

    links = []
    for label in data.get("links", ()):  # "l[p1a,p2a]"
        inner = label[2:-1] if label.startswith("l[") and label.endswith("]") else label
        try:
            source, dest = inner.split(",")
        except ValueError as exc:
            raise SynthesisError(f"malformed link label {label!r}") from exc
        links.append(Link(source, dest))

    architecture = Architecture(
        processors=[instances[name] for name in processor_names],
        links=links,
        style=style,
        library=library,
        ring_order=tuple(data.get("ring_order", ())),
    )
    return Design(
        graph=graph,
        library=library,
        style=style,
        architecture=architecture,
        mapping=mapping,
        schedule=schedule,
        makespan=float(data.get("makespan", schedule.makespan)),
        cost=float(data.get("cost", architecture.total_cost())),
        solver_name=str(data.get("solver", "")),
        solve_seconds=float(data.get("solve_seconds", 0.0)),
        proven_optimal=bool(data.get("proven_optimal", False)),
        nodes=int(data.get("nodes", 0)),
    )


def design_to_document(design: Design) -> Dict:
    """The full-fidelity JSON document for a design.

    :meth:`Design.to_dict` plus the fields :func:`design_from_dict` needs
    for an exact round trip (explicit cost, ring order, node count).  This
    is what :func:`save_design` writes and what the service result cache
    stores.  Documents written before ``nodes`` was stored load with 0.
    """
    document = design.to_dict()
    document["cost"] = design.cost
    document["nodes"] = design.nodes
    if design.architecture.ring_order:
        document["ring_order"] = list(design.architecture.ring_order)
    return document


def save_design(design: Design, path: Union[str, Path]) -> None:
    """Write a design to a JSON file."""
    Path(path).write_text(json.dumps(design_to_document(design), indent=2) + "\n")


def load_design(
    graph: TaskGraph,
    library: TechnologyLibrary,
    path: Union[str, Path],
) -> Design:
    """Read a design from a JSON file (inverse of :func:`save_design`)."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SynthesisError(f"invalid JSON in {path}: {exc}") from exc
    return design_from_dict(graph, library, data)

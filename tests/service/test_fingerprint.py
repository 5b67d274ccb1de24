"""Tests for canonical request fingerprints.

The service cache is only sound if the fingerprint is (a) stable across
construction order, processes, and ``PYTHONHASHSEED``, and (b) sensitive
to every semantically meaningful difference between requests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.designer import DesignerConstraints
from repro.core.options import FormulationOptions, Objective
from repro.service.fingerprint import (
    _SOLVER_FIELDS,
    RESULT_INVARIANT_SOLVER_FIELDS,
    canonical_graph,
    canonical_request,
    fingerprint_request,
)
from repro.solvers.base import SolverOptions
from repro.system.interconnect import InterconnectStyle
from repro.taskgraph.graph import TaskGraph

SRC = str(Path(__file__).resolve().parents[2] / "src")


def build_graph(order: str) -> TaskGraph:
    """The same two-subtask graph, built in different insertion orders."""
    graph = TaskGraph("g")
    names = ["A", "B"] if order == "forward" else ["B", "A"]
    for name in names:
        graph.add_subtask(name)
    graph.add_external_input("A")
    graph.connect("A", "B", volume=2.0)
    graph.add_external_output("B")
    return graph


class TestStability:
    def test_subtask_insertion_order_is_invisible(self, tiny_library):
        forward = fingerprint_request(
            "synthesize", build_graph("forward"), tiny_library, solver="bozo"
        )
        backward = fingerprint_request(
            "synthesize", build_graph("backward"), tiny_library, solver="bozo"
        )
        assert forward == backward

    def test_graph_display_name_is_invisible(self, tiny_graph):
        document = canonical_graph(tiny_graph)
        assert "name" not in document
        # subtasks come out sorted regardless of graph order
        names = [entry["name"] for entry in document["subtasks"]]
        assert names == sorted(names)

    def test_repeated_calls_agree(self, ex1_graph, ex1_library):
        first = fingerprint_request("synthesize", ex1_graph, ex1_library)
        second = fingerprint_request("synthesize", ex1_graph, ex1_library)
        assert first == second

    def test_canonical_document_is_strict_json(self, ex1_graph, ex1_library):
        document = canonical_request(
            "synthesize", ex1_graph, ex1_library,
            solver_options=SolverOptions(),  # time_limit defaults to inf
        )
        text = json.dumps(document, sort_keys=True, allow_nan=False)
        assert json.loads(text) == document

    def test_stable_across_hash_seeds(self):
        """Two subprocesses with different PYTHONHASHSEED must agree."""
        code = (
            "from repro.service.fingerprint import fingerprint_request\n"
            "from repro.taskgraph.examples import example1\n"
            "from repro.system.examples import example1_library\n"
            "print(fingerprint_request('synthesize', example1(),"
            " example1_library(), solver='bozo', cost_cap=7.0))\n"
        )
        digests = []
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
            result = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env, check=True,
            )
            digests.append(result.stdout.strip())
        assert digests[0] == digests[1]
        assert len(digests[0]) == 64  # sha256 hex


class TestSensitivity:
    """Semantically distinct requests must not collide."""

    def all_distinct(self, keys):
        assert len(set(keys)) == len(keys), keys

    def test_request_parameters_matter(self, ex1_graph, ex1_library):
        base = dict(solver="bozo")
        self.all_distinct([
            fingerprint_request("synthesize", ex1_graph, ex1_library, **base),
            fingerprint_request("synthesize", ex1_graph, ex1_library,
                                cost_cap=7.0, **base),
            fingerprint_request("synthesize", ex1_graph, ex1_library,
                                deadline=4.0, **base),
            fingerprint_request("synthesize", ex1_graph, ex1_library,
                                objective=Objective.MIN_COST, **base),
            fingerprint_request("sweep", ex1_graph, ex1_library, **base),
            fingerprint_request("sweep", ex1_graph, ex1_library,
                                max_designs=3, **base),
        ])

    def test_backend_and_options_matter(self, ex1_graph, ex1_library):
        self.all_distinct([
            fingerprint_request("synthesize", ex1_graph, ex1_library,
                                solver="bozo"),
            fingerprint_request("synthesize", ex1_graph, ex1_library,
                                solver="highs"),
            fingerprint_request("synthesize", ex1_graph, ex1_library,
                                solver="bozo",
                                solver_options=SolverOptions(node_limit=10)),
        ])

    def test_auto_resolves_to_concrete_backend(self, ex1_graph, ex1_library):
        from repro.solvers.registry import resolve_solver_name

        auto = fingerprint_request("synthesize", ex1_graph, ex1_library,
                                   solver="auto")
        concrete = fingerprint_request("synthesize", ex1_graph, ex1_library,
                                       solver=resolve_solver_name("auto"))
        assert auto == concrete

    def test_formulation_matters(self, ex1_graph, ex1_library):
        self.all_distinct([
            fingerprint_request(
                "synthesize", ex1_graph, ex1_library,
                formulation=FormulationOptions(style=InterconnectStyle.POINT_TO_POINT),
            ),
            fingerprint_request(
                "synthesize", ex1_graph, ex1_library,
                formulation=FormulationOptions(style=InterconnectStyle.BUS),
            ),
        ])

    def test_graph_content_matters(self, tiny_library):
        base = build_graph("forward")
        heavier = TaskGraph("g")
        heavier.add_subtask("A")
        heavier.add_subtask("B")
        heavier.add_external_input("A")
        heavier.connect("A", "B", volume=3.0)  # different transfer volume
        heavier.add_external_output("B")
        assert fingerprint_request("synthesize", base, tiny_library) != \
            fingerprint_request("synthesize", heavier, tiny_library)

    def test_library_matters(self, ex1_graph, ex1_library, ex2_library):
        assert fingerprint_request("synthesize", ex1_graph, ex1_library) != \
            fingerprint_request("synthesize", ex1_graph, ex2_library)

    def test_constraints_matter_and_empty_equals_none(self, ex1_graph, ex1_library):
        no_constraints = fingerprint_request(
            "synthesize", ex1_graph, ex1_library, constraints=None
        )
        empty = fingerprint_request(
            "synthesize", ex1_graph, ex1_library,
            constraints=DesignerConstraints(),
        )
        pinned = fingerprint_request(
            "synthesize", ex1_graph, ex1_library,
            constraints=DesignerConstraints(pin={"S1": "p1a"}),
        )
        assert no_constraints == empty
        assert pinned != no_constraints

    def test_result_invariant_options_are_ignored(self, ex1_graph, ex1_library):
        """Observation knobs and the ignored ``workers`` never change the
        result, so they must share cache entries."""
        plain = fingerprint_request(
            "synthesize", ex1_graph, ex1_library,
            solver_options=SolverOptions(),
        )
        with pytest.warns(DeprecationWarning):
            options = SolverOptions(workers=4, on_progress=print)
        observed = fingerprint_request(
            "synthesize", ex1_graph, ex1_library, solver_options=options,
        )
        assert plain == observed

    def test_incumbent_matters(self, ex1_graph, ex1_library):
        """A seed can steer the tree to a different alternative optimum, so
        it must key the cache."""
        self.all_distinct([
            fingerprint_request(
                "synthesize", ex1_graph, ex1_library,
                solver_options=SolverOptions(),
            ),
            fingerprint_request(
                "synthesize", ex1_graph, ex1_library,
                solver_options=SolverOptions(incumbent={"x": 1.0}),
            ),
        ])

    def test_incumbent_insertion_order_is_invisible(self, ex1_graph, ex1_library):
        forward = fingerprint_request(
            "synthesize", ex1_graph, ex1_library,
            solver_options=SolverOptions(incumbent={"a": 0.0, "b": 1.0}),
        )
        backward = fingerprint_request(
            "synthesize", ex1_graph, ex1_library,
            solver_options=SolverOptions(incumbent={"b": 1.0, "a": 0.0}),
        )
        assert forward == backward


class TestFieldClassification:
    """Every SolverOptions field must be *explicitly* classified as either
    fingerprint-relevant or result-invariant, so adding a field without
    deciding its cache semantics is a test failure, not a silent cache bug."""

    def test_every_field_is_classified_exactly_once(self):
        import dataclasses

        declared = {field.name for field in dataclasses.fields(SolverOptions)}
        relevant = set(_SOLVER_FIELDS)
        invariant = set(RESULT_INVARIANT_SOLVER_FIELDS)
        assert relevant & invariant == set(), (
            "fields classified both relevant and invariant"
        )
        unclassified = declared - relevant - invariant
        assert unclassified == set(), (
            f"SolverOptions fields not classified in repro.service."
            f"fingerprint: {sorted(unclassified)} — add each to "
            f"_SOLVER_FIELDS (changes the returned solution) or "
            f"RESULT_INVARIANT_SOLVER_FIELDS (provably cannot)"
        )
        stale = (relevant | invariant) - declared
        assert stale == set(), f"classified fields no longer exist: {sorted(stale)}"

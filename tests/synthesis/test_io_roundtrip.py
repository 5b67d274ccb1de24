"""Round-trip tests across every serializer the service cache relies on.

Cached results are re-serialized documents, so the acceptance bar is
byte-identity: ``serialize(deserialize(serialize(x))) == serialize(x)``
for designs, fronts, graphs (current and legacy formats), libraries, and
solver stats.
"""

import json

import pytest

from repro.milp.solution import SolveStats
from repro.synthesis.front import ParetoFront
from repro.synthesis.io import design_from_dict, design_to_document
from repro.synthesis.synthesizer import Synthesizer
from repro.system.interconnect import InterconnectStyle
from repro.system.library import TechnologyLibrary
from repro.taskgraph.serialization import graph_from_dict, graph_to_dict


@pytest.fixture(scope="module")
def problem():
    from repro.system.examples import example1_library
    from repro.taskgraph.examples import example1

    return example1(), example1_library()


@pytest.fixture(scope="module")
def front(problem):
    graph, library = problem
    return Synthesizer(
        graph, library, solver="highs", incremental=True
    ).pareto_sweep(max_designs=3)


class TestDesignRoundTrip:
    def test_document_round_trip_is_byte_identical(self, problem, front):
        graph, library = problem
        for design in front:
            document = design_to_document(design)
            restored = design_from_dict(graph, library, document)
            assert json.dumps(design_to_document(restored), sort_keys=True) == \
                json.dumps(document, sort_keys=True)

    def test_ring_design_round_trips_ring_order(self, problem):
        graph, library = problem
        design = Synthesizer(
            graph, library, style=InterconnectStyle.RING, solver="highs"
        ).synthesize()
        document = design_to_document(design)
        restored = design_from_dict(graph, library, document)
        assert restored.architecture.ring_order == design.architecture.ring_order
        assert json.dumps(design_to_document(restored), sort_keys=True) == \
            json.dumps(document, sort_keys=True)


class TestFrontRoundTrip:
    def test_json_round_trip_is_byte_identical(self, problem, front):
        graph, library = problem
        text = front.to_json()
        restored = ParetoFront.from_json(text, graph, library)
        assert restored.to_json() == text

    def test_metadata_survives(self, problem, front):
        graph, library = problem
        restored = ParetoFront.from_dict(front.to_dict(), graph, library)
        assert len(restored) == len(front)
        assert restored.caps == front.caps
        assert [d.cost for d in restored] == [d.cost for d in front]
        assert [d.makespan for d in restored] == [d.makespan for d in front]
        if front.stats is not None:
            assert restored.stats.as_dict() == front.stats.as_dict()

    def test_from_json_rejects_garbage(self, problem):
        from repro.errors import SynthesisError

        graph, library = problem
        with pytest.raises(SynthesisError, match="invalid"):
            ParetoFront.from_json("{nope", graph, library)
        with pytest.raises(SynthesisError, match="malformed"):
            ParetoFront.from_json('{"caps": []}', graph, library)


class TestGraphRoundTrip:
    def test_current_format_round_trip(self, problem):
        graph, _ = problem
        document = graph_to_dict(graph)
        restored = graph_from_dict(document)
        assert graph_to_dict(restored) == document

    def test_legacy_v1_document_loads(self):
        legacy = {
            "name": "legacy",
            "subtasks": [
                {"name": "A", "external_inputs": [{"f_required": 0.0}]},
                {"name": "B", "external_outputs": [{"f_available": 1.0}]},
            ],
            "arcs": [
                {"producer": "A", "consumer": "B", "volume": 2.0,
                 "f_available": 1.0, "f_required": 0.5},
            ],
        }
        graph = graph_from_dict(legacy)
        assert {s.name for s in graph.subtasks} == {"A", "B"}
        # And once upgraded, the modern format round-trips exactly.
        document = graph_to_dict(graph)
        assert document["version"] == 2
        assert graph_to_dict(graph_from_dict(document)) == document


class TestLibraryRoundTrip:
    def test_dict_round_trip(self, problem):
        _, library = problem
        document = library.to_dict()
        restored = TechnologyLibrary.from_dict(document)
        assert restored.to_dict() == document

    def test_instances_per_type_mapping_survives(self, tiny_library):
        import dataclasses

        varied = dataclasses.replace(
            tiny_library, instances_per_type={"fast": 1, "slow": 3}
        )
        document = varied.to_dict()
        restored = TechnologyLibrary.from_dict(document)
        assert restored.to_dict() == document

    def test_malformed_document_raises(self):
        from repro.errors import SystemModelError

        with pytest.raises(SystemModelError, match="malformed"):
            TechnologyLibrary.from_dict({"types": [{"cost": 1}]})


class TestSolveStatsRoundTrip:
    def test_round_trip(self, front):
        stats = front.stats
        assert stats is not None
        restored = SolveStats.from_dict(stats.as_dict())
        assert restored.as_dict() == stats.as_dict()

    def test_unknown_keys_ignored(self):
        document = dict(SolveStats().as_dict(), mystery_counter=7)
        assert "mystery_counter" not in SolveStats.from_dict(document).as_dict()

    def test_loads_document_with_retired_stolen_counter(self):
        # Cached documents written before the work-stealing mode was
        # removed still carry its counter; they must keep loading.
        document = dict(
            SolveStats(nodes=5, worker_idle_waits=2).as_dict(),
            subtrees_stolen=3,
        )
        restored = SolveStats.from_dict(document)
        assert restored.nodes == 5
        assert restored.worker_idle_waits == 2
        assert "subtrees_stolen" not in restored.as_dict()

"""Event schema golden tests and JSONL round-tripping."""

import json

from repro.obs import (
    ENVELOPE_FIELDS,
    EVENT_SCHEMA,
    TraceEvent,
    check_schema,
    event_from_dict,
)

# The wire format is a public contract: renaming a type or a required
# payload key breaks every consumer of previously-written traces.  This
# golden copy only loses an entry when the feature emitting it is removed.
GOLDEN_SCHEMA = {
    "solve_started": {"solver"},
    "node_opened": {"node", "bound", "depth"},
    "lp_solved": {"pivots", "status", "warm", "fallback", "seconds"},
    "incumbent_found": {"objective", "node", "source"},
    "cut_round": {"round", "generated", "added", "bound_before", "bound_after"},
    "cuts_added": {"count", "rounds", "gomory", "cover"},
    "strong_branch": {"node", "candidates", "probes", "chosen"},
    "sweep_step": {"index", "kind", "feasible"},
    "phase": {"name", "seconds"},
    "solve_done": {"status", "objective", "best_bound", "nodes", "workers", "seconds"},
    "cache_hit": {"key", "kind"},
    "cache_miss": {"key", "kind"},
    "cache_store": {"key", "kind", "bytes"},
    "cache_evict": {"key", "bytes"},
    "job_status": {"job", "status", "kind"},
}


class TestSchemaGolden:
    def test_event_types_are_exactly_the_golden_set(self):
        assert set(EVENT_SCHEMA) == set(GOLDEN_SCHEMA)

    def test_required_payload_fields_match_golden(self):
        for event_type, required in GOLDEN_SCHEMA.items():
            assert set(EVENT_SCHEMA[event_type]) == required, event_type

    def test_envelope_fields(self):
        assert ENVELOPE_FIELDS == ("type", "t", "worker")

    def test_no_payload_key_shadows_the_envelope(self):
        for required in EVENT_SCHEMA.values():
            assert not (set(required) & set(ENVELOPE_FIELDS))


class TestRoundTrip:
    def test_to_dict_flattens_envelope_and_payload(self):
        event = TraceEvent("incumbent_found", 12.25, 2,
                           {"objective": 41.0, "node": 37, "source": "integral"})
        assert event.to_dict() == {
            "type": "incumbent_found", "t": 12.25, "worker": 2,
            "objective": 41.0, "node": 37, "source": "integral",
        }

    def test_jsonl_round_trip(self):
        event = TraceEvent("node_opened", 1.5, 0,
                           {"node": 7, "bound": 3.25, "depth": 2})
        line = json.dumps(event.to_dict())
        back = event_from_dict(json.loads(line))
        assert back == event

    def test_missing_worker_defaults_to_zero(self):
        back = event_from_dict({"type": "phase", "t": 0.0,
                                "name": "presolve", "seconds": 0.01})
        assert back.worker == 0

    def test_nonfinite_floats_survive_json(self):
        event = TraceEvent("solve_done", 0.0, 0,
                           {"status": "infeasible", "objective": float("inf"),
                            "best_bound": float("-inf"), "nodes": 0,
                            "workers": 0, "seconds": 0.0})
        back = event_from_dict(json.loads(json.dumps(event.to_dict())))
        assert back.data["objective"] == float("inf")
        assert back.data["best_bound"] == float("-inf")


class TestCheckSchema:
    def test_clean_stream(self):
        events = [
            TraceEvent("solve_started", 0.0, 0, {"solver": "bozo"}),
            TraceEvent("phase", 0.1, 0, {"name": "presolve", "seconds": 0.1}),
        ]
        assert check_schema(events) == []

    def test_extra_payload_keys_are_allowed(self):
        event = TraceEvent(
            "lp_solved", 0.0, 0,
            {"pivots": 3, "status": "optimal", "warm": True, "fallback": False,
             "seconds": 0.01, "dual_pivots": 2, "refactorizations": 1},
        )
        assert check_schema([event]) == []

    def test_unknown_type_is_flagged(self):
        problems = check_schema([TraceEvent("wat", 0.0, 0, {})])
        assert len(problems) == 1
        assert "unknown type" in problems[0]

    def test_missing_required_field_is_flagged(self):
        problems = check_schema([TraceEvent("phase", 0.0, 0, {"name": "lp"})])
        assert len(problems) == 1
        assert "seconds" in problems[0]

    def test_envelope_shadowing_is_flagged(self):
        event = TraceEvent("phase", 0.0, 1,
                           {"name": "lp", "seconds": 2.0, "worker": 9})
        problems = check_schema([event])
        assert any("shadows envelope" in p for p in problems)

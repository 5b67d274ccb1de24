"""Sink behaviour: ring buffer, JSONL files, tracer stamping."""

import io
import json

from repro.obs import (
    JsonlTraceSink,
    MemoryTraceSink,
    NullTraceSink,
    TraceEvent,
    TraceSink,
    Tracer,
    read_trace,
)
from repro.obs.sinks import make_tracer


def _event(i: int) -> TraceEvent:
    return TraceEvent("phase", float(i), 0, {"name": f"p{i}", "seconds": 0.0})


class TestProtocol:
    def test_all_sinks_satisfy_the_protocol(self):
        for sink in (NullTraceSink(), MemoryTraceSink(), JsonlTraceSink(io.StringIO())):
            assert isinstance(sink, TraceSink)


class TestNullSink:
    def test_discards_everything(self):
        sink = NullTraceSink()
        sink.emit(_event(0))
        sink.close()
        sink.close()  # idempotent


class TestMemorySink:
    def test_records_in_order(self):
        sink = MemoryTraceSink()
        for i in range(5):
            sink.emit(_event(i))
        assert [e.t for e in sink.events] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert len(sink) == 5

    def test_ring_buffer_keeps_the_newest(self):
        sink = MemoryTraceSink(maxlen=3)
        for i in range(10):
            sink.emit(_event(i))
        assert [e.t for e in sink.events] == [7.0, 8.0, 9.0]

    def test_readable_after_close(self):
        sink = MemoryTraceSink()
        sink.emit(_event(1))
        sink.close()
        assert len(sink.events) == 1


class TestJsonlSink:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.emit(_event(0))
            sink.emit(_event(1))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["type"] == "phase"

    def test_owns_and_closes_path_target(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(path)
        sink.emit(_event(0))
        sink.close()
        sink.close()  # idempotent
        assert len(read_trace(path)) == 1

    def test_leaves_caller_owned_file_open(self):
        buffer = io.StringIO()
        sink = JsonlTraceSink(buffer)
        sink.emit(_event(0))
        sink.close()
        assert not buffer.closed
        assert buffer.getvalue().count("\n") == 1

    def test_round_trips_through_read_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        original = TraceEvent("incumbent_found", 2.5, 1,
                              {"objective": 14.0, "node": 3, "source": "dive"})
        with JsonlTraceSink(path) as sink:
            sink.emit(original)
        assert read_trace(path) == [original]


class TestTracer:
    def test_stamps_clock_and_worker(self):
        ticks = iter([10.0, 11.5])
        sink = MemoryTraceSink()
        tracer = Tracer(sink, worker=3, clock=lambda: next(ticks))
        tracer.emit("incumbent_found", objective=7.0)
        tracer.emit("incumbent_found", objective=6.0)
        first, second = sink.events
        assert (first.t, first.worker) == (10.0, 3)
        assert (second.t, second.worker) == (11.5, 3)
        assert first.data == {"objective": 7.0}

    def test_make_tracer_none_passthrough(self):
        assert make_tracer(None) is None
        tracer = make_tracer(MemoryTraceSink(), worker=2)
        assert tracer is not None
        assert tracer.worker == 2

"""The event bus: sink backends, global installation, capture helper."""

import io
import json

import pytest

from repro import obs
from repro.obs import (
    JsonlSink,
    MemorySink,
    NullSink,
    TeeSink,
    TraceEvent,
    read_jsonl,
)


class TestSinkBackends:
    def test_null_sink_is_disabled_and_drops(self):
        sink = NullSink()
        assert sink.enabled is False
        sink.emit("anything", value=1)  # must not raise

    def test_memory_sink_captures_in_order(self):
        sink = MemorySink()
        sink.emit("a", x=1)
        sink.emit("b", y=2)
        sink.emit("a", x=3)
        assert [event.kind for event in sink.events] == ["a", "b", "a"]
        assert [event.sequence for event in sink.events] == [0, 1, 2]
        assert sink.of_kind("a")[1].fields == {"x": 3}
        assert sink.kinds() == {"a": 2, "b": 1}
        assert len(sink) == 3
        sink.clear()
        assert len(sink) == 0

    def test_trace_event_as_dict_flattens_fields(self):
        event = TraceEvent(sequence=7, kind="k", fields={"a": 1})
        assert event.as_dict() == {"seq": 7, "kind": "k", "a": 1}

    def test_jsonl_sink_writes_one_object_per_line(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.emit("placement.batch", strategy="s", addresses=10)
        sink.emit("device.failed", device="d-1")
        sink.close()  # flushes; does not close foreign handles
        lines = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert lines == [
            {"seq": 0, "kind": "placement.batch", "strategy": "s", "addresses": 10},
            {"seq": 1, "kind": "device.failed", "device": "d-1"},
        ]

    def test_jsonl_sink_roundtrips_through_a_file(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with JsonlSink(path) as sink:
            sink.emit("a", n=1)
            sink.emit("b", n=2)
        records = read_jsonl(path)
        assert [record["kind"] for record in records] == ["a", "b"]

    def test_jsonl_sink_on_a_used_path_keeps_only_the_new_run(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with JsonlSink(path) as sink:
            sink.emit("first", n=1)
            sink.emit("first", n=2)
        with JsonlSink(path) as sink:
            sink.emit("second", n=3)
        assert read_jsonl(path) == [{"seq": 0, "kind": "second", "n": 3}]

    def test_tee_sink_fans_out(self):
        first, second = MemorySink(), MemorySink()
        tee = TeeSink([first, second])
        tee.emit("x", v=1)
        assert first.kinds() == second.kinds() == {"x": 1}


class TestGlobalSink:
    def test_default_sink_is_null(self):
        assert obs.sink().enabled is False
        assert obs.enabled() is False

    def test_set_sink_returns_previous_and_none_restores_null(self):
        memory = MemorySink()
        previous = obs.set_sink(memory)
        try:
            assert obs.sink() is memory
            assert obs.enabled() is True
        finally:
            assert obs.set_sink(None) is memory
        assert obs.sink() is obs.NULL_SINK

    def test_use_sink_restores_on_exit_even_on_error(self):
        memory = MemorySink()
        with pytest.raises(RuntimeError):
            with obs.use_sink(memory):
                assert obs.sink() is memory
                raise RuntimeError("boom")
        assert obs.sink().enabled is False

    def test_capture_resets_metrics_and_installs_memory_sink(self):
        obs.metrics().counter("leftover").add(5)
        with obs.capture() as trace:
            assert obs.sink() is trace
            assert obs.metrics().counters() == {}
            obs.sink().emit("k")
        assert trace.kinds() == {"k": 1}
        assert obs.sink().enabled is False

    def test_capture_without_reset_keeps_metrics(self):
        obs.reset_metrics()
        obs.metrics().counter("kept").add(1)
        with obs.capture(reset=False):
            assert obs.metrics().counters() == {"kept": 1}
        obs.reset_metrics()

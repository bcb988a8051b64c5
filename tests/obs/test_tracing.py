"""Tests for the span tracing core (repro.obs.tracing)."""

import json
import threading

import pytest

from repro.obs import (
    NULL_TRACER,
    JsonlSink,
    Tracer,
    configure_tracing,
    get_tracer,
    set_tracer,
)


class TestSpans:
    def test_nested_spans_link_parent_to_child(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        records = {r["name"]: r for r in tracer.records}
        assert records["inner"]["parent"] == records["outer"]["span"]
        assert records["outer"]["parent"] is None
        assert records["inner"]["trace"] == records["outer"]["trace"]

    def test_sibling_spans_share_parent_not_ids(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == b.parent_id == root.span_id
        assert a.span_id != b.span_id

    def test_explicit_context_parent_overrides_stack(self):
        tracer = Tracer()
        with tracer.span("earlier") as earlier:
            pass
        with tracer.span("local"):
            with tracer.span("child", parent=earlier) as child:
                assert child.trace_id == earlier.trace_id
                assert child.parent_id == earlier.span_id

    def test_elapsed_is_monotonic_and_wall_start_recorded(self):
        tracer = Tracer()
        with tracer.span("timed"):
            pass
        (record,) = tracer.records
        assert record["elapsed"] >= 0.0
        assert record["ts"] > 0.0
        assert isinstance(record["pid"], int)

    def test_annotate_and_error_attribute(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing", stage=1) as span:
                span.annotate(extra="yes")
                raise ValueError("boom")
        (record,) = tracer.records
        assert record["attributes"] == {
            "stage": 1,
            "extra": "yes",
            "error": "ValueError",
        }

    def test_thread_local_stacks_do_not_cross(self):
        tracer = Tracer()
        seen = {}

        def worker():
            seen["current"] = tracer.current_span()
            with tracer.span("threaded") as span:
                seen["trace"] = span.trace_id

        with tracer.span("main") as main:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # The worker thread saw no inherited stack: its span started a
        # fresh trace rather than nesting under "main".
        assert seen["current"] is None
        assert seen["trace"] != main.trace_id


class TestTracerPlumbing:
    def test_ingest_keeps_only_span_records(self):
        tracer = Tracer()
        tracer.ingest(
            [
                {"span": "a" * 16, "trace": "t" * 16, "name": "x"},
                {"not": "a span"},
                "garbage",
            ]
        )
        assert [r["name"] for r in tracer.records] == ["x"]

    def test_drain_empties_the_buffer(self):
        tracer = Tracer()
        with tracer.span("one"):
            pass
        drained = tracer.drain()
        assert [r["name"] for r in drained] == ["one"]
        assert tracer.records == []
        assert tracer.drain() == []

    def test_global_tracer_install_and_restore(self):
        assert get_tracer() is NULL_TRACER
        tracer = Tracer()
        assert set_tracer(tracer) is tracer
        assert get_tracer() is tracer
        set_tracer(None)
        assert get_tracer() is NULL_TRACER

    def test_configure_tracing_writes_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = configure_tracing(path)
        assert get_tracer() is tracer
        assert tracer.sink.path == path
        with tracer.span("written", tag="v"):
            pass
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["name"] == "written"
        assert record["attributes"] == {"tag": "v"}


class TestNullTracer:
    def test_disabled_span_is_shared_noop(self):
        first = NULL_TRACER.span("anything", key="value")
        second = NULL_TRACER.span("other")
        assert first is second  # one reusable object, no allocation
        with first as span:
            span.annotate(ignored=True)
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.current_span() is None
        assert NULL_TRACER.drain() == []


class TestJsonlSink:
    def test_rotation_keeps_two_generations(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path, rotate_bytes=200)
        for index in range(20):
            sink.write({"span": f"{index:016d}", "n": index})
        rotated = path.with_name(path.name + ".1")
        assert path.exists() and rotated.exists()
        assert path.stat().st_size <= 200
        # Every line in both generations is intact JSON.
        for file in (rotated, path):
            for line in file.read_text().splitlines():
                assert "span" in json.loads(line)

    def test_concurrent_writes_stay_line_atomic(self, tmp_path):
        sink = JsonlSink(tmp_path / "trace.jsonl")

        def write(start):
            for index in range(start, start + 50):
                sink.write({"span": str(index)})

        threads = [
            threading.Thread(target=write, args=(base,))
            for base in (0, 1000, 2000)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert len(lines) == 150
        assert all(json.loads(line)["span"] for line in lines)

"""Tests for trace readers and formatters (repro.obs.report)."""

import json

import pytest

from repro.obs import JsonlSink, Tracer
from repro.obs.report import (
    format_metrics_snapshot,
    format_trace_trees,
    load_spans,
    summarize_spans,
)


def _write_trace(path, tracer=None):
    tracer = tracer or Tracer(sink=JsonlSink(path))
    with tracer.span("root", kind="demo"):
        with tracer.span("child"):
            pass
        with tracer.span("child"):
            pass
    return tracer


class TestLoadSpans:
    def test_reads_rotation_then_active_then_workers(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.with_name("trace.jsonl.1").write_text(
            json.dumps({"span": "old", "trace": "t", "name": "rotated"}) + "\n"
        )
        _write_trace(path)
        (tmp_path / "trace-worker-123.jsonl").write_text(
            json.dumps({"span": "w", "trace": "t", "name": "worker"}) + "\n"
        )
        names = [span["name"] for span in load_spans(path)]
        assert names[0] == "rotated"  # rotated generation first
        assert names[-1] == "worker"  # worker files last
        assert names.count("child") == 2

    def test_skips_torn_lines_and_non_spans(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps({"span": "a", "name": "good", "trace": "t"})
            + "\n"
            + '{"torn": '
            + "\n"
            + json.dumps({"no_span_key": 1})
            + "\n"
        )
        spans = load_spans(path)
        assert [span["name"] for span in spans] == ["good"]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_spans(tmp_path / "absent.jsonl")

    def test_workers_can_be_excluded(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_trace(path)
        (tmp_path / "trace-worker-9.jsonl").write_text(
            json.dumps({"span": "w", "trace": "t", "name": "worker"}) + "\n"
        )
        names = [s["name"] for s in load_spans(path, include_workers=False)]
        assert "worker" not in names


class TestSummarize:
    def test_aggregates_per_name(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_trace(path)
        text = summarize_spans(load_spans(path))
        assert "3 spans across 1 trace(s)" in text
        assert "child" in text and "root" in text

    def test_empty_input(self):
        assert summarize_spans([]) == "no spans"

    def test_no_occupancy_table_without_dispatch_spans(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_trace(path)
        assert "occupancy" not in summarize_spans(load_spans(path))


class TestTrees:
    def test_tree_indents_children_under_parent(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_trace(path)
        tree = format_trace_trees(load_spans(path))
        lines = tree.splitlines()
        assert lines[1].startswith("  - root")
        assert "[kind=demo]" in lines[1]
        assert lines[2].startswith("    - child")

    def test_orphan_spans_surface_as_roots(self):
        spans = [
            {
                "trace": "t",
                "span": "a",
                "parent": "never-reported",
                "name": "lost",
                "ts": 1.0,
                "elapsed": 0.5,
            }
        ]
        tree = format_trace_trees(spans)
        assert "[orphan]" in tree

    def test_trace_id_filter(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = _write_trace(path)
        trace_id = tracer.records[0]["trace"]
        assert f"trace {trace_id}" in format_trace_trees(
            load_spans(path), trace_id=trace_id
        )
        assert "no spans for trace nope" == format_trace_trees(
            load_spans(path), trace_id="nope"
        )


class TestMetricsSnapshotFormat:
    def test_counters_gauges_histograms_render(self):
        snapshot = {
            "counters": {"session.full_recounts": 3},
            "gauges": {"rss": 1.5},
            "histograms": {
                "phase.fit": {
                    "count": 2,
                    "total": 3.0,
                    "min": 1.0,
                    "max": 2.0,
                    "mean": 1.5,
                }
            },
        }
        text = format_metrics_snapshot(snapshot)
        assert "session.full_recounts" in text
        assert "rss" in text
        assert "count=2" in text and "mean=1.5000s" in text

    def test_empty_snapshot(self):
        assert format_metrics_snapshot({}) == "metrics: (empty)"

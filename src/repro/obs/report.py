"""Readers for the trace JSONL sink: summaries and span trees.

These back ``repro.cli trace summarize`` and ``repro.cli trace tree``.
Both consume the line-per-span files written by
:class:`repro.obs.tracing.JsonlSink` (the rotated ``.1`` generation,
when present, is read first so durations aggregate across a rotation).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

__all__ = [
    "load_spans",
    "summarize_spans",
    "format_trace_trees",
    "format_metrics_snapshot",
]


def load_spans(path: Union[str, Path]) -> List[Dict]:
    """Every span record in ``path`` and its rotation, in file order."""
    path = Path(path)
    files: List[Path] = []
    rotated = path.with_name(path.name + ".1")
    if rotated.exists():
        files.append(rotated)
    if path.exists():
        files.append(path)
    if not files:
        raise FileNotFoundError(f"no trace file at {path}")
    spans: List[Dict] = []
    for file in files:
        with open(file, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # a torn final line from a live writer
                if isinstance(record, dict) and "span" in record:
                    spans.append(record)
    return spans


def summarize_spans(spans: Iterable[Dict]) -> str:
    """Per-name aggregate: count, total/mean/max elapsed seconds."""
    stats: Dict[str, List[float]] = {}
    traces = set()
    for span in spans:
        traces.add(span.get("trace"))
        stats.setdefault(span.get("name", "?"), []).append(
            float(span.get("elapsed", 0.0))
        )
    if not stats:
        return "no spans"
    name_width = max(len(name) for name in stats) + 2
    lines = [
        f"{len(sum(stats.values(), []))} spans across "
        f"{len(traces)} trace(s)",
        "",
        f"{'name':<{name_width}} {'count':>6} {'total_s':>10} "
        f"{'mean_s':>10} {'max_s':>10}",
    ]
    for name in sorted(stats, key=lambda n: -sum(stats[n])):
        values = stats[name]
        lines.append(
            f"{name:<{name_width}} {len(values):>6} "
            f"{sum(values):>10.4f} {sum(values) / len(values):>10.4f} "
            f"{max(values):>10.4f}"
        )
    return "\n".join(lines)


def format_metrics_snapshot(snapshot: Dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as aligned text.

    Counters and gauges print one ``name value`` line each; histograms
    print their count/mean/min/max aggregate.  Empty kinds are elided.
    """
    lines: List[str] = []
    names = [
        name
        for kind in ("counters", "gauges")
        for name in snapshot.get(kind, {})
    ] + list(snapshot.get("histograms", {}))
    if not names:
        return "metrics: (empty)"
    width = max(len(name) for name in names) + 2
    for kind in ("counters", "gauges"):
        values = snapshot.get(kind, {})
        if not values:
            continue
        lines.append(f"{kind}:")
        for name in sorted(values):
            lines.append(f"  {name:<{width}} {values[name]}")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        for name in sorted(histograms):
            agg = histograms[name]
            lines.append(
                f"  {name:<{width}} count={agg['count']} "
                f"mean={agg['mean']:.4f}s min={agg['min']:.4f}s "
                f"max={agg['max']:.4f}s"
            )
    return "\n".join(lines)


def format_trace_trees(
    spans: Iterable[Dict], trace_id: Optional[str] = None
) -> str:
    """Indented parent/child trees, one block per trace id.

    Spans whose parent never reported (a run killed mid-span, a
    truncated file) surface as roots marked ``[orphan]`` rather than
    disappearing.
    """
    by_trace: Dict[str, List[Dict]] = {}
    for span in spans:
        by_trace.setdefault(span.get("trace", "?"), []).append(span)
    if trace_id is not None:
        if trace_id not in by_trace:
            return f"no spans for trace {trace_id}"
        by_trace = {trace_id: by_trace[trace_id]}
    if not by_trace:
        return "no spans"
    blocks: List[str] = []
    for trace, members in sorted(by_trace.items()):
        ids = {span["span"] for span in members}
        children: Dict[Optional[str], List[Dict]] = {}
        for span in members:
            parent = span.get("parent")
            key = parent if parent in ids else None
            children.setdefault(key, []).append(span)
        for bucket in children.values():
            bucket.sort(key=lambda s: s.get("ts", 0.0))
        lines = [f"trace {trace} ({len(members)} spans)"]

        def render(span: Dict, depth: int) -> None:
            orphan = (
                span.get("parent") is not None
                and span.get("parent") not in ids
            )
            attrs = span.get("attributes") or {}
            detail = " ".join(
                f"{key}={value}" for key, value in sorted(attrs.items())
            )
            lines.append(
                "  " * depth
                + f"- {span.get('name', '?')} "
                + f"{float(span.get('elapsed', 0.0)):.4f}s"
                + (f"  [{detail}]" if detail else "")
                + (" [orphan]" if orphan else "")
            )
            for child in children.get(span["span"], []):
                render(child, depth + 1)

        for root in children.get(None, []):
            render(root, 1)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)

"""Observability: tracing, metrics, and structured logging.

``repro.obs`` is the telemetry layer under the whole reproduction:

* :mod:`repro.obs.tracing` — a low-overhead span tracer whose trace
  id links a run's phases;
* :mod:`repro.obs.metrics` — a registry of named counters, gauges,
  and histograms that unifies the session and runtime counter
  surfaces behind one API (the legacy dataclass-shaped view
  ``SessionStats`` remains as a thin facade);
* :mod:`repro.obs.logsetup` — opt-in structured ``logging``
  configuration for every ``repro.*`` module logger;
* :mod:`repro.obs.report` — readers for the JSONL trace sink
  (per-name summaries, parent/child trees) behind
  ``repro.cli trace {summarize,tree}``.

The disabled tracer is a shared no-op constant; nothing in the hot
paths pays for telemetry that was not asked for.
"""

from repro.obs.logsetup import logging_setup
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
)
from repro.obs.tracing import (
    NULL_TRACER,
    JsonlSink,
    NullTracer,
    Span,
    Tracer,
    configure_tracing,
    get_tracer,
    set_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "configure_tracing",
    "get_tracer",
    "global_registry",
    "logging_setup",
    "set_tracer",
]

"""Low-overhead span tracing.

The tracer is span-shaped: a :class:`Span` carries a trace id, its own
span id, an explicit parent id, a wall-clock start and a *monotonic*
duration (the wall clock is free to step; durations are not).  Spans
nest implicitly per thread — entering a span pushes it on a
thread-local stack, so children recorded underneath link to it without
any plumbing — and one trace id links a run's phases.

Cost discipline:

* the **disabled** tracer is :data:`NULL_TRACER`, a shared constant
  whose ``span()`` hands back one reusable no-op context manager —
  no allocation, no branching beyond the call itself;
* an **enabled** tracer appends one small dict per span and
  (optionally) one JSON line to a :class:`JsonlSink`.  Instrumentation
  in the engine is per *round* / per *dispatch*, never per block or
  per matrix cell, which is how the ``bench_engine_obs`` gate keeps
  enabled tracing under 5% of the parallel engine run.

The process-global tracer is :func:`get_tracer` / :func:`set_tracer`;
:func:`configure_tracing` is the one-call setup used by the CLI's
``--trace-out``.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "JsonlSink",
    "get_tracer",
    "set_tracer",
    "configure_tracing",
]


#: Source of span and trace ids: a private generator, seeded from the
#: OS once, so minting an id makes no system call and never touches the
#: global ``random`` state a traced run must leave as an untraced one.
_IDS = random.Random()


def _new_id() -> str:
    """64 random bits as 16 hex digits."""
    return f"{_IDS.getrandbits(64):016x}"


class Span:
    """One timed operation; a context manager that records on exit."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attributes",
        "_tracer",
        "_start_wall",
        "_start_monotonic",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        parent_id: Optional[str],
        attributes: Dict[str, object],
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.attributes = attributes
        self._tracer = tracer
        self._start_wall = 0.0
        self._start_monotonic = 0.0

    def annotate(self, **attributes) -> None:
        """Attach attributes to a span already underway."""
        self.attributes.update(attributes)

    def __enter__(self) -> "Span":
        self._start_wall = time.time()
        self._start_monotonic = time.monotonic()
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._pop(self)
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer._record(
            {
                "trace": self.trace_id,
                "span": self.span_id,
                "parent": self.parent_id,
                "name": self.name,
                "ts": self._start_wall,
                "elapsed": time.monotonic() - self._start_monotonic,
                "pid": os.getpid(),
                "attributes": self.attributes,
            }
        )


class _NullSpan:
    """The reusable span handed out by a disabled tracer."""

    __slots__ = ()
    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None

    def annotate(self, **attributes) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class JsonlSink:
    """Append-only JSONL span sink with size-based rotation.

    When the active file would exceed ``rotate_bytes`` the sink
    renames it to ``<name>.1`` (clobbering any previous rotation) and
    starts fresh, bounding disk usage at roughly two generations.
    Writes are line-atomic under an internal lock, so one sink may be
    shared by every thread of a driver process.
    """

    def __init__(self, path: Union[str, Path], rotate_bytes: int = 32 * 1024 * 1024):
        self.path = Path(path)
        self.rotate_bytes = int(rotate_bytes)
        self._lock = threading.Lock()
        self._size: Optional[int] = None
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def write(self, record: Dict) -> None:
        line = json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"
        data = line.encode("utf-8")
        with self._lock:
            if self._size is None:
                self._size = (
                    self.path.stat().st_size if self.path.exists() else 0
                )
            if self._size and self._size + len(data) > self.rotate_bytes:
                rotated = self.path.with_name(self.path.name + ".1")
                self.path.replace(rotated)
                self._size = 0
            with open(self.path, "ab") as handle:
                handle.write(data)
            self._size += len(data)


class Tracer:
    """An enabled tracer: records spans in memory and into a sink.

    Span nesting is tracked per thread; :meth:`span` links a new span
    to the innermost active one on the calling thread unless an
    explicit ``parent`` :class:`Span` is given.  Records accumulate in
    :attr:`records` (drainable, for in-process readers) and stream into
    ``sink`` when one is attached.
    """

    enabled = True

    def __init__(self, sink: Optional[JsonlSink] = None):
        self.sink = sink
        self.records: List[Dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- span lifecycle -------------------------------------------------
    def span(
        self,
        name: str,
        parent: Optional[Span] = None,
        **attributes,
    ) -> Span:
        if parent is None:
            parent = self.current_span()
        if parent is None:
            trace_id, parent_id = _new_id(), None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        return Span(self, name, trace_id, parent_id, attributes)

    def current_span(self) -> Optional[Span]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()

    # -- record plumbing ------------------------------------------------
    def _record(self, record: Dict) -> None:
        with self._lock:
            self.records.append(record)
        if self.sink is not None:
            self.sink.write(record)

    def ingest(self, records: Iterable[Dict]) -> None:
        """Absorb spans produced elsewhere (another tracer's drain)."""
        for record in records:
            if isinstance(record, dict) and "span" in record:
                self._record(record)

    def drain(self) -> List[Dict]:
        """Pop and return every buffered record."""
        with self._lock:
            records, self.records = self.records, []
        return records


class NullTracer:
    """The disabled tracer: every operation is a constant no-op."""

    enabled = False
    sink = None
    records: List[Dict] = []

    def span(self, name, parent=None, **attributes) -> _NullSpan:
        return _NULL_SPAN

    def current_span(self) -> None:
        return None

    def ingest(self, records) -> None:
        pass

    def drain(self) -> List[Dict]:
        return []


#: The process-wide disabled tracer; ``get_tracer()`` returns this
#: until :func:`configure_tracing` / :func:`set_tracer` installs a
#: real one.
NULL_TRACER = NullTracer()

_tracer: Union[Tracer, NullTracer] = NULL_TRACER


def get_tracer() -> Union[Tracer, NullTracer]:
    """The process-global tracer (the no-op constant by default)."""
    return _tracer


def set_tracer(tracer: Union[Tracer, NullTracer, None]):
    """Install ``tracer`` globally; ``None`` restores the no-op."""
    global _tracer
    _tracer = NULL_TRACER if tracer is None else tracer
    return _tracer


def configure_tracing(
    path: Union[str, Path, None] = None,
    rotate_bytes: int = 32 * 1024 * 1024,
) -> Tracer:
    """Enable tracing process-wide; with ``path``, stream to JSONL."""
    sink = None if path is None else JsonlSink(path, rotate_bytes=rotate_bytes)
    tracer = Tracer(sink=sink)
    set_tracer(tracer)
    return tracer

"""A unified registry of named counters, gauges, and histograms.

Before this module the reproduction's telemetry lived in unrelated
attribute bags: ``SessionStats`` on the alignment session and the
``full_recounts``-style fields copied into ``RuntimeMetadata`` at the
end of an experiment.  The registry absorbs them: every number is a
named :class:`Counter` / :class:`Gauge` / :class:`Histogram` in a
:class:`MetricsRegistry` (the session's, or the process-global one),
and the legacy dataclass-shaped surfaces are kept as
:class:`CounterGroup` *views* — same attribute names, same ``+=``
idiom, same keyword construction — so checkpoints and persistence files
keep their exact schema while new code reads one
``registry.snapshot()``.

Views detach on pickling (a pickled ``SessionStats`` carries its
values into a private registry), which keeps copies taken mid-run —
e.g. the delta/recount stat pairs held by ``run_evolve_scenario`` —
independent of the live session.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "CounterGroup",
    "global_registry",
]


class Counter:
    """A monotonically *intended* integer; ``set`` exists for restores."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str, value: int = 0):
        self.name = name
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def set(self, value: int) -> None:
        self.value = value

    def snapshot(self):
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time value (queue depth, RSS bytes, worker count)."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str, value: float = 0):
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self):
        return self.value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Streaming summary of observations: count/total/min/max/mean."""

    __slots__ = ("name", "count", "total", "min", "max")
    kind = "histogram"

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def snapshot(self) -> Dict[str, Optional[float]]:
        mean = self.total / self.count if self.count else None
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": mean,
        }

    def merge(self, payload: Dict[str, Optional[float]]) -> None:
        """Fold a :meth:`snapshot` payload into this histogram.

        Count and total add; min/max widen.  Mean is derived, so the
        merged aggregate is exact — only per-observation detail (which
        a streaming summary never kept) is lost.
        """
        count = int(payload.get("count") or 0)
        if not count:
            return
        self.count += count
        self.total += float(payload.get("total") or 0.0)
        for bound, pick in (("min", min), ("max", max)):
            theirs = payload.get(bound)
            if theirs is None:
                continue
            ours = getattr(self, bound)
            setattr(
                self,
                bound,
                float(theirs) if ours is None else pick(ours, float(theirs)),
            )

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count})"


class MetricsRegistry:
    """Named metrics, get-or-create, one ``snapshot()`` for them all.

    Access is lock-guarded only on *creation*; increments go straight
    at the metric object (callers that need atomicity already hold
    their own locks, exactly as they did around the dataclass
    counters this registry replaced).
    """

    def __init__(self):
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, factory, kind: str):
        metric = self._metrics.get(name)
        if metric is not None:
            if metric.kind != kind:
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested {kind}"
                )
            return metric
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = factory(name)
            elif metric.kind != kind:
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested {kind}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, "gauge")

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram, "histogram")

    def get(self, name: str) -> Optional[object]:
        return self._metrics.get(name)

    def __iter__(self) -> Iterator[Tuple[str, object]]:
        return iter(sorted(self._metrics.items()))

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Everything, grouped by kind, metric names sorted."""
        out: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for name, metric in sorted(self._metrics.items()):
            out[metric.kind + "s"][name] = metric.snapshot()
        return out

    def merge_snapshot(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        """Restore counters/gauges and fold histograms from a
        :meth:`snapshot` payload (histograms merge additively so a
        restore can layer over observations already made)."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).set(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, payload in snapshot.get("histograms", {}).items():
            self.histogram(name).merge(payload)

    # Locks don't pickle; a registry re-locks on the other side.
    def __getstate__(self):
        return {"metrics": self._metrics}

    def __setstate__(self, state):
        self._metrics = state["metrics"]
        self._lock = threading.Lock()


class CounterGroup:
    """A dataclass-shaped attribute view over registry counters.

    Subclasses declare ``_fields`` (attribute names, in display order)
    and ``_prefix`` (the registry namespace, e.g. ``"session."``).
    The view then behaves like the mutable dataclass it replaced:
    ``group.field`` reads the counter, ``group.field += 1`` bumps it,
    ``Group(field=3)`` builds a detached instance over a private
    registry, and ``as_dict()`` round-trips through checkpoints where
    ``dataclasses.asdict`` used to.
    """

    _fields: Tuple[str, ...] = ()
    _prefix: str = ""

    def __init__(self, registry: Optional[MetricsRegistry] = None, **values):
        unknown = set(values) - set(self._fields)
        if unknown:
            raise TypeError(
                f"{type(self).__name__} got unexpected counters: "
                f"{sorted(unknown)}"
            )
        if registry is None:
            registry = MetricsRegistry()
        object.__setattr__(self, "_registry", registry)
        # Constructor semantics match the dataclasses these views
        # replaced: every field starts at its given value or zero,
        # even when attaching over a previously-used registry (a
        # checkpoint restore resets the counters it carries).
        for field in self._fields:
            registry.counter(self._prefix + field).set(
                int(values.get(field, 0))
            )

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry

    def __getattr__(self, name: str):
        # Only reached when normal lookup fails, i.e. for counter
        # fields (everything else lives in the instance/class dicts).
        if name in type(self)._fields:
            registry = object.__getattribute__(self, "_registry")
            return registry.counter(type(self)._prefix + name).value
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __setattr__(self, name: str, value) -> None:
        if name in type(self)._fields:
            self._registry.counter(type(self)._prefix + name).set(value)
        else:
            object.__setattr__(self, name, value)

    def as_dict(self) -> Dict[str, int]:
        """Field → value, in declaration order (the checkpoint form)."""
        return {field: getattr(self, field) for field in self._fields}

    def reset(self) -> None:
        for field in self._fields:
            self._registry.counter(type(self)._prefix + field).set(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, CounterGroup):
            return (
                type(self) is type(other) and self.as_dict() == other.as_dict()
            )
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{field}={getattr(self, field)}" for field in self._fields
        )
        return f"{type(self).__name__}({inner})"

    # Pickling detaches the view: values travel, the live registry
    # stays home.  A copy.copy() goes through the same path.
    def __getstate__(self):
        return self.as_dict()

    def __setstate__(self, state):
        self.__init__(**state)


_global = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry (sessions default here only when not
    handed their own)."""
    return _global

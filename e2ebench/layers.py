"""Per-layer tracing and self-time accounting for the benchmark.

The program carries spans only around its active-loop phases and a few
session mutations.  :class:`LayerProbe` adds the rest from outside: it
wraps the public entry point of each layer in a ``repro.obs`` span named
after the layer, for the duration of one traced alignment, and counts
the work each layer does.  :func:`self_times` then turns the recorded
spans into per-layer *self time* — a span's duration minus the part of
it that its child layer spans cover — so the layers add up to the
alignment, with the uncovered rest reported as ``unattributed``.
"""

from __future__ import annotations

import collections
import functools
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

#: Layer names, after the modules whose entry points they wrap.
LAYERS = (
    "counting",
    "delta_fold",
    "extract",
    "stream",
    "fit",
    "matching",
    "select",
    "candidates",
    "dispatch",
)
#: Span around one whole alignment (set-up included).
ROOT = "alignment"


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def self_times(records: List[Dict]) -> Dict[str, float]:
    """Per-name self time of the layer and root spans in ``records``.

    Spans the program records itself (``active.round`` and the like) are
    transparent: a layer span's children are the layer spans whose
    nearest layer ancestor it is.  Child intervals are clipped to the
    parent's, so a child that outlives its parent never counts twice.
    """
    tracked_names = set(LAYERS) | {ROOT}
    by_id = {record["span"]: record for record in records}
    tracked = [record for record in records if record["name"] in tracked_names]
    tracked_ids = {record["span"] for record in tracked}
    children: Dict[str, List[Dict]] = collections.defaultdict(list)
    for record in tracked:
        parent = record.get("parent")
        while parent is not None and parent not in tracked_ids:
            parent = by_id.get(parent, {}).get("parent")
        if parent is not None:
            children[parent].append(record)
    totals: Dict[str, float] = collections.defaultdict(float)
    for record in tracked:
        start = record["ts"]
        end = start + record["elapsed"]
        covered = union_length(
            (max(start, child["ts"]), min(end, child["ts"] + child["elapsed"]))
            for child in children[record["span"]]
        )
        totals[record["name"]] += max(0.0, record["elapsed"] - covered)
    return dict(totals)


class LayerProbe:
    """Wraps each layer's entry points in spans while installed.

    Use ``with probe.installed():`` around one traced alignment, and
    ``probe.root()`` as its root span.  Patches are undone on exit, so
    untraced alignments in the same process run the unwrapped program.
    """

    def __init__(self) -> None:
        from repro.obs.tracing import Tracer

        self.tracer = Tracer()
        self.counts: collections.Counter = collections.Counter()
        # Active layer names, innermost last; executor work items run
        # in the layer that dispatched them.
        self._stack: List[str] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    @contextmanager
    def layer(self, name: str):
        self._stack.append(name)
        try:
            with self.tracer.span(name):
                yield
        finally:
            self._stack.pop()

    def root(self):
        return self.tracer.span(ROOT)

    def drain(self) -> Tuple[List[Dict], collections.Counter]:
        """Recorded spans and counts since the last drain."""
        counts, self.counts = self.counts, collections.Counter()
        return self.tracer.drain(), counts

    # -- wrappers ------------------------------------------------------
    def _call(self, fn, name, count=None, measure=None, outermost=False):
        probe = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost and probe._stack and probe._stack[-1] == name:
                return fn(*args, **kwargs)
            if count is not None:
                probe.counts[count] += 1
            if measure is not None:
                probe.counts[measure[0]] += measure[1](*args, **kwargs)
            with probe.layer(name):
                return fn(*args, **kwargs)

        return traced

    def _iterate(self, iterator, name, measure=None):
        iterator = iter(iterator)
        while True:
            with self.layer(name):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            if measure is not None:
                self.counts[measure[0]] += measure[1](item)
            yield item

    def _lazy(self, fn, name, measure=None):
        probe = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return probe._iterate(fn(*args, **kwargs), name, measure)

        return traced

    def _counted(self, fn, count):
        probe = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            probe.counts[count] += 1
            return fn(*args, **kwargs)

        return counted

    def _dispatch(self, fn, lazy):
        probe = self

        def run_in(layer, work):
            def item(value):
                with probe.layer(layer):
                    return work(value)

            return item

        @functools.wraps(fn)
        def traced(executor, work, items, *args, **kwargs):
            probe.counts["dispatch.maps"] += 1
            caller = probe._stack[-1] if probe._stack else None
            if lazy:
                if caller is not None:
                    work = run_in(caller, work)
                return probe._iterate(
                    fn(executor, work, items, *args, **kwargs), "dispatch"
                )
            with probe.layer("dispatch"):
                if caller is None:
                    return fn(executor, work, items, *args, **kwargs)
                # One span of the calling layer covers every item: a span
                # per item would cost more than the serial loop it times.
                with probe.layer(caller):
                    return fn(executor, work, items, *args, **kwargs)

        return traced

    # -- installation --------------------------------------------------
    def _patch(self, owner, attribute, replacement) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _wrap(self, owner, attribute, make) -> None:
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            self._patch(owner, attribute, classmethod(make(original.__func__)))
        else:
            self._patch(owner, attribute, make(original))

    @contextmanager
    def installed(self):
        """Install the layer wrappers and the tracer; undo both on exit."""
        from repro.obs.tracing import set_tracer

        try:
            self._install()
            set_tracer(self.tracer)
            yield self
        finally:
            set_tracer(None)
            while self._undo:
                owner, attribute, original = self._undo.pop()
                setattr(owner, attribute, original)

    def _install(self) -> None:
        from repro.active import strategies
        from repro.core import itermpmd
        from repro.engine import candidates, parallel, session, streaming
        from repro.meta import algebra
        from repro.ml import backends, ridge

        wrap = self._wrap
        wrap(
            algebra.CountingEngine, "evaluate",
            lambda f: self._call(
                f, "counting", count="counting.evaluations", outermost=True
            ),
        )
        Session = session.AlignmentSession
        for name in ("set_anchors", "apply_network_delta", "refresh_features"):
            wrap(
                Session, name,
                lambda f: self._call(f, "delta_fold", count="delta_fold.calls"),
            )
        wrap(
            Session, "extract",
            lambda f: self._call(
                f, "extract",
                measure=("extract.rows", lambda _self, pairs: len(pairs)),
            ),
        )
        Task = streaming.StreamedAlignmentTask
        for name in ("gram", "xt_dot", "scores"):
            wrap(Task, name, lambda f: self._call(f, "stream"))
        wrap(Task, "scored_blocks", lambda f: self._lazy(f, "stream"))
        wrap(
            Task, "feature_blocks",
            lambda f: self._counted(f, "stream.block_passes"),
        )
        for backend in (backends.RidgeBackend, backends.SVMBackend):
            wrap(backend, "begin", lambda f: self._call(f, "fit"))
            wrap(backend, "scores", lambda f: self._call(f, "fit"))
            wrap(
                backend, "fit",
                lambda f: self._call(f, "fit", count="fit.solves"),
            )
        wrap(ridge.RidgeSolver, "__init__", lambda f: self._call(f, "fit"))
        wrap(
            ridge.RidgeSolver, "solve",
            lambda f: self._call(f, "fit", count="fit.solves"),
        )
        self._patch(
            itermpmd, "greedy_link_selection",
            self._call(
                itermpmd.greedy_link_selection, "matching",
                count="matching.calls",
            ),
        )
        for strategy in (
            strategies.ConflictFalseNegativeStrategy,
            strategies.RandomQueryStrategy,
            strategies.MarginQueryStrategy,
        ):
            for name in ("select", "select_streamed"):
                wrap(
                    strategy, name,
                    lambda f: self._call(f, "select", count="select.calls"),
                )
        Generator = candidates.CandidateGenerator
        wrap(Generator, "from_support", lambda f: self._call(f, "candidates"))
        wrap(
            Generator, "blocks",
            lambda f: self._lazy(
                f, "candidates", measure=("candidates.pairs", len)
            ),
        )
        self._patch(
            candidates, "streamed_selection",
            self._call(candidates.streamed_selection, "candidates"),
        )
        wrap(parallel.SerialExecutor, "map", lambda f: self._dispatch(f, False))
        wrap(parallel.SerialExecutor, "imap", lambda f: self._dispatch(f, True))

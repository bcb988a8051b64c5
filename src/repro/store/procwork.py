"""Picklable work units resolved against a shared :class:`MatrixArena`.

The thread-pool execution layer ships *closures* over live session
state — free, because threads share memory.  A process pool cannot: its
work units must cross an ``exec`` boundary by pickle.  This module
defines the process-side of the store subsystem:

* :class:`ArenaSpec` — where the shared state lives (``store_dir``) and
  which manifest ``version`` the driver published before dispatching;
* :class:`BlockDescriptor` — one candidate block as slot-position
  arrays, the only per-task payload (a few KiB, never a matrix).  It is
  also the block type :meth:`CandidateGenerator.blocks
  <repro.engine.candidates.CandidateGenerator.blocks>` yields, so a
  sweep block crosses the process boundary as it is;
* module-level job functions (:func:`extract_block_job`,
  :func:`score_block_job`) that a ``ProcessPoolExecutor`` can pickle by
  reference;
* :class:`ArenaLinearScorer` — a picklable ``block -> scores`` callable
  for the streamed-selection sweep.

Worker processes keep one :class:`_ArenaWorkerState` per ``store_dir``
in module globals: the arena is opened once, count matrices are served
as memory maps (the OS page cache shares one physical copy across all
workers), and the cached state reloads itself whenever the spec's
manifest version moves past the one it loaded.

Exactness: workers gather features with
:func:`~repro.meta.proximity.proximity_block`, the very kernel behind
:meth:`AlignmentSession.gather
<repro.engine.session.AlignmentSession.gather>`, over the arrays the
session flushed.  A process-pool extraction is therefore byte-identical
to the in-process one, which the store test suite and
``bench_engine_store`` assert.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.exceptions import AlignmentError, StoreError
from repro.meta.proximity import proximity_block
from repro.ml.backends import LinearModelState, apply_model_state
from repro.obs.tracing import NULL_TRACER, JsonlSink, TraceContext, Tracer
from repro.store.arena import MatrixArena

#: Arena entry holding the session-level metadata object.
SESSION_META = "session/meta"

#: Arena entry mapping structure name -> current count-matrix slot.
#: Indirection, because a structure's counts may be served from the
#: counting engine's own memoized slot (no duplicate storage) or from a
#: dedicated fold slot after delta updates.
SESSION_SLOTS = "session/slots"


def counts_slot(structure_name: str) -> str:
    """Arena entry name of one structure's dedicated count-matrix slot."""
    return f"counts/{structure_name}"


def row_sums_slot(structure_name: str) -> str:
    """Arena entry name of one structure's row-sum vector."""
    return f"sums/{structure_name}/rows"


def col_sums_slot(structure_name: str) -> str:
    """Arena entry name of one structure's column-sum vector."""
    return f"sums/{structure_name}/cols"


@dataclass(frozen=True)
class ArenaSpec:
    """Pointer to flushed session state: directory plus version stamp.

    ``version`` is the arena manifest version current when the driver
    flushed; workers holding older state reload before serving a task.

    ``trace`` optionally carries the driver's
    :class:`~repro.obs.tracing.TraceContext` into the worker process:
    when it names a ``sink_dir``, workers append their job
    spans to ``trace-worker-<pid>.jsonl`` next to the driver's trace
    file, parented on the dispatching span.  ``None`` (tracing
    disabled) costs nothing.
    """

    store_dir: str
    version: int
    trace: Optional[TraceContext] = None


@dataclass(frozen=True)
class BlockDescriptor:
    """One candidate block as slot positions — the picklable work unit.

    ``offset`` is the block's first candidate index in its stream;
    ``left_indices[k]``/``right_indices[k]`` are candidate ``k``'s
    matrix row and column.
    """

    offset: int
    left_indices: np.ndarray
    right_indices: np.ndarray

    def __len__(self) -> int:
        return int(self.left_indices.shape[0])


# ----------------------------------------------------------------------
# Worker-side state
# ----------------------------------------------------------------------
class _StructureView(NamedTuple):
    """One structure's arena-served state, cached per worker process."""

    counts: object  # mmap-backed csr
    row_sums: np.ndarray
    col_sums: np.ndarray


class _ArenaWorkerState:
    """Per-process cache of one arena's session state."""

    def __init__(self, store_dir: str) -> None:
        self.arena = MatrixArena(store_dir)
        self.version: Optional[int] = None
        self.meta: Optional[Dict] = None
        self.slots: Dict[str, str] = {}
        self._structures: Dict[str, _StructureView] = {}

    def refresh(self, version: int) -> None:
        """Reload manifest-backed state when the driver moved past us."""
        if self.version == version and self.meta is not None:
            return
        current = self.arena.refresh()
        if current < version:
            raise StoreError(
                f"arena at {self.arena.store_dir} is at version {current}, "
                f"but the dispatched work expects version {version} — "
                "was flush_store() called before dispatch?"
            )
        self.meta = self.arena.get_object(SESSION_META)
        self.slots = self.arena.get_object(SESSION_SLOTS)
        self._structures.clear()
        self.version = version

    def _structure(self, name: str) -> _StructureView:
        view = self._structures.get(name)
        if view is None:
            view = _StructureView(
                counts=self.arena.get(self.slots[name]),
                row_sums=self.arena.get_array(row_sums_slot(name)),
                col_sums=self.arena.get_array(col_sums_slot(name)),
            )
            self._structures[name] = view
        return view

    def features(
        self, left_indices: np.ndarray, right_indices: np.ndarray
    ) -> np.ndarray:
        """Feature block — the session's position-gather kernel."""
        return proximity_block(
            left_indices,
            right_indices,
            [self._structure(name) for name in self.meta["structure_names"]],
            self.meta["include_bias"],
        )


_STATES: Dict[str, _ArenaWorkerState] = {}

#: Per-process tracers keyed by sink directory; a worker process opens
#: its span file once and appends for the rest of its life.
_WORKER_TRACERS: Dict[str, Tracer] = {}


def _state_for(spec: ArenaSpec) -> _ArenaWorkerState:
    state = _STATES.get(spec.store_dir)
    if state is None:
        state = _ArenaWorkerState(spec.store_dir)
        _STATES[spec.store_dir] = state
    state.refresh(spec.version)
    return state


def job_span(spec: ArenaSpec, name: str, **attributes):
    """A worker-side span parented on the spec's driver context.

    Returns the shared no-op span when the spec carries no trace (the
    overwhelmingly common case) or no sink directory to write to.
    """
    trace = spec.trace
    if trace is None or trace.sink_dir is None:
        return NULL_TRACER.span(name)
    tracer = _WORKER_TRACERS.get(trace.sink_dir)
    if tracer is None:
        path = Path(trace.sink_dir) / f"trace-worker-{os.getpid()}.jsonl"
        tracer = Tracer(sink=JsonlSink(path))
        _WORKER_TRACERS[trace.sink_dir] = tracer
    return tracer.span(name, parent=trace, **attributes)


# ----------------------------------------------------------------------
# Job functions (module-level: pickled by reference)
# ----------------------------------------------------------------------
def extract_block_job(
    item: Tuple[ArenaSpec, BlockDescriptor],
) -> Tuple[int, np.ndarray]:
    """``(spec, descriptor) -> (offset, X_block)`` in a worker process."""
    spec, descriptor = item
    with job_span(spec, "procwork.extract_block", offset=descriptor.offset):
        state = _state_for(spec)
        return descriptor.offset, state.features(
            descriptor.left_indices, descriptor.right_indices
        )


def score_block_job(
    item: Tuple[ArenaSpec, BlockDescriptor, np.ndarray],
) -> Tuple[int, np.ndarray]:
    """``(spec, descriptor, w) -> (offset, X_block @ w)`` in a worker."""
    spec, descriptor, weights = item
    with job_span(spec, "procwork.score_block", offset=descriptor.offset):
        state = _state_for(spec)
        X = state.features(descriptor.left_indices, descriptor.right_indices)
        return descriptor.offset, X @ weights


def model_score_block_job(
    item: Tuple[ArenaSpec, BlockDescriptor, LinearModelState],
) -> Tuple[int, np.ndarray]:
    """Score one block through a full model state in a worker process.

    The model-backend seam's process work unit: features come off the
    shared arena, and the (picklable, plain-array)
    :class:`~repro.ml.backends.LinearModelState` carries everything a
    non-trivial model needs — a fitted feature map (e.g. Nyström
    landmarks, so the landmark transform itself runs worker-side),
    scaler statistics, linear coefficients.  The scoring kernel is
    :func:`~repro.ml.backends.apply_model_state`, the very function the
    in-process path calls, so a process-pool sweep is byte-identical to
    the inline one.
    """
    spec, descriptor, model_state = item
    with job_span(
        spec, "procwork.model_score_block", offset=descriptor.offset
    ):
        state = _state_for(spec)
        X = state.features(descriptor.left_indices, descriptor.right_indices)
        return descriptor.offset, apply_model_state(model_state, X)


@dataclass(frozen=True)
class ArenaLinearScorer:
    """Picklable ``block -> X_block @ w`` over arena-served features.

    The process analog of :func:`repro.engine.candidates.linear_scorer`:
    instead of closing over a live session it carries only the arena
    spec and the weight vector, and scores a
    :class:`BlockDescriptor` of slot positions against the arena inside
    the worker.  The weight count is checked against the arena's
    structure count (plus bias) when the scorer is built, in the
    driver, not inside a worker's first block.
    """

    spec: ArenaSpec
    weights: np.ndarray

    def __post_init__(self) -> None:
        meta = _state_for(self.spec).meta
        n_features = len(meta["structure_names"]) + int(bool(meta["include_bias"]))
        if np.size(self.weights) != n_features:
            raise AlignmentError(
                f"{np.size(self.weights)} weights for {n_features} features"
            )

    def __call__(self, block: BlockDescriptor) -> np.ndarray:
        with job_span(self.spec, "procwork.linear_scorer", block=len(block)):
            state = _state_for(self.spec)
            X = state.features(block.left_indices, block.right_indices)
            return X @ self.weights

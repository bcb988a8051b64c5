"""The incremental alignment session: shared state for one aligned pair.

:class:`AlignmentSession` is the engine-layer object threaded through
the pipeline, the active loop, the experiment harness and the CLI.  It
owns, for one :class:`~repro.networks.aligned.AlignedPair`:

* the memoizing :class:`~repro.meta.algebra.CountingEngine` over the
  pair's typed adjacency matrices;
* the per-structure count matrices, their row/column sums and
  :class:`~repro.meta.proximity.ProximityMatrix` views of the
  configured diagram family;
* the current *known anchor* set (training positives plus queried
  positives);
* cached *candidate views* — the index arrays and per-structure count
  values of candidate lists that are scored repeatedly.

Updates are **incremental** through the generalized delta algebra of
:mod:`repro.engine.incremental`.  Anchor updates: adding ``k`` anchors
applies a sparse low-rank delta to each anchor-dependent count matrix,
its row/column sums, and the cached candidate-view values — and
:meth:`refresh_features` then rewrites only the affected columns of an
existing feature matrix in place, without any O(nnz) recount or
re-scan.  Network updates: :meth:`apply_network_delta` turns each
event's record straight into per-leaf deltas over the bag layout of
:data:`~repro.meta.context.BAG_LAYOUT`, grows ``W1``/``W2``/adjacency
in place (append-only node order makes growth pure padding), folds
one-sided delta products for exactly the structures the changed
matrices touch, and leaves everything else — including attribute-only
counts under anchor churn — untouched across query rounds, refits,
experiment folds and evolution events alike.  Every event takes that
one fold path.  All updates are bit-exact: counts are integer-valued,
and products/Hadamards/sums of integers below 2**53 are exact in
float64.
"""

from __future__ import annotations

import copy
import logging
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np
from scipy import sparse

from repro.engine.incremental import (
    DeltaEvaluator,
    apply_delta,
    csr_rows,
    entries_to_csr,
    pad_csr,
    supports_delta,
)
from repro.engine.parallel import Executor, WorkersSpec, get_executor
from repro.exceptions import FeatureError, StoreError
from repro.meta.algebra import CountingEngine, Expr, MatrixBag
from repro.meta.context import (
    ANCHOR_MATRIX,
    BAG_LAYOUT,
    bag_layout,
    bag_shapes,
    build_matrix_bag,
)
from repro.meta.diagrams import DiagramFamily, standard_diagram_family
from repro.meta.proximity import (
    ProximityMatrix,
    csr_values_at,
    dice_scores,
    proximity_block,
)
from repro.networks.aligned import AlignedPair, DeltaApplication, NetworkDelta
from repro.networks.schema import WORD
from repro.obs.metrics import CounterGroup, MetricsRegistry
from repro.obs.tracing import get_tracer
from repro.store.arena import MatrixArena, as_arena
from repro.types import LinkPair

logger = logging.getLogger(__name__)

#: Session state-dict format, for checkpoint compatibility checks.
#: Version 2 added the evolution log; version 3 marks the model-backend
#: era — snapshots are structurally unchanged, but the fallback counter
#: joined the stats block and active-loop checkpoints may now carry
#: model-backend state alongside the session.  Version 4 adds the
#: compaction epoch and (after a compaction) the pair snapshot the
#: truncated evolution log replays from.  Version 1-3 snapshots still
#: load.
_STATE_FORMAT_VERSION = 4

#: State-dict versions :meth:`AlignmentSession.load_state_dict` accepts.
_LOADABLE_STATE_VERSIONS = (1, 2, 3, 4)

#: How many delta events the dirty-region log retains; consumers whose
#: marker fell off the log get a conservative "everything dirty" answer.
_DELTA_LOG_LIMIT = 64


def counts_slot(structure_name: str) -> str:
    """Arena entry name of one structure's dedicated count-matrix slot."""
    return f"counts/{structure_name}"


def _count_sums(counts: sparse.csr_matrix) -> Tuple[np.ndarray, np.ndarray]:
    """Row and column sums of a count matrix, read off its stored arrays.

    Scipy's ``sum(axis=...)`` costs more in per-call plumbing than the
    sums of most structures.  Counts are integers, so the sums are
    exact in any order.
    """
    row_sums = np.zeros(counts.shape[0])
    filled = np.diff(counts.indptr) > 0
    if filled.any():
        row_sums[filled] = np.add.reduceat(
            counts.data, counts.indptr[:-1][filled]
        )
    col_sums = np.bincount(
        counts.indices, weights=counts.data, minlength=counts.shape[1]
    )
    return row_sums, col_sums


class SessionStats(CounterGroup):
    """Counters describing how much work the session avoided.

    Since the ``repro.obs`` unification this is a *view* over
    ``session.`` counters in a :class:`~repro.obs.metrics.MetricsRegistry`
    (the session's own, reachable as ``session.metrics``), not a
    dataclass — but the surface is unchanged: attribute reads and
    ``+=``, keyword construction, equality, and :meth:`summary` all
    behave exactly as before, and :meth:`~repro.obs.metrics.CounterGroup.as_dict`
    round-trips through checkpoints where ``dataclasses.asdict`` did.
    A pickled/copied ``SessionStats`` detaches onto a private registry,
    so stat snapshots taken mid-run stay frozen.

    Attributes
    ----------
    anchor_updates:
        ``set_anchors`` calls that actually changed the known set.
    network_updates:
        ``apply_network_delta`` calls that actually changed a matrix.
    delta_updates:
        Structure count matrices updated via the sparse delta path.
    full_recounts:
        Structure count matrices evaluated from scratch (initial
        evaluation included).
    fallback_invalidations:
        Materialized structures an update *dropped* because the sparse
        delta path could not serve it (a fold switch, a delta on a
        non-delta-capable expression, an uncovered delta shape) — every
        one forces a later full recount, so this is the counter that
        makes the silent slow path visible (it is also logged and
        recorded in experiment runtime metadata).
    removal_updates:
        ``apply_network_delta`` calls whose event shrank something —
        removed edges, removed (tombstoned) nodes, detached attribute
        cells or dropped known anchors.  Removals ride the same sparse
        delta path as growth, so this counter rising while
        ``fallback_invalidations`` stays flat is the removal-delta
        feature working as intended.
    compactions:
        :meth:`AlignmentSession.compact` calls that actually rewrote
        slots or truncated the evolution log.
    columns_refreshed:
        Feature-matrix columns rewritten in place by
        :meth:`AlignmentSession.refresh_features`.
    extract_calls:
        Full feature-extraction calls served.
    """

    _prefix = "session."
    _fields = (
        "anchor_updates",
        "network_updates",
        "delta_updates",
        "full_recounts",
        "fallback_invalidations",
        "removal_updates",
        "compactions",
        "columns_refreshed",
        "extract_calls",
    )

    def summary(self) -> str:
        """One-line human-readable rendering."""
        return " ".join(
            f"{name}={getattr(self, name)}" for name in self._fields
        )

    def __str__(self) -> str:
        return self.summary()


@dataclass
class _Structure:
    """One feature structure tracked by the session.

    ``pending`` holds delta count matrices that have been applied to
    the sums and the candidate views but not yet folded into ``counts``
    — the active loop scores through views only, so the O(nnz) sparse
    addition is deferred until someone actually reads the counts.  A
    growth event pads ``counts`` and the sums at once, but a pending
    change keeps the shape it was computed at until the fold pads it.
    """

    name: str
    column: int  # the structure's column in extracted feature matrices
    expr: Expr
    anchor_dependent: bool
    delta_capable: bool
    counts: Optional[sparse.csr_matrix] = None
    row_sums: Optional[np.ndarray] = None
    col_sums: Optional[np.ndarray] = None
    proximity: Optional[ProximityMatrix] = field(default=None, repr=False)
    pending: List[sparse.csr_matrix] = field(default_factory=list, repr=False)
    # Guards lazy count evaluation/folding when extraction fans out
    # across threads; each structure is independent, so contention is
    # only ever two scorers racing to materialize the same counts.
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )


@dataclass
class _CandidateView:
    """Cached per-candidate-list state for repeated scoring.

    Holds the resolved index arrays of one candidate list plus, per
    structure, the count values at exactly those positions.  Delta
    anchor updates patch the cached values at the (few) positions the
    delta touches and record per-structure *dirty position* sets, so a
    subsequent feature refresh rewrites only the affected entries of
    ``X`` — a delta with ``m`` non-zeros costs O(m log q), not O(q).

    A list extracted a second time also keeps its feature ``block``,
    which the same delta path patches at the dirty positions, so a
    repeated extraction is one copy.  A list extracted once (a
    materialized task's matrix, refreshed in place by its owner) never
    pays for a block it would not read again.

    The sorted permutations of the keys and of the left/right index
    arrays are what make the inverted lookups (delta entry -> view
    positions, changed row/col -> view positions) logarithmic.
    """

    pairs: Sequence[LinkPair]  # kept alive so id() stays unique
    left_indices: np.ndarray
    right_indices: np.ndarray
    key_order: np.ndarray  # argsort of the row-major (i, j) keys
    keys_sorted: np.ndarray
    left_order: np.ndarray  # argsort of left_indices
    left_sorted: np.ndarray
    right_order: np.ndarray  # argsort of right_indices
    right_sorted: np.ndarray
    values: Dict[str, np.ndarray] = field(default_factory=dict)
    dirty: Dict[str, List[np.ndarray]] = field(default_factory=dict)
    extracted: bool = False  # whether extract() has served this list
    block: Optional[np.ndarray] = None  # C-order feature matrix

    def positions_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """View positions whose left user index is in ``rows``."""
        return self._positions(self.left_order, self.left_sorted, rows)

    def positions_of_cols(self, cols: np.ndarray) -> np.ndarray:
        """View positions whose right user index is in ``cols``."""
        return self._positions(self.right_order, self.right_sorted, cols)

    @staticmethod
    def _positions(
        order: np.ndarray, sorted_values: np.ndarray, wanted: np.ndarray
    ) -> np.ndarray:
        starts = np.searchsorted(sorted_values, wanted, side="left")
        ends = np.searchsorted(sorted_values, wanted, side="right")
        if not len(starts):
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(
            [order[start:end] for start, end in zip(starts, ends)]
        )


class AlignmentSession:
    """Incremental feature/proximity state for one aligned pair.

    Parameters
    ----------
    pair:
        The aligned networks.
    family:
        Meta structure family; defaults to the paper's full Φ.
    known_anchors:
        Initial known anchor links (training positives only — never the
        test ground truth).
    include_bias:
        Whether extracted feature matrices carry the trailing dummy
        ``1`` column.
    include_words:
        Whether to export the word matrices.  The default family then
        carries the word path P7; a family whose expressions read the
        word matrices gets them exported either way.
    incremental:
        When ``False`` every anchor update re-counts anchor-dependent
        structures from scratch (the baseline path the benchmark
        compares against).  Results are bit-identical either way.
    strict_deltas:
        Verification knob for the event-sourced network-delta fast
        path: after every event fold the engine's leaf matrices are
        re-exported and compared entry-for-entry, raising
        :class:`~repro.exceptions.FeatureError` on any mismatch.
        O(nnz) per event — use in tests and when debugging custom
        schedules, not in production loops.
    compact_every:
        When set, :meth:`compact` runs automatically once the evolution
        log reaches this many events since the last compaction —
        bounding a long-drift session's tombstones, log length, and
        store footprint.
    workers:
        Execution-layer knob: ``None``/``1`` for serial (the default),
        an integer >= 2 for a thread pool, or a shared
        :class:`~repro.engine.parallel.Executor`.  Per-structure delta
        evaluation, feature-column extraction and dirty-column refresh
        fan out across workers; results are merged in family order and
        are byte-identical to the serial path.
    view_cache_size:
        Upper bound on cached candidate views.  Each cached view holds
        the per-structure count values of one candidate list, and a
        view of a list extracted twice also holds its feature block, so
        the bound is also the session's feature-memory bound: streamed
        fits with more blocks than this deliberately recompute lookups
        per pass (bounded memory) — raise it to trade memory for speed
        when a streamed task's block count is known and affordable.
    store:
        Disk-backed matrix store: a directory path or a shared
        :class:`~repro.store.arena.MatrixArena`.  When set, every
        materialized count matrix (and every memoized counting-engine
        product) is spilled to the store and served back as a memory
        map, so the session's resident set is the pages in flight, not
        the sum of all matrices.  The store is also the natural home of
        :class:`~repro.store.checkpoint.SessionCheckpoint` files.
        ``None`` (the default) keeps everything in RAM.
    """

    def __init__(
        self,
        pair: AlignedPair,
        family: Optional[DiagramFamily] = None,
        known_anchors: Optional[Iterable[LinkPair]] = None,
        include_bias: bool = True,
        include_words: bool = False,
        incremental: bool = True,
        workers: WorkersSpec = None,
        view_cache_size: int = 16,
        store: Optional[Union[str, Path, MatrixArena]] = None,
        strict_deltas: bool = False,
        compact_every: Optional[int] = None,
    ) -> None:
        self.pair = pair
        self.strict_deltas = bool(strict_deltas)
        if compact_every is not None and compact_every < 1:
            raise FeatureError("compact_every must be >= 1")
        self.compact_every = compact_every
        self.family = family if family is not None else standard_diagram_family(
            include_words=include_words
        )
        self.include_bias = include_bias
        self.incremental = bool(incremental)
        self.executor: Executor = get_executor(workers)
        self._owns_executor = not isinstance(workers, Executor)
        if view_cache_size < 1:
            raise FeatureError("view_cache_size must be >= 1")
        self.view_cache_size = int(view_cache_size)
        self.arena, self._owns_arena = as_arena(store)
        # Every session counter lives in this registry; ``stats`` is
        # the legacy attribute-shaped view over its ``session.*`` slice.
        self.metrics = MetricsRegistry()
        self.stats = SessionStats(registry=self.metrics)
        self._anchors: Set[LinkPair] = set(known_anchors or ())
        self._views: Dict[int, _CandidateView] = {}
        # One lock for the cross-structure shared state: the stats
        # counters and the view cache.  Never held around heavy work.
        self._state_lock = threading.Lock()
        # Evolution events applied to the pair through this session, in
        # order — snapshotted so checkpoint resume can replay them.
        # compact() truncates the log into a *snapshot epoch*: the pair
        # is deep-copied, the log restarts empty, and state dicts carry
        # (epoch, snapshot) so resume replays from the snapshot instead
        # of from the session's construction-time pair.
        self._evolution_log: List[NetworkDelta] = []
        self._applied_evolution = 0
        self._compaction_epoch = 0
        self._pair_snapshot: Optional[AlignedPair] = None
        # Monotonic delta epoch + bounded log of per-event dirty user
        # rows/cols; lets streamed consumers rescore only dirty blocks.
        self._delta_epoch = 0
        self._delta_log: List[
            Tuple[int, Optional[np.ndarray], Optional[np.ndarray]]
        ] = []

        family_leaves = {
            leaf for expr in self.family.exprs for leaf in expr.leaves()
        }
        self._include_word_matrices = include_words or any(
            row.relation == WORD and row.name in family_leaves
            for row in BAG_LAYOUT
        )
        # Event lookups, derived from the bag layout: per side, the leaf
        # each relation's edges land in, and per attribute, the leaf of
        # each side's cells.  Edges and cells keep separate maps, so a
        # relation and an attribute of one name never collide.
        self._edge_leaves: Dict[str, Dict[str, str]] = {"left": {}, "right": {}}
        self._attribute_leaves: Dict[str, Dict[str, str]] = {}
        for row in bag_layout(self._include_word_matrices):
            if row.is_attribute:
                sides = self._attribute_leaves.setdefault(row.relation, {})
                sides[row.side] = row.name
            elif not row.is_anchor:
                self._edge_leaves[row.side][row.relation] = row.name
        # Shared-vocabulary caches, synchronized with the *engine's*
        # attribute-matrix columns: value -> column maps let the event
        # fold patch incidence cells without re-exporting, and the
        # cached lists detect column reordering.
        self._shared_vocab: Dict[str, List] = {}
        self._shared_vocab_index: Dict[str, Dict] = {}
        self._engine = CountingEngine(self._export_bag(), arena=self.arena)
        self._structures: List[_Structure] = [
            _Structure(
                name=name,
                column=column,
                expr=expr,
                anchor_dependent=ANCHOR_MATRIX in expr.leaves(),
                delta_capable=supports_delta(expr, ANCHOR_MATRIX),
            )
            for column, (name, expr) in enumerate(
                zip(self.family.feature_names, self.family.exprs)
            )
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def engine(self) -> CountingEngine:
        """The underlying memoizing counting engine."""
        return self._engine

    @property
    def workers(self) -> int:
        """Parallelism degree of the session's executor."""
        return self.executor.workers

    @property
    def known_anchors(self) -> Set[LinkPair]:
        """The current known anchor set (a copy)."""
        return set(self._anchors)

    @property
    def feature_names(self) -> List[str]:
        """Ordered feature names (structures, then optional bias)."""
        names = [structure.name for structure in self._structures]
        if self.include_bias:
            names.append("bias")
        return names

    @property
    def n_features(self) -> int:
        """Feature dimensionality d."""
        return len(self._structures) + (1 if self.include_bias else 0)

    @property
    def anchor_feature_columns(self) -> List[int]:
        """Column indices whose features depend on the anchor matrix."""
        return [
            i
            for i, structure in enumerate(self._structures)
            if structure.anchor_dependent
        ]

    @property
    def static_feature_columns(self) -> List[int]:
        """Column indices that never change when anchors change."""
        columns = [
            i
            for i, structure in enumerate(self._structures)
            if not structure.anchor_dependent
        ]
        if self.include_bias:
            columns.append(len(self._structures))
        return columns

    @property
    def evolution_log(self) -> List[NetworkDelta]:
        """Evolution events applied through this session (a copy)."""
        return list(self._evolution_log)

    # ------------------------------------------------------------------
    # Dirty-region tracking (consumed by streamed score caches)
    # ------------------------------------------------------------------
    @property
    def delta_epoch(self) -> int:
        """Monotonic counter bumped by every feature-changing update."""
        return self._delta_epoch

    def _record_dirty(
        self,
        rows: Optional[np.ndarray] = None,
        cols: Optional[np.ndarray] = None,
        everything: bool = False,
    ) -> None:
        """Log one update's dirty left rows / right cols (or *all*)."""
        with self._state_lock:
            self._delta_epoch += 1
            if everything:
                entry = (self._delta_epoch, None, None)
            else:
                entry = (
                    self._delta_epoch,
                    np.unique(np.asarray(rows, dtype=np.int64)),
                    np.unique(np.asarray(cols, dtype=np.int64)),
                )
            self._delta_log.append(entry)
            del self._delta_log[:-_DELTA_LOG_LIMIT]

    def dirty_since(
        self, epoch: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Union of dirty (left rows, right cols) since a past epoch.

        Returns ``None`` when the answer is unknown or unbounded — the
        marker fell off the bounded log, a full invalidation happened,
        or the epoch is not one this session issued — in which case the
        caller must treat everything as dirty.  Feature rows outside the
        returned index sets are bit-identical to their values at
        ``epoch``, so consumers may reuse anything derived from them.
        """
        with self._state_lock:
            if epoch == self._delta_epoch:
                empty = np.zeros(0, dtype=np.int64)
                return empty, empty
            if epoch > self._delta_epoch:
                return None
            relevant = [
                entry for entry in self._delta_log if entry[0] > epoch
            ]
            if len(relevant) != self._delta_epoch - epoch:
                return None  # the log was trimmed past the marker
            if any(entry[1] is None for entry in relevant):
                return None  # a full invalidation happened in between
            rows = np.unique(
                np.concatenate([entry[1] for entry in relevant])
            )
            cols = np.unique(
                np.concatenate([entry[2] for entry in relevant])
            )
            return rows, cols

    # ------------------------------------------------------------------
    # Count / proximity state
    # ------------------------------------------------------------------
    def _publish_counts(
        self, structure: _Structure, counts: sparse.csr_matrix
    ) -> sparse.csr_matrix:
        """Spill folded counts to the arena (if any) and serve the mmap.

        A matrix already served from the arena (the counting engine
        spills its memoized products, including top-level expressions)
        passes through untouched — re-spilling it would just duplicate
        files and page traffic.
        """
        if self.arena is None or getattr(counts, "_arena_slot", None):
            return counts
        slot = counts_slot(structure.name)
        self.arena.put(slot, counts)
        return self.arena.get(slot)

    def _release_store_pages(self) -> None:
        """Drop resident pages of mapped matrices between work units.

        Only meaningful in store mode: after a unit of heavy work (one
        structure's evaluation, one anchor round) the pages it touched
        are advised away, so the session's peak RSS tracks the columns
        in flight, not the sum of every matrix read so far.
        """
        if self.arena is not None:
            self.arena.release_pages()

    def _ensure_counts(self, structure: _Structure) -> None:
        with structure.lock:
            if structure.counts is None:
                counts = self._engine.evaluate(structure.expr)
                structure.pending.clear()
                structure.row_sums, structure.col_sums = _count_sums(counts)
                structure.proximity = None
                structure.counts = self._publish_counts(structure, counts)
                with self._state_lock:
                    self.stats.full_recounts += 1
                # Evaluation touched shared intermediates; let the
                # kernel reclaim those pages before the next structure.
                self._release_store_pages()
            elif structure.pending:
                shape = structure.counts.shape
                total = pad_csr(structure.pending[0], shape)
                for change in structure.pending[1:]:
                    total = total + pad_csr(change, shape)
                counts = apply_delta(structure.counts, total)
                # Canonicalize before publishing so concurrent batched
                # lookups never race an in-place index sort.
                counts.sort_indices()
                structure.counts = self._publish_counts(structure, counts)
                structure.pending.clear()

    def _proximity(self, structure: _Structure) -> ProximityMatrix:
        self._ensure_counts(structure)
        if structure.proximity is None:
            structure.proximity = ProximityMatrix(structure.counts)
        return structure.proximity

    def proximity_matrices(self) -> List[ProximityMatrix]:
        """Proximity matrices for every structure, in family order."""
        return [self._proximity(structure) for structure in self._structures]

    # ------------------------------------------------------------------
    # Anchor updates
    # ------------------------------------------------------------------
    def add_anchors(self, new_anchors: Iterable[LinkPair]) -> bool:
        """Grow the known anchor set; returns whether anything changed."""
        return self.set_anchors(self._anchors | set(new_anchors))

    @contextmanager
    def _phase(self, name: str, **attributes):
        """Time one session phase: a tracer span (no-op when tracing
        is disabled) plus a ``phase.<name>`` histogram in the session
        registry.  Used only at per-round / per-event granularity."""
        start = time.monotonic()
        with get_tracer().span(name, **attributes) as span:
            yield span
        self.metrics.histogram("phase." + name).observe(
            time.monotonic() - start
        )

    def metrics_snapshot(self) -> Dict:
        """The session registry's snapshot: its ``session.*`` counters
        and ``phase.*`` histograms — the surface behind ``repro.cli
        engine diagnose`` and
        :class:`~repro.eval.experiment.RuntimeMetadata.metrics`.
        """
        return self.metrics.snapshot()

    def set_anchors(self, known_anchors: Iterable[LinkPair]) -> bool:
        """Replace the known anchor set; returns whether anything changed.

        Chooses the cheapest correct path per structure: when the
        symmetric difference is smaller than the new set (the active
        loop's few-anchors-per-round regime) anchor-dependent counts,
        sums and cached view values receive an exact sparse delta;
        otherwise (e.g. switching experiment folds) they are dropped for
        lazy re-evaluation.  Attribute-only structures are untouched in
        both cases.
        """
        with self._phase("session.set_anchors") as span:
            changed = self._set_anchors(known_anchors)
            span.annotate(changed=changed)
            return changed

    def _set_anchors(self, known_anchors: Iterable[LinkPair]) -> bool:
        new_set = set(known_anchors)
        added = new_set - self._anchors
        removed = self._anchors - new_set
        if not added and not removed:
            return False
        # Build (and thereby validate) the new anchor matrix before any
        # state changes, so a bad anchor leaves the session untouched.
        new_anchor_matrix = self.pair.anchor_matrix(new_set)
        self.stats.anchor_updates += 1
        use_delta = (
            self.incremental and len(added) + len(removed) < len(new_set)
        )
        self._anchors = new_set

        evaluator: Optional[DeltaEvaluator] = None
        if use_delta:
            delta = self.pair.anchor_matrix(added)
            if removed:
                delta = (delta - self.pair.anchor_matrix(removed)).tocsr()
            evaluator = DeltaEvaluator(self._engine, ANCHOR_MATRIX, delta)

        delta_structures: List[_Structure] = []
        invalidated_visible = False
        fallbacks: List[str] = []
        for structure in self._structures:
            if not structure.anchor_dependent:
                continue
            if (
                evaluator is not None
                and structure.delta_capable
                and structure.counts is not None
            ):
                delta_structures.append(structure)
            else:
                # A never-materialized structure has nothing cached
                # downstream; dropping it is invisible to consumers.
                if structure.counts is not None:
                    invalidated_visible = True
                    fallbacks.append(structure.name)
                self._invalidate_structure(structure)
        self._log_fallbacks("anchor update", fallbacks)
        # The per-structure delta expressions are independent (the
        # shared A-free sub-products are served by the memoizing
        # engine), so their evaluation — the expensive spgemm work —
        # fans out across the executor.  It must complete (the map is
        # eager) before the engine sees the new A: expressions that
        # repeat the anchor leaf telescope through *old* values of
        # anchored sub-chains.  Applying the changes to session state
        # stays serial, in family order, which keeps the threaded path
        # byte-identical to the serial one.
        changes = (
            self.executor.map(
                lambda structure: evaluator.evaluate(structure.expr),
                delta_structures,
            )
            if delta_structures
            else []
        )
        self._engine.update_matrix(ANCHOR_MATRIX, new_anchor_matrix)
        self._apply_structure_changes(
            delta_structures, changes, invalidated_visible
        )
        return True

    def _log_fallbacks(self, cause: str, names: List[str]) -> None:
        """Count and log one update's full-recount fallbacks.

        An update that drops a *materialized* structure instead of
        delta-patching it silently converts an O(delta) refresh into a
        later O(nnz) recount; the counter (surfaced in
        :meth:`SessionStats.summary`, the ``engine`` CLI diagnostics
        and experiment runtime metadata) and the log line make that
        slow path observable.
        """
        if not names:
            return
        with self._state_lock:
            self.stats.fallback_invalidations += len(names)
        logger.info(
            "%s fell back to full recount for %d structure(s): %s",
            cause,
            len(names),
            ", ".join(names),
        )

    def _invalidate_structure(self, structure: _Structure) -> None:
        """Drop one structure's cached counts, view state and store slots.

        The partial-arena GC lives here: a structure invalidated by an
        anchor switch or a network delta also drops its dedicated fold
        slot from the arena (the counting engine already GCs its own
        memoized products on ``update_matrices``), so stale entries no
        longer accumulate until session close.
        """
        with structure.lock:
            structure.counts = None
            structure.pending.clear()
            structure.row_sums = None
            structure.col_sums = None
            structure.proximity = None
        if self.arena is not None:
            self.arena.drop(counts_slot(structure.name))
        with self._state_lock:
            for view in self._views.values():
                view.values.pop(structure.name, None)
                view.dirty.pop(structure.name, None)
                view.block = None

    def _apply_structure_delta(
        self, structure: _Structure, change: sparse.csr_matrix
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact sparse update of one structure's cached state.

        ``change`` must hold entries; returns their rows and columns.
        """
        structure.pending.append(change)
        rows = csr_rows(change)
        cols = change.indices.astype(np.int64)
        row_sums = structure.row_sums.copy()
        np.add.at(row_sums, rows, change.data)
        structure.row_sums = row_sums
        col_sums = structure.col_sums.copy()
        np.add.at(col_sums, cols, change.data)
        structure.col_sums = col_sums
        structure.proximity = None  # rebuilt lazily from updated counts
        change_keys = rows * change.shape[1] + cols
        changed_rows = np.unique(rows)
        changed_cols = np.unique(cols)
        with self._state_lock:
            for view in self._views.values():
                values = view.values.get(structure.name)
                if values is None:
                    continue
                # Patch cached count values at the delta's (few) entries:
                # inverted lookup — search the view's sorted keys for
                # each delta key, honoring duplicate candidate pairs.
                starts = np.searchsorted(view.keys_sorted, change_keys, "left")
                ends = np.searchsorted(view.keys_sorted, change_keys, "right")
                for start, end, amount in zip(starts, ends, change.data):
                    if start < end:
                        values[view.key_order[start:end]] += amount
                # Scores change wherever a row or column sum changed.
                affected = np.concatenate(
                    [
                        view.positions_of_rows(changed_rows),
                        view.positions_of_cols(changed_cols),
                    ]
                )
                if affected.size:
                    view.dirty.setdefault(structure.name, []).append(affected)
                    if view.block is not None:
                        view.block[affected, structure.column] = (
                            self._view_scores(view, structure, affected)
                        )
            self.stats.delta_updates += 1
        return rows, cols

    # ------------------------------------------------------------------
    # Network evolution
    # ------------------------------------------------------------------
    def apply_network_delta(
        self,
        delta: Optional[NetworkDelta] = None,
        side: Optional[str] = None,
        added_nodes=None,
        added_edges=(),
        updated_attributes=(),
        added_anchors=(),
        removed_nodes=None,
        removed_edges=(),
        **unknown,
    ) -> bool:
        """Mutate the pair in place and fold exact count deltas.

        Accepts either a prebuilt
        :class:`~repro.networks.aligned.NetworkDelta` or the loose
        keyword form (``side=``, ``added_nodes=``, ``added_edges=``,
        ``updated_attributes=``, ``added_anchors=``, ``removed_nodes=``,
        ``removed_edges=``) which is normalized through
        :meth:`NetworkDelta.build`.

        The update is **event-sourced**: the applied mutation record
        (inserted/removed edge positions, patched attribute cells, new
        slots) is turned directly into per-leaf sparse deltas — no
        matrix re-export, no diffing — and folded through the
        generalized delta algebra into exactly the dirty structures.
        Entries that no bag matrix reads (a relation or node type of a
        schema that extends the social one) are skipped; an attribute
        whose shared vocabulary moved a column is re-exported, and only
        its matrix pair is diffed.  New nodes append
        to the end of the index order and removed nodes leave
        *tombstoned* slots behind, so existing count entries, candidate
        views and extracted feature rows stay position-stable; only
        dirty feature columns/rows need a refresh
        (:meth:`refresh_features` / :meth:`dirty_since`).  Results are
        byte-identical to a full recount on the mutated network.

        Returns whether any matrix actually changed.  With
        ``incremental=False`` (the benchmark baseline) dirty structures
        are dropped for lazy full recounting instead — bit-identical,
        slower.
        """
        if unknown:
            raise FeatureError(
                "apply_network_delta got unknown keyword argument(s) "
                f"{sorted(unknown)}; supported: side=, added_nodes=, "
                "added_edges=, updated_attributes=, added_anchors=, "
                "removed_nodes=, removed_edges="
            )
        loose = (
            side is not None
            or added_nodes
            or added_edges
            or updated_attributes
            or added_anchors
            or removed_nodes
            or removed_edges
        )
        if delta is None:
            if side is None:
                raise FeatureError(
                    "apply_network_delta needs a NetworkDelta or side="
                )
            delta = NetworkDelta.build(
                side,
                added_nodes=added_nodes,
                added_edges=added_edges,
                updated_attributes=updated_attributes,
                added_anchors=added_anchors,
                removed_nodes=removed_nodes,
                removed_edges=removed_edges,
            )
        elif loose:
            raise FeatureError(
                "pass either a delta or the loose keyword form, not both"
            )
        with self._phase("session.apply_network_delta", side=delta.side) as span:
            # A removed user may carry a *known* anchor; its matrix cell
            # must be captured before the tombstone erases the position
            # lookup.
            dead_anchors, anchor_cells = self._known_anchor_removals(delta)
            application = self.pair.apply_delta(delta)  # validates first
            self._evolution_log.append(delta)
            self._applied_evolution += 1
            if dead_anchors:
                self._anchors.difference_update(dead_anchors)
            if (
                application.removed_edges
                or application.removed_nodes
                or application.removed_attribute_cells
                or dead_anchors
            ):
                with self._state_lock:
                    self.stats.removal_updates += 1
            changed = self._fold_application(application, anchor_cells)
            if (
                self.compact_every is not None
                and len(self._evolution_log) >= self.compact_every
            ):
                changed = self.compact() or changed
            span.annotate(changed=changed)
            return changed

    def _known_anchor_removals(
        self, delta: NetworkDelta
    ) -> Tuple[List[LinkPair], List[Tuple[int, int]]]:
        """Known anchors that a delta's user removals take down.

        Returns the dead anchor pairs plus their ``(row, col)`` cells in
        the known-anchor matrix, resolved *before* the pair mutates —
        tombstoning removes the user from the position index.
        """
        if not delta.removed_nodes or not self._anchors:
            return [], []
        user_type = self.pair.anchor_node_type
        removed_users = {
            node_id
            for node_type, ids in delta.removed_nodes
            if node_type == user_type
            for node_id in ids
        }
        if not removed_users:
            return [], []
        endpoint = 0 if delta.side == "left" else 1
        dead: List[LinkPair] = []
        cells: List[Tuple[int, int]] = []
        for known in self._anchors:
            if known[endpoint] not in removed_users:
                continue
            dead.append(known)
            cells.append(
                (
                    self.pair.left.node_position(user_type, known[0]),
                    self.pair.right.node_position(user_type, known[1]),
                )
            )
        return dead, cells

    def _fold_application(
        self,
        application: DeltaApplication,
        anchor_cells: Sequence[Tuple[int, int]],
    ) -> bool:
        """Fold one applied event into the engine's leaves and counts."""
        changed = self._fold_event(
            *self._event_leaf_deltas(application, anchor_cells)
        )
        if self.strict_deltas:
            self._verify_event_fold()
        return changed

    def _event_leaf_deltas(
        self,
        application: DeltaApplication,
        anchor_cells: Sequence[Tuple[int, int]],
    ) -> Tuple[Dict, Dict, Dict, Dict]:
        """Per-leaf sparse deltas built straight from the event record.

        Returns ``(deltas, exports, shapes, vocabularies)``: the nonzero
        leaf deltas, the leaves re-exported whole, the post-event shape
        of every bag matrix, and the shared vocabularies to commit after
        the fold.

        An entry on a relation, attribute or node type that no exported
        matrix reads is skipped; every other entry finds its leaf with
        one dict lookup.  The exception is an attribute the cached
        column index cannot place: a new value moved an existing
        shared-vocabulary column (a value new to the left network lands
        before the right-only ones), or the index lacks one of the
        event's values.  That attribute's pair is re-exported, and its
        deltas are the new export minus the padded old matrix.
        """
        pair = self.pair
        side = application.side
        edge_leaves = self._edge_leaves[side]
        grown = {attribute for attribute, _value in application.new_vocabulary}
        vocabularies: Dict[str, List] = {}
        # attribute -> (leaf, value -> column) for this side's cells.
        places: Dict[str, Tuple[str, Dict]] = {}
        reexport: List[str] = []
        for attribute, leaves in self._attribute_leaves.items():
            if attribute not in grown:
                index = self._shared_vocab_index[attribute]
            else:
                cached = self._shared_vocab[attribute]
                shared = vocabularies[attribute] = pair.shared_vocabulary(
                    attribute
                )
                if shared[: len(cached)] != cached:
                    reexport.append(attribute)  # column reordering
                    continue
                index = {value: column for column, value in enumerate(shared)}
            places[attribute] = (leaves[side], index)

        entries: Dict[str, Tuple[List[int], List[int], List[float]]] = {}

        def add(name: str, row: int, col: int, value: float) -> None:
            rows, cols, values = entries.setdefault(name, ([], [], []))
            rows.append(row)
            cols.append(col)
            values.append(value)

        for sign, edges in (
            (1.0, application.inserted_edges),
            (-1.0, application.removed_edges),
        ):
            for relation, source, target in edges:
                name = edge_leaves.get(relation)
                if name is not None:
                    add(name, source, target, sign)
        for sign, cells in (
            (1.0, application.new_attribute_cells),
            (-1.0, application.removed_attribute_cells),
        ):
            for attribute, slot, value in cells:
                place = places.get(attribute)
                if place is None:
                    continue  # not exported, or re-exported whole
                name, index = place
                column = index.get(value)
                if column is None:
                    reexport.append(attribute)
                    del places[attribute]
                    entries.pop(name, None)
                else:
                    add(name, slot, column, sign)
        for row, col in anchor_cells:
            add(ANCHOR_MATRIX, row, col, -1.0)

        exports: Dict[str, sparse.csr_matrix] = {}
        for attribute in reexport:
            vocabularies[attribute] = pair.shared_vocabulary(attribute)
            leaves = self._attribute_leaves[attribute]
            exports[leaves["left"]], exports[leaves["right"]] = (
                pair.attribute_matrices(attribute)
            )
        sizes = {
            attribute: len(vocabularies.get(attribute, values))
            for attribute, values in self._shared_vocab.items()
        }
        shapes = bag_shapes(pair, sizes, self._include_word_matrices)
        deltas: Dict[str, sparse.csr_matrix] = {}
        for name, (rows, cols, values) in entries.items():
            leaf_delta = entries_to_csr(rows, cols, values, shapes[name])
            if leaf_delta.nnz:
                deltas[name] = leaf_delta
        for name, new in exports.items():
            diff = (new - pad_csr(self._engine.matrix(name), new.shape)).tocsr()
            diff.eliminate_zeros()
            if diff.nnz:
                deltas[name] = diff
        return deltas, exports, shapes, vocabularies

    def _fold_event(
        self,
        deltas: Dict[str, sparse.csr_matrix],
        exports: Dict[str, sparse.csr_matrix],
        shapes: Dict[str, Tuple[int, int]],
        vocabularies: Dict[str, List],
    ) -> bool:
        """Fold event-sourced leaf deltas: delta-evaluate the dirty
        structures, update the engine, patch the session's state."""
        changed: Dict[str, sparse.csr_matrix] = {}
        for name, shape in shapes.items():
            old = self._engine.matrix(name)
            leaf_delta = deltas.get(name)
            if leaf_delta is None and old.shape == shape:
                continue  # untouched leaf: keep the engine's matrix as is
            new = exports.get(name)
            if new is None:
                new = pad_csr(old, shape)
                if leaf_delta is not None:
                    new = apply_delta(new, leaf_delta)
            changed[name] = new
        self._commit_vocabularies(vocabularies)
        if not changed:
            return False
        self.stats.network_updates += 1
        counts_shape = (
            self.pair.left.slot_count(self.pair.anchor_node_type),
            self.pair.right.slot_count(self.pair.anchor_node_type),
        )
        n_right_grew = (
            counts_shape[1] != self._engine.matrix(ANCHOR_MATRIX).shape[1]
        )

        delta_names = frozenset(deltas)
        evaluator: Optional[DeltaEvaluator] = None
        if deltas and self.incremental:
            evaluator = DeltaEvaluator(self._engine, deltas, shapes=shapes)

        delta_structures: List[_Structure] = []
        invalidated: List[_Structure] = []
        for structure in self._structures:
            if not structure.expr.depends_on(delta_names):
                continue  # pad-only growth; counts provably unchanged
            if (
                evaluator is not None
                and structure.delta_capable
                and structure.counts is not None
            ):
                delta_structures.append(structure)
            else:
                invalidated.append(structure)
        # Delta expressions read the engine's *old* cached values, so
        # they are evaluated (eagerly, fanned across the executor)
        # before the engine sees the new matrices.
        changes = (
            self.executor.map(
                lambda structure: evaluator.evaluate(structure.expr),
                delta_structures,
            )
            if delta_structures
            else []
        )
        # The telescoping produced the exact change of every dirty
        # sub-expression; register them as pending seeds (no O(nnz)
        # folds — lookups are served component-wise) and preserve the
        # seeded keys through the matrix update, so the next event (or
        # extraction) never recounts the expensive products a naive
        # invalidation would drop.
        preserve = []
        if evaluator is not None:
            for expr, change in evaluator.updated_changes():
                if self._engine.seed_change(expr, change):
                    preserve.append(expr.key())
        self._engine.update_matrices(changed, preserve=preserve)
        if n_right_grew:
            self._rebind_view_keys()
        for structure in self._structures:
            self._pad_structure(structure, counts_shape)
        fallbacks = [
            structure.name
            for structure in invalidated
            if structure.counts is not None
        ]
        invalidated_visible = bool(fallbacks)
        for structure in invalidated:
            self._invalidate_structure(structure)
        self._log_fallbacks("network delta", fallbacks)
        self._apply_structure_changes(
            delta_structures, changes, invalidated_visible
        )
        return True

    def _verify_event_fold(self) -> None:
        """``strict_deltas``: prove the folded leaves match a fresh export."""
        bag = build_matrix_bag(
            self.pair,
            known_anchors=self._anchors,
            include_words=self._include_word_matrices,
        )
        for name, expected in bag.items():
            expected = expected.tocsr()
            actual = self._engine.matrix(name)
            if expected.shape != actual.shape:
                raise FeatureError(
                    f"strict delta verification failed: {name!r} has shape "
                    f"{actual.shape}, a fresh export has {expected.shape}"
                )
            difference = (expected - actual).tocsr()
            difference.eliminate_zeros()
            if difference.nnz:
                raise FeatureError(
                    f"strict delta verification failed: {name!r} differs "
                    f"from a fresh export at {difference.nnz} entries"
                )

    def _export_bag(self) -> MatrixBag:
        """Export the whole bag and re-sync the shared-vocabulary cache."""
        self._commit_vocabularies(
            {
                attribute: self.pair.shared_vocabulary(attribute)
                for attribute in self._attribute_leaves
            }
        )
        return build_matrix_bag(
            self.pair,
            known_anchors=self._anchors,
            include_words=self._include_word_matrices,
        )

    def _commit_vocabularies(self, vocabularies: Dict[str, List]) -> None:
        """Point the vocabulary cache at the engine's new columns."""
        for attribute, values in vocabularies.items():
            self._shared_vocab[attribute] = values
            self._shared_vocab_index[attribute] = {
                value: column for column, value in enumerate(values)
            }

    def compact(self) -> bool:
        """Rewrite live slots without tombstones and truncate the log.

        Long-drift maintenance: a session that keeps removing nodes
        accumulates tombstoned (all-zero) slots in every matrix and an
        ever-growing evolution log.  Compaction

        * drops tombstoned slots from both networks (live nodes keep
          their relative order),
        * slices every materialized count matrix and its sums down to
          the live rows/columns (exact — dead slots hold only zeros),
        * re-exports the engine's leaf matrices at the compact shapes,
        * truncates the evolution log into a new **snapshot epoch**:
          the compacted pair is deep-copied and later state dicts carry
          ``(epoch, snapshot)`` so checkpoint resume replays post-
          compaction events from the snapshot, and
        * vacuums the matrix arena (when one is attached), dropping
          orphaned spill files so the on-disk footprint shrinks too.

        Candidate views and dirty-region logs are cleared — positions
        shift, so everything derived from the old coordinates is
        conservatively marked dirty.  Returns whether anything was
        rewritten (``False`` for a tombstone-free session with an empty
        evolution log).
        """
        user_type = self.pair.anchor_node_type
        has_tombstones = any(
            network.tombstone_count(node_type)
            for network in (self.pair.left, self.pair.right)
            for node_type in network.schema.node_types
        )
        if not has_tombstones and not self._evolution_log:
            return False
        # Fold pending deltas first: the slice below must see final
        # counts, and only materialized structures have state to keep.
        for structure in self._structures:
            if structure.counts is not None:
                self._ensure_counts(structure)
        kept = self.pair.compact()
        left_kept = kept["left"].get(user_type)
        right_kept = kept["right"].get(user_type)
        if left_kept is not None or right_kept is not None:
            for structure in self._structures:
                with structure.lock:
                    if structure.counts is None:
                        continue
                    counts = structure.counts
                    if left_kept is not None:
                        counts = counts[left_kept]
                        structure.row_sums = np.array(
                            structure.row_sums[left_kept]
                        )
                    if right_kept is not None:
                        counts = counts[:, right_kept]
                        structure.col_sums = np.array(
                            structure.col_sums[right_kept]
                        )
                    counts = counts.tocsr()
                    counts.sort_indices()
                    structure.counts = self._publish_counts(structure, counts)
                    structure.proximity = None
        # Every leaf shifted positions: rebuild the whole bag and drop
        # the engine's memoized products (their indices are stale).
        self._engine.update_matrices(self._export_bag())
        with self._state_lock:
            self._views.clear()
            self._delta_log.clear()
            self.stats.compactions += 1
        self._record_dirty(everything=True)
        self._compaction_epoch += 1
        self._pair_snapshot = copy.deepcopy(self.pair)
        self._evolution_log = []
        self._applied_evolution = 0
        if self.arena is not None:
            self.arena.vacuum()
        self._release_store_pages()
        return True

    @property
    def compaction_epoch(self) -> int:
        """How many times :meth:`compact` has rewritten this session."""
        return self._compaction_epoch

    def _apply_structure_changes(
        self,
        delta_structures: List[_Structure],
        changes: List[sparse.csr_matrix],
        invalidated_visible: bool,
    ) -> None:
        """Fold evaluated deltas into session state and log the dirt.

        Shared tail of :meth:`set_anchors` and :meth:`_fold_event`:
        applies each change serially in family order, collects the
        touched rows/columns, and records one dirty-region event (or an
        everything-dirty marker when a structure invalidation made the
        region unbounded).
        """
        if delta_structures:
            dirty_rows: List[np.ndarray] = []
            dirty_cols: List[np.ndarray] = []
            for structure, change in zip(delta_structures, changes):
                if change.nnz:
                    rows, cols = self._apply_structure_delta(structure, change)
                    dirty_rows.append(rows)
                    dirty_cols.append(cols)
            if invalidated_visible:
                self._record_dirty(everything=True)
            else:
                self._record_dirty(
                    rows=np.concatenate(dirty_rows) if dirty_rows else (),
                    cols=np.concatenate(dirty_cols) if dirty_cols else (),
                )
        elif invalidated_visible:
            self._record_dirty(everything=True)
        self._release_store_pages()

    def _pad_structure(
        self, structure: _Structure, shape: Tuple[int, int]
    ) -> None:
        """Grow one structure's cached state to a larger |U1| x |U2|."""
        with structure.lock:
            if structure.counts is None or structure.counts.shape == shape:
                return
            structure.counts = pad_csr(structure.counts, shape)
            structure.row_sums = np.concatenate(
                [
                    structure.row_sums,
                    np.zeros(
                        shape[0] - structure.row_sums.shape[0],
                        dtype=structure.row_sums.dtype,
                    ),
                ]
            )
            structure.col_sums = np.concatenate(
                [
                    structure.col_sums,
                    np.zeros(
                        shape[1] - structure.col_sums.shape[0],
                        dtype=structure.col_sums.dtype,
                    ),
                ]
            )
            structure.proximity = None

    def _rebind_view_keys(self) -> None:
        """Recompute cached views' linearized keys after |U2| grew.

        Query keys are row-major ``i * |U2| + j``, so a new right-side
        user count changes every key — but not the per-position cached
        *values*, which stay valid and keep their delta patches.
        """
        n_right = self.pair.right.slot_count(self.pair.anchor_node_type)
        with self._state_lock:
            for view in self._views.values():
                keys = (
                    view.left_indices.astype(np.int64) * n_right
                    + view.right_indices
                )
                view.key_order = np.argsort(keys, kind="stable")
                view.keys_sorted = keys[view.key_order]

    # ------------------------------------------------------------------
    # Candidate views
    # ------------------------------------------------------------------
    def _view_for(self, pairs: Sequence[LinkPair]) -> _CandidateView:
        """Resolve (and cache) the index arrays of a candidate list.

        Views are keyed by list identity: the active loop refreshes the
        same ``task.pairs`` object every round, so the pair-to-index
        resolution and the per-structure count values are computed once
        and then delta-patched.
        """
        with self._state_lock:
            view = self._views.get(id(pairs))
            if view is not None and view.pairs is pairs:
                # LRU touch: keep hot views (the active loop's task list)
                # safe from eviction by bursts of streamed block extracts.
                self._views.pop(id(pairs))
                self._views[id(pairs)] = view
                return view
        left_indices, right_indices = self.pair.pairs_to_indices(pairs)
        n_right = self.pair.right.slot_count(self.pair.anchor_node_type)
        keys = left_indices.astype(np.int64) * n_right + right_indices
        key_order = np.argsort(keys, kind="stable")
        left_order = np.argsort(left_indices, kind="stable")
        right_order = np.argsort(right_indices, kind="stable")
        view = _CandidateView(
            pairs=pairs,
            left_indices=left_indices,
            right_indices=right_indices,
            key_order=key_order,
            keys_sorted=keys[key_order],
            left_order=left_order,
            left_sorted=left_indices[left_order],
            right_order=right_order,
            right_sorted=right_indices[right_order],
        )
        # Bound the cache: streamed extraction passes short-lived block
        # lists that would otherwise accumulate (dicts preserve insertion
        # order, so eviction drops the oldest view first).
        with self._state_lock:
            existing = self._views.get(id(pairs))
            if existing is not None and existing.pairs is pairs:
                return existing
            while len(self._views) >= self.view_cache_size:
                self._views.pop(next(iter(self._views)))
            self._views[id(pairs)] = view
        return view

    def _view_values(
        self, view: _CandidateView, structure: _Structure
    ) -> np.ndarray:
        """Count values of one structure at the view's positions."""
        values = view.values.get(structure.name)
        if values is None:
            self._ensure_counts(structure)
            values = csr_values_at(
                structure.counts, view.left_indices, view.right_indices
            )
            view.values[structure.name] = values
        return values

    def _view_scores(
        self,
        view: _CandidateView,
        structure: _Structure,
        positions: Union[slice, np.ndarray] = slice(None),
    ) -> np.ndarray:
        """Dice proximity scores of one structure at (some of) the view's
        positions.

        ``_view_values`` guarantees counts and sums exist; afterwards the
        sums are maintained by the delta path without folding pending
        changes into the count matrix.  Scores are elementwise, so any
        subset of positions gets the bytes a whole column would hold.
        """
        values = self._view_values(view, structure)[positions]
        denominators = (
            structure.row_sums[view.left_indices[positions]]
            + structure.col_sums[view.right_indices[positions]]
        )
        return dice_scores(values, denominators)

    # ------------------------------------------------------------------
    # Feature extraction
    # ------------------------------------------------------------------
    def extract(self, pairs: Sequence[LinkPair]) -> np.ndarray:
        """Feature matrix ``X`` of shape ``(len(pairs), n_features)``.

        Per-structure score columns are independent, so they fan out
        across the session's executor; stacking in family order keeps
        the result byte-identical to a serial extraction.

        A list extracted again (the same object, as with views) keeps
        its matrix as its view's feature block from that second call
        on; every delta patches the block at the positions whose scores
        moved, and later calls return a copy, which callers may mutate.
        """
        with self._state_lock:
            self.stats.extract_calls += 1
        if not pairs:
            return np.zeros((0, self.n_features), dtype=np.float64)
        view = self._view_for(pairs)
        if view.block is not None:
            return view.block.copy()
        columns = self.executor.map(
            lambda structure: self._view_scores(view, structure),
            self._structures,
        )
        if self.include_bias:
            columns.append(np.ones(len(pairs), dtype=np.float64))
        X = np.column_stack(columns)
        if not view.extracted:
            view.extracted = True
            return X
        view.block = X
        return X.copy()

    def extract_single(self, pair: LinkPair) -> np.ndarray:
        """Feature vector for one candidate link."""
        return self.extract([pair])[0]

    def gather(
        self, left_indices: np.ndarray, right_indices: np.ndarray
    ) -> np.ndarray:
        """Feature rows at slot positions, in one kernel call.

        The full-space sweep's gather: positions come straight from a
        :class:`~repro.engine.candidates.CandidateGenerator` block, so
        there is no id resolution and no cached view — one
        :func:`~repro.meta.proximity.proximity_block` call covers every
        structure.  Byte-identical to :meth:`extract` on the pairs at
        those positions.
        """
        for structure in self._structures:
            self._ensure_counts(structure)
        return proximity_block(
            left_indices,
            right_indices,
            [
                (structure.counts, structure.row_sums, structure.col_sums)
                for structure in self._structures
            ],
            self.include_bias,
        )

    def refresh_features(
        self, X: np.ndarray, pairs: Sequence[LinkPair]
    ) -> np.ndarray:
        """Rewrite the dirty proximity columns of ``X`` in place.

        ``X`` must be a matrix previously extracted by this session for
        the same ``pairs`` (row order included).  Only the columns whose
        structures an update actually touched are recomputed — anchor
        updates dirty the anchor-dependent columns, network deltas dirty
        exactly the columns their changed matrices propagate to — and
        whenever the update took the sparse path the rewrite covers only
        the delta-patched positions.  The bias column and clean columns
        are never written.  Returns ``X`` for chaining.
        """
        expected = (len(pairs), self.n_features)
        if X.shape != expected:
            raise FeatureError(
                f"feature matrix shape {X.shape} does not match {expected}"
            )
        if not pairs:
            return X
        view = self._view_for(pairs)

        def compute(column: int):
            """(column, positions, scores) update, or None if current."""
            structure = self._structures[column]
            dirty = view.dirty.get(structure.name)
            if structure.name in view.values and dirty is not None:
                # Only the positions touching a changed row/column sum
                # can have changed scores; rewrite exactly those.
                positions = np.unique(np.concatenate(dirty))
                return (
                    column,
                    positions,
                    self._view_scores(view, structure, positions),
                )
            if structure.name in view.values:
                # No delta touched this structure since the last refresh;
                # the column is already current.
                return None
            return column, None, self._view_scores(view, structure)

        # Score recomputation fans out across the executor; the in-place
        # writes stay serial in column order (deterministic, and X is
        # never touched from worker threads).  Every structure column is
        # *checked*; clean ones (cached values, no dirty positions) cost
        # a dictionary probe and are never written.
        structure_columns = range(len(self._structures))
        for update in self.executor.map(compute, structure_columns):
            if update is None:
                continue
            column, positions, scores = update
            view.dirty.pop(self._structures[column].name, None)
            if positions is None:
                X[:, column] = scores
            else:
                X[positions, column] = scores
            self.stats.columns_refreshed += 1
        return X

    # ------------------------------------------------------------------
    def structure_counts(self) -> Dict[str, sparse.csr_matrix]:
        """name -> sparse count matrix for every structure (evaluated)."""
        for structure in self._structures:
            self._ensure_counts(structure)
        return {
            structure.name: structure.counts for structure in self._structures
        }

    # ------------------------------------------------------------------
    # Disk-backed store
    # ------------------------------------------------------------------
    @property
    def store_dir(self) -> Optional[Path]:
        """Directory of the session's matrix store, or ``None``."""
        return self.arena.store_dir if self.arena is not None else None

    # ------------------------------------------------------------------
    # Checkpointable state
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        """Picklable snapshot of all anchor- and network-derived state.

        Captures the known anchor set, every structure's folded counts,
        row/column sums and still-pending deltas, the work counters,
        and the **evolution log** — every network delta applied through
        this session, so a restore replays the same growth onto a
        freshly built pair byte-identically.  Candidate views are *not*
        captured: they are derived caches, rebuilt bit-exactly from
        counts on demand.  Restoring the snapshot with
        :meth:`load_state_dict` makes the session byte-indistinguishable
        from one that reached the same anchor set and network state
        live — the foundation of checkpoint/resume determinism.
        """
        structures = {}
        for structure in self._structures:
            with structure.lock:
                structures[structure.name] = {
                    "counts": (
                        sparse.csr_matrix(structure.counts, copy=True)
                        if structure.counts is not None
                        else None
                    ),
                    "row_sums": (
                        np.array(structure.row_sums)
                        if structure.row_sums is not None
                        else None
                    ),
                    "col_sums": (
                        np.array(structure.col_sums)
                        if structure.col_sums is not None
                        else None
                    ),
                    "pending": [
                        sparse.csr_matrix(
                            pad_csr(change, structure.counts.shape), copy=True
                        )
                        for change in structure.pending
                    ],
                }
        return {
            "format_version": _STATE_FORMAT_VERSION,
            "anchors": set(self._anchors),
            "structures": structures,
            "stats": self.stats.as_dict(),
            "evolution": list(self._evolution_log),
            # The snapshot epoch: the evolution list above replays on
            # top of pair_snapshot (when epoch > 0), not on the
            # construction-time pair.  The snapshot object is shared,
            # never mutated — compact() always installs a fresh copy.
            "compaction_epoch": self._compaction_epoch,
            "pair_snapshot": self._pair_snapshot,
        }

    def load_state_dict(self, state: Dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this session.

        The session must be over the same family and the same pair *as
        it was at session construction* (structure names are verified;
        anchor endpoints are validated against the pair).  A snapshot
        carrying evolution events the session has not applied yet
        replays them onto the pair first, so restoring onto a freshly
        built (pre-evolution) pair reconstructs the grown network
        byte-identically.  Views are dropped and rebuilt lazily; the
        counting engine's matrices are replaced so later full
        evaluations agree with the restored state.
        """
        version = state.get("format_version")
        if version not in _LOADABLE_STATE_VERSIONS:
            raise StoreError(
                f"unsupported session state format version {version!r}"
            )
        expected = {structure.name for structure in self._structures}
        found = set(state["structures"])
        if found != expected:
            raise StoreError(
                "session state structures do not match this session's "
                f"family (missing {sorted(expected - found)}, "
                f"unexpected {sorted(found - expected)})"
            )
        evolution = list(state.get("evolution", ()))
        state_epoch = state.get("compaction_epoch", 0)
        if state_epoch < self._compaction_epoch:
            raise StoreError(
                f"snapshot is from compaction epoch {state_epoch} but this "
                f"session already compacted {self._compaction_epoch} "
                "time(s); pre-compaction state cannot be restored in place"
            )
        if state_epoch > self._compaction_epoch:
            # The snapshot is from a later compaction epoch: the live
            # pair's slot coordinates no longer match.  Adopt a pristine
            # copy of the compacted pair and replay the truncated log
            # from there — byte-identical to the session that compacted.
            snapshot = state.get("pair_snapshot")
            if snapshot is None:
                raise StoreError(
                    "snapshot from a later compaction epoch carries no "
                    "pair snapshot to restore from"
                )
            pristine = copy.deepcopy(snapshot)
            self.pair = pristine
            self._pair_snapshot = snapshot
            self._compaction_epoch = state_epoch
            for delta in evolution:
                self.pair.apply_delta(delta)
            replayed = True
        else:
            if len(evolution) < self._applied_evolution:
                raise StoreError(
                    f"snapshot carries {len(evolution)} evolution events "
                    f"but this session already applied "
                    f"{self._applied_evolution}"
                )
            for delta in evolution[self._applied_evolution:]:
                self.pair.apply_delta(delta)
            replayed = len(evolution) > self._applied_evolution
            if state_epoch and self._pair_snapshot is None:
                self._pair_snapshot = state.get("pair_snapshot")
        self._evolution_log = evolution
        self._applied_evolution = len(evolution)
        anchors = set(state["anchors"])
        # Validates every anchor endpoint before any count-state changes.
        anchor_matrix = self.pair.anchor_matrix(anchors)
        self._anchors = anchors
        if replayed:
            # The replay grew the pair's matrices: refresh the whole bag
            # (cheap O(nnz) exports; counts come from the snapshot).
            self._engine.update_matrices(self._export_bag())
        else:
            self._engine.update_matrix(ANCHOR_MATRIX, anchor_matrix)
        with self._state_lock:
            self._views.clear()
        for structure in self._structures:
            snapshot = state["structures"][structure.name]
            with structure.lock:
                structure.counts = snapshot["counts"]
                structure.row_sums = snapshot["row_sums"]
                structure.col_sums = snapshot["col_sums"]
                structure.pending = list(snapshot["pending"])
                structure.proximity = None
        self.stats = SessionStats(registry=self.metrics, **state["stats"])
        # Anything derived from this session before the restore is
        # unverifiable now; downstream caches must rebuild.
        self._record_dirty(everything=True)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release owned resources (idempotent).

        Closes the executor when the session built it from a ``workers``
        count (a shared :class:`~repro.engine.parallel.Executor` is the
        caller's to close) and the arena when built from a ``store``
        path.  Spilled matrices stay on disk.
        """
        if self._owns_executor:
            self.executor.close()
        if self.arena is not None and self._owns_arena:
            self.arena.close()

    def __enter__(self) -> "AlignmentSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AlignmentSession(pair={self.pair!r}, "
            f"structures={len(self._structures)}, "
            f"anchors={len(self._anchors)}, incremental={self.incremental})"
        )

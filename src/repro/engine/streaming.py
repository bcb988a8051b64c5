"""Streamed alignment tasks: the fit path without the |H| x d matrix.

An :class:`~repro.core.base.AlignmentTask` freezes the candidate space H
together with its dense feature matrix ``X`` — fine for sampled tasks,
prohibitive when H approaches the |U1| x |U2| cross product.
:class:`StreamedAlignmentTask` is the block-streamed analog: it keeps
the candidate list and the labeled indices, but features are
(re-)extracted block by block from the owning
:class:`~repro.engine.session.AlignmentSession` on every pass, and the
only dense objects ever produced are

* the d x d (weighted) Gram matrix ``XᵀΩX`` and d-vectors ``Xᵀt``
  accumulated for the closed-form ridge step,
* training-row gathers sized by the *label* budget (the streamed SVM
  backend's working set — see :meth:`StreamedAlignmentTask.labeled_rows`
  and :mod:`repro.ml.backends`), and
* per-candidate *vectors* over H (scores, labels) that the alternating
  loop needs anyway.

The full ``|H| x d`` matrix is never allocated; peak feature memory is
``block_size x d`` per in-flight block (times the executor window when
extraction fans out across threads).  All block passes merge results in
stream order, so a threaded run is byte-identical to a serial one.

Two distinct exactness guarantees apply.  *Threaded vs serial* is
bit-exact by construction (identical operations in identical order).
*Streamed vs materialized* is bit-exact only in the single-block case,
where the accumulated Gram/rhs reduce to the very same dense products;
with several blocks the partial-sum order differs from one dense BLAS
product, so weights agree to rounding error and the equality of query
sets and labels — asserted throughout the test suite — holds because
both paths are deterministic and candidate scores are never within an
ulp of a decision boundary on real count features, not as an algebraic
identity.

:meth:`StreamedAlignmentTask.scored_blocks` re-slices whole-of-H score
and label vectors into :class:`~repro.active.strategies.ScoredBlock`
records for the streamed query strategies — no extraction involved.
"""

from __future__ import annotations

import logging
import time
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.active.strategies import ScoredBlock
from repro.engine.candidates import BlockDescriptor, CandidateGenerator
from repro.engine.session import AlignmentSession
from repro.exceptions import ModelError
from repro.ml.backends import gather_rows
from repro.types import LinkPair

logger = logging.getLogger(__name__)

#: A block of candidate pairs of a streamed task.
CandidateBlock = List[LinkPair]

#: Sentinel accepted by the ``block_size`` knobs: measure throughput and
#: pick a size instead of using a fixed number.
AUTO_BLOCK_SIZE = "auto"

#: What a ``block_size`` knob accepts: a fixed size or ``"auto"``.
BlockSizeSpec = Union[int, str]

# Auto-tune envelope: blocks small enough to keep peak feature memory
# modest and pipelines responsive, large enough to amortize per-block
# lookup overhead.
_AUTO_MIN_BLOCK = 256
_AUTO_MAX_BLOCK = 65536
_AUTO_PROBE_SIZE = 512
_AUTO_TARGET_SECONDS = 0.2


def blockify(
    pairs: Sequence[LinkPair], block_size: int
) -> List[CandidateBlock]:
    """Chop a candidate list into generator-style blocks.

    A list shorter than ``block_size`` yields exactly one block; an
    empty list yields an empty stream — the partition of
    :meth:`CandidateGenerator.blocks`.
    """
    if block_size < 1:
        raise ModelError("block_size must be >= 1")
    return [
        list(pairs[start: start + block_size])
        for start in range(0, len(pairs), block_size)
    ]


def tune_block_size(
    session: AlignmentSession,
    pairs: Sequence[LinkPair],
    target_seconds: float = _AUTO_TARGET_SECONDS,
    probe_size: int = _AUTO_PROBE_SIZE,
) -> int:
    """Measured-throughput block sizing for streamed tasks.

    Extracts one probe block through the session, measures pairs/second
    and returns the size that makes a block pass take about
    ``target_seconds``, clamped to ``[256, 65536]``.  The measurement
    replaces the fixed ``block_size`` knob when callers pass
    ``"auto"``: slow feature families (many structures, dense counts)
    get small responsive blocks, fast ones get large blocks that
    amortize per-block lookup overhead.

    The probe is a real extraction, so its cost is not wasted — the
    session's count matrices are materialized exactly once either way.
    Note the size depends on measured wall-clock: two hosts may chop
    the same task differently (query sets still agree — the streamed
    strategies select identically for any block partition).
    """
    if not pairs:
        return _AUTO_MIN_BLOCK
    probe = list(pairs[: min(int(probe_size), len(pairs))])
    started = time.perf_counter()
    session.extract(probe)
    elapsed = max(time.perf_counter() - started, 1e-9)
    rate = len(probe) / elapsed
    return int(min(_AUTO_MAX_BLOCK, max(_AUTO_MIN_BLOCK, rate * target_seconds)))


def resolve_block_size(
    session: AlignmentSession,
    pairs: Sequence[LinkPair],
    block_size: BlockSizeSpec,
) -> int:
    """Turn a ``block_size`` knob (int or ``"auto"``) into a number."""
    if block_size == AUTO_BLOCK_SIZE:
        return tune_block_size(session, pairs)
    if not isinstance(block_size, int):
        raise ModelError(
            f"block_size must be an integer or {AUTO_BLOCK_SIZE!r}, "
            f"got {block_size!r}"
        )
    return block_size


class StreamedAlignmentTask:
    """One alignment problem instance streamed in feature-space blocks.

    Parameters
    ----------
    session:
        The alignment session features are extracted from.  Its
        executor drives every block pass, and its anchor set is read at
        extraction time — so a refresh between query rounds is just
        ``session.set_anchors``; the next pass sees the new features.
    blocks:
        Candidate pair blocks (e.g. from :func:`blockify`).  Block
        objects are kept alive so the session's view cache can serve
        repeated passes.
    labeled_indices, labeled_values:
        Known-label positions in the concatenated candidate order and
        their 0/1 values, exactly as on ``AlignmentTask``.
    """

    def __init__(
        self,
        session: AlignmentSession,
        blocks: Iterable[CandidateBlock],
        labeled_indices: np.ndarray,
        labeled_values: np.ndarray,
    ) -> None:
        self.session = session
        self.blocks: List[CandidateBlock] = [
            list(block) for block in blocks if len(block)
        ]
        self.pairs: List[LinkPair] = [
            pair for block in self.blocks for pair in block
        ]
        if not self.pairs:
            raise ModelError("no candidate links supplied")
        self.offsets: List[int] = []
        offset = 0
        for block in self.blocks:
            self.offsets.append(offset)
            offset += len(block)

        self.labeled_indices = np.asarray(labeled_indices, dtype=np.int64)
        self.labeled_values = np.asarray(labeled_values, dtype=np.int64)
        if self.labeled_indices.shape != self.labeled_values.shape:
            raise ModelError("labeled indices/values must align")
        if self.labeled_indices.size:
            if (
                self.labeled_indices.min() < 0
                or self.labeled_indices.max() >= len(self.pairs)
            ):
                raise ModelError("labeled index out of range")
            if np.bincount(self.labeled_indices).max() > 1:
                raise ModelError("labeled indices contain duplicates")
        values = self.labeled_values
        bad = values[(values != 0) & (values != 1)]
        if bad.size:
            raise ModelError(f"labels must be 0/1, got {np.unique(bad).tolist()}")
        self._pair_index: Optional[dict] = None
        self._descriptors: Optional[List[BlockDescriptor]] = None
        #: Block size the task was built with (set by :meth:`from_pairs`;
        #: ``None`` when blocks came from a generator or explicit list).
        self.block_size: Optional[int] = None
        #: Re-probe the auto block size every N block passes (set by
        #: :meth:`from_pairs`; ``None`` keeps the construction-time size).
        self.retune_every: Optional[int] = None
        #: Times the auto size was re-probed and the stream re-chopped.
        self.retunes: int = 0
        self._passes_since_tune = 0
        # Last whole-of-H score vector: (weights, scores, session delta
        # epoch).  A rescore under identical weights re-extracts only
        # the blocks the session marked dirty since the epoch.
        self._score_cache: Optional[
            Tuple[np.ndarray, np.ndarray, int]
        ] = None
        #: Rescore telemetry: full passes, dirty-block-only passes, and
        #: how many blocks the partial passes actually re-extracted.
        self.full_score_passes = 0
        self.partial_score_passes = 0
        self.blocks_rescored = 0

    # ------------------------------------------------------------------
    # AlignmentTask-compatible surface (what models and the alternating
    # state read; X is deliberately absent).
    # ------------------------------------------------------------------
    @property
    def n_candidates(self) -> int:
        """|H| — number of candidate links."""
        return len(self.pairs)

    @property
    def n_features(self) -> int:
        """Feature dimensionality d (from the session)."""
        return self.session.n_features

    @property
    def n_blocks(self) -> int:
        """Number of streamed blocks."""
        return len(self.blocks)

    @property
    def unlabeled_mask(self) -> np.ndarray:
        """Boolean mask of candidates without a known label."""
        mask = np.ones(self.n_candidates, dtype=bool)
        mask[self.labeled_indices] = False
        return mask

    def index_of(self, pair: LinkPair) -> int:
        """Index of a candidate pair (built lazily, cached)."""
        if self._pair_index is None:
            self._pair_index = {
                pair_: i for i, pair_ in enumerate(self.pairs)
            }
        try:
            return self._pair_index[pair]
        except KeyError:
            raise ModelError(f"pair {pair!r} is not a candidate") from None

    # ------------------------------------------------------------------
    # Block passes
    # ------------------------------------------------------------------
    def _block_descriptors(self) -> List[BlockDescriptor]:
        """Index-form descriptors of the blocks (cached)."""
        if self._descriptors is None:
            self._descriptors = []
            for offset, block in zip(self.offsets, self.blocks):
                left, right = self.session.pair.pairs_to_indices(block)
                self._descriptors.append(
                    BlockDescriptor(
                        offset=offset, left_indices=left, right_indices=right
                    )
                )
        return self._descriptors

    def _maybe_retune(self) -> None:
        """Re-probe the auto block size every ``retune_every`` passes.

        Streamed-fit backpressure: the construction-time measurement
        goes stale under drifting load (deltas densify counts, caches
        warm up, co-tenants come and go), so the task re-measures
        throughput periodically and re-chops the *same* candidate order
        into blocks of the new size.  Labeled indices and score vectors
        are over the concatenated order, which never changes — only the
        partition does, and the streamed strategies select identically
        for any partition.
        """
        if self.retune_every is None or self.block_size is None:
            return
        self._passes_since_tune += 1
        if self._passes_since_tune < self.retune_every:
            return
        self._passes_since_tune = 0
        new_size = tune_block_size(self.session, self.pairs)
        if new_size == self.block_size:
            return
        self.block_size = new_size
        self.blocks = blockify(self.pairs, new_size)
        self.offsets = []
        offset = 0
        for block in self.blocks:
            self.offsets.append(offset)
            offset += len(block)
        self._descriptors = None
        self.retunes += 1

    def feature_blocks(self) -> Iterator[Tuple[int, np.ndarray]]:
        """Ordered ``(offset, X_block)`` stream, freshly extracted.

        Extraction fans out across the session's executor with a
        bounded in-flight window; results arrive in stream order, so
        sequential folds over this iterator are deterministic.
        """
        self._maybe_retune()

        def extract(item: Tuple[int, CandidateBlock]):
            offset, block = item
            return offset, self.session.extract(block)

        return self.session.executor.imap(
            extract, zip(self.offsets, self.blocks)
        )

    def block_spans(self) -> List[Tuple[int, int]]:
        """``(offset, length)`` of every block in stream order.

        The cheap partition map consumers capture before a selective
        pass: it reads no features, so a working-set fit can decide
        which blocks it needs without touching the arena.  The spans
        stay valid until the next full :meth:`feature_blocks` pass (the
        only place auto-retune may re-chop the stream).
        """
        return [
            (offset, len(block))
            for offset, block in zip(self.offsets, self.blocks)
        ]

    def selected_feature_blocks(
        self, block_indices: Sequence[int]
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Extract only the requested blocks, in the given order.

        The working-set fit path: blocks whose every remaining dual is
        screened out are simply not in ``block_indices`` and are never
        read from the session (or the arena behind it).  Extracts on the
        session's executor like :meth:`feature_blocks`, but never
        re-tunes the partition, so offsets stay aligned with the
        :meth:`block_spans` the caller captured.
        """
        wanted = [int(b) for b in block_indices]
        for b in wanted:
            if b < 0 or b >= len(self.blocks):
                raise ModelError(f"block index {b} out of range")

        def extract(item: Tuple[int, CandidateBlock]):
            offset, block = item
            return offset, self.session.extract(block)

        return self.session.executor.imap(
            extract,
            ((self.offsets[b], self.blocks[b]) for b in wanted),
        )

    def gram(
        self, sample_weight: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Accumulate the (weighted) Gram matrix ``XᵀΩX`` over blocks."""
        gram = np.zeros((self.n_features, self.n_features), dtype=np.float64)
        for offset, X in self.feature_blocks():
            if sample_weight is None:
                gram += X.T @ X
            else:
                weights = sample_weight[offset: offset + X.shape[0]]
                gram += (X.T * weights) @ X
        return gram

    def xt_dot(self, target: np.ndarray) -> np.ndarray:
        """Accumulate ``Xᵀ t`` over blocks for a whole-of-H vector."""
        target = np.asarray(target, dtype=np.float64).ravel()
        if target.shape[0] != self.n_candidates:
            raise ModelError(
                f"target length {target.shape[0]} does not match "
                f"{self.n_candidates} candidates"
            )
        result = np.zeros(self.n_features, dtype=np.float64)
        for offset, X in self.feature_blocks():
            result += X.T @ target[offset: offset + X.shape[0]]
        return result

    def scores(self, weights: np.ndarray) -> np.ndarray:
        """Whole-of-H raw scores ``ŷ = Xw``, one block at a time.

        The last score vector is cached together with its weights and
        the session's delta epoch.  A repeat call with the *same*
        weights after a sparse session update (an anchor round, a
        network delta) re-extracts only the **dirty blocks** — those
        whose left rows or right columns the update touched — and reuses
        the rest byte-for-byte; feature rows outside the dirty region
        are bit-identical by the delta algebra's exactness, so the
        partial rescore equals a full sweep exactly.  New weights, an
        unknown epoch, or a full invalidation fall back to the full
        sweep.
        """
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if weights.shape[0] != self.n_features:
            raise ModelError(
                f"weight length {weights.shape[0]} does not match "
                f"{self.n_features} features"
            )
        epoch = self.session.delta_epoch
        cached = self._score_cache
        if cached is not None and np.array_equal(cached[0], weights):
            if cached[2] == epoch:
                return cached[1].copy()
            dirty = self.session.dirty_since(cached[2])
            if dirty is not None:
                return self._rescore_dirty(weights, cached[1], dirty, epoch)
        scores = np.empty(self.n_candidates, dtype=np.float64)
        for offset, X in self.feature_blocks():
            scores[offset: offset + X.shape[0]] = X @ weights
        self.full_score_passes += 1
        self._score_cache = (weights.copy(), scores.copy(), epoch)
        return scores

    def _rescore_dirty(
        self,
        weights: np.ndarray,
        cached_scores: np.ndarray,
        dirty: Tuple[np.ndarray, np.ndarray],
        epoch: int,
    ) -> np.ndarray:
        """Re-extract and re-score only the blocks a delta touched."""
        rows, cols = dirty
        scores = cached_scores.copy()
        rescored = 0
        for descriptor, block in zip(self._block_descriptors(), self.blocks):
            if not (
                np.isin(descriptor.left_indices, rows).any()
                or np.isin(descriptor.right_indices, cols).any()
            ):
                continue
            X = self.session.extract(block)
            scores[descriptor.offset: descriptor.offset + len(block)] = (
                X @ weights
            )
            rescored += 1
        self.partial_score_passes += 1
        self.blocks_rescored += rescored
        logger.debug(
            "partial rescore: %d of %d block(s) dirty", rescored, len(self.blocks)
        )
        self._score_cache = (weights.copy(), scores.copy(), epoch)
        return scores

    def labeled_rows(self) -> np.ndarray:
        """``X[labeled_indices]`` gathered in one block pass.

        A convenience over :func:`~repro.ml.backends.gather_rows` for
        parity checks and custom consumers.  Row values are copied
        verbatim from their home blocks, so the gather is bit-identical
        to fancy-indexing the materialized matrix.  (The built-in
        ``"labeled"`` model backends call ``gather_rows`` directly with
        their own — possibly grown — clamped index set rather than this
        task-initial one.)
        """
        return gather_rows(self, self.labeled_indices)

    def scored_blocks(
        self,
        scores: np.ndarray,
        labels: np.ndarray,
        queryable: np.ndarray,
    ) -> Iterator[ScoredBlock]:
        """Re-slice whole-of-H vectors into strategy-facing blocks."""
        for offset, block in zip(self.offsets, self.blocks):
            end = offset + len(block)
            yield ScoredBlock(
                pairs=block,
                scores=scores[offset:end],
                labels=labels[offset:end],
                queryable=queryable[offset:end],
                offset=offset,
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(
        cls,
        session: AlignmentSession,
        pairs: Sequence[LinkPair],
        labeled_indices: np.ndarray,
        labeled_values: np.ndarray,
        block_size: BlockSizeSpec = 4096,
        retune_every: Optional[int] = None,
    ) -> "StreamedAlignmentTask":
        """Build from a flat candidate list, chopped into blocks.

        ``block_size="auto"`` replaces the fixed knob with a measured
        probe extraction (:func:`tune_block_size`); ``retune_every=N``
        additionally re-probes every N block passes and re-chops the
        stream — backpressure for drifting load (see
        :meth:`_maybe_retune`).
        """
        if retune_every is not None:
            if block_size != AUTO_BLOCK_SIZE:
                raise ModelError(
                    f"retune_every requires block_size={AUTO_BLOCK_SIZE!r}"
                )
            if retune_every < 1:
                raise ModelError("retune_every must be >= 1")
        pairs = list(pairs)
        resolved = resolve_block_size(session, pairs, block_size)
        task = cls(
            session,
            blockify(pairs, resolved),
            labeled_indices,
            labeled_values,
        )
        task.block_size = resolved
        task.retune_every = retune_every
        return task

    @classmethod
    def from_generator(
        cls,
        session: AlignmentSession,
        generator: CandidateGenerator,
        labeled: Sequence[Tuple[LinkPair, int]] = (),
    ) -> "StreamedAlignmentTask":
        """Build from a candidate generator's pruned stream, in its
        block partition.

        ``labeled`` maps known links to 0/1 labels; every labeled link
        must survive the generator's pruning (otherwise the model could
        not see its own training data).
        """
        pairs = list(generator.pairs())
        task_pairs = {pair: index for index, pair in enumerate(pairs)}
        indices: List[int] = []
        values: List[int] = []
        for pair, label in labeled:
            try:
                indices.append(task_pairs[pair])
            except KeyError:
                raise ModelError(
                    f"labeled link {pair!r} was pruned from the candidate "
                    "stream; loosen pruning or exclude it from training"
                ) from None
            values.append(label)
        return cls(
            session,
            blockify(pairs, generator.block_size),
            np.asarray(indices, dtype=np.int64),
            np.asarray(values, dtype=np.int64),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamedAlignmentTask(candidates={self.n_candidates}, "
            f"blocks={self.n_blocks}, features={self.n_features})"
        )

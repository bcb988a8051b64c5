"""Batched candidate-pair streaming with degree/neighborhood pruning.

The full candidate space H is the cross product |U1| x |U2| — millions
of pairs already at modest network sizes, far too many to materialize
as a Python list of tuples.  :class:`CandidateGenerator` streams H as
*position blocks* — :class:`BlockDescriptor` slot arrays, the
``(source ids, destination ids)`` edge form — and prunes it two ways:

* **degree pruning** — users whose follow degrees differ by more than a
  ratio are unlikely counterparts (degree is roughly preserved across
  platforms for the same person);
* **neighborhood pruning** — a pair whose instance count is zero in
  *every* meta structure has an all-zero proximity vector, so
  :meth:`CandidateGenerator.from_support` restricts H to the union of
  the structures' support sets (computed from the session's cached
  count matrices — no extra counting).  Note the bias caveat: with a
  bias feature such pairs still score the bias weight, so callers must
  only apply this prune when that weight is below the selection
  threshold (:meth:`AlignmentPipeline.stream_predict` checks this).

:func:`streamed_selection` then runs scoring and the greedy one-to-one
selector over the stream block by block.  It is *exact*: the greedy
selector never labels a link with score ≤ threshold positive, so only
the above-threshold survivors of each block need to be retained for the
final global selection.  Scoring gathers one feature block per position
block (:meth:`AlignmentSession.gather
<repro.engine.session.AlignmentSession.gather>`), survivors stay slot
positions through the greedy walk, and only the picks become
``(left_user, right_user)`` tuples.  :meth:`CandidateGenerator.pairs`
names the whole stream for consumers that need tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import sparse

from repro.engine.parallel import Executor, WorkersSpec, get_executor
from repro.exceptions import AlignmentError, ConstraintViolationError
from repro.matching.greedy import greedy_walk
from repro.networks.aligned import AlignedPair
from repro.networks.schema import FOLLOW
from repro.types import LinkPair, NodeId


@dataclass(frozen=True)
class BlockDescriptor:
    """One candidate block as slot positions.

    ``offset`` is the block's first candidate index in its stream;
    ``left_indices[k]``/``right_indices[k]`` are candidate ``k``'s
    matrix row and column.
    """

    offset: int
    left_indices: np.ndarray
    right_indices: np.ndarray

    def __len__(self) -> int:
        return int(self.left_indices.shape[0])


def _follow_degrees(network) -> np.ndarray:
    """Total (in + out) follow degree per user, in node order."""
    adjacency = network.typed_adjacency(FOLLOW)
    out_degree = np.asarray(adjacency.sum(axis=1)).ravel()
    in_degree = np.asarray(adjacency.sum(axis=0)).ravel()
    return out_degree + in_degree


def _support_mask(
    session, min_structures: int, rows: Optional[np.ndarray] = None
) -> sparse.csr_matrix:
    """Structure-support indicator over H (or over selected rows only).

    With ``rows`` the scan touches only those rows of every count
    matrix — the dirty-row refresh path of
    :meth:`CandidateGenerator.refresh`.  Indicators share the counts'
    index arrays and are summed smallest first; the sum starts from a
    copy, since ``min_structures > 1`` prunes the mask in place.
    """
    indicators = []
    for counts in session.structure_counts().values():
        matrix = counts.tocsr()
        if rows is not None:
            matrix = matrix[rows]
        indicators.append(
            sparse.csr_matrix(
                (np.ones(matrix.nnz), matrix.indices, matrix.indptr),
                shape=matrix.shape,
            )
        )
    indicators.sort(key=lambda indicator: indicator.nnz)
    if indicators:
        support = indicators[0].copy()
        for indicator in indicators[1:]:
            support = support + indicator
    else:
        # A family with no structures supports no pair at all: stream a
        # clean empty candidate space instead of silently un-pruning to
        # the full cross product.  Shapes are slot counts — matrix
        # coordinates include tombstoned slots.
        user_type = session.pair.anchor_node_type
        n_rows = (
            len(rows)
            if rows is not None
            else session.pair.left.slot_count(user_type)
        )
        support = sparse.csr_matrix(
            (n_rows, session.pair.right.slot_count(user_type))
        )
    if min_structures > 1:
        support.data = np.where(support.data >= min_structures, 1.0, 0.0)
        support.eliminate_zeros()
    return support


def _pad_mask(
    mask: sparse.csr_matrix, shape: Tuple[int, int]
) -> sparse.csr_matrix:
    """Grow an admissibility mask to a larger candidate space."""
    from repro.engine.incremental import pad_csr

    return pad_csr(mask, shape)


def _replace_rows(
    base: sparse.csr_matrix, rows: np.ndarray, replacement: sparse.csr_matrix
) -> sparse.csr_matrix:
    """Splice ``replacement``'s rows into ``base`` at positions ``rows``.

    Built from two sparse products (a keep-diagonal and a scatter
    selector), so the cost is O(nnz) — no Python-level row loop.
    """
    keep = np.ones(base.shape[0], dtype=np.float64)
    keep[rows] = 0.0
    kept = sparse.diags(keep).tocsr() @ base
    scatter = sparse.csr_matrix(
        (
            np.ones(rows.size, dtype=np.float64),
            (rows, np.arange(rows.size, dtype=np.int64)),
        ),
        shape=(base.shape[0], rows.size),
    )
    spliced = (kept + scatter @ replacement).tocsr()
    spliced.eliminate_zeros()
    spliced.sort_indices()
    return spliced


class CandidateGenerator:
    """Streams pruned candidate anchor pairs in fixed-size blocks.

    Parameters
    ----------
    pair:
        The aligned networks.
    block_size:
        Maximum number of pairs per yielded block.
    max_degree_ratio:
        When set, keep ``(u, v)`` only if their smoothed follow degrees
        are within this ratio of each other:
        ``(1 + deg(u)) / (1 + deg(v)) ≤ r`` and vice versa.
    allowed:
        Optional explicit sparse |U1| x |U2| mask of admissible pairs
        (used by :meth:`from_support`); non-zero means admissible.
    exclude:
        Pairs to skip regardless of pruning (e.g. already-labeled
        links).
    """

    def __init__(
        self,
        pair: AlignedPair,
        block_size: int = 4096,
        max_degree_ratio: Optional[float] = None,
        allowed: Optional[sparse.spmatrix] = None,
        exclude: Iterable[LinkPair] = (),
    ) -> None:
        if block_size < 1:
            raise AlignmentError("block_size must be >= 1")
        if max_degree_ratio is not None and max_degree_ratio < 1.0:
            raise AlignmentError("max_degree_ratio must be >= 1")
        self.pair = pair
        self.block_size = int(block_size)
        self.max_degree_ratio = max_degree_ratio
        self._exclude: Set[LinkPair] = set(exclude)
        # Slot lists, not live-node lists: index ``i``/``j`` must agree
        # with matrix row/column coordinates, so tombstoned slots ride
        # along as ``None`` and are skipped during streaming.
        self._left_users = pair.left_user_slots()
        self._right_users = pair.right_user_slots()
        self._allowed = allowed.tocsr() if allowed is not None else None
        if self._allowed is not None:
            expected = (len(self._left_users), len(self._right_users))
            if self._allowed.shape != expected:
                raise AlignmentError(
                    f"allowed mask shape {self._allowed.shape} does not "
                    f"match the candidate space {expected}"
                )
        if max_degree_ratio is not None:
            self._left_degrees = _follow_degrees(pair.left)
            self._right_degrees = _follow_degrees(pair.right)
        else:
            self._left_degrees = None
            self._right_degrees = None
        # Set by from_support: lets refresh() rebuild the prune mask —
        # and track the session's delta epoch for dirty-row refreshes.
        self._support_min: Optional[int] = None
        self._support_epoch: Optional[int] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_support(
        cls,
        session,
        block_size: int = 4096,
        min_structures: int = 1,
        exclude: Iterable[LinkPair] = (),
    ) -> "CandidateGenerator":
        """Neighborhood pruning: pairs supported by ≥ ``min_structures``.

        Uses the session's cached count matrices — pairs outside every
        structure's support have identically zero proximity features and
        are dropped.  ``min_structures > 1`` tightens the prune to pairs
        connected by several kinds of evidence.  After the session's
        network evolves, :meth:`refresh` brings the generator current
        without rebuilding clean rows.
        """
        if min_structures < 1:
            raise AlignmentError("min_structures must be >= 1")
        generator = cls(
            session.pair,
            block_size=block_size,
            allowed=_support_mask(session, min_structures),
            exclude=exclude,
        )
        generator._support_min = min_structures
        generator._support_epoch = session.delta_epoch
        return generator

    def refresh(self, session=None, dirty_rows=None) -> "CandidateGenerator":
        """Bring the generator current after the pair evolved.

        Re-resolves the user lists and degree vectors (new users stream
        like any other row) and, for a support-pruned generator,
        rebuilds the admissibility mask for exactly the **dirty rows** —
        the left users whose counts a delta touched (taken from
        ``session.dirty_since`` unless ``dirty_rows`` overrides it) plus
        the newly added rows.  Clean rows keep their mask bits verbatim,
        so the refreshed generator is byte-identical to one built fresh
        with :meth:`from_support` at a fraction of the scan.  Returns
        ``self`` for chaining.
        """
        old_n_left = len(self._left_users)
        self._left_users = self.pair.left_user_slots()
        self._right_users = self.pair.right_user_slots()
        if self.max_degree_ratio is not None:
            self._left_degrees = _follow_degrees(self.pair.left)
            self._right_degrees = _follow_degrees(self.pair.right)
        if self._allowed is None:
            return self
        if self._support_min is None:
            raise AlignmentError(
                "cannot refresh an explicit allowed mask; rebuild the "
                "generator with the new mask instead"
            )
        if session is None:
            raise AlignmentError(
                "refreshing a support-pruned generator needs the session"
            )
        shape = (len(self._left_users), len(self._right_users))
        if dirty_rows is None and self._support_epoch is not None:
            dirty = session.dirty_since(self._support_epoch)
            if dirty is not None:
                dirty_rows = dirty[0]
        if dirty_rows is None:
            # Unknown dirty set (or log trimmed): full rebuild.
            self._allowed = _support_mask(session, self._support_min)
        else:
            rows = np.unique(
                np.concatenate(
                    [
                        np.asarray(dirty_rows, dtype=np.int64),
                        np.arange(old_n_left, shape[0], dtype=np.int64),
                    ]
                )
            )
            self._allowed = _pad_mask(self._allowed, shape)
            if rows.size:
                replacement = _support_mask(
                    session, self._support_min, rows=rows
                )
                self._allowed = _replace_rows(self._allowed, rows, replacement)
        self._support_epoch = session.delta_epoch
        return self

    # ------------------------------------------------------------------
    def _positions(self) -> Tuple[np.ndarray, np.ndarray]:
        """Row-major ``(rows, cols)`` slot arrays of every candidate.

        One vectorized pass over the mask's entries in stored column
        order (or over the full cross product): the degree ratio, then
        tombstoned slots on either side (a dead row's or column's mask
        bits are stale), then exclusions, resolved once to linearized
        ``i * n_right + j`` keys.  Behind :meth:`count` and
        :meth:`blocks`.
        """
        n_left, n_right = len(self._left_users), len(self._right_users)
        if self._allowed is not None:
            rows = np.repeat(
                np.arange(n_left, dtype=np.int64), np.diff(self._allowed.indptr)
            )
            cols = self._allowed.indices.astype(np.int64)
        else:
            rows = np.repeat(np.arange(n_left, dtype=np.int64), n_right)
            cols = np.tile(np.arange(n_right, dtype=np.int64), n_left)
        keep = _live(self._left_users)[rows] & _live(self._right_users)[cols]
        if self.max_degree_ratio is not None:
            left_degrees = 1.0 + self._left_degrees[rows]
            right_degrees = 1.0 + self._right_degrees[cols]
            ratio = np.maximum(
                left_degrees / right_degrees, right_degrees / left_degrees
            )
            keep &= ratio <= self.max_degree_ratio
        excluded = self._excluded_keys(n_right)
        if excluded.size:
            keep &= ~np.isin(rows * n_right + cols, excluded)
        return rows[keep], cols[keep]

    def _excluded_keys(self, n_right: int) -> np.ndarray:
        """Sorted linearized keys of the exclusions naming live slots."""
        if not self._exclude:
            return np.zeros(0, dtype=np.int64)
        left_slots = {
            user: i for i, user in enumerate(self._left_users) if user is not None
        }
        right_slots = {
            user: j for j, user in enumerate(self._right_users) if user is not None
        }
        keys = [
            left_slots[left_user] * n_right + right_slots[right_user]
            for left_user, right_user in self._exclude
            if left_user in left_slots and right_user in right_slots
        ]
        return np.unique(np.array(keys, dtype=np.int64))

    def count(self) -> int:
        """Number of candidate pairs the stream will produce."""
        return int(self._positions()[0].size)

    def blocks(self) -> Iterator[BlockDescriptor]:
        """Yield the candidates as position blocks of ``block_size`` (the
        last may be shorter), in row-major order.

        Each :class:`BlockDescriptor` carries its stream offset and its
        candidates' slot positions — matrix coordinates, ready for
        :meth:`AlignmentSession.gather
        <repro.engine.session.AlignmentSession.gather>`; :meth:`pairs_at`
        names them.  Positions hold only while the pair keeps the slots
        the generator last saw, so once users are added, removed or
        compacted away the stream raises until :meth:`refresh`.
        """
        if (
            self._left_users != self.pair.left_user_slots()
            or self._right_users != self.pair.right_user_slots()
        ):
            raise AlignmentError(
                "the pair's user slots changed since the generator was "
                "built; call refresh() first"
            )
        rows, cols = self._positions()
        for offset in range(0, rows.size, self.block_size):
            end = offset + self.block_size
            yield BlockDescriptor(
                offset=offset,
                left_indices=rows[offset:end],
                right_indices=cols[offset:end],
            )

    def pairs_at(self, rows: np.ndarray, cols: np.ndarray) -> List[LinkPair]:
        """The ``(left_user, right_user)`` pairs at slot positions."""
        return list(
            zip(
                map(self._left_users.__getitem__, rows.tolist()),
                map(self._right_users.__getitem__, cols.tolist()),
            )
        )

    def pairs(self) -> Iterator[LinkPair]:
        """Every candidate pair, in deterministic row-major order."""
        for block in self.blocks():
            yield from self.pairs_at(block.left_indices, block.right_indices)


def _live(slots: Sequence[Optional[NodeId]]) -> np.ndarray:
    """Boolean mask of the live (non-tombstoned) slots."""
    return np.array([user is not None for user in slots], dtype=bool)


def _slots_of(
    slots: Sequence[Optional[NodeId]], users: Optional[Iterable[NodeId]]
) -> np.ndarray:
    """Slot positions of the live ``users`` (absent ones are dropped)."""
    wanted = set(users) if users else set()
    if not wanted:
        return np.zeros(0, dtype=np.int64)
    return np.array(
        [slot for slot, user in enumerate(slots) if user in wanted],
        dtype=np.int64,
    )


def linear_scorer(
    session, weights: np.ndarray
) -> Callable[[BlockDescriptor], np.ndarray]:
    """Score function ``block -> X_block @ w`` over the session's features:
    a closure over the session's position gather
    (:meth:`AlignmentSession.gather
    <repro.engine.session.AlignmentSession.gather>`)."""
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if weights.shape[0] != session.n_features:
        raise AlignmentError(
            f"{weights.shape[0]} weights for {session.n_features} features"
        )

    def score(block: BlockDescriptor) -> np.ndarray:
        return session.gather(block.left_indices, block.right_indices) @ weights

    return score


def streamed_selection(
    generator: CandidateGenerator,
    score_fn: Callable[[BlockDescriptor], np.ndarray],
    threshold: float = 0.5,
    blocked_left: Optional[Iterable[NodeId]] = None,
    blocked_right: Optional[Iterable[NodeId]] = None,
    workers: WorkersSpec = None,
) -> List[Tuple[LinkPair, float]]:
    """Greedy one-to-one selection over a streamed candidate space.

    ``score_fn`` maps one position block of the generator to its scores
    (e.g. :func:`linear_scorer`).  The sweep keeps
    each block's links above ``threshold`` (the greedy selector can
    never pick the rest) as slot positions, and runs one exact global
    greedy walk (:func:`~repro.matching.greedy.greedy_walk`) over those
    integer slots.  Only the picks become ``(left_user, right_user)``
    tuples.  Returns the selected links with their scores, ordered by
    decreasing score (ties in stream order).  A NaN score has no place
    in that order: it raises
    :class:`~repro.exceptions.ConstraintViolationError` naming its
    block's offset.

    With ``workers`` (an integer or a shared
    :class:`~repro.engine.parallel.Executor`) blocks are scored across
    a thread pool; survivors are still merged in stream order, so the
    selection is byte-identical to a serial sweep.  An empty candidate
    space yields an empty selection, never an error.
    """
    executor = get_executor(workers)

    def score(block: BlockDescriptor) -> Tuple[BlockDescriptor, np.ndarray]:
        return block, np.asarray(score_fn(block), dtype=np.float64).ravel()

    # Survivors, per block: left slots, right slots, scores.
    survivors: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    try:
        # Streaming imap, not map: blocks flow into the executor's
        # bounded in-flight window as the generator produces them.
        for block, scores in executor.imap(score, generator.blocks()):
            if scores.shape[0] != len(block):
                raise AlignmentError(
                    f"score function returned {scores.shape[0]} scores "
                    f"for a block of {len(block)} candidates"
                )
            if np.isnan(scores).any():
                raise ConstraintViolationError(
                    "candidate link scores contain NaN in the block at "
                    f"offset {block.offset}"
                )
            keep = np.flatnonzero(scores > threshold)
            survivors.append(
                (block.left_indices[keep], block.right_indices[keep], scores[keep])
            )
    finally:
        # A pool built here from an integer is this call's to close; a
        # passed-in executor stays open for its owner.
        if not isinstance(workers, Executor):
            executor.close()
    if not survivors:
        return []
    left, right, scores = map(np.concatenate, zip(*survivors))
    picks = greedy_walk(
        left,
        right,
        scores,
        threshold=threshold,
        blocked_left=_slots_of(generator._left_users, blocked_left),
        blocked_right=_slots_of(generator._right_users, blocked_right),
    )
    return list(
        zip(
            generator.pairs_at(left[picks], right[picks]),
            scores[picks].tolist(),
        )
    )

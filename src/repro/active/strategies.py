"""Active query strategies (external iteration step 2).

The paper's strategy exploits the one-to-one constraint: once the greedy
assignment labels a link negative, the most *informative* labels to buy
are potential **false negatives** — negatives that nearly beat a
currently-positive link over a shared user.  Querying them either
confirms the assignment or flips it, and a flip also corrects the
conflicting positives for free.

Formally (§III-C, external step 2): with predicted positives U+ and
negatives U−, the candidate set is

    C = { l ∈ U− : ∃ l', l'' ∈ U+ conflicting with l,
          |ŷ_l' − ŷ_l| ≤ τ  and  ŷ_l − ŷ_l'' > 0 },

τ = 0.05 in the experiments.  Candidates are ranked by the dominance
margin ``ŷ_l − ŷ_l''`` (largest first) and the top ``k = 5`` are queried
per round.  :class:`ConflictFalseNegativeStrategy` evaluates the rule
with one vectorized kernel over per-user groups, for both the
materialized and the streamed entry point.  The kernel reads integer
user codes, built once per candidate list: the active loop passes the
same list every round, so only its first query codes it.  A list must
therefore not be mutated in place between calls; pass a new list
instead.

All strategies share one interface so models can swap them (the paper's
ActiveIter-Rand variant, plus a classic margin/uncertainty strategy kept
for ablations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.exceptions import ReproError
from repro.types import LinkPair, NodeId


@dataclass(frozen=True)
class ScoredBlock:
    """One block of the candidate space as a query strategy sees it.

    The streamed selection API (:meth:`QueryStrategy.select_streamed`)
    consumes a stream of these instead of materialized whole-of-H
    arrays; ``offset`` is the block's starting position in the global
    candidate order, so returned picks are global indices.  A stream's
    offsets are at least 0 and never fall before the previous block's
    end (``select_streamed`` raises :class:`~repro.exceptions.ReproError`
    otherwise).
    """

    pairs: Sequence[LinkPair]
    scores: np.ndarray
    labels: np.ndarray
    queryable: np.ndarray
    offset: int = 0


class QueryStrategy(Protocol):
    """Interface of a query-set selection strategy."""

    def select(
        self,
        pairs: Sequence[LinkPair],
        scores: np.ndarray,
        labels: np.ndarray,
        queryable: np.ndarray,
        batch_size: int,
    ) -> List[int]:
        """Pick up to ``batch_size`` indices to query.

        Parameters
        ----------
        pairs:
            All candidate links H (fixed order).
        scores:
            Current raw scores ``ŷ = Xw``.
        labels:
            Current 0/1 label assignment ``y``.
        queryable:
            Boolean mask of links whose labels may still be queried
            (unlabeled and not yet queried).
        batch_size:
            Maximum number of picks this round (``>= 0``; a negative
            batch raises :class:`~repro.exceptions.ReproError`).
        """
        ...


class StreamedQueryStrategy(QueryStrategy, Protocol):
    """A query strategy that can also consume blockwise candidates.

    ``select_streamed`` must pick *exactly* the same indices as
    ``select`` would on the concatenation of the blocks — the streamed
    active fit asserts on that equivalence.  Streamed state is at most
    O(|H|) scalars, never a feature matrix: the margin strategy keeps a
    running top-k merge, and the conflict and random strategies buffer
    per-candidate scalars and rank their concatenation.
    """

    def select_streamed(
        self, blocks: Iterable[ScoredBlock], batch_size: int
    ) -> List[int]:
        """Pick up to ``batch_size`` global indices from a block stream."""
        ...


def _validate_inputs(
    pairs: Sequence[LinkPair],
    scores: np.ndarray,
    labels: np.ndarray,
    queryable: np.ndarray,
) -> None:
    n = len(pairs)
    for name, values in (
        ("scores", scores),
        ("labels", labels),
        ("queryable", queryable),
    ):
        if np.asarray(values).ravel().shape[0] != n:
            raise ReproError(f"{name} length does not match {n} candidates")
    bad = int(np.count_nonzero(~np.isfinite(np.asarray(scores, dtype=np.float64))))
    if bad:
        raise ReproError(
            f"scores contain {bad} non-finite values (NaN/inf); "
            "refusing to rank corrupted scores"
        )


def _check_batch_size(batch_size: int) -> None:
    """Reject a negative batch: slicing by one would drop the last picks."""
    if batch_size < 0:
        raise ReproError(f"batch_size must be >= 0, got {batch_size}")


def _checked_blocks(blocks: Iterable[ScoredBlock]) -> Iterator[ScoredBlock]:
    """Validate each block as it streams past.

    A block must start at or after the previous block's end (and at or
    after 0): an overlap would offer one candidate twice, and a negative
    offset would name a position before the candidate list.
    """
    end = 0
    for block in blocks:
        if block.offset < end:
            raise ReproError(
                f"block offset {block.offset} starts before {end}: blocks "
                "must not start below 0 or overlap the previous block"
            )
        _validate_inputs(block.pairs, block.scores, block.labels, block.queryable)
        end = block.offset + len(block.pairs)
        yield block


def _ranked(indices: np.ndarray, keys: np.ndarray, batch_size: int) -> List[int]:
    """The ``batch_size`` indices with the smallest keys, ties by index."""
    return indices[np.lexsort((indices, keys))][:batch_size].tolist()


def _user_codes(users: Sequence[NodeId]) -> np.ndarray:
    """Integer codes of ``users``, in first-seen order."""
    index = {user: code for code, user in enumerate(dict.fromkeys(users))}
    return np.fromiter(map(index.__getitem__, users), dtype=np.intp, count=len(users))


@dataclass(frozen=True)
class _CandidateCodes:
    """The left and right user codes of one candidate list.

    ``lists`` are the list objects the codes were built from (the pairs
    of a ``select`` call, or each block's pairs of a streamed pass),
    held so that no id can be recycled; ``lengths`` catch an append.
    """

    lists: Tuple[Sequence[LinkPair], ...]
    lengths: Tuple[int, ...]
    left: np.ndarray
    right: np.ndarray

    @classmethod
    def build(cls, lists: Tuple[Sequence[LinkPair], ...]) -> "_CandidateCodes":
        pairs = lists[0] if len(lists) == 1 else [p for part in lists for p in part]
        return cls(
            lists,
            tuple(map(len, lists)),
            _user_codes([pair[0] for pair in pairs]),
            _user_codes([pair[1] for pair in pairs]),
        )

    def matches(self, lists: Tuple[Sequence[LinkPair], ...]) -> bool:
        """Whether ``lists`` are the same objects, at the same lengths."""
        return len(lists) == len(self.lists) and all(
            new is old and len(new) == length
            for new, old, length in zip(lists, self.lists, self.lengths)
        )


def _conflict_picks(
    left_codes: np.ndarray,
    right_codes: np.ndarray,
    scores: np.ndarray,
    labels: np.ndarray,
    queryable: np.ndarray,
    indices: np.ndarray,
    batch_size: int,
    threshold: float,
    allow_fallback: bool,
) -> List[int]:
    """The conflict rule over whole-of-H arrays, vectorized.

    ``indices`` are the candidates' global indices: what is returned,
    and what breaks ranking ties.  A negative's conflicting positives
    are the positives sharing its left or right user, so both tests run
    per user group: the best dominance ``ŷ_l − min ŷ_l''`` uses each
    group's lowest positive score (float subtraction is monotone, so
    this is bitwise the maximum over the group), and the near-miss test
    expands each negative against the positives of its two groups —
    at most one each under one-to-one labels, exact for any labels.
    The groups are read off ``left_codes`` and ``right_codes``, the
    candidates' users as integer codes.
    """
    negatives = np.flatnonzero(queryable & (labels == 0))
    positives = np.flatnonzero(labels == 1)
    negative_scores = scores[negatives]
    lowest = np.full(negatives.size, np.inf)
    near_miss = np.zeros(negatives.size, dtype=bool)
    for codes in (left_codes, right_codes):
        n_users = int(codes.max()) + 1 if codes.size else 0
        positive_codes = codes[positives]
        negative_codes = codes[negatives]
        lowest_by_user = np.full(n_users, np.inf)
        np.minimum.at(lowest_by_user, positive_codes, scores[positives])
        np.minimum(lowest, lowest_by_user[negative_codes], out=lowest)
        # Expand: negative ``owner`` meets each positive of its group.
        grouped = positives[np.argsort(positive_codes, kind="stable")]
        group_sizes = np.bincount(positive_codes, minlength=n_users)
        group_starts = np.cumsum(group_sizes) - group_sizes
        sizes = group_sizes[negative_codes]
        owner = np.repeat(np.arange(negatives.size), sizes)
        first = np.cumsum(sizes) - sizes
        within = np.arange(owner.size) - np.repeat(first, sizes)
        partner = grouped[np.repeat(group_starts[negative_codes], sizes) + within]
        close = np.abs(scores[partner] - negative_scores[owner]) <= threshold
        near_miss[owner[close]] = True
    dominance = negative_scores - lowest
    ranked = np.flatnonzero(near_miss & (dominance > 0))
    picks = _ranked(indices[negatives[ranked]], -dominance[ranked], batch_size)

    if len(picks) < batch_size and allow_fallback:
        pool = indices[negatives]
        rest = ~np.isin(pool, picks)
        picks.extend(
            _ranked(pool[rest], -negative_scores[rest], batch_size - len(picks))
        )
    return picks


class ConflictFalseNegativeStrategy:
    """The paper's query strategy (see module docstring).

    :meth:`select` and :meth:`select_streamed` run one vectorized kernel
    over the whole candidate space, so their picks are identical by
    construction.  The kernel reads the candidates' users as integer
    codes, built on the first call with a candidate list and reused
    while later calls pass the same list object (for a streamed pass,
    the same block lists) at the same length.  Mutating a list in place
    between calls would leave stale codes: pass a new list instead.

    Parameters
    ----------
    closeness_threshold:
        τ — how close a winning positive's score must be to the
        candidate's for the candidate to count as a near-miss.
    allow_fallback:
        When no conflict candidate exists (e.g. nothing is predicted
        positive yet), fall back to the highest-scoring queryable
        negatives so the budget is still spent productively.  The paper
        does not specify this corner; disable to match the strict rule.
    """

    def __init__(
        self, closeness_threshold: float = 0.05, allow_fallback: bool = True
    ) -> None:
        if closeness_threshold < 0:
            raise ReproError("closeness_threshold must be >= 0")
        self.closeness_threshold = float(closeness_threshold)
        self.allow_fallback = bool(allow_fallback)
        self._codes: Optional[_CandidateCodes] = None

    def _codes_for(
        self, lists: Tuple[Sequence[LinkPair], ...]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Left and right user codes of the concatenated ``lists``."""
        codes = self._codes
        if codes is None or not codes.matches(lists):
            codes = self._codes = _CandidateCodes.build(lists)
        return codes.left, codes.right

    def select(
        self,
        pairs: Sequence[LinkPair],
        scores: np.ndarray,
        labels: np.ndarray,
        queryable: np.ndarray,
        batch_size: int,
    ) -> List[int]:
        _check_batch_size(batch_size)
        _validate_inputs(pairs, scores, labels, queryable)
        return _conflict_picks(
            *self._codes_for((pairs,)),
            np.asarray(scores, dtype=np.float64).ravel(),
            np.asarray(labels).ravel(),
            np.asarray(queryable, dtype=bool).ravel(),
            np.arange(len(pairs)),
            batch_size,
            self.closeness_threshold,
            self.allow_fallback,
        )

    def select_streamed(
        self, blocks: Iterable[ScoredBlock], batch_size: int
    ) -> List[int]:
        """Blockwise :meth:`select` — identical picks, one pass over H.

        A negative may conflict with a positive in any block, so the
        pass buffers O(|H|) scalars (score, label, queryable flag,
        global index) — never a feature matrix — and ranks their
        concatenation with the same kernel as :meth:`select`.  The
        user codes are keyed on the blocks' pairs lists, which a
        streamed task passes unchanged every round, so the pairs are
        concatenated only when those lists change.  Ties break by
        global index ``block.offset + position``.
        """
        _check_batch_size(batch_size)
        lists: List[Sequence[LinkPair]] = []
        scores: List[np.ndarray] = []
        labels: List[np.ndarray] = []
        queryable: List[np.ndarray] = []
        indices: List[np.ndarray] = []
        for block in _checked_blocks(blocks):
            lists.append(block.pairs)
            scores.append(np.asarray(block.scores, dtype=np.float64).ravel())
            labels.append(np.asarray(block.labels).ravel())
            queryable.append(np.asarray(block.queryable, dtype=bool).ravel())
            indices.append(block.offset + np.arange(len(block.pairs)))
        if not indices:
            return []
        return _conflict_picks(
            *self._codes_for(tuple(lists)),
            np.concatenate(scores),
            np.concatenate(labels),
            np.concatenate(queryable),
            np.concatenate(indices),
            batch_size,
            self.closeness_threshold,
            self.allow_fallback,
        )


class RandomQueryStrategy:
    """Uniform random query selection (the ActiveIter-Rand baseline)."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def snapshot_state(self) -> dict:
        """Picklable RNG state for checkpoint/resume.

        Any strategy carrying mutable state should implement this hook
        (with :meth:`restore_state`); the active loop checkpoints
        whatever it returns and hands it back on resume, which is what
        keeps a resumed randomized run byte-identical.  Stateless
        strategies simply omit the pair.
        """
        return {"rng": self._rng.bit_generator.state}

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` payload."""
        self._rng.bit_generator.state = state["rng"]

    def select(
        self,
        pairs: Sequence[LinkPair],
        scores: np.ndarray,
        labels: np.ndarray,
        queryable: np.ndarray,
        batch_size: int,
    ) -> List[int]:
        _check_batch_size(batch_size)
        _validate_inputs(pairs, scores, labels, queryable)
        pool = np.flatnonzero(np.asarray(queryable, dtype=bool).ravel())
        if pool.size == 0:
            return []
        size = min(batch_size, pool.size)
        return [int(i) for i in self._rng.choice(pool, size=size, replace=False)]

    def select_streamed(
        self, blocks: Iterable[ScoredBlock], batch_size: int
    ) -> List[int]:
        """Blockwise :meth:`select` — same RNG draws, identical picks."""
        _check_batch_size(batch_size)
        pools: List[np.ndarray] = []
        for block in _checked_blocks(blocks):
            pool = np.flatnonzero(
                np.asarray(block.queryable, dtype=bool).ravel()
            )
            if pool.size:
                pools.append(pool + block.offset)
        if not pools:
            return []
        pool = np.concatenate(pools)
        size = min(batch_size, pool.size)
        return [int(i) for i in self._rng.choice(pool, size=size, replace=False)]


class MarginQueryStrategy:
    """Classic uncertainty sampling: query links closest to the boundary.

    Not part of the paper; included as the standard active-learning
    baseline for the query-strategy ablation (DESIGN.md §5).
    """

    def __init__(self, boundary: float = 0.5) -> None:
        self.boundary = float(boundary)

    def select(
        self,
        pairs: Sequence[LinkPair],
        scores: np.ndarray,
        labels: np.ndarray,
        queryable: np.ndarray,
        batch_size: int,
    ) -> List[int]:
        _check_batch_size(batch_size)
        _validate_inputs(pairs, scores, labels, queryable)
        scores = np.asarray(scores, dtype=np.float64).ravel()
        pool = np.flatnonzero(np.asarray(queryable, dtype=bool).ravel())
        return _ranked(pool, np.abs(scores[pool] - self.boundary), batch_size)

    def select_streamed(
        self, blocks: Iterable[ScoredBlock], batch_size: int
    ) -> List[int]:
        """Blockwise :meth:`select` via an exact running top-k merge.

        Any global top-``k`` element is inside its own block's top-``k``
        (margins are per-candidate), so ranking each block together with
        the running best ``k`` reproduces the global ranking — ties
        broken by global index, exactly like :meth:`select`.
        """
        _check_batch_size(batch_size)
        if batch_size == 0:
            return []
        best = np.empty(0, dtype=np.intp)
        best_margins = np.empty(0)
        for block in _checked_blocks(blocks):
            scores = np.asarray(block.scores, dtype=np.float64).ravel()
            pool = np.flatnonzero(
                np.asarray(block.queryable, dtype=bool).ravel()
            )
            indices = np.concatenate([best, block.offset + pool])
            margins = np.concatenate(
                [best_margins, np.abs(scores[pool] - self.boundary)]
            )
            top = np.lexsort((indices, margins))[:batch_size]
            best, best_margins = indices[top], margins[top]
        return best.tolist()

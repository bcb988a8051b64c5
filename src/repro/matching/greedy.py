"""Greedy cardinality-constrained link selection (internal step 1-2).

The integer program

    min_y ||ŷ - y||²   s.t.  y ∈ {0,1},  0 ≤ A^(1)y ≤ 1,  0 ≤ A^(2)y ≤ 1

is NP-hard; the paper adopts the greedy algorithm of Zhang et al. (WSDM
2017), which scans candidates by decreasing score and accepts a link
when both endpoints are still free and setting ``y=1`` lowers the loss
(i.e. the score exceeds ``1/2``).  This greedy achieves a
½-approximation of the optimal selection.

Endpoints already consumed by known positive links (training labels,
queried positives) are passed as blocked sets so inferred labels never
conflict with known ones.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import ConstraintViolationError
from repro.types import LinkPair, NodeId

#: Candidates converted to Python ints at a time by the greedy walk.
_WALK_CHUNK = 4096


def greedy_walk(
    left: np.ndarray,
    right: np.ndarray,
    scores: np.ndarray,
    threshold: float = 0.5,
    blocked_left: Sequence[int] = (),
    blocked_right: Sequence[int] = (),
) -> np.ndarray:
    """The greedy rule over integer-coded candidates.

    Candidate ``k`` joins the non-negative codes ``left[k]`` and
    ``right[k]``.  The walk visits the candidates scoring strictly above
    ``threshold`` by decreasing score (a stable order: ties keep
    candidate order) and accepts each one whose endpoints are both still
    free.  Codes in ``blocked_left``/``blocked_right`` start out taken.

    Returns the accepted candidates' indices in acceptance order.
    Raises :class:`~repro.exceptions.ConstraintViolationError` when a
    score is NaN (it has no place in the order).
    """
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if np.isnan(scores).any():
        raise ConstraintViolationError("candidate link scores contain NaN")
    blocked_left = np.asarray(blocked_left, dtype=np.int64)
    blocked_right = np.asarray(blocked_right, dtype=np.int64)
    # Only links above the threshold can be accepted, so only that
    # prefix of the order is sorted and walked.
    prefix = np.flatnonzero(scores > threshold)
    order = prefix[stable_descending(scores[prefix])]
    used_left, free_left = _code_table(left[prefix], blocked_left)
    used_right, free_right = _code_table(right[prefix], blocked_right)
    # Each accepted link uses up one free candidate code per side, so
    # the walk is over once either side has none left.
    remaining = min(free_left, free_right)
    picks: List[int] = []
    for start in range(0, order.size, _WALK_CHUNK):
        if remaining == 0:
            break
        chunk = order[start : start + _WALK_CHUNK]
        chunk_left, chunk_right = left[chunk], right[chunk]
        # Candidates an earlier chunk ruled out are dropped in numpy;
        # the Python loop sees only those free when the chunk began.
        free = ~(used_left[chunk_left] | used_right[chunk_right])
        taken_left: Set[int] = set()
        taken_right: Set[int] = set()
        for index, left_code, right_code in zip(
            chunk[free].tolist(),
            chunk_left[free].tolist(),
            chunk_right[free].tolist(),
        ):
            if left_code in taken_left or right_code in taken_right:
                continue
            picks.append(index)
            taken_left.add(left_code)
            taken_right.add(right_code)
            remaining -= 1
            if remaining == 0:
                break
        if start + _WALK_CHUNK < order.size:
            used_left[list(taken_left)] = True
            used_right[list(taken_right)] = True
    return np.array(picks, dtype=np.int64)


def stable_descending(values: np.ndarray) -> np.ndarray:
    """``np.argsort(-values, kind="stable")`` for NaN-free ``values``.

    numpy's stable sort of floats is a timsort, several times slower
    than its default sort.  So the values are sorted unstably, and then
    one sort of unique ``(run of equal values, index)`` keys puts each
    run of ties back in index order.
    """
    order = np.argsort(-values)
    ranked = values[order]
    new_run = ranked[1:] != ranked[:-1]
    if new_run.all():
        return order
    runs = np.zeros(order.size, dtype=np.int64)
    np.cumsum(new_run, out=runs[1:])
    return np.sort(runs * order.size + order) % order.size


def _code_table(codes: np.ndarray, blocked: np.ndarray) -> Tuple[np.ndarray, int]:
    """A taken-flag table over every code in play, ``blocked`` set, and
    the number of distinct ``codes`` still free."""
    size = 1 + max(int(codes.max(initial=-1)), int(blocked.max(initial=-1)))
    taken = np.zeros(size, dtype=bool)
    taken[blocked] = True
    present = np.zeros(size, dtype=bool)
    present[codes] = True
    return taken, int(np.count_nonzero(present > taken))


def greedy_link_selection(
    pairs: Sequence[LinkPair],
    scores: np.ndarray,
    threshold: float = 0.5,
    blocked_left: Optional[Iterable[NodeId]] = None,
    blocked_right: Optional[Iterable[NodeId]] = None,
) -> np.ndarray:
    """Greedy one-to-one selection of positive links.

    Parameters
    ----------
    pairs:
        Candidate links, parallel to ``scores``.
    scores:
        Continuous scores ``ŷ = Xw``.
    threshold:
        Minimum score for a link to be worth labeling positive; ``0.5``
        is the squared-loss break-even point for labels in ``{0, 1}``.
    blocked_left, blocked_right:
        Users already matched by known positive links.

    Returns
    -------
    numpy.ndarray
        0/1 label vector over ``pairs``, deterministic: ties in score are
        broken by candidate order.

    Raises
    ------
    ConstraintViolationError
        When ``scores`` and ``pairs`` differ in length, or a score is NaN
        (it has no place in the descending order).

    Only the above-threshold prefix is coded to integers and handed to
    :func:`greedy_walk`.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if scores.shape[0] != len(pairs):
        raise ConstraintViolationError(
            f"{scores.shape[0]} scores for {len(pairs)} candidate links"
        )
    if np.isnan(scores).any():
        raise ConstraintViolationError("candidate link scores contain NaN")
    prefix = np.flatnonzero(scores > threshold)
    # A user's code is the prefix rank of its first candidate.
    left_codes: Dict[NodeId, int] = {}
    right_codes: Dict[NodeId, int] = {}
    left: List[int] = []
    right: List[int] = []
    for rank, index in enumerate(prefix.tolist()):
        left_user, right_user = pairs[index]
        left.append(left_codes.setdefault(left_user, rank))
        right.append(right_codes.setdefault(right_user, rank))
    picks = greedy_walk(
        left,
        right,
        scores[prefix],
        threshold=threshold,
        blocked_left=_codes_of(left_codes, blocked_left),
        blocked_right=_codes_of(right_codes, blocked_right),
    )
    labels = np.zeros(len(pairs), dtype=np.int64)
    labels[prefix[picks]] = 1
    return labels


def _codes_of(codes: Dict[NodeId, int], users: Optional[Iterable[NodeId]]) -> List[int]:
    """Codes of the ``users`` that appear among the coded candidates."""
    if not users:
        return []
    return [codes[user] for user in users if user in codes]


def selection_objective(scores: np.ndarray, labels: np.ndarray) -> float:
    """Total score captured by a selection (the greedy's objective)."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise ConstraintViolationError("scores and labels must align")
    return float(scores[labels == 1].sum())

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

from typing import Iterable, Optional, Sequence, Set

import numpy as np

from repro.exceptions import ConstraintViolationError
from repro.types import LinkPair, NodeId

#: Candidates converted to Python ints at a time by the greedy walk.
_WALK_CHUNK = 4096


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
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if scores.shape[0] != len(pairs):
        raise ConstraintViolationError(
            f"{scores.shape[0]} scores for {len(pairs)} candidate links"
        )
    if np.isnan(scores).any():
        raise ConstraintViolationError("candidate link scores contain NaN")
    used_left: Set[NodeId] = set(blocked_left) if blocked_left else set()
    used_right: Set[NodeId] = set(blocked_right) if blocked_right else set()
    # Only links above the threshold can be accepted, so only that
    # prefix of the stable descending order (ties keep candidate order)
    # is sorted and walked.
    if np.count_nonzero(scores > threshold) == len(pairs):
        order = np.argsort(-scores, kind="stable")
        candidates = pairs
    else:
        prefix = np.flatnonzero(scores > threshold)
        order = prefix[np.argsort(-scores[prefix], kind="stable")]
        candidates = [pairs[index] for index in prefix.tolist()]
    # Allocated once the sort's negated copy is gone, to keep the peak low.
    labels = np.zeros(len(pairs), dtype=np.int64)
    # Each accepted link uses up one free candidate user per side, so the
    # walk is over once either side has none left.
    remaining = min(
        len({left for left, _ in candidates}.difference(used_left)),
        len({right for _, right in candidates}.difference(used_right)),
    )
    # Walked in chunks: plain ints index ``pairs`` faster than numpy
    # scalars, and one list of the whole order would cost a Python int
    # per candidate.
    for start in range(0, order.size, _WALK_CHUNK):
        for index in order[start : start + _WALK_CHUNK].tolist():
            if remaining == 0:
                return labels
            left_user, right_user = pairs[index]
            if left_user in used_left or right_user in used_right:
                continue
            labels[index] = 1
            used_left.add(left_user)
            used_right.add(right_user)
            remaining -= 1
    return labels


def selection_objective(scores: np.ndarray, labels: np.ndarray) -> float:
    """Total score captured by a selection (the greedy's objective)."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise ConstraintViolationError("scores and labels must align")
    return float(scores[labels == 1].sum())

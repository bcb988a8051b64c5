"""One-to-one cardinality constraint modeling (§III-C.4).

The paper encodes the constraint through user-node/anchor-link incidence
matrices ``A^(1)``, ``A^(2)`` and the degree bounds ``0 ≤ A^(s) y ≤ 1``.
This module builds those matrices for an ordered candidate list and
provides validators used both by models (to assert their own output) and
by the test suite.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import numpy as np
from scipy import sparse

from repro.exceptions import ConstraintViolationError
from repro.types import LinkPair, NodeId


def incidence_matrices(
    pairs: Sequence[LinkPair],
) -> Tuple[sparse.csr_matrix, sparse.csr_matrix, List[NodeId], List[NodeId]]:
    """Build the user/link incidence matrices for a candidate list.

    Returns
    -------
    (A1, A2, left_users, right_users)
        ``A1[i, j] = 1`` iff candidate ``j`` is incident to the i-th
        distinct left user; likewise ``A2`` for right users.  The user
        lists give the row orderings.
    """
    left_users: List[NodeId] = []
    right_users: List[NodeId] = []
    left_index: Dict[NodeId, int] = {}
    right_index: Dict[NodeId, int] = {}
    left_rows: List[int] = []
    right_rows: List[int] = []
    for left_user, right_user in pairs:
        if left_user not in left_index:
            left_index[left_user] = len(left_users)
            left_users.append(left_user)
        if right_user not in right_index:
            right_index[right_user] = len(right_users)
            right_users.append(right_user)
        left_rows.append(left_index[left_user])
        right_rows.append(right_index[right_user])
    n_links = len(pairs)
    cols = np.arange(n_links)
    ones = np.ones(n_links, dtype=np.float64)
    A1 = sparse.csr_matrix(
        (ones, (np.asarray(left_rows), cols)), shape=(len(left_users), n_links)
    )
    A2 = sparse.csr_matrix(
        (ones, (np.asarray(right_rows), cols)), shape=(len(right_users), n_links)
    )
    return A1, A2, left_users, right_users


def degree_vectors(
    pairs: Sequence[LinkPair], labels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Node degrees ``d^(1) = A^(1) y`` and ``d^(2) = A^(2) y``."""
    labels = np.asarray(labels).ravel()
    if labels.shape[0] != len(pairs):
        raise ConstraintViolationError(
            f"{labels.shape[0]} labels for {len(pairs)} candidate links"
        )
    A1, A2, _, _ = incidence_matrices(pairs)
    return A1 @ labels, A2 @ labels


def satisfies_one_to_one(pairs: Sequence[LinkPair], labels: np.ndarray) -> bool:
    """Whether the labeled positives use each user at most once."""
    d1, d2 = degree_vectors(pairs, labels)
    return bool(np.all(d1 <= 1) and np.all(d2 <= 1))


def assert_one_to_one(pairs: Sequence[LinkPair], labels: np.ndarray) -> None:
    """Raise :class:`ConstraintViolationError` listing violating users."""
    labels = np.asarray(labels).ravel()
    positives = [pair for pair, label in zip(pairs, labels) if label == 1]
    seen_left: Set[NodeId] = set()
    seen_right: Set[NodeId] = set()
    violating: List[LinkPair] = []
    for left_user, right_user in positives:
        if left_user in seen_left or right_user in seen_right:
            violating.append((left_user, right_user))
        seen_left.add(left_user)
        seen_right.add(right_user)
    if violating:
        raise ConstraintViolationError(
            f"one-to-one constraint violated by {len(violating)} links, "
            f"e.g. {violating[:3]}"
        )


def conflicting_indices(pairs: Sequence[LinkPair]) -> List[List[int]]:
    """For each candidate, the indices of other candidates sharing a user.

    The plain statement of the conflicts the paper's query rule inspects
    (the positive links that *conflict* with a negative candidate).  The
    query strategy ranks with a vectorized kernel over per-user groups
    instead; this list-of-lists form stays as the reference the test
    suite checks that kernel against.
    """
    by_left: Dict[NodeId, List[int]] = {}
    by_right: Dict[NodeId, List[int]] = {}
    for index, (left_user, right_user) in enumerate(pairs):
        by_left.setdefault(left_user, []).append(index)
        by_right.setdefault(right_user, []).append(index)
    conflicts: List[List[int]] = []
    for index, (left_user, right_user) in enumerate(pairs):
        neighbors = set(by_left[left_user]) | set(by_right[right_user])
        neighbors.discard(index)
        conflicts.append(sorted(neighbors))
    return conflicts

"""Tests for repro.networks.aligned."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import AlignmentError, NetworkError
from repro.networks.aligned import AlignedPair
from repro.networks.builders import SocialNetworkBuilder
from repro.networks.schema import LOCATION, TIMESTAMP, USER


def _simple_pair():
    left = (
        SocialNetworkBuilder("left")
        .add_users(["l0", "l1"])
        .post("l0", post_id="lp", timestamp=5, location="cafe")
        .build()
    )
    right = (
        SocialNetworkBuilder("right")
        .add_users(["r0", "r1"])
        .post("r1", post_id="rp", timestamp=5, location="park")
        .build()
    )
    return AlignedPair(left, right, [("l0", "r0")])


class TestAnchors:
    def test_anchor_count(self):
        pair = _simple_pair()
        assert pair.anchor_count() == 1
        assert pair.is_anchor(("l0", "r0"))
        assert not pair.is_anchor(("l0", "r1"))

    def test_lookup_both_directions(self):
        pair = _simple_pair()
        assert pair.anchored_right("l0") == "r0"
        assert pair.anchored_left("r0") == "l0"
        assert pair.anchored_right("l1") is None

    def test_one_to_one_enforced_left(self):
        pair = _simple_pair()
        with pytest.raises(AlignmentError, match="one-to-one"):
            pair.add_anchor(("l0", "r1"))

    def test_one_to_one_enforced_right(self):
        pair = _simple_pair()
        with pytest.raises(AlignmentError, match="one-to-one"):
            pair.add_anchor(("l1", "r0"))

    def test_missing_endpoint_rejected(self):
        pair = _simple_pair()
        with pytest.raises(AlignmentError, match="missing from left"):
            pair.add_anchor(("ghost", "r1"))
        with pytest.raises(AlignmentError, match="missing from right"):
            pair.add_anchor(("l1", "ghost"))

    def test_anchors_returns_copy(self):
        pair = _simple_pair()
        pair.anchors.clear()
        assert pair.anchor_count() == 1


class TestCandidateSpace:
    def test_size(self):
        assert _simple_pair().candidate_space_size() == 4

    def test_user_lists(self):
        pair = _simple_pair()
        assert pair.left_users() == ["l0", "l1"]
        assert pair.right_users() == ["r0", "r1"]


class TestSharedVocabulary:
    def test_union_keeps_left_order_then_right_only(self):
        pair = _simple_pair()
        assert pair.shared_vocabulary(LOCATION) == ["cafe", "park"]
        assert pair.shared_vocabulary(TIMESTAMP) == [5]

    def test_attribute_matrices_align_columns(self):
        pair = _simple_pair()
        left, right = pair.attribute_matrices(LOCATION)
        assert left.shape[1] == right.shape[1] == 2
        # "cafe" is column 0 in both exports.
        assert left[0, 0] == 1 and right[0, 1] == 1


class TestAnchorMatrix:
    def test_full_anchor_matrix(self):
        pair = _simple_pair()
        A = pair.anchor_matrix()
        assert A.shape == (2, 2)
        assert A[0, 0] == 1 and A.sum() == 1

    def test_subset_anchor_matrix(self):
        pair = _simple_pair()
        A = pair.anchor_matrix(anchors=[])
        assert A.nnz == 0

    def test_pairs_to_indices(self):
        pair = _simple_pair()
        left_idx, right_idx = pair.pairs_to_indices([("l1", "r0"), ("l0", "r1")])
        assert left_idx.tolist() == [1, 0]
        assert right_idx.tolist() == [0, 1]

    def test_repr(self):
        assert "anchors=1" in repr(_simple_pair())


@settings(max_examples=100, deadline=None)
@given(
    removed=st.sets(st.sampled_from(["l0", "l1", "r0", "r1"])),
    pairs=st.lists(
        st.tuples(
            st.sampled_from(["l0", "l1", "lx"]), st.sampled_from(["r0", "r1", "rx"])
        ),
        max_size=8,
    ),
)
def test_pairs_to_indices_matches_slot_lookup(removed, pairs):
    """Batch resolution == a per-user slot lookup, errors included."""
    pair = _simple_pair()
    pair.left.add_node(USER, "l2")  # a slot past the removed ones
    for user in sorted(removed):
        network = pair.left if user.startswith("l") else pair.right
        network.remove_node(USER, user)
    lefts = {u: i for i, u in enumerate(pair.left_user_slots()) if u is not None}
    rights = {u: j for j, u in enumerate(pair.right_user_slots()) if u is not None}
    missing = [u for u, _ in pairs if u not in lefts] + [
        v for _, v in pairs if v not in rights
    ]
    if missing:
        with pytest.raises(NetworkError, match=repr(missing[0])):
            pair.pairs_to_indices(pairs)
        return
    left_idx, right_idx = pair.pairs_to_indices(pairs)
    assert left_idx.dtype == right_idx.dtype == np.int64
    assert left_idx.tolist() == [lefts[u] for u, _ in pairs]
    assert right_idx.tolist() == [rights[v] for _, v in pairs]

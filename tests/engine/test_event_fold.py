"""Generated differential oracle for the session's one event fold.

Every network event folds through one path: per-leaf sparse deltas
built from the event record, skipping whatever no bag matrix reads, and
re-exporting an attribute's matrix pair only when the cached column
index cannot place its cells.  After every event the session's features
must be byte-identical to those of a fresh session built on a deep copy
of the pair that replayed the same events.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import AlignmentSession
from repro.networks.aligned import AlignedPair, NetworkDelta
from repro.networks.heterogeneous import HeterogeneousNetwork
from repro.networks.schema import (
    AttributeTypeSpec,
    EdgeTypeSpec,
    NetworkSchema,
    social_network_schema,
)

ATTRIBUTES = ("timestamp", "location", "word")


def _schema(name, extended):
    """The social schema, or one extended by parts no bag matrix reads:
    a ``group`` node type, a ``member`` relation and a user ``city``."""
    base = social_network_schema(name)
    if not extended:
        return base
    return NetworkSchema(
        name,
        node_types=[*base.node_types, "group"],
        edge_types=[
            *base.edge_types.values(),
            EdgeTypeSpec("member", "user", "group"),
        ],
        attribute_types=[
            *base.attribute_types.values(),
            AttributeTypeSpec("city", "user", "lives"),
        ],
    )


def _network(side, seed, extended):
    """Four users with random follows and one post each.

    Left posts draw attribute values from 0..2 and right posts from
    0..4, so the right network starts with right-only values: a left
    event that brings in a new value then moves their shared columns.
    """
    rng = np.random.default_rng(seed)
    network = HeterogeneousNetwork(_schema(side, extended), side)
    prefix = side[0]
    users = [f"{prefix}u{i}" for i in range(4)]
    network.add_nodes("user", users)
    for source in users:
        for target in users:
            if source != target and rng.random() < 0.4:
                network.add_edge("follow", source, target)
    n_values = 3 if side == "left" else 5
    for i, user in enumerate(users):
        post = f"{prefix}p{i}"
        network.add_node("post", post)
        network.add_edge("write", user, post)
        for attribute in ATTRIBUTES:
            value = int(rng.integers(n_values))
            network.attach_attribute(attribute, post, value)
    if extended:
        network.add_nodes("group", [f"{prefix}g0", f"{prefix}g1"])
        for i, user in enumerate(users):
            network.add_edge("member", user, f"{prefix}g{i % 2}")
            network.attach_attribute("city", user, i % 3)
    return network


def _pair(seed, extended=False):
    return AlignedPair(
        _network("left", seed, extended),
        _network("right", seed + 1, extended),
        [("lu0", "ru0"), ("lu1", "ru1"), ("lu2", "ru2")],
    )


def _live_pairs(pair):
    return [(u, v) for u in pair.left_users() for v in pair.right_users()]


def _draw_value(data, pair, attribute, tag):
    """An existing left value, a right-only value, or a brand-new one."""
    left = pair.left.attribute_values(attribute)
    seen = set(left)
    right_only = [
        value
        for value in pair.right.attribute_values(attribute)
        if value not in seen
    ]
    pools = [pool for pool in (left, right_only) if pool]
    pools.append([f"{tag}:{attribute}"])
    return data.draw(st.sampled_from(data.draw(st.sampled_from(pools))))


def _draw_event(data, pair, extended, tag):
    """One valid event on the current pair, or ``None`` if the drawn
    kind has nothing to act on."""
    side = data.draw(st.sampled_from(["left", "right"]))
    network = pair.left if side == "left" else pair.right
    users = network.nodes("user")
    posts = network.nodes("post")
    kinds = ["post", "follow", "unfollow", "write", "unwrite",
             "add_user", "remove_user", "remove_post"]
    if extended:
        kinds += ["group", "ungroup"]
    kind = data.draw(st.sampled_from(kinds))

    def pick(items):
        return data.draw(st.sampled_from(items))

    if kind == "post" and users:
        post = f"{tag}:p"
        return NetworkDelta.build(
            side,
            added_nodes={"post": [post]},
            added_edges=[("write", pick(users), post)],
            updated_attributes=[
                (attribute, post, _draw_value(data, pair, attribute, tag))
                for attribute in ATTRIBUTES
            ],
        )
    if kind == "follow" and len(users) >= 2:
        source = pick(users)
        target = pick([user for user in users if user != source])
        return NetworkDelta.build(
            side, added_edges=[("follow", source, target)]
        )
    if kind == "write" and users and posts:
        return NetworkDelta.build(
            side, added_edges=[("write", pick(users), pick(posts))]
        )
    if kind in ("unfollow", "unwrite"):
        relation = "follow" if kind == "unfollow" else "write"
        edges = list(network.edges(relation))
        if edges:
            return NetworkDelta.build(
                side, removed_edges=[(relation, *pick(edges))]
            )
    if kind == "add_user":
        user = f"{tag}:u"
        return NetworkDelta.build(
            side,
            added_nodes={"user": [user]},
            added_edges=[("follow", user, pick(users))] if users else [],
        )
    if kind == "remove_user" and users:
        # Lean on anchored users: their removal takes a known anchor.
        endpoint = 0 if side == "left" else 1
        anchored = sorted(link[endpoint] for link in pair.anchors)
        pool = anchored if anchored and data.draw(st.booleans()) else users
        return NetworkDelta.build(side, removed_nodes={"user": [pick(pool)]})
    if kind == "remove_post" and posts:
        return NetworkDelta.build(side, removed_nodes={"post": [pick(posts)]})
    if kind == "group" and users:
        group = f"{tag}:g"
        user = pick(users)
        return NetworkDelta.build(
            side,
            added_nodes={"group": [group]},
            added_edges=[("member", user, group)],
            updated_attributes=[("city", user, f"{tag}:city")],
        )
    if kind == "ungroup" and network.nodes("group"):
        return NetworkDelta.build(
            side, removed_nodes={"group": [pick(network.nodes("group"))]}
        )
    return None


def _assert_matches_fresh(session, replica, include_words):
    pairs = _live_pairs(session.pair)
    fresh = AlignmentSession(
        replica,
        known_anchors=session.known_anchors,
        include_words=include_words,
    )
    assert session.extract(pairs).tobytes() == fresh.extract(pairs).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 50),
    extended=st.booleans(),
    include_words=st.booleans(),
    data=st.data(),
)
def test_every_event_folds_to_a_fresh_session(
    seed, extended, include_words, data
):
    pair = _pair(seed, extended)
    replica = copy.deepcopy(pair)
    session = AlignmentSession(
        pair,
        known_anchors=pair.anchors,
        include_words=include_words,
        strict_deltas=True,
    )
    for serial in range(data.draw(st.integers(1, 6), label="events")):
        delta = _draw_event(data, pair, extended, f"e{serial}")
        if delta is None:
            continue
        session.apply_network_delta(delta)
        replica.apply_delta(delta)
        _assert_matches_fresh(session, replica, include_words)


def test_left_value_new_to_the_left_reorders_and_stays_exact():
    pair = _pair(0)
    right_only = sorted(
        set(pair.right.attribute_values("timestamp"))
        - set(pair.left.attribute_values("timestamp"))
    )
    assert right_only, "fixture must carry right-only timestamps"
    replica = copy.deepcopy(pair)
    session = AlignmentSession(
        pair, known_anchors=pair.anchors, strict_deltas=True
    )
    before = pair.shared_vocabulary("timestamp")
    delta = NetworkDelta.build(
        "left",
        added_nodes={"post": ["lp9"]},
        added_edges=[("write", "lu0", "lp9")],
        updated_attributes=[("timestamp", "lp9", "brand-new")],
    )
    assert session.apply_network_delta(delta)
    replica.apply_delta(delta)
    after = pair.shared_vocabulary("timestamp")
    assert after[: len(before)] != before  # a column moved
    _assert_matches_fresh(session, replica, include_words=False)


def test_value_the_cached_index_lacks_is_re_exported():
    """A value attached behind the session's back is placed by
    re-exporting its attribute pair, so the fold stays exact."""
    pair = _pair(1)
    session = AlignmentSession(
        pair, known_anchors=pair.anchors, strict_deltas=True
    )
    pair.left.attach_attribute("location", "lp0", "unseen")
    delta = NetworkDelta.build(
        "left",
        added_nodes={"post": ["lp9"]},
        added_edges=[("write", "lu1", "lp9")],
        updated_attributes=[("location", "lp9", "unseen")],
    )
    assert session.apply_network_delta(delta)
    _assert_matches_fresh(session, copy.deepcopy(pair), include_words=False)


def test_events_no_bag_matrix_reads_fold_as_no_ops():
    pair = _pair(2, extended=True)
    replica = copy.deepcopy(pair)
    session = AlignmentSession(
        pair, known_anchors=pair.anchors, strict_deltas=True
    )
    X = session.extract(_live_pairs(pair))
    unread = [
        NetworkDelta.build(
            "left",
            added_nodes={"group": ["lg9"]},
            added_edges=[("member", "lu3", "lg9")],
            updated_attributes=[("city", "lu3", "elsewhere")],
        ),
        NetworkDelta.build("right", removed_nodes={"group": ["rg0"]}),
        NetworkDelta.build(
            "right", removed_edges=[("member", "ru1", "rg1")]
        ),
    ]
    for delta in unread:
        assert not session.apply_network_delta(delta)
        replica.apply_delta(delta)
    assert np.array_equal(session.extract(_live_pairs(pair)), X)
    assert session.stats.network_updates == 0
    # A mixed event folds its bag entries and skips the rest.
    mixed = NetworkDelta.build(
        "left",
        added_nodes={"group": ["lg10"], "post": ["lp9"]},
        added_edges=[("member", "lu0", "lg10"), ("write", "lu0", "lp9")],
        updated_attributes=[("timestamp", "lp9", 7), ("city", "lu0", 7)],
    )
    assert session.apply_network_delta(mixed)
    replica.apply_delta(mixed)
    _assert_matches_fresh(session, replica, include_words=False)
    # Removing a user cascades its member edges and city too.
    gone = NetworkDelta.build("left", removed_nodes={"user": ["lu0"]})
    assert session.apply_network_delta(gone)
    replica.apply_delta(gone)
    _assert_matches_fresh(session, replica, include_words=False)

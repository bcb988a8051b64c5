"""Tests for repro.networks.heterogeneous."""

import copy
import pickle

import numpy as np
import pytest

from repro.exceptions import NetworkError, SchemaError
from repro.networks import heterogeneous
from repro.networks.aligned import AlignedPair, NetworkDelta
from repro.networks.heterogeneous import HeterogeneousNetwork
from repro.networks.schema import (
    FOLLOW,
    LOCATION,
    POST,
    TIMESTAMP,
    USER,
    WRITE,
    social_network_schema,
)


@pytest.fixture()
def net() -> HeterogeneousNetwork:
    network = HeterogeneousNetwork(social_network_schema(), "demo")
    network.add_nodes(USER, ["u0", "u1", "u2"])
    network.add_nodes(POST, ["p0", "p1"])
    network.add_edge(FOLLOW, "u0", "u1")
    network.add_edge(FOLLOW, "u1", "u0")
    network.add_edge(WRITE, "u0", "p0")
    network.add_edge(WRITE, "u2", "p1")
    network.attach_attribute(TIMESTAMP, "p0", 7)
    network.attach_attribute(LOCATION, "p0", (1, 2))
    network.attach_attribute(TIMESTAMP, "p1", 7)
    return network


class TestNodes:
    def test_counts(self, net):
        assert net.node_count(USER) == 3
        assert net.node_count(POST) == 2

    def test_ordering_is_insertion_order(self, net):
        assert net.nodes(USER) == ["u0", "u1", "u2"]

    def test_duplicate_node_rejected(self, net):
        with pytest.raises(NetworkError, match="already exists"):
            net.add_node(USER, "u0")

    def test_same_id_different_type_allowed(self, net):
        net.add_node(POST, "u0")
        assert net.has_node(POST, "u0")

    def test_unknown_node_type_raises(self, net):
        with pytest.raises(SchemaError):
            net.add_node("company", "c0")

    def test_node_position_roundtrip(self, net):
        for i, node in enumerate(net.nodes(USER)):
            assert net.node_position(USER, node) == i

    def test_node_position_unknown_node(self, net):
        with pytest.raises(NetworkError, match="unknown"):
            net.node_position(USER, "ghost")

    def test_node_positions_batch(self, net):
        net.remove_node(USER, "u1")
        net.add_node(USER, "u1")  # re-added into a fresh slot
        positions = net.node_positions(USER, ["u2", "u0", "u2", "u1"])
        assert positions.dtype == np.int64
        assert positions.tolist() == [2, 0, 2, 3]

    def test_node_positions_empty(self, net):
        positions = net.node_positions(USER, iter(()))
        assert positions.dtype == np.int64 and positions.shape == (0,)

    def test_node_positions_name_the_first_missing_id(self, net):
        net.remove_node(USER, "u1")  # tombstoned: no longer resolvable
        with pytest.raises(NetworkError, match="'u1'"):
            net.node_positions(USER, ["u0", "u1", "ghost"])
        with pytest.raises(NetworkError, match="'ghost'"):
            net.node_positions(USER, ["u2", "ghost", "u1"])

    def test_nodes_returns_copy(self, net):
        net.nodes(USER).append("intruder")
        assert net.node_count(USER) == 3


class TestEdges:
    def test_has_edge(self, net):
        assert net.has_edge(FOLLOW, "u0", "u1")
        assert not net.has_edge(FOLLOW, "u0", "u2")

    def test_edge_count(self, net):
        assert net.edge_count(FOLLOW) == 2
        assert net.edge_count(WRITE) == 2

    def test_duplicate_edge_is_idempotent(self, net):
        net.add_edge(FOLLOW, "u0", "u1")
        assert net.edge_count(FOLLOW) == 2

    def test_self_loop_rejected(self, net):
        with pytest.raises(NetworkError, match="self-loop"):
            net.add_edge(FOLLOW, "u0", "u0")

    def test_missing_source_rejected(self, net):
        with pytest.raises(NetworkError, match="missing source"):
            net.add_edge(FOLLOW, "ghost", "u0")

    def test_missing_target_rejected(self, net):
        with pytest.raises(NetworkError, match="missing target"):
            net.add_edge(WRITE, "u0", "ghost")

    def test_successors_predecessors(self, net):
        assert net.successors(FOLLOW, "u0") == {"u1"}
        assert net.predecessors(FOLLOW, "u0") == {"u1"}
        assert net.successors(WRITE, "u2") == {"p1"}

    def test_edges_iteration(self, net):
        assert set(net.edges(FOLLOW)) == {("u0", "u1"), ("u1", "u0")}

    def test_unknown_relation_raises(self, net):
        with pytest.raises(SchemaError):
            net.add_edge("likes", "u0", "u1")


class TestAttributes:
    def test_vocabulary_grows_in_first_seen_order(self, net):
        assert net.attribute_values(TIMESTAMP) == [7]
        net.attach_attribute(TIMESTAMP, "p1", 3)
        assert net.attribute_values(TIMESTAMP) == [7, 3]

    def test_multiset_counting(self, net):
        net.attach_attribute(TIMESTAMP, "p0", 7, count=2)
        assert net.node_attributes(TIMESTAMP, "p0") == {7: 3}
        assert net.attribute_link_count(TIMESTAMP) == 4

    def test_zero_count_rejected(self, net):
        with pytest.raises(NetworkError, match="count"):
            net.attach_attribute(TIMESTAMP, "p0", 9, count=0)

    def test_attach_to_missing_node_rejected(self, net):
        with pytest.raises(NetworkError, match="missing"):
            net.attach_attribute(TIMESTAMP, "ghost", 1)

    def test_tuple_attribute_values_allowed(self, net):
        assert net.node_attributes(LOCATION, "p0") == {(1, 2): 1}

    def test_unknown_attribute_raises(self, net):
        with pytest.raises(SchemaError):
            net.attach_attribute("mood", "p0", "happy")


class TestMatrixExports:
    def test_typed_adjacency_shape_and_entries(self, net):
        follow = net.typed_adjacency(FOLLOW)
        assert follow.shape == (3, 3)
        assert follow[0, 1] == 1 and follow[1, 0] == 1
        assert follow.sum() == 2

    def test_write_matrix_rectangular(self, net):
        write = net.typed_adjacency(WRITE)
        assert write.shape == (3, 2)
        assert write[0, 0] == 1 and write[2, 1] == 1

    def test_attribute_matrix_default_vocabulary(self, net):
        ts = net.attribute_matrix(TIMESTAMP)
        assert ts.shape == (2, 1)
        assert ts[0, 0] == 1 and ts[1, 0] == 1

    def test_attribute_matrix_shared_vocabulary(self, net):
        ts = net.attribute_matrix(TIMESTAMP, vocabulary=[99, 7])
        assert ts.shape == (2, 2)
        assert ts[0, 1] == 1
        assert ts[:, 0].sum() == 0

    def test_attribute_matrix_binary_vs_counts(self, net):
        net.attach_attribute(TIMESTAMP, "p0", 7, count=4)
        binary = net.attribute_matrix(TIMESTAMP, binary=True)
        counts = net.attribute_matrix(TIMESTAMP, binary=False)
        assert binary[0, 0] == 1
        assert counts[0, 0] == 5

    def test_incomplete_vocabulary_rejected(self, net):
        with pytest.raises(NetworkError, match="omits value 7 present"):
            net.attribute_matrix(TIMESTAMP, vocabulary=[99])

    def test_empty_relation_matrix(self):
        network = HeterogeneousNetwork(social_network_schema())
        network.add_nodes(USER, ["a", "b"])
        follow = network.typed_adjacency(FOLLOW)
        assert follow.shape == (2, 2)
        assert follow.nnz == 0

    def test_repr_summarizes(self, net):
        text = repr(net)
        assert "user=3" in text and "follow=2" in text


def _exports(network, vocabularies=None):
    """Every matrix export of ``network``, dense (``vocabularies`` maps
    an attribute to its column order; default the network's own)."""
    exports = {
        relation: network.typed_adjacency(relation).toarray()
        for relation in (FOLLOW, WRITE)
    }
    for attribute in (TIMESTAMP, LOCATION):
        for binary in (True, False):
            exports[attribute, binary] = network.attribute_matrix(
                attribute,
                vocabulary=(vocabularies or {}).get(attribute),
                binary=binary,
            ).toarray()
    return exports


def _assert_fresh(network, vocabularies=None):
    """The (memoized) exports equal those of a memo-free copy."""
    fresh = copy.deepcopy(network)
    assert fresh not in heterogeneous._EXPORTS
    expected = _exports(fresh, vocabularies)
    actual = _exports(network, vocabularies)
    assert actual.keys() == expected.keys()
    for key, matrix in expected.items():
        assert np.array_equal(actual[key], matrix), key


class TestExportMemo:
    """Exports are memoized per network but never observably stale."""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda net: net.add_node(USER, "u3"),
            lambda net: net.add_nodes(POST, ["p2", "p3"]),
            lambda net: net.add_edge(FOLLOW, "u2", "u0"),
            lambda net: net.remove_edge(FOLLOW, "u0", "u1"),
            lambda net: net.attach_attribute(TIMESTAMP, "p1", 9),
            lambda net: net.attach_attribute(TIMESTAMP, "p0", 7, count=2),
            lambda net: net.detach_attributes(TIMESTAMP, "p0"),
            lambda net: net.remove_node(USER, "u0"),
            lambda net: net.remove_node(POST, "p0"),
            lambda net: (net.remove_node(USER, "u1"), net.compact()),
        ],
        ids=[
            "add_node", "add_nodes", "add_edge", "remove_edge",
            "attach_new_value", "attach_repeat", "detach", "remove_user",
            "remove_post", "compact",
        ],
    )
    def test_export_after_mutation_equals_fresh(self, net, mutate):
        _exports(net)  # populate the memo
        mutate(net)
        _assert_fresh(net)

    def test_compaction_that_restores_every_count_reexports(self, net):
        """Slot counts and the write epoch come back equal; positions do
        not — the node epoch is what tells the memo."""
        net.remove_edge(WRITE, "u0", "p0")
        before = net.typed_adjacency(WRITE).toarray()
        net.remove_node(POST, "p0")
        net.compact()
        net.add_node(POST, "p2")
        assert not np.array_equal(net.typed_adjacency(WRITE).toarray(), before)
        _assert_fresh(net)

    def test_export_after_apply_delta_equals_fresh(self, net):
        right = HeterogeneousNetwork(social_network_schema(), "right")
        right.add_nodes(USER, ["r0", "r1"])
        right.add_nodes(POST, ["q0"])
        right.add_edge(WRITE, "r0", "q0")
        right.attach_attribute(TIMESTAMP, "q0", 3)
        pair = AlignedPair(net, right, [("u0", "r0")])
        for attribute in (TIMESTAMP, LOCATION):
            pair.attribute_matrices(attribute)
        _exports(net)
        pair.apply_delta(
            NetworkDelta.build(
                "left",
                added_nodes={POST: ["p9"]},
                added_edges=[(WRITE, "u1", "p9"), (FOLLOW, "u2", "u1")],
                updated_attributes=[(TIMESTAMP, "p9", 3), (LOCATION, "p9", 4)],
                removed_nodes={USER: ["u0"]},
            )
        )
        _assert_fresh(net)
        _assert_fresh(
            net,
            {
                attribute: pair.shared_vocabulary(attribute)
                for attribute in (TIMESTAMP, LOCATION)
            },
        )

    def test_vocabulary_change_reexports(self, net):
        first = net.attribute_matrix(TIMESTAMP, vocabulary=[7, 8]).toarray()
        second = net.attribute_matrix(TIMESTAMP, vocabulary=[8, 7]).toarray()
        assert np.array_equal(first[:, ::-1], second)
        _assert_fresh(net, {TIMESTAMP: [8, 7], LOCATION: [(5, 5), (1, 2)]})

    def test_caller_mutation_does_not_leak(self, net):
        follow = net.typed_adjacency(FOLLOW)
        follow.data[:] = 5.0
        follow.indices[:] = 2
        stamps = net.attribute_matrix(TIMESTAMP, binary=False)
        stamps.data *= 3
        _assert_fresh(net)

    def test_memo_holds_one_entry_per_export(self, net):
        for step in range(5):
            net.add_node(USER, f"new{step}")
            net.attach_attribute(TIMESTAMP, "p0", 100 + step)
            net.typed_adjacency(FOLLOW)
            net.attribute_matrix(TIMESTAMP)
            net.attribute_matrix(TIMESTAMP, binary=False)
        assert set(heterogeneous._EXPORTS[net]) == {
            FOLLOW, (TIMESTAMP, True), (TIMESTAMP, False)
        }
        _assert_fresh(net)

    def test_pickle_and_deepcopy_carry_no_memo(self, net):
        before = pickle.dumps(net)
        _exports(net)
        assert net in heterogeneous._EXPORTS
        assert pickle.dumps(net) == before
        assert pickle.loads(before) not in heterogeneous._EXPORTS
        assert copy.deepcopy(net) not in heterogeneous._EXPORTS

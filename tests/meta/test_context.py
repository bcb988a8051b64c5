"""Tests for repro.meta.context: the bag layout table and its exports."""

import pytest

from repro.meta.context import (
    BAG_LAYOUT,
    bag_layout,
    bag_shapes,
    build_matrix_bag,
)
from repro.meta.discovery import schema_edges
from repro.networks.schema import ANCHOR, USER, social_network_schema


class TestBagLayout:
    def test_rows_match_the_social_schema(self):
        schema = social_network_schema()
        for row in BAG_LAYOUT:
            if row.is_anchor:
                assert (row.source, row.target) == (USER, USER)
            elif row.is_attribute:
                spec = schema.attribute_type(row.relation)
                assert row.source == spec.node_type
            else:
                spec = schema.edge_type(row.relation)
                assert (row.source, row.target) == (spec.source, spec.target)
            assert row.source in schema.node_types

    def test_one_row_per_side_and_relation(self):
        keys = [(row.side, row.relation) for row in BAG_LAYOUT]
        assert len(set(keys)) == len(keys) == 11
        assert [row.relation for row in BAG_LAYOUT].count(ANCHOR) == 1

    def test_words_off_drops_only_the_word_rows(self):
        names = [row.name for row in bag_layout(include_words=False)]
        assert names == ["F1", "F2", "W1", "W2", "A", "T1", "T2", "L1", "L2"]
        assert len(bag_layout()) == len(BAG_LAYOUT)


@pytest.mark.parametrize("include_words", [False, True])
def test_export_follows_the_table(tiny_synthetic_pair, include_words):
    pair = tiny_synthetic_pair
    bag = build_matrix_bag(
        pair, known_anchors=pair.anchors, include_words=include_words
    )
    rows = bag_layout(include_words)
    assert list(bag) == [row.name for row in rows]
    sizes = {
        row.relation: len(pair.shared_vocabulary(row.relation))
        for row in rows
        if row.is_attribute
    }
    shapes = bag_shapes(pair, sizes, include_words=include_words)
    assert shapes == {name: matrix.shape for name, matrix in bag.items()}


def test_schema_edges_are_the_figure_2_schema():
    edges = {
        (edge.matrix, edge.source, edge.target)
        for edge in schema_edges(include_words=True)
    }
    assert edges == {
        ("F1", ("1", "user"), ("1", "user")),
        ("F2", ("2", "user"), ("2", "user")),
        ("W1", ("1", "user"), ("1", "post")),
        ("W2", ("2", "user"), ("2", "post")),
        ("T1", ("1", "post"), ("shared", "timestamp")),
        ("T2", ("2", "post"), ("shared", "timestamp")),
        ("L1", ("1", "post"), ("shared", "location")),
        ("L2", ("2", "post"), ("shared", "location")),
        ("D1", ("1", "post"), ("shared", "word")),
        ("D2", ("2", "post"), ("shared", "word")),
        ("A", ("1", "user"), ("2", "user")),
    }

"""Typed-adjacency matrix bags for an aligned network pair.

The meta-structure counting algebra works on named matrices, the
*matrix bag*.  :data:`BAG_LAYOUT` writes the bag's layout once, as one
typed schema edge per matrix over the paper's social schema (Figure 2):
follow adjacency ``F``, write incidence ``W``, and the post-timestamp,
post-location and post-word incidences ``T``, ``L`` and ``D`` on the
shared vocabularies, with suffix ``1`` for the left network and ``2``
for the right, plus the known-anchor matrix ``A`` (U1 x U2).  The
export (:func:`build_matrix_bag`), the shapes (:func:`bag_shapes`), the
schema graph of :func:`repro.meta.discovery.schema_edges` and the
session's event fold all derive from that table.

Only anchors passed by the caller enter ``A`` — model code must pass the
training/queried anchors, never the full ground truth, to avoid label
leakage through path counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.meta.algebra import MatrixBag
from repro.networks.aligned import AlignedPair
from repro.networks.schema import (
    ANCHOR,
    FOLLOW,
    LOCATION,
    POST,
    TIMESTAMP,
    USER,
    WORD,
    WRITE,
)
from repro.types import LinkPair

FOLLOW_LEFT = "F1"
FOLLOW_RIGHT = "F2"
WRITE_LEFT = "W1"
WRITE_RIGHT = "W2"
TIMESTAMP_LEFT = "T1"
TIMESTAMP_RIGHT = "T2"
LOCATION_LEFT = "L1"
LOCATION_RIGHT = "L2"
WORD_LEFT = "D1"
WORD_RIGHT = "D2"
ANCHOR_MATRIX = "A"


@dataclass(frozen=True)
class BagMatrix:
    """One matrix of the bag: a typed edge of the aligned schema.

    Rows index the ``source`` nodes of the ``side`` network.  Columns
    index its ``target`` nodes, except on two kinds of row: the anchor
    row (``relation`` is :data:`~repro.networks.schema.ANCHOR`), whose
    columns are the right network's users, and the attribute rows
    (``target`` is the attribute ``relation`` itself, the value node
    type of Figure 2), whose columns are the attribute's shared
    vocabulary.
    """

    name: str
    side: str
    relation: str
    source: str
    target: str

    @property
    def is_anchor(self) -> bool:
        """Whether this is the known-anchor matrix ``A``."""
        return self.relation == ANCHOR

    @property
    def is_attribute(self) -> bool:
        """Whether the columns are an attribute's shared vocabulary."""
        return self.target == self.relation


#: The bag layout, in export order.  Everything that knows which
#: matrices the bag holds reads this table.
BAG_LAYOUT: Tuple[BagMatrix, ...] = (
    BagMatrix(FOLLOW_LEFT, "left", FOLLOW, USER, USER),
    BagMatrix(FOLLOW_RIGHT, "right", FOLLOW, USER, USER),
    BagMatrix(WRITE_LEFT, "left", WRITE, USER, POST),
    BagMatrix(WRITE_RIGHT, "right", WRITE, USER, POST),
    BagMatrix(ANCHOR_MATRIX, "left", ANCHOR, USER, USER),
    BagMatrix(TIMESTAMP_LEFT, "left", TIMESTAMP, POST, TIMESTAMP),
    BagMatrix(TIMESTAMP_RIGHT, "right", TIMESTAMP, POST, TIMESTAMP),
    BagMatrix(LOCATION_LEFT, "left", LOCATION, POST, LOCATION),
    BagMatrix(LOCATION_RIGHT, "right", LOCATION, POST, LOCATION),
    BagMatrix(WORD_LEFT, "left", WORD, POST, WORD),
    BagMatrix(WORD_RIGHT, "right", WORD, POST, WORD),
)


def bag_layout(include_words: bool = True) -> Tuple[BagMatrix, ...]:
    """The rows a bag exports: every row, less the word rows when
    ``include_words`` is off."""
    return tuple(
        row for row in BAG_LAYOUT if include_words or row.relation != WORD
    )


def build_matrix_bag(
    pair: AlignedPair,
    known_anchors: Optional[Iterable[LinkPair]] = None,
    include_words: bool = True,
) -> MatrixBag:
    """Export the matrix bag for one aligned pair.

    Parameters
    ----------
    pair:
        The aligned networks.
    known_anchors:
        Anchor links visible to the model (training plus queried).
        ``None`` means *no* anchors are known, which zeroes every
        anchor-dependent path; pass ``pair.anchors`` only for oracle
        experiments.
    include_words:
        Whether to export the word incidence matrices (needed when the
        extended word meta path P7 is in use).
    """
    anchors = list(known_anchors) if known_anchors is not None else []
    vocabularies: Dict[str, List] = {}
    bag: MatrixBag = {}
    for row in bag_layout(include_words):
        network = pair.left if row.side == "left" else pair.right
        if row.is_anchor:
            bag[row.name] = pair.anchor_matrix(anchors)
        elif row.is_attribute:
            if row.relation not in vocabularies:
                vocabularies[row.relation] = pair.shared_vocabulary(
                    row.relation
                )
            bag[row.name] = network.attribute_matrix(
                row.relation, vocabularies[row.relation]
            )
        else:
            bag[row.name] = network.typed_adjacency(row.relation)
    return bag


def bag_shapes(
    pair: AlignedPair,
    vocabulary_sizes: Mapping[str, int],
    include_words: bool = True,
) -> Dict[str, Tuple[int, int]]:
    """The shape of every exported bag matrix.

    ``vocabulary_sizes`` gives each exported attribute's shared
    vocabulary length, the column count of its two rows.
    """
    shapes: Dict[str, Tuple[int, int]] = {}
    for row in bag_layout(include_words):
        network = pair.left if row.side == "left" else pair.right
        if row.is_attribute:
            columns = vocabulary_sizes[row.relation]
        else:
            target = pair.right if row.is_anchor else network
            columns = target.slot_count(row.target)
        shapes[row.name] = (network.slot_count(row.source), columns)
    return shapes

"""Aligned network pairs and anchor-link bookkeeping (Definition 2).

An :class:`AlignedPair` couples two :class:`HeterogeneousNetwork` objects
with the set of ground-truth anchor links between their user node sets.
It also owns the *shared attribute vocabularies*: the union, per attribute
type, of the values seen in either network, so matrix exports from the two
sides agree column-for-column.

Evolving networks are modeled as :class:`NetworkDelta` events — plain
picklable records of one side's churn (new nodes/edges/attribute
attachments, and since the removal-delta work also ``removed_nodes`` /
``removed_edges``) that :meth:`AlignedPair.apply_delta` validates and
applies in place.  Node additions append to the end of each type's
order and removals tombstone their slot, so matrix exports taken
before a delta stay index-compatible with exports taken after it: old
entries never move, growth is pure padding and shrinkage is pure
zeroing.  That append-only contract is what lets the engine layer fold
exact sparse count deltas instead of recounting
(:mod:`repro.engine.incremental`).

:meth:`AlignedPair.apply_delta` returns a :class:`DeltaApplication`
describing what *actually* changed in slot coordinates (duplicate edge
adds are silently ignored, attribute matrices are binary, node removal
cascades) — the record the session's event-sourced fold turns into
leaf deltas without re-exporting either side.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import sparse

from repro.exceptions import AlignmentError
from repro.networks.heterogeneous import HeterogeneousNetwork
from repro.networks.schema import USER, AlignedSchema
from repro.types import AttributeValue, LinkPair, NodeId


@dataclass(frozen=True)
class NetworkDelta:
    """One evolution event of an aligned pair — plain picklable data.

    Attributes
    ----------
    side:
        Which component network grows: ``"left"`` or ``"right"``.
    added_nodes:
        ``node_type -> tuple of new node ids`` (e.g. new users, new
        posts).  Ids must not already exist in the network.
    added_edges:
        ``(relation, source, target)`` triples.  Endpoints may be
        existing nodes or nodes added by this same delta.  Duplicate
        edges are ignored (networks are simple graphs).
    updated_attributes:
        ``(attribute, node, value, count)`` attachment records (new
        posts' timestamps/locations/words, or extra attachments to
        existing nodes).
    added_anchors:
        New ground-truth anchor links, e.g. when a freshly added user is
        known to exist on both platforms.  Ground truth only — the
        *known* anchor set of a model/session is unaffected.
    removed_nodes:
        ``node_type -> tuple of node ids`` to remove.  Removal cascades
        (incident edges and attribute attachments go too) and
        tombstones the slot; a user removal also drops any ground-truth
        anchor through it.  Removals are applied *before* additions, so
        one delta can remove a node and re-add the same id (it gets a
        fresh slot at the end of the order).
    removed_edges:
        ``(relation, source, target)`` triples of edges to remove.
        Each must currently exist.

    Notes
    -----
    Deltas are replayed from checkpoints, so they must stay plain data:
    every field is a tuple of hashables, and
    :meth:`AlignedPair.apply_delta` re-validates on every application.
    """

    side: str
    added_nodes: Tuple[Tuple[str, Tuple[NodeId, ...]], ...] = ()
    added_edges: Tuple[Tuple[str, NodeId, NodeId], ...] = ()
    updated_attributes: Tuple[
        Tuple[str, NodeId, AttributeValue, int], ...
    ] = ()
    added_anchors: Tuple[LinkPair, ...] = ()
    removed_nodes: Tuple[Tuple[str, Tuple[NodeId, ...]], ...] = ()
    removed_edges: Tuple[Tuple[str, NodeId, NodeId], ...] = ()

    @classmethod
    def build(
        cls,
        side: str,
        added_nodes: Optional[Mapping[str, Iterable[NodeId]]] = None,
        added_edges: Iterable[Tuple[str, NodeId, NodeId]] = (),
        updated_attributes: Iterable[Tuple] = (),
        added_anchors: Iterable[LinkPair] = (),
        removed_nodes: Optional[Mapping[str, Iterable[NodeId]]] = None,
        removed_edges: Iterable[Tuple[str, NodeId, NodeId]] = (),
    ) -> "NetworkDelta":
        """Normalize loose inputs (dicts, lists, 3-tuples) into a delta.

        ``added_edges`` / ``removed_edges`` entries are ``(relation,
        source, target)``; ``updated_attributes`` entries are
        ``(attribute, node, value)`` or ``(attribute, node, value,
        count)``.
        """
        nodes = tuple(
            (node_type, tuple(ids))
            for node_type, ids in (added_nodes or {}).items()
        )
        attributes = []
        for record in updated_attributes:
            if len(record) == 3:
                attribute, node, value = record
                count = 1
            else:
                attribute, node, value, count = record
            attributes.append((attribute, node, value, int(count)))
        return cls(
            side=side,
            added_nodes=nodes,
            added_edges=tuple(tuple(edge) for edge in added_edges),
            updated_attributes=tuple(attributes),
            added_anchors=tuple(tuple(pair) for pair in added_anchors),
            removed_nodes=tuple(
                (node_type, tuple(ids))
                for node_type, ids in (removed_nodes or {}).items()
            ),
            removed_edges=tuple(tuple(edge) for edge in removed_edges),
        )

    @property
    def n_nodes(self) -> int:
        """Total nodes added across all node types."""
        return sum(len(ids) for _, ids in self.added_nodes)

    @property
    def n_edges(self) -> int:
        """Edges added."""
        return len(self.added_edges)

    @property
    def n_attributes(self) -> int:
        """Attribute attachments added (counting repeats once)."""
        return len(self.updated_attributes)

    @property
    def n_removed_nodes(self) -> int:
        """Total nodes removed across all node types."""
        return sum(len(ids) for _, ids in self.removed_nodes)

    @property
    def n_removed_edges(self) -> int:
        """Edges removed explicitly (node cascades not included)."""
        return len(self.removed_edges)

    @property
    def has_removals(self) -> bool:
        """Whether the delta shrinks the network at all."""
        return bool(self.removed_nodes or self.removed_edges)

    def summary(self) -> str:
        """One-line human-readable rendering."""
        text = (
            f"{self.side}: +{self.n_nodes} nodes, +{self.n_edges} edges, "
            f"+{self.n_attributes} attribute links, "
            f"+{len(self.added_anchors)} anchors"
        )
        if self.has_removals:
            text += (
                f", -{self.n_removed_nodes} nodes, "
                f"-{self.n_removed_edges} edges"
            )
        return text


@dataclass(frozen=True)
class DeltaApplication:
    """What one :meth:`AlignedPair.apply_delta` call *actually* changed.

    The :class:`NetworkDelta` record alone is not enough to build exact
    matrix deltas: duplicate edge adds are silently ignored, attribute
    incidence matrices are binary (a repeat attachment changes no
    cell), and node removal cascades through edges and attachments.
    This report states the net effect in **slot coordinates** — row and
    column indices of the matrix exports — which is exactly what the
    engine's event-sourced fold consumes.

    Attributes
    ----------
    side:
        Which component network changed.
    added_slots:
        ``(node_type, n_added)`` pairs — pure padding at the end of the
        type's slot order.
    inserted_edges:
        ``(relation, source_slot, target_slot)`` triples of edges that
        went from absent to present.
    removed_edges:
        Same shape, edges that went from present to absent (explicit
        removals plus node-removal cascades).
    new_attribute_cells:
        ``(attribute, node_slot, value)`` cells that went 0 → 1 in the
        binary incidence matrix.  Values are raw vocabulary items; the
        caller maps them onto shared-vocabulary columns.
    removed_attribute_cells:
        Same shape, cells that went 1 → 0 (node-removal cascades).
    new_vocabulary:
        ``(attribute, value)`` pairs new to this side's vocabulary —
        the signal that the shared vocabulary may have grown or (for a
        left-side value landing mid-order) reordered.
    removed_nodes:
        ``(node_type, node_id, slot)`` of every tombstoned node.
    removed_anchors:
        Ground-truth anchor links dropped because a user endpoint was
        removed.
    """

    side: str
    added_slots: Tuple[Tuple[str, int], ...] = ()
    inserted_edges: Tuple[Tuple[str, int, int], ...] = ()
    removed_edges: Tuple[Tuple[str, int, int], ...] = ()
    new_attribute_cells: Tuple[Tuple[str, int, AttributeValue], ...] = ()
    removed_attribute_cells: Tuple[Tuple[str, int, AttributeValue], ...] = ()
    new_vocabulary: Tuple[Tuple[str, AttributeValue], ...] = ()
    removed_nodes: Tuple[Tuple[str, NodeId, int], ...] = ()
    removed_anchors: Tuple[LinkPair, ...] = ()


class AlignedPair:
    """Two heterogeneous networks plus anchor links between shared users.

    Parameters
    ----------
    left, right:
        The two component networks (``G^(1)`` and ``G^(2)``).
    anchors:
        Ground-truth anchor links as ``(left_user, right_user)`` pairs.
        Must satisfy the one-to-one constraint: no user appears in two
        anchors.
    anchor_node_type:
        Node type connected by anchors (``"user"`` in the paper).
    """

    def __init__(
        self,
        left: HeterogeneousNetwork,
        right: HeterogeneousNetwork,
        anchors: Iterable[LinkPair] = (),
        anchor_node_type: str = USER,
    ) -> None:
        self.left = left
        self.right = right
        self.anchor_node_type = anchor_node_type
        self.schema = AlignedSchema(
            left.schema, right.schema, anchor_node_type=anchor_node_type
        )
        self._anchors: Set[LinkPair] = set()
        self._left_to_right: Dict[NodeId, NodeId] = {}
        self._right_to_left: Dict[NodeId, NodeId] = {}
        for pair in anchors:
            self.add_anchor(pair)

    # ------------------------------------------------------------------
    # Anchor links
    # ------------------------------------------------------------------
    def add_anchor(self, pair: LinkPair) -> None:
        """Register a ground-truth anchor link.

        Raises
        ------
        AlignmentError
            If either endpoint is missing from its network or already
            anchored (one-to-one violation).
        """
        left_user, right_user = pair
        if not self.left.has_node(self.anchor_node_type, left_user):
            raise AlignmentError(
                f"anchor endpoint {left_user!r} missing from left network "
                f"{self.left.name!r}"
            )
        if not self.right.has_node(self.anchor_node_type, right_user):
            raise AlignmentError(
                f"anchor endpoint {right_user!r} missing from right network "
                f"{self.right.name!r}"
            )
        if left_user in self._left_to_right:
            raise AlignmentError(
                f"left user {left_user!r} already anchored to "
                f"{self._left_to_right[left_user]!r} (one-to-one violation)"
            )
        if right_user in self._right_to_left:
            raise AlignmentError(
                f"right user {right_user!r} already anchored to "
                f"{self._right_to_left[right_user]!r} (one-to-one violation)"
            )
        self._anchors.add((left_user, right_user))
        self._left_to_right[left_user] = right_user
        self._right_to_left[right_user] = left_user

    @property
    def anchors(self) -> Set[LinkPair]:
        """The ground-truth anchor set (a copy)."""
        return set(self._anchors)

    def anchor_count(self) -> int:
        """Number of ground-truth anchors."""
        return len(self._anchors)

    def is_anchor(self, pair: LinkPair) -> bool:
        """Whether ``pair`` is a ground-truth anchor."""
        return pair in self._anchors

    def anchored_right(self, left_user: NodeId) -> Optional[NodeId]:
        """The right-side partner of ``left_user`` or ``None``."""
        return self._left_to_right.get(left_user)

    def anchored_left(self, right_user: NodeId) -> Optional[NodeId]:
        """The left-side partner of ``right_user`` or ``None``."""
        return self._right_to_left.get(right_user)

    # ------------------------------------------------------------------
    # Network evolution
    # ------------------------------------------------------------------
    def _delta_network(self, delta: NetworkDelta) -> HeterogeneousNetwork:
        if delta.side == "left":
            return self.left
        if delta.side == "right":
            return self.right
        raise AlignmentError(
            f"delta side must be 'left' or 'right', got {delta.side!r}"
        )

    def _validate_delta(self, delta: NetworkDelta) -> None:
        """Reject a bad delta before any state changes (best-effort atomicity)."""
        network = self._delta_network(delta)
        removed: Dict[str, Set[NodeId]] = {}
        for node_type, ids in delta.removed_nodes:
            network.schema.has_node_type(node_type)
            bucket = removed.setdefault(node_type, set())
            for node_id in ids:
                if not network.has_node(node_type, node_id):
                    raise AlignmentError(
                        f"delta removes unknown {node_type!r} node "
                        f"{node_id!r} on the {delta.side} side"
                    )
                if node_id in bucket:
                    raise AlignmentError(
                        f"delta removes {node_type!r} node {node_id!r} twice"
                    )
                bucket.add(node_id)
        seen_removed_edges: Set[Tuple[str, NodeId, NodeId]] = set()
        for relation, source, target in delta.removed_edges:
            network.schema.edge_type(relation)  # raises if unknown
            if not network.has_edge(relation, source, target):
                raise AlignmentError(
                    f"delta removes missing {relation!r} edge "
                    f"{source!r} -> {target!r} on the {delta.side} side"
                )
            if (relation, source, target) in seen_removed_edges:
                raise AlignmentError(
                    f"delta removes {relation!r} edge "
                    f"{source!r} -> {target!r} twice"
                )
            seen_removed_edges.add((relation, source, target))
        added: Dict[str, Set[NodeId]] = {}
        for node_type, ids in delta.added_nodes:
            bucket = added.setdefault(node_type, set())
            for node_id in ids:
                survives = network.has_node(node_type, node_id) and (
                    node_id not in removed.get(node_type, ())
                )
                if survives or node_id in bucket:
                    raise AlignmentError(
                        f"delta re-adds existing {node_type!r} node "
                        f"{node_id!r} on the {delta.side} side"
                    )
                bucket.add(node_id)

        def will_exist(node_type: str, node_id: NodeId) -> bool:
            if node_id in added.get(node_type, ()):
                return True
            if node_id in removed.get(node_type, ()):
                return False
            return network.has_node(node_type, node_id)

        for relation, source, target in delta.added_edges:
            spec = network.schema.edge_type(relation)  # raises if unknown
            if not will_exist(spec.source, source):
                raise AlignmentError(
                    f"delta edge {relation!r} references missing "
                    f"{spec.source!r} node {source!r}"
                )
            if not will_exist(spec.target, target):
                raise AlignmentError(
                    f"delta edge {relation!r} references missing "
                    f"{spec.target!r} node {target!r}"
                )
            if spec.source == spec.target and source == target:
                raise AlignmentError(
                    f"delta adds self-loop {source!r} on relation {relation!r}"
                )
        for attribute, node_id, _value, count in delta.updated_attributes:
            spec = network.schema.attribute_type(attribute)
            if count < 1:
                raise AlignmentError(
                    f"attribute count must be >= 1, got {count}"
                )
            if not will_exist(spec.node_type, node_id):
                raise AlignmentError(
                    f"delta attribute {attribute!r} references missing "
                    f"{spec.node_type!r} node {node_id!r}"
                )
        anchored_left = set(self._left_to_right)
        anchored_right = set(self._right_to_left)
        # A removed user takes its ground-truth anchor with it, freeing
        # both endpoints within the same delta.
        for removed_user in removed.get(self.anchor_node_type, ()):
            if delta.side == "left":
                partner = self._left_to_right.get(removed_user)
                anchored_left.discard(removed_user)
                if partner is not None:
                    anchored_right.discard(partner)
            else:
                partner = self._right_to_left.get(removed_user)
                anchored_right.discard(removed_user)
                if partner is not None:
                    anchored_left.discard(partner)
        left_added = added if delta.side == "left" else {}
        right_added = added if delta.side == "right" else {}
        left_removed = removed if delta.side == "left" else {}
        right_removed = removed if delta.side == "right" else {}
        for left_user, right_user in delta.added_anchors:
            left_ok = left_user in left_added.get(self.anchor_node_type, ()) or (
                self.left.has_node(self.anchor_node_type, left_user)
                and left_user not in left_removed.get(self.anchor_node_type, ())
            )
            right_ok = right_user in right_added.get(
                self.anchor_node_type, ()
            ) or (
                self.right.has_node(self.anchor_node_type, right_user)
                and right_user
                not in right_removed.get(self.anchor_node_type, ())
            )
            if not left_ok or not right_ok:
                raise AlignmentError(
                    f"delta anchor ({left_user!r}, {right_user!r}) "
                    "references a missing user"
                )
            if left_user in anchored_left or right_user in anchored_right:
                raise AlignmentError(
                    f"delta anchor ({left_user!r}, {right_user!r}) violates "
                    "the one-to-one constraint"
                )
            anchored_left.add(left_user)
            anchored_right.add(right_user)

    def _drop_anchors_of(self, side: str, user: NodeId) -> List[LinkPair]:
        """Drop the ground-truth anchor through ``user`` (if any)."""
        if side == "left":
            partner = self._left_to_right.pop(user, None)
            if partner is None:
                return []
            pair = (user, partner)
            self._right_to_left.pop(partner, None)
        else:
            partner = self._right_to_left.pop(user, None)
            if partner is None:
                return []
            pair = (partner, user)
            self._left_to_right.pop(partner, None)
        self._anchors.discard(pair)
        return [pair]

    def apply_delta(self, delta: NetworkDelta) -> DeltaApplication:
        """Apply one evolution event in place (validated first).

        Removals happen before additions; new nodes append to the end
        of each type's order and removed nodes tombstone their slot, so
        matrices exported before this call stay index-compatible: the
        engine layer relies on growth being pure padding and shrinkage
        pure zeroing.  A delta that fails validation leaves the pair
        untouched.  Returns the :class:`DeltaApplication` report of the
        net changes in slot coordinates.
        """
        self._validate_delta(delta)
        network = self._delta_network(delta)
        removed_edges: List[Tuple[str, int, int]] = []
        removed_cells: List[Tuple[str, int, AttributeValue]] = []
        removed_nodes: List[Tuple[str, NodeId, int]] = []
        removed_anchors: List[LinkPair] = []
        for relation, source, target in delta.removed_edges:
            spec = network.schema.edge_type(relation)
            removed_edges.append(
                (
                    relation,
                    network.node_position(spec.source, source),
                    network.node_position(spec.target, target),
                )
            )
            network.remove_edge(relation, source, target)
        for node_type, ids in delta.removed_nodes:
            for node_id in ids:
                removal = network.remove_node(node_type, node_id)
                removed_nodes.append((node_type, node_id, removal.slot))
                removed_edges.extend(removal.edges)
                removed_cells.extend(removal.attributes)
                if node_type == self.anchor_node_type:
                    removed_anchors.extend(
                        self._drop_anchors_of(delta.side, node_id)
                    )
        added_slots = tuple(
            (node_type, len(ids)) for node_type, ids in delta.added_nodes if ids
        )
        for node_type, ids in delta.added_nodes:
            network.add_nodes(node_type, ids)
        inserted_edges: List[Tuple[str, int, int]] = []
        for relation, source, target in delta.added_edges:
            if network.add_edge(relation, source, target):
                spec = network.schema.edge_type(relation)
                inserted_edges.append(
                    (
                        relation,
                        network.node_position(spec.source, source),
                        network.node_position(spec.target, target),
                    )
                )
        new_cells: List[Tuple[str, int, AttributeValue]] = []
        new_vocabulary: List[Tuple[str, AttributeValue]] = []
        for attribute, node_id, value, count in delta.updated_attributes:
            new_value, new_incidence = network.attach_attribute(
                attribute, node_id, value, count=count
            )
            if new_value:
                new_vocabulary.append((attribute, value))
            if new_incidence:
                spec = network.schema.attribute_type(attribute)
                new_cells.append(
                    (
                        attribute,
                        network.node_position(spec.node_type, node_id),
                        value,
                    )
                )
        for pair in delta.added_anchors:
            self.add_anchor(tuple(pair))
        return DeltaApplication(
            side=delta.side,
            added_slots=added_slots,
            inserted_edges=tuple(inserted_edges),
            removed_edges=tuple(removed_edges),
            new_attribute_cells=tuple(new_cells),
            removed_attribute_cells=tuple(removed_cells),
            new_vocabulary=tuple(new_vocabulary),
            removed_nodes=tuple(removed_nodes),
            removed_anchors=tuple(removed_anchors),
        )

    def compact(self) -> Dict[str, Dict[str, np.ndarray]]:
        """Compact both component networks, dropping tombstoned slots.

        Returns ``{"left": ..., "right": ...}`` with each side's
        surviving-old-slot arrays (see
        :meth:`~repro.networks.heterogeneous.HeterogeneousNetwork.compact`).
        Anything position-derived — exported matrices, cached index
        maps, candidate views — must be rebuilt by the caller.
        """
        return {"left": self.left.compact(), "right": self.right.compact()}

    # ------------------------------------------------------------------
    # Candidate space
    # ------------------------------------------------------------------
    def candidate_space_size(self) -> int:
        """``|H| = |U^(1)| x |U^(2)|``, the full candidate link count."""
        return self.left.node_count(self.anchor_node_type) * self.right.node_count(
            self.anchor_node_type
        )

    def left_users(self) -> List[NodeId]:
        """Ordered *live* left-side user ids (tombstones skipped)."""
        return self.left.nodes(self.anchor_node_type)

    def right_users(self) -> List[NodeId]:
        """Ordered *live* right-side user ids (tombstones skipped)."""
        return self.right.nodes(self.anchor_node_type)

    def left_user_slots(self) -> List[Optional[NodeId]]:
        """Full left-side user slot list: index ``i`` is matrix row ``i``."""
        return self.left.slots(self.anchor_node_type)

    def right_user_slots(self) -> List[Optional[NodeId]]:
        """Full right-side user slot list: index ``j`` is matrix column ``j``."""
        return self.right.slots(self.anchor_node_type)

    # ------------------------------------------------------------------
    # Shared vocabularies and matrix exports
    # ------------------------------------------------------------------
    def shared_vocabulary(self, attribute: str) -> List:
        """Union vocabulary of ``attribute`` across both networks.

        Values present in the left network keep their left order and are
        followed by right-only values; the ordering is deterministic for
        reproducibility.
        """
        left_values = self.left.attribute_values(attribute)
        seen = set(left_values)
        right_only = [
            value
            for value in self.right.attribute_values(attribute)
            if value not in seen
        ]
        return left_values + right_only

    def attribute_matrices(
        self, attribute: str, binary: bool = True
    ) -> Tuple[sparse.csr_matrix, sparse.csr_matrix]:
        """Export both sides' node-by-value matrices on the shared vocabulary."""
        vocabulary = self.shared_vocabulary(attribute)
        left = self.left.attribute_matrix(attribute, vocabulary, binary=binary)
        right = self.right.attribute_matrix(attribute, vocabulary, binary=binary)
        return left, right

    def anchor_matrix(
        self, anchors: Optional[Iterable[LinkPair]] = None
    ) -> sparse.csr_matrix:
        """CSR |U1| x |U2| indicator matrix of anchor links.

        Parameters
        ----------
        anchors:
            The anchor subset to encode.  Model code passes the *known*
            (training + queried) anchors here so unknown test anchors do
            not leak into path counting.  Defaults to all ground-truth
            anchors.
        """
        if anchors is None:
            anchors = self._anchors
        n_left = self.left.slot_count(self.anchor_node_type)
        n_right = self.right.slot_count(self.anchor_node_type)
        rows, cols = self.pairs_to_indices(list(anchors))
        data = np.ones(rows.size, dtype=np.float64)
        return sparse.csr_matrix((data, (rows, cols)), shape=(n_left, n_right))

    def pairs_to_indices(
        self, pairs: Sequence[LinkPair]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Convert ``(left_user, right_user)`` pairs to dense index arrays.

        Raises :class:`~repro.exceptions.NetworkError` naming the first
        unknown or tombstoned user — left side first, then right.
        """
        user_type = self.anchor_node_type
        return (
            self.left.node_positions(user_type, map(itemgetter(0), pairs)),
            self.right.node_positions(user_type, map(itemgetter(1), pairs)),
        )

    def __repr__(self) -> str:
        return (
            f"AlignedPair(left={self.left.name!r}, right={self.right.name!r}, "
            f"anchors={len(self._anchors)})"
        )

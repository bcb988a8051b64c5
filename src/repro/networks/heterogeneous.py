"""The attributed heterogeneous social network container (Definition 1).

:class:`HeterogeneousNetwork` stores typed nodes, typed directed edges and
typed attribute values.  Attribute values (a concrete timestamp bin, a
location cell, a word) are *shared vocabulary items*: two posts in two
different networks can point at the same attribute value, which is what
inter-network meta paths P5/P6 traverse.

Internally the class keeps hash-map adjacency (cheap mutation, O(1)
membership) and exposes :meth:`typed_adjacency` / :meth:`attribute_matrix`
to export scipy CSR matrices for the meta-structure counting engine.

Removal support models real churn: :meth:`remove_edge` deletes one
typed edge, and :meth:`remove_node` deletes a node with all its
incident edges and attribute attachments.  Removed nodes leave a
**tombstone**: their slot in the type's index order is kept (as
``None``), so every position handed out earlier stays valid and matrix
exports keep their shape with zeroed rows/columns at the dead slots —
the append-only contract the engine's delta algebra relies on survives
removal unchanged.  :meth:`compact` drops the tombstones (positions
shift) for long-drift housekeeping; callers must rebuild anything
position-derived afterwards.

Every successful mutation bumps a per-type / per-relation / per-
attribute **mutation epoch**.  Unlike raw counts, epochs are strictly
monotone under removal too, so equal epochs prove an exported matrix
cannot have changed — the property the matrix-export memo
(:meth:`HeterogeneousNetwork._memoized`) builds on.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np
from scipy import sparse

from dataclasses import dataclass

from repro.exceptions import NetworkError, SchemaError
from repro.networks.schema import NetworkSchema
from repro.types import AttributeValue, NodeId


#: Matrix exports memoized per network (see
#: :meth:`HeterogeneousNetwork._memoized`).  Weakly keyed and outside the
#: instance, so a network's memo dies with it and never travels with it.
_EXPORTS: "weakref.WeakKeyDictionary[HeterogeneousNetwork, Dict]" = (
    weakref.WeakKeyDictionary()
)


def _positions(index: Dict, keys: Iterable, count: int) -> np.ndarray:
    """``index[key]`` for each of ``count`` keys, as an array."""
    return np.fromiter(map(index.__getitem__, keys), dtype=np.intp, count=count)


@dataclass(frozen=True)
class NodeRemoval:
    """What :meth:`HeterogeneousNetwork.remove_node` actually deleted.

    Positions are captured *before* the slot is tombstoned, so the
    record is self-contained: ``edges`` holds ``(relation, source_slot,
    target_slot)`` triples of every cascaded edge, ``attributes`` holds
    ``(attribute, slot, value)`` triples of the node's attachments.
    The event-sourced delta path turns these directly into ``-1``
    entries of the affected incidence matrices.
    """

    node_type: str
    node_id: NodeId
    slot: int
    edges: Tuple[Tuple[str, int, int], ...]
    attributes: Tuple[Tuple[str, int, AttributeValue], ...]


class HeterogeneousNetwork:
    """One attributed heterogeneous social network ``G = (V, E, T)``.

    Parameters
    ----------
    schema:
        The :class:`~repro.networks.schema.NetworkSchema` this network
        must conform to.
    name:
        Optional instance name (defaults to the schema name).

    Notes
    -----
    * Nodes are identified by arbitrary hashable ids, unique *within a
      node type*.  ``("user", 3)`` and ``("post", 3)`` do not collide.
    * Edges are directed; undirected relations (per the schema) are
      expanded to both directions by :meth:`typed_adjacency` on request.
    * Attribute values live in per-attribute-type vocabularies and are
      attached to nodes via :meth:`attach_attribute`.
    """

    def __init__(self, schema: NetworkSchema, name: Optional[str] = None) -> None:
        self.schema = schema
        self.name = name if name is not None else schema.name
        # node_type -> ordered list of node ids, and reverse index.
        self._nodes: Dict[str, List[NodeId]] = {t: [] for t in schema.node_types}
        self._node_index: Dict[str, Dict[NodeId, int]] = {
            t: {} for t in schema.node_types
        }
        # relation -> source id -> set of target ids.
        self._out: Dict[str, Dict[NodeId, Set[NodeId]]] = {
            r: defaultdict(set) for r in schema.edge_types
        }
        self._in: Dict[str, Dict[NodeId, Set[NodeId]]] = {
            r: defaultdict(set) for r in schema.edge_types
        }
        self._edge_counts: Dict[str, int] = {r: 0 for r in schema.edge_types}
        # attribute name -> ordered vocabulary + reverse index.
        self._attr_values: Dict[str, List[AttributeValue]] = {
            a: [] for a in schema.attribute_types
        }
        self._attr_index: Dict[str, Dict[AttributeValue, int]] = {
            a: {} for a in schema.attribute_types
        }
        # attribute name -> node id -> multiset (dict value->count).
        self._attr_links: Dict[str, Dict[NodeId, Dict[AttributeValue, int]]] = {
            a: defaultdict(dict) for a in schema.attribute_types
        }
        self._attr_link_counts: Dict[str, int] = {a: 0 for a in schema.attribute_types}
        # Tombstone bookkeeping: removed nodes keep their slot (as None
        # in the order list) so earlier positions never shift.
        self._tombstones: Dict[str, int] = {t: 0 for t in schema.node_types}
        # Strictly monotone mutation epochs, one per type/relation/
        # attribute — the removal-safe change-detection counters.
        self._node_epochs: Dict[str, int] = {t: 0 for t in schema.node_types}
        self._edge_epochs: Dict[str, int] = {r: 0 for r in schema.edge_types}
        self._attr_epochs: Dict[str, int] = {a: 0 for a in schema.attribute_types}

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def add_node(self, node_type: str, node_id: NodeId) -> None:
        """Add a node of ``node_type``.  Adding twice is an error."""
        self._require_node_type(node_type)
        index = self._node_index[node_type]
        if node_id in index:
            raise NetworkError(
                f"node {node_id!r} of type {node_type!r} already exists "
                f"in network {self.name!r}"
            )
        index[node_id] = len(self._nodes[node_type])
        self._nodes[node_type].append(node_id)
        self._node_epochs[node_type] += 1

    def add_nodes(self, node_type: str, node_ids: Iterable[NodeId]) -> None:
        """Add many nodes of one type."""
        for node_id in node_ids:
            self.add_node(node_type, node_id)

    def has_node(self, node_type: str, node_id: NodeId) -> bool:
        """Return whether the node exists."""
        self._require_node_type(node_type)
        return node_id in self._node_index[node_type]

    def nodes(self, node_type: str) -> List[NodeId]:
        """Ordered ids of the *live* nodes of ``node_type`` (a copy).

        Tombstoned slots are skipped; the relative order of live nodes
        is their slot order.
        """
        self._require_node_type(node_type)
        if self._tombstones[node_type]:
            return [
                node_id
                for node_id in self._nodes[node_type]
                if node_id is not None
            ]
        return list(self._nodes[node_type])

    def slots(self, node_type: str) -> List[Optional[NodeId]]:
        """The full slot list of ``node_type``: ids, ``None`` at tombstones.

        Index ``i`` of this list is exactly matrix row/column ``i`` of
        every export over the type, which is what streaming consumers
        iterate when they need slot-aligned user lists.
        """
        self._require_node_type(node_type)
        return list(self._nodes[node_type])

    def node_count(self, node_type: str) -> int:
        """Number of *live* nodes of ``node_type``."""
        self._require_node_type(node_type)
        return len(self._nodes[node_type]) - self._tombstones[node_type]

    def slot_count(self, node_type: str) -> int:
        """Number of index slots (live nodes plus tombstones).

        This — not :meth:`node_count` — is the matrix dimension every
        export of the type uses; the two agree until a node is removed.
        """
        self._require_node_type(node_type)
        return len(self._nodes[node_type])

    def tombstone_count(self, node_type: str) -> int:
        """Number of tombstoned (removed, slot-preserving) nodes."""
        self._require_node_type(node_type)
        return self._tombstones[node_type]

    def node_position(self, node_type: str, node_id: NodeId) -> int:
        """Dense index of a node within its type (for matrix exports)."""
        self._require_node_type(node_type)
        try:
            return self._node_index[node_type][node_id]
        except KeyError:
            raise NetworkError(
                f"unknown {node_type!r} node {node_id!r} in network {self.name!r}"
            ) from None

    def node_positions(
        self, node_type: str, node_ids: Iterable[NodeId]
    ) -> np.ndarray:
        """Dense indices of many nodes of one type, as an int64 array.

        Raises the :meth:`node_position` error for the first unknown (or
        tombstoned) id.
        """
        self._require_node_type(node_type)
        try:
            return np.fromiter(
                map(self._node_index[node_type].__getitem__, node_ids),
                dtype=np.int64,
            )
        except KeyError as missing:
            raise NetworkError(
                f"unknown {node_type!r} node {missing.args[0]!r} in network "
                f"{self.name!r}"
            ) from None

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def add_edge(self, relation: str, source: NodeId, target: NodeId) -> bool:
        """Add a typed edge ``source --relation--> target``.

        Duplicate edges are ignored (social graphs are simple graphs);
        self-loops on ``follow``-like relations are rejected.  Returns
        whether the edge was actually inserted — the signal the
        event-sourced delta path uses to emit exactly the adjacency
        entries that changed.
        """
        spec = self.schema.edge_type(relation)
        if not self.has_node(spec.source, source):
            raise NetworkError(
                f"cannot add {relation!r} edge: missing source "
                f"{spec.source!r} node {source!r}"
            )
        if not self.has_node(spec.target, target):
            raise NetworkError(
                f"cannot add {relation!r} edge: missing target "
                f"{spec.target!r} node {target!r}"
            )
        if spec.source == spec.target and source == target:
            raise NetworkError(f"self-loop {source!r} on relation {relation!r}")
        targets = self._out[relation][source]
        if target in targets:
            return False
        targets.add(target)
        self._in[relation][target].add(source)
        self._edge_counts[relation] += 1
        self._edge_epochs[relation] += 1
        return True

    def remove_edge(self, relation: str, source: NodeId, target: NodeId) -> None:
        """Remove one typed edge; raises if it does not exist."""
        self._require_relation(relation)
        targets = self._out[relation].get(source)
        if targets is None or target not in targets:
            raise NetworkError(
                f"cannot remove missing {relation!r} edge "
                f"{source!r} -> {target!r} from network {self.name!r}"
            )
        targets.discard(target)
        self._in[relation][target].discard(source)
        self._edge_counts[relation] -= 1
        self._edge_epochs[relation] += 1

    def has_edge(self, relation: str, source: NodeId, target: NodeId) -> bool:
        """Return whether the typed edge exists."""
        self._require_relation(relation)
        return target in self._out[relation].get(source, ())

    def successors(self, relation: str, source: NodeId) -> Set[NodeId]:
        """Targets of out-edges of ``relation`` from ``source`` (a copy)."""
        self._require_relation(relation)
        return set(self._out[relation].get(source, ()))

    def predecessors(self, relation: str, target: NodeId) -> Set[NodeId]:
        """Sources of in-edges of ``relation`` into ``target`` (a copy)."""
        self._require_relation(relation)
        return set(self._in[relation].get(target, ()))

    def edge_count(self, relation: str) -> int:
        """Number of stored edges of ``relation``."""
        self._require_relation(relation)
        return self._edge_counts[relation]

    def edges(self, relation: str) -> Iterator[Tuple[NodeId, NodeId]]:
        """Iterate ``(source, target)`` pairs of ``relation``."""
        self._require_relation(relation)
        for source, targets in self._out[relation].items():
            for target in targets:
                yield (source, target)

    # ------------------------------------------------------------------
    # Attributes
    # ------------------------------------------------------------------
    def attach_attribute(
        self, attribute: str, node_id: NodeId, value: AttributeValue, count: int = 1
    ) -> Tuple[bool, bool]:
        """Attach ``value`` of ``attribute`` to ``node_id`` (multiset add).

        ``count`` lets callers record repeated occurrences (a word used
        three times in a post) in one call.  Returns ``(new_value,
        new_incidence)``: whether the value is new to this network's
        vocabulary, and whether the ``(node, value)`` cell went from
        absent to present — the two facts the event-sourced delta path
        needs to patch binary incidence matrices without re-exporting.
        """
        spec = self.schema.attribute_type(attribute)
        if count < 1:
            raise NetworkError(f"attribute count must be >= 1, got {count}")
        if not self.has_node(spec.node_type, node_id):
            raise NetworkError(
                f"cannot attach attribute {attribute!r}: missing "
                f"{spec.node_type!r} node {node_id!r}"
            )
        vocab_index = self._attr_index[attribute]
        new_value = value not in vocab_index
        if new_value:
            vocab_index[value] = len(self._attr_values[attribute])
            self._attr_values[attribute].append(value)
        bag = self._attr_links[attribute][node_id]
        new_incidence = value not in bag
        bag[value] = bag.get(value, 0) + count
        self._attr_link_counts[attribute] += count
        self._attr_epochs[attribute] += 1
        return new_value, new_incidence

    def detach_attributes(
        self, attribute: str, node_id: NodeId
    ) -> Dict[AttributeValue, int]:
        """Remove every ``attribute`` attachment of one node.

        Returns the removed multiset (empty when nothing was attached).
        The vocabulary never shrinks — values stay addressable so
        matrix columns keep their meaning.
        """
        self._require_attribute(attribute)
        bag = self._attr_links[attribute].pop(node_id, None)
        if not bag:
            return {}
        self._attr_link_counts[attribute] -= sum(bag.values())
        self._attr_epochs[attribute] += 1
        return dict(bag)

    # ------------------------------------------------------------------
    # Removal & compaction
    # ------------------------------------------------------------------
    def remove_node(self, node_type: str, node_id: NodeId) -> NodeRemoval:
        """Remove a node, cascading its edges and attribute attachments.

        The node's slot is tombstoned — kept in the index order as
        ``None`` — so positions of every other node are unchanged and
        matrix exports keep their shape (the dead slot becomes an
        all-zero row/column).  Returns a :class:`NodeRemoval` record of
        everything deleted, with slot positions captured before the
        tombstone lands.
        """
        self._require_node_type(node_type)
        index = self._node_index[node_type]
        if node_id not in index:
            raise NetworkError(
                f"cannot remove unknown {node_type!r} node {node_id!r} "
                f"from network {self.name!r}"
            )
        slot = index[node_id]
        removed_edges: List[Tuple[str, int, int]] = []
        for relation, spec in self.schema.edge_types.items():
            if spec.source == node_type:
                targets = self._out[relation].pop(node_id, None)
                if targets:
                    dst_index = self._node_index[spec.target]
                    for target in targets:
                        self._in[relation][target].discard(node_id)
                        removed_edges.append((relation, slot, dst_index[target]))
                    self._edge_counts[relation] -= len(targets)
                    self._edge_epochs[relation] += 1
            if spec.target == node_type:
                sources = self._in[relation].pop(node_id, None)
                if sources:
                    src_index = self._node_index[spec.source]
                    for source in sources:
                        self._out[relation][source].discard(node_id)
                        removed_edges.append((relation, src_index[source], slot))
                    self._edge_counts[relation] -= len(sources)
                    self._edge_epochs[relation] += 1
        removed_attributes: List[Tuple[str, int, AttributeValue]] = []
        for attribute, spec in self.schema.attribute_types.items():
            if spec.node_type != node_type:
                continue
            for value in self.detach_attributes(attribute, node_id):
                removed_attributes.append((attribute, slot, value))
        self._nodes[node_type][slot] = None
        del index[node_id]
        self._tombstones[node_type] += 1
        self._node_epochs[node_type] += 1
        return NodeRemoval(
            node_type=node_type,
            node_id=node_id,
            slot=slot,
            edges=tuple(removed_edges),
            attributes=tuple(removed_attributes),
        )

    def compact(self) -> Dict[str, np.ndarray]:
        """Drop tombstoned slots, renumbering the survivors.

        Positions *shift*: anything position-derived (exported matrices,
        cached index maps) must be rebuilt by the caller.  Returns, for
        each node type that had tombstones, the array of **old** slot
        indices of the surviving nodes in their new order — exactly the
        fancy-index needed to slice old matrices down to the compacted
        shape (``new = old[kept][:, kept]``).
        """
        kept: Dict[str, np.ndarray] = {}
        for node_type, order in self._nodes.items():
            if not self._tombstones[node_type]:
                continue
            live = [
                (old_slot, node_id)
                for old_slot, node_id in enumerate(order)
                if node_id is not None
            ]
            kept[node_type] = np.array(
                [old_slot for old_slot, _ in live], dtype=np.int64
            )
            self._nodes[node_type] = [node_id for _, node_id in live]
            self._node_index[node_type] = {
                node_id: new_slot for new_slot, (_, node_id) in enumerate(live)
            }
            self._tombstones[node_type] = 0
            self._node_epochs[node_type] += 1
        return kept

    def attribute_values(self, attribute: str) -> List[AttributeValue]:
        """Ordered vocabulary of an attribute type (a copy)."""
        self._require_attribute(attribute)
        return list(self._attr_values[attribute])

    def attribute_vocabulary_size(self, attribute: str) -> int:
        """Number of distinct values seen for ``attribute``."""
        self._require_attribute(attribute)
        return len(self._attr_values[attribute])

    def attribute_link_count(self, attribute: str) -> int:
        """Total number of (node, value) attachments including repeats."""
        self._require_attribute(attribute)
        return self._attr_link_counts[attribute]

    def node_attributes(self, attribute: str, node_id: NodeId) -> Dict[AttributeValue, int]:
        """Multiset of attribute values attached to a node (a copy)."""
        self._require_attribute(attribute)
        return dict(self._attr_links[attribute].get(node_id, {}))

    # ------------------------------------------------------------------
    # Matrix exports (consumed by repro.meta.counting)
    # ------------------------------------------------------------------
    def typed_adjacency(self, relation: str) -> sparse.csr_matrix:
        """CSR adjacency of one relation: ``A[i, j] = 1`` iff edge exists.

        Rows are indexed by the relation's source node type order, columns
        by its target node type order (see :meth:`nodes`).  Exports are
        memoized (see :meth:`_memoized`); each call returns a fresh copy.
        """
        spec = self.schema.edge_type(relation)
        stamp = (
            self.slot_count(spec.source),
            self.slot_count(spec.target),
            self._node_epochs[spec.source],
            self._node_epochs[spec.target],
            self._edge_epochs[relation],
        )
        return self._memoized(
            relation, stamp, lambda: self._export_adjacency(relation)
        )

    def attribute_matrix(
        self,
        attribute: str,
        vocabulary: Optional[List[AttributeValue]] = None,
        binary: bool = True,
    ) -> sparse.csr_matrix:
        """CSR node-by-attribute-value incidence matrix.

        Exports are memoized (see :meth:`_memoized`); each call returns
        a fresh copy.

        Parameters
        ----------
        attribute:
            Attribute type name.
        vocabulary:
            Column ordering to use.  Two aligned networks must export
            against a *shared* vocabulary so that column ``j`` means the
            same timestamp/location/word in both matrices; pass the union
            vocabulary here.  Defaults to this network's own vocabulary.
        binary:
            If true (default), entries are 0/1 existence indicators; the
            paper counts path *instances*, where a post either has the
            attribute value or not.  If false, multiset counts are kept.

        Raises
        ------
        NetworkError
            If ``vocabulary`` omits a value present in this network.
        """
        spec = self.schema.attribute_type(attribute)
        if vocabulary is None:
            vocabulary = self._attr_values[attribute]
        vocabulary = list(vocabulary)
        stamp = (
            self.slot_count(spec.node_type),
            self._node_epochs[spec.node_type],
            self._attr_epochs[attribute],
            vocabulary,
        )
        return self._memoized(
            (attribute, bool(binary)),
            stamp,
            lambda: self._export_attribute(attribute, vocabulary, binary),
        )

    def _memoized(self, key, stamp: Tuple, build) -> sparse.csr_matrix:
        """A copy of the export ``key``, rebuilt when ``stamp`` moved.

        ``stamp`` holds the slot counts and mutation epochs the export
        depends on plus, for attribute matrices, the exact vocabulary;
        equal stamps prove the export unchanged.  One entry per export: a
        stale entry is replaced, so churn never grows the memo.  The memo
        lives outside the instance, so it never rides a pickle, deep
        copy or checkpoint, and callers get copies, so patching a
        returned matrix cannot leak into the next export.
        """
        memo = _EXPORTS.setdefault(self, {})
        entry = memo.get(key)
        if entry is None or entry[0] != stamp:
            entry = memo[key] = (stamp, build())
        return entry[1].copy()

    def _export_adjacency(self, relation: str) -> sparse.csr_matrix:
        spec = self.schema.edge_type(relation)
        out = self._out[relation]
        degrees = np.fromiter(map(len, out.values()), dtype=np.intp, count=len(out))
        n_edges = int(degrees.sum())
        rows = np.repeat(
            _positions(self._node_index[spec.source], out, len(out)), degrees
        )
        cols = _positions(
            self._node_index[spec.target],
            chain.from_iterable(out.values()),
            n_edges,
        )
        return sparse.csr_matrix(
            (np.ones(n_edges, dtype=np.float64), (rows, cols)),
            shape=(self.slot_count(spec.source), self.slot_count(spec.target)),
        )

    def _export_attribute(
        self, attribute: str, vocabulary: List[AttributeValue], binary: bool
    ) -> sparse.csr_matrix:
        spec = self.schema.attribute_type(attribute)
        value_index = {value: j for j, value in enumerate(vocabulary)}
        links = self._attr_links[attribute]
        sizes = np.fromiter(map(len, links.values()), dtype=np.intp, count=len(links))
        n_entries = int(sizes.sum())
        rows = np.repeat(
            _positions(self._node_index[spec.node_type], links, len(links)), sizes
        )
        try:
            cols = _positions(
                value_index, chain.from_iterable(links.values()), n_entries
            )
        except KeyError as error:
            raise NetworkError(
                f"vocabulary for attribute {attribute!r} omits value "
                f"{error.args[0]!r} present in network {self.name!r}"
            ) from None
        if binary:
            data = np.ones(n_entries, dtype=np.float64)
        else:
            data = np.fromiter(
                chain.from_iterable(bag.values() for bag in links.values()),
                dtype=np.float64,
                count=n_entries,
            )
        return sparse.csr_matrix(
            (data, (rows, cols)),
            shape=(self.slot_count(spec.node_type), len(vocabulary)),
        )

    # ------------------------------------------------------------------
    # Internal guards
    # ------------------------------------------------------------------
    def _require_node_type(self, node_type: str) -> None:
        if not self.schema.has_node_type(node_type):
            raise SchemaError(
                f"unknown node type {node_type!r} in schema {self.schema.name!r}"
            )

    def _require_relation(self, relation: str) -> None:
        self.schema.edge_type(relation)

    def _require_attribute(self, attribute: str) -> None:
        self.schema.attribute_type(attribute)

    def __repr__(self) -> str:
        node_summary = ", ".join(
            f"{t}={len(ids)}" for t, ids in sorted(self._nodes.items())
        )
        edge_summary = ", ".join(
            f"{r}={c}" for r, c in sorted(self._edge_counts.items())
        )
        return f"HeterogeneousNetwork({self.name!r}, {node_summary}; {edge_summary})"

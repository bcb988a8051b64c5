"""Automatic inter-network meta path discovery from the schema graph.

The paper hand-picks six inter-network meta paths (Table I).  This
module enumerates *all* inter-network meta paths up to a length bound
directly from the aligned schema (Definition 4: paths from U(1) to
U(2) over network relations, the anchor relation and shared attribute
types), so the feature family can be grown systematically instead of
manually.

Enumeration rules (matching Definition 4's constraints):

* walks start at U(1) and end at U(2);
* the anchor edge is traversed at most once;
* a walk lives in network 1 until it crosses (via the anchor or via a
  shared attribute value node) and in network 2 afterwards — paths
  that bounce back are not *inter-network* paths;
* immediate reversal of the same typed edge (e.g. U -write-> P
  -write^T-> U inside one network) is forbidden: at the type level it
  is degenerate, while the legitimate attribute crossing
  P(1) -at-> T -at^T-> P(2) survives because the two steps use
  different matrices (T1 vs T2).

Discovered paths carry ready-to-evaluate count expressions and can be
converted to :class:`~repro.meta.paths.MetaPath` objects (and hence
stacked into diagrams) when they have the canonical shapes; the test
suite verifies the standard P1-P6 are rediscovered exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.exceptions import MetaStructureError
from repro.meta.algebra import Chain, Expr, Leaf
from repro.meta.context import (
    ANCHOR_MATRIX,
    WRITE_LEFT,
    WRITE_RIGHT,
    bag_layout,
)
from repro.meta.paths import (
    ATTRIBUTE_CATEGORY,
    FOLLOW_CATEGORY,
    MetaPath,
)

#: Tagged schema node keys: ``("1", "user")``, ``("2", "post")``,
#: ``("shared", "timestamp")`` ...
SchemaNode = Tuple[str, str]

SOURCE: SchemaNode = ("1", "user")
SINK: SchemaNode = ("2", "user")


@dataclass(frozen=True)
class SchemaEdge:
    """One typed edge of the aligned schema graph.

    ``matrix`` is the canonical matrix-bag name whose rows are indexed
    by ``source`` and columns by ``target``; a walk may traverse the
    edge forward (use the matrix) or backward (use its transpose).
    """

    matrix: str
    source: SchemaNode
    target: SchemaNode


def schema_edges(include_words: bool = False) -> List[SchemaEdge]:
    """The aligned social schema of Figure 2 as a tagged edge list.

    One edge per bag matrix of
    :data:`~repro.meta.context.BAG_LAYOUT`: network nodes are tagged
    ``"1"``/``"2"`` by side, attribute values ``"shared"``, and the
    anchor edge runs from U(1) to U(2).
    """
    edges = []
    for row in bag_layout(include_words):
        tag = "1" if row.side == "left" else "2"
        if row.is_anchor:
            target_tag = "2"
        elif row.is_attribute:
            target_tag = "shared"
        else:
            target_tag = tag
        edges.append(
            SchemaEdge(row.name, (tag, row.source), (target_tag, row.target))
        )
    return edges


@dataclass(frozen=True)
class DiscoveredPath:
    """One enumerated inter-network meta path.

    Attributes
    ----------
    steps:
        ``(matrix_name, forward)`` per hop.
    node_sequence:
        The tagged schema nodes visited (length = len(steps) + 1).
    expr:
        Count expression (chain of leaves).
    crossing:
        ``"anchor"`` or ``"attribute"`` — how the path switches networks.
    """

    steps: Tuple[Tuple[str, bool], ...]
    node_sequence: Tuple[SchemaNode, ...]
    expr: Expr
    crossing: str

    @property
    def length(self) -> int:
        """Number of hops."""
        return len(self.steps)

    @property
    def signature(self) -> str:
        """Human-readable arrow signature, e.g. ``F1> A> <F2``."""
        parts = []
        for matrix, forward in self.steps:
            parts.append(f"{matrix}>" if forward else f"<{matrix}")
        return " ".join(parts)

    def matches(self, path: MetaPath) -> bool:
        """Whether this discovered path computes the same counts as
        ``path`` (compared by canonical expression key)."""
        return self.expr.key() == path.expr.key()

    def to_meta_path(self, name: str, semantics: str = "") -> MetaPath:
        """Convert to a stackable :class:`MetaPath` when possible.

        Anchor-crossing paths become follow-category paths with
        pre/post-anchor segments; canonical attribute paths of shape
        ``W1 X Y^T W2^T`` become attribute-category paths.  Other
        shapes raise :class:`MetaStructureError`.
        """
        leaves = [
            Leaf(matrix, transpose=not forward) for matrix, forward in self.steps
        ]
        if self.crossing == "anchor":
            anchor_index = next(
                i for i, (matrix, _) in enumerate(self.steps)
                if matrix == ANCHOR_MATRIX
            )
            left_leaves = leaves[:anchor_index]
            right_leaves = leaves[anchor_index + 1:]
            if not left_leaves or not right_leaves:
                raise MetaStructureError(
                    f"path {self.signature!r} has an empty anchor segment"
                )
            left_segment = (
                left_leaves[0] if len(left_leaves) == 1 else Chain(left_leaves)
            )
            right_segment = (
                right_leaves[0] if len(right_leaves) == 1 else Chain(right_leaves)
            )
            return MetaPath(
                name=name,
                semantics=semantics or self.signature,
                category=FOLLOW_CATEGORY,
                expr=self.expr,
                notation=self.signature,
                left_segment=left_segment,
                right_segment=right_segment,
            )
        if (
            self.length == 4
            and self.steps[0] == (WRITE_LEFT, True)
            and self.steps[-1] == (WRITE_RIGHT, False)
        ):
            inner = Chain(leaves[1:3])
            return MetaPath(
                name=name,
                semantics=semantics or self.signature,
                category=ATTRIBUTE_CATEGORY,
                expr=self.expr,
                notation=self.signature,
                inner=inner,
            )
        raise MetaStructureError(
            f"path {self.signature!r} has no canonical MetaPath form"
        )


def discover_inter_network_paths(
    max_length: int = 4, include_words: bool = False
) -> List[DiscoveredPath]:
    """Enumerate all inter-network meta paths up to ``max_length`` hops.

    Returns paths sorted by (length, signature) for determinism.
    """
    if max_length < 1:
        raise MetaStructureError("max_length must be >= 1")
    edges = schema_edges(include_words=include_words)
    by_source: Dict[SchemaNode, List[Tuple[SchemaEdge, bool]]] = {}
    for edge in edges:
        by_source.setdefault(edge.source, []).append((edge, True))
        by_source.setdefault(edge.target, []).append((edge, False))

    results: List[DiscoveredPath] = []

    def _network_of(node: SchemaNode) -> str:
        return node[0]

    def _walk(
        node: SchemaNode,
        steps: List[Tuple[str, bool]],
        nodes: List[SchemaNode],
        used_anchor: bool,
        crossed: bool,
        last_step: Optional[Tuple[str, bool]],
    ) -> None:
        if node == SINK and len(steps) >= 2:
            # Record the path, then keep extending: longer paths pass
            # *through* the U(2) node type (e.g. P1 ends one follow hop
            # beyond the anchored user).  Length-1 (the bare anchor
            # edge) is excluded: "is a known anchor" is not a feature.
            crossing = "anchor" if used_anchor else "attribute"
            leaves = [
                Leaf(matrix, transpose=not forward) for matrix, forward in steps
            ]
            expr: Expr = leaves[0] if len(leaves) == 1 else Chain(leaves)
            results.append(
                DiscoveredPath(
                    steps=tuple(steps),
                    node_sequence=tuple(nodes),
                    expr=expr,
                    crossing=crossing,
                )
            )
        if len(steps) >= max_length:
            return
        for edge, forward in by_source.get(node, ()):
            next_node = edge.target if forward else edge.source
            if edge.matrix == ANCHOR_MATRIX:
                if used_anchor or not forward:
                    continue
            # No immediate reversal of the same matrix (degenerate).
            if last_step is not None and last_step == (edge.matrix, not forward):
                continue
            # Once in network 2, never return to network 1 or shared.
            network_now = _network_of(node)
            network_next = _network_of(next_node)
            if network_now == "2" and network_next != "2":
                continue
            # Never start in network 2 territory before crossing.
            new_crossed = crossed or network_next == "2"
            _walk(
                next_node,
                steps + [(edge.matrix, forward)],
                nodes + [next_node],
                used_anchor or edge.matrix == ANCHOR_MATRIX,
                new_crossed,
                (edge.matrix, forward),
            )

    _walk(SOURCE, [], [SOURCE], used_anchor=False, crossed=False, last_step=None)
    results.sort(key=lambda path: (path.length, path.signature))
    return results


def discovered_family(
    max_length: int = 4, include_words: bool = False
):
    """Build a full stacked diagram family from auto-discovered paths.

    Every discovered path with a canonical :class:`MetaPath` form (all
    anchor-crossing paths with non-empty segments, plus the canonical
    attribute paths) enters the family; the stacked diagrams are then
    generated exactly as for the hand-defined family.  With
    ``max_length=4`` this is a strict superset of the paper's Φ.

    Returns
    -------
    repro.meta.diagrams.DiagramFamily
    """
    from repro.meta.diagrams import build_diagram_family

    converted = []
    standard = discover_standard_paths(include_words=include_words)
    standard_by_key = {
        discovered.expr.key(): name for name, discovered in standard.items()
    }
    auto_index = 0
    for discovered in discover_inter_network_paths(
        max_length=max_length, include_words=include_words
    ):
        key = discovered.expr.key()
        if key in standard_by_key:
            name = standard_by_key[key]
        else:
            auto_index += 1
            name = f"Q{auto_index}"
        try:
            converted.append(discovered.to_meta_path(name))
        except MetaStructureError:
            continue  # no canonical stackable form; skip
    return build_diagram_family(converted)


def discover_standard_paths(include_words: bool = False) -> Dict[str, DiscoveredPath]:
    """Map the paper's path names to their discovered equivalents.

    Runs discovery at the bound covering Table I (4 hops) and matches
    each discovered path against the hand-defined P1-P6 (P7 with
    words) by canonical expression key.
    """
    from repro.meta.paths import standard_paths

    discovered = discover_inter_network_paths(
        max_length=4, include_words=include_words
    )
    mapping: Dict[str, DiscoveredPath] = {}
    for standard in standard_paths(include_words=include_words):
        for candidate in discovered:
            if candidate.matches(standard):
                mapping[standard.name] = candidate
                break
    return mapping

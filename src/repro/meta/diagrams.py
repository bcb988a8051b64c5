"""Inter-network meta diagrams (Definition 5, Table I bottom).

A meta diagram stacks meta paths at their shared node types.  Two cases
arise with the paper's path set:

* **follow x follow** — P_i and P_j (i, j in {1..4}) share *all* four
  node types (source user, the anchored user pair, sink user), so the
  stacked count Hadamard-multiplies the per-side follow segments around
  the shared anchor:  ``(M1_i ∘ M1_j) @ A @ (M2_i ∘ M2_j)``.
  Example: Ψ1 = P1 x P2 = mutual-follow neighbors on both sides
  ("Common Aligned Neighbors").
* **attribute x attribute** — P5 and P6 share the source user, the two
  post nodes and the sink user, so stacking Hadamard-multiplies the
  post-to-post inner products: ``W1 @ ((T1 T2ᵀ) ∘ (L1 L2ᵀ)) @ W2ᵀ``
  — a post pair at the *same place and same time* (Ψ2, "Common
  Attributes"; this is exactly the paper's fix for "dislocated"
  check-in records).
* **follow x attribute** — the paths share only source and sink users,
  so the stacked count is the elementwise product of the two count
  matrices (a diagram instance = one instance of each branch hanging off
  the same user pair).

The full family Φ used for features (Section III-B.2):
Φ = P  ∪  Ψ_f²  ∪  Ψ_a²  ∪  Ψ_f,a  ∪  Ψ_f,a²  ∪  Ψ_f²,a².

Every diagram records its **covering set** C(Ψ) — the meta paths it
decomposes into (Definition 7).  The sound direction of Lemma 1 (an
instance of Ψ projects to an instance of every covering path) makes the
covering set a valid search-space pruner and gives the subset property
tested in the suite:  support(Ψ) ⊆ ⋂_{P ∈ C(Ψ)} support(P), and
C(Ψi) ⊆ C(Ψj) ⇒ support(Ψj) ⊆ support(Ψi)  (Lemma 2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from typing import FrozenSet, List, Sequence, Tuple

from repro.exceptions import MetaStructureError
from repro.meta.algebra import Chain, Expr, Leaf, Parallel
from repro.meta.context import ANCHOR_MATRIX, WRITE_LEFT, WRITE_RIGHT
from repro.meta.paths import (
    ATTRIBUTE_CATEGORY,
    FOLLOW_CATEGORY,
    MetaPath,
    path_categories,
    standard_paths,
)


@dataclass(frozen=True)
class MetaDiagram:
    """One inter-network meta diagram.

    Attributes
    ----------
    name:
        Identifier derived from the stacked paths, e.g. ``"P1xP2"``.
    semantics:
        Human-readable meaning.
    family:
        Which family of Φ this diagram belongs to (``"f2"``, ``"a2"``,
        ``"f.a"``, ``"f.a2"``, ``"f2.a2"``).
    expr:
        Count expression evaluating to the |U1| x |U2| instance counts.
    covering:
        Names of the meta paths in the minimum covering set C(Ψ).
    """

    name: str
    semantics: str
    family: str
    expr: Expr
    covering: FrozenSet[str]

    def covers(self, other: "MetaDiagram") -> bool:
        """Whether ``other``'s covering set is a subset of this one's.

        By Lemma 2, if ``self.covers(other)`` then every user pair
        connected by ``self`` is also connected by ``other``.
        """
        return other.covering <= self.covering


def _require_follow(path: MetaPath) -> None:
    if path.category != FOLLOW_CATEGORY:
        raise MetaStructureError(f"{path.name} is not a follow path")


def _require_attribute(path: MetaPath) -> None:
    if path.category != ATTRIBUTE_CATEGORY:
        raise MetaStructureError(f"{path.name} is not an attribute path")


def stack_follow_pair(path_a: MetaPath, path_b: MetaPath) -> MetaDiagram:
    """Stack two follow paths at all shared node types (Ψ_f² member)."""
    _require_follow(path_a)
    _require_follow(path_b)
    if path_a.name == path_b.name:
        raise MetaStructureError("stacking a path with itself is the path")
    expr = Chain(
        [
            Parallel([path_a.left_segment, path_b.left_segment]),
            Leaf(ANCHOR_MATRIX),
            Parallel([path_a.right_segment, path_b.right_segment]),
        ]
    )
    return MetaDiagram(
        name=f"{path_a.name}x{path_b.name}",
        semantics=(
            f"Common Aligned Neighbors ({path_a.semantics} + {path_b.semantics})"
        ),
        family="f2",
        expr=expr,
        covering=frozenset({path_a.name, path_b.name}),
    )


def stack_attribute_paths(paths: Sequence[MetaPath]) -> MetaDiagram:
    """Stack attribute paths at the shared post junctions (Ψ_a² member).

    With P5 and P6 this yields Ψ2 "Common Attributes": the same post pair
    shares both the timestamp and the location.
    """
    if len(paths) < 2:
        raise MetaStructureError("need at least two attribute paths to stack")
    for path in paths:
        _require_attribute(path)
    names = [path.name for path in paths]
    if len(set(names)) != len(names):
        raise MetaStructureError("attribute paths to stack must be distinct")
    expr = Chain(
        [
            Leaf(WRITE_LEFT),
            Parallel([path.inner for path in paths]),
            Leaf(WRITE_RIGHT, transpose=True),
        ]
    )
    return MetaDiagram(
        name="x".join(names),
        semantics="Common Attributes (same post pair shares "
        + " and ".join(path.semantics.replace("Common ", "").lower() for path in paths)
        + ")",
        family="a2",
        expr=expr,
        covering=frozenset(names),
    )


def stack_at_endpoints(
    branches: Sequence[Tuple[str, Expr, FrozenSet[str]]],
    semantics: str,
    family: str,
) -> MetaDiagram:
    """Stack count expressions that share only the user endpoints.

    Each branch is ``(name, U1xU2 expression, covering names)``; the
    stacked diagram's count is the Hadamard product of branch counts.
    """
    if len(branches) < 2:
        raise MetaStructureError("endpoint stacking needs >= 2 branches")
    expr = Parallel([branch_expr for _, branch_expr, _ in branches])
    covering: FrozenSet[str] = frozenset()
    for _, _, branch_covering in branches:
        covering |= branch_covering
    return MetaDiagram(
        name="x".join(name for name, _, _ in branches),
        semantics=semantics,
        family=family,
        expr=expr,
        covering=covering,
    )


@dataclass(frozen=True)
class DiagramFamily:
    """The full feature family Φ: standard paths plus all diagrams."""

    paths: Tuple[MetaPath, ...]
    diagrams: Tuple[MetaDiagram, ...]

    @property
    def feature_names(self) -> List[str]:
        """Ordered names of every feature Φ_k (paths first, then diagrams)."""
        return [path.name for path in self.paths] + [
            diagram.name for diagram in self.diagrams
        ]

    @property
    def exprs(self) -> List[Expr]:
        """Ordered count expressions aligned with :attr:`feature_names`."""
        return [path.expr for path in self.paths] + [
            diagram.expr for diagram in self.diagrams
        ]

    def subset(self, names: Sequence[str]) -> "DiagramFamily":
        """Restrict the family to the given feature names (order kept)."""
        wanted = set(names)
        unknown = wanted - set(self.feature_names)
        if unknown:
            raise MetaStructureError(f"unknown feature names: {sorted(unknown)}")
        return DiagramFamily(
            paths=tuple(path for path in self.paths if path.name in wanted),
            diagrams=tuple(
                diagram for diagram in self.diagrams if diagram.name in wanted
            ),
        )

    def paths_only(self) -> "DiagramFamily":
        """The meta-path-only family (features of the SVM-MP baseline)."""
        return DiagramFamily(paths=self.paths, diagrams=())


@functools.cache
def standard_diagram_family(include_words: bool = False) -> DiagramFamily:
    """Build Φ = P ∪ Ψ_f² ∪ Ψ_a² ∪ Ψ_f,a ∪ Ψ_f,a² ∪ Ψ_f²,a².

    With the paper's six paths this yields 6 paths + 25 diagrams = 31
    features; ``include_words`` adds P7 and enlarges the attribute
    stackings accordingly.  The family is immutable, so it is built
    once per ``include_words`` and shared by every caller.
    """
    return build_diagram_family(standard_paths(include_words=include_words))


def build_diagram_family(paths: Sequence[MetaPath]) -> DiagramFamily:
    """Build the full stacked family over an arbitrary path set.

    Generalizes :func:`standard_diagram_family` to any mix of follow-
    and attribute-category paths (e.g. paths produced by the automatic
    schema discovery of :mod:`repro.meta.discovery`): all pairwise
    follow stackings, the attribute stackings, and every endpoint
    product between them.
    """
    names = [path.name for path in paths]
    if len(set(names)) != len(names):
        raise MetaStructureError(f"duplicate path names: {sorted(names)}")
    paths = list(paths)
    follow, attribute = path_categories(paths)

    diagrams: List[MetaDiagram] = []

    # Ψ_f²: unordered pairs of distinct follow paths.
    follow_pairs = list(combinations(follow, 2))
    for path_a, path_b in follow_pairs:
        diagrams.append(stack_follow_pair(path_a, path_b))

    # Ψ_a²: all attribute paths stacked at the posts (one diagram for the
    # paper's P5/P6; pairwise + full stack when there are more than two;
    # none when fewer than two attribute paths exist).
    attribute_stacks: List[MetaDiagram] = []
    if len(attribute) == 2:
        attribute_stacks.append(stack_attribute_paths(attribute))
    elif len(attribute) > 2:
        for path_a, path_b in combinations(attribute, 2):
            attribute_stacks.append(stack_attribute_paths([path_a, path_b]))
        attribute_stacks.append(stack_attribute_paths(attribute))
    diagrams.extend(attribute_stacks)

    # Ψ_f,a: follow path x attribute path, sharing only the endpoints.
    for follow_path in follow:
        for attribute_path in attribute:
            diagrams.append(
                stack_at_endpoints(
                    [
                        (
                            follow_path.name,
                            follow_path.expr,
                            frozenset({follow_path.name}),
                        ),
                        (
                            attribute_path.name,
                            attribute_path.expr,
                            frozenset({attribute_path.name}),
                        ),
                    ],
                    semantics="Common Aligned Neighbor & Attribute",
                    family="f.a",
                )
            )

    if attribute_stacks:
        # Ψ_f,a²: follow path x (all attributes stacked at the posts).
        full_attribute_stack = attribute_stacks[-1]
        for follow_path in follow:
            diagrams.append(
                stack_at_endpoints(
                    [
                        (
                            follow_path.name,
                            follow_path.expr,
                            frozenset({follow_path.name}),
                        ),
                        (
                            full_attribute_stack.name,
                            full_attribute_stack.expr,
                            full_attribute_stack.covering,
                        ),
                    ],
                    semantics="Common Aligned Neighbor & Attributes",
                    family="f.a2",
                )
            )

        # Ψ_f²,a²: follow pair x attribute stack.
        for path_a, path_b in follow_pairs:
            pair_diagram = stack_follow_pair(path_a, path_b)
            diagrams.append(
                stack_at_endpoints(
                    [
                        (
                            pair_diagram.name,
                            pair_diagram.expr,
                            pair_diagram.covering,
                        ),
                        (
                            full_attribute_stack.name,
                            full_attribute_stack.expr,
                            full_attribute_stack.covering,
                        ),
                    ],
                    semantics="Common Aligned Neighbors & Attributes",
                    family="f2.a2",
                )
            )

    return DiagramFamily(paths=tuple(paths), diagrams=tuple(diagrams))

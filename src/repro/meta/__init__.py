"""Inter-network meta paths, meta diagrams, proximities and features.

Implements Definitions 4-7 and Lemmas 1-2 of the paper: the six standard
inter-network meta paths, the stacked meta diagram family Φ, a memoizing
sparse count algebra, Dice-style meta diagram proximity and per-link
feature extraction.
"""

from repro.meta.algebra import (
    Chain,
    CountingEngine,
    Expr,
    Leaf,
    Parallel,
    dirty_expressions,
    expr_shape,
    pad_csr,
)
from repro.meta.context import ANCHOR_MATRIX, build_matrix_bag
from repro.meta.diagrams import (
    DiagramFamily,
    MetaDiagram,
    stack_at_endpoints,
    stack_attribute_paths,
    stack_follow_pair,
    standard_diagram_family,
)
from repro.meta.discovery import (
    DiscoveredPath,
    discover_inter_network_paths,
    discover_standard_paths,
    schema_edges,
)
from repro.meta.features import FeatureExtractor, extract_features
from repro.meta.paths import (
    ATTRIBUTE_CATEGORY,
    FOLLOW_CATEGORY,
    MetaPath,
    attribute_paths,
    follow_paths,
    path_categories,
    paths_by_name,
    standard_paths,
)
from repro.meta.proximity import ProximityMatrix, dice_proximity

__all__ = [
    "ANCHOR_MATRIX",
    "ATTRIBUTE_CATEGORY",
    "Chain",
    "CountingEngine",
    "DiagramFamily",
    "DiscoveredPath",
    "Expr",
    "FOLLOW_CATEGORY",
    "FeatureExtractor",
    "Leaf",
    "MetaDiagram",
    "MetaPath",
    "Parallel",
    "ProximityMatrix",
    "attribute_paths",
    "build_matrix_bag",
    "dice_proximity",
    "dirty_expressions",
    "discover_inter_network_paths",
    "discover_standard_paths",
    "expr_shape",
    "extract_features",
    "follow_paths",
    "pad_csr",
    "path_categories",
    "paths_by_name",
    "schema_edges",
    "stack_at_endpoints",
    "stack_attribute_paths",
    "stack_follow_pair",
    "standard_diagram_family",
    "standard_paths",
]

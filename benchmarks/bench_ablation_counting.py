"""Ablation: covering-set reuse (memoized counting) vs naive recomputation.

Section III-B.3 motivates computing diagram instances by combining
already-computed pieces.  The CountingEngine memoizes sub-expressions
and computes each one in its cheapest exact form (reassociated chains,
face-split stacks); this bench measures the speedup over evaluating
every diagram expression from scratch, left to right, and gates that
both give the same CSR bytes.  Its record carries the exactness flag
and the number of entries the engine stores.
"""

import time

from conftest import publish
from repro.meta.algebra import CountingEngine
from repro.meta.context import build_matrix_bag
from repro.meta.diagrams import standard_diagram_family


def _evaluate_naive(bag, family):
    return [expr.evaluate(bag) for expr in family.exprs]


def _evaluate_memoized(bag, family):
    engine = CountingEngine(bag)
    return [engine.evaluate(expr) for expr in family.exprs], engine


def _csr_bytes(matrix):
    """Shape and stored arrays of a matrix in canonical CSR form."""
    matrix = matrix.tocsr().copy()
    matrix.sum_duplicates()
    matrix.eliminate_zeros()
    matrix.sort_indices()
    return (
        matrix.shape,
        matrix.indptr.tobytes(),
        matrix.indices.tobytes(),
        matrix.data.tobytes(),
    )


def test_ablation_counting_reuse(benchmark, pair):
    anchors = sorted(pair.anchors, key=repr)[: max(5, pair.anchor_count() // 2)]
    bag = build_matrix_bag(pair, known_anchors=anchors)
    family = standard_diagram_family()

    started = time.perf_counter()
    naive = _evaluate_naive(bag, family)
    naive_seconds = time.perf_counter() - started

    started = time.perf_counter()
    memoized, engine = _evaluate_memoized(bag, family)
    memo_seconds = time.perf_counter() - started

    mismatched = [
        name
        for name, a, b in zip(family.feature_names, naive, memoized)
        if _csr_bytes(a) != _csr_bytes(b)
    ]

    speedup = naive_seconds / memo_seconds if memo_seconds > 0 else float("inf")
    publish(
        "ablation_counting",
        "\n".join(
            [
                "Ablation: diagram counting with covering-set reuse",
                f"naive evaluation   : {naive_seconds:.4f}s",
                f"memoized evaluation: {memo_seconds:.4f}s",
                f"speedup            : {speedup:.2f}x",
                f"cache entries      : {engine.cache_size}",
                f"stored entries     : {engine.stored_entries}",
                f"CSR bytes identical: {not mismatched}",
            ]
        ),
        record={
            "flags": {"csr_identical": not mismatched},
            "metrics": {
                "naive_s": naive_seconds,
                "memoized_s": memo_seconds,
                "cache_entries": engine.cache_size,
                "stored_entries": engine.stored_entries,
            },
        },
    )
    assert not mismatched, f"engine differs from naive evaluation: {mismatched}"

    benchmark.pedantic(
        _evaluate_memoized, args=(bag, family), rounds=3, iterations=1
    )
    assert memo_seconds <= naive_seconds * 1.2  # never meaningfully slower

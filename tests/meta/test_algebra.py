"""Tests for repro.meta.algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.exceptions import MetaStructureError
from repro.meta.algebra import (
    Chain,
    CountingEngine,
    Leaf,
    Parallel,
    _key_mentions,
    pad_csr,
)


def _csr(array) -> sparse.csr_matrix:
    return sparse.csr_matrix(np.asarray(array, dtype=np.float64))


@pytest.fixture()
def bag():
    return {
        "A": _csr([[1, 0], [0, 1]]),
        "B": _csr([[0, 2], [3, 0]]),
        "C": _csr([[1, 1], [1, 1]]),
        "R": _csr([[1, 0, 2], [0, 1, 0]]),  # rectangular 2x3
    }


class TestLeaf:
    def test_evaluate(self, bag):
        assert np.array_equal(Leaf("B").evaluate(bag).toarray(), [[0, 2], [3, 0]])

    def test_transpose(self, bag):
        assert np.array_equal(Leaf("B").T.evaluate(bag).toarray(), [[0, 3], [2, 0]])

    def test_double_transpose_identity(self, bag):
        assert Leaf("B").T.T.key() == Leaf("B").key()

    def test_key(self):
        assert Leaf("B").key() == "B"
        assert Leaf("B", transpose=True).key() == "B^T"

    def test_missing_matrix_raises(self, bag):
        with pytest.raises(MetaStructureError, match="missing"):
            Leaf("Z").evaluate(bag)

    def test_empty_name_rejected(self):
        with pytest.raises(MetaStructureError):
            Leaf("")


class TestChain:
    def test_matrix_product(self, bag):
        expr = Chain([Leaf("B"), Leaf("C")])
        expected = bag["B"].toarray() @ bag["C"].toarray()
        assert np.array_equal(expr.evaluate(bag).toarray(), expected)

    def test_three_way_product(self, bag):
        expr = Chain([Leaf("A"), Leaf("B"), Leaf("C")])
        expected = bag["A"].toarray() @ bag["B"].toarray() @ bag["C"].toarray()
        assert np.array_equal(expr.evaluate(bag).toarray(), expected)

    def test_flattens_nested_chains(self):
        inner = Chain([Leaf("A"), Leaf("B")])
        outer = Chain([inner, Leaf("C")])
        assert outer.key() == "(A@B@C)"

    def test_rectangular_shapes(self, bag):
        expr = Chain([Leaf("B"), Leaf("R")])
        assert expr.evaluate(bag).shape == (2, 3)

    def test_shape_mismatch_raises(self, bag):
        expr = Chain([Leaf("R"), Leaf("B")])  # (2x3) @ (2x2)
        with pytest.raises(MetaStructureError, match="shape mismatch"):
            expr.evaluate(bag)

    def test_single_segment_rejected(self):
        with pytest.raises(MetaStructureError):
            Chain([Leaf("A")])

    def test_leaves(self):
        assert Chain([Leaf("A"), Leaf("B")]).leaves() == ("A", "B")


class TestParallel:
    def test_hadamard(self, bag):
        expr = Parallel([Leaf("B"), Leaf("C")])
        expected = bag["B"].toarray() * bag["C"].toarray()
        assert np.array_equal(expr.evaluate(bag).toarray(), expected)

    def test_key_canonicalizes_order(self):
        assert Parallel([Leaf("C"), Leaf("B")]).key() == Parallel(
            [Leaf("B"), Leaf("C")]
        ).key()

    def test_flattens_nested_parallel(self):
        inner = Parallel([Leaf("A"), Leaf("B")])
        outer = Parallel([inner, Leaf("C")])
        assert outer.key() == "(A*B*C)"

    def test_shape_mismatch_raises(self, bag):
        with pytest.raises(MetaStructureError, match="shape mismatch"):
            Parallel([Leaf("B"), Leaf("R")]).evaluate(bag)

    def test_single_branch_rejected(self):
        with pytest.raises(MetaStructureError):
            Parallel([Leaf("A")])


class TestCountingEngine:
    def test_matches_direct_evaluation(self, bag):
        expr = Chain([Parallel([Leaf("B"), Leaf("C")]), Leaf("A")])
        engine = CountingEngine(bag)
        assert np.array_equal(
            engine.evaluate(expr).toarray(), expr.evaluate(bag).toarray()
        )

    def test_caches_subexpressions(self, bag):
        engine = CountingEngine(bag)
        engine.evaluate(Chain([Leaf("B"), Leaf("C")]))
        before = engine.cache_size
        engine.evaluate(Chain([Leaf("B"), Leaf("C")]))
        assert engine.cache_size == before

    def test_shared_subchain_reused(self, bag):
        engine = CountingEngine(bag)
        engine.evaluate(Chain([Leaf("A"), Leaf("B")]))
        size_after_first = engine.cache_size
        # A longer chain reuses nothing textually equal to (A@B) because
        # Chain flattens, but leaves are shared.
        engine.evaluate(Chain([Leaf("A"), Leaf("C")]))
        assert engine.cache_size > size_after_first

    def test_invalidate_clears(self, bag):
        engine = CountingEngine(bag)
        engine.evaluate(Chain([Leaf("A"), Leaf("B")]))
        engine.invalidate()
        assert engine.cache_size == 0

    def test_update_matrix_drops_dependents_only(self, bag):
        engine = CountingEngine(bag)
        with_a = Chain([Leaf("A"), Leaf("B")])
        without_a = Chain([Leaf("B"), Leaf("C")])
        engine.evaluate(with_a)
        engine.evaluate(without_a)
        engine.update_matrix("A", _csr([[0, 1], [1, 0]]))
        keys = {with_a.key(), without_a.key()}
        # Recompute: the A-dependent result must reflect the new matrix.
        refreshed = engine.evaluate(with_a).toarray()
        expected = np.array([[0, 1], [1, 0]]) @ bag["B"].toarray()
        assert np.array_equal(refreshed, expected)
        # The A-free result was retained (still correct).
        assert np.array_equal(
            engine.evaluate(without_a).toarray(),
            (bag["B"] @ bag["C"]).toarray(),
        )


class TestKeyMentions:
    def test_exact_name_only(self):
        assert _key_mentions("(F1@A@F2^T)", "A")
        assert _key_mentions("(F1@A@F2^T)", "F1")
        assert _key_mentions("(F1@A@F2^T)", "F2")
        assert not _key_mentions("(F1@F2^T)", "A")

    def test_prefix_collision_safe(self):
        # "A" must not match inside "AB".
        assert not _key_mentions("(AB@C)", "A")
        assert _key_mentions("(AB@C)", "AB")

    def test_transpose_form_detected(self):
        assert _key_mentions("(B^T@C)", "B")


class TestDependencyTracking:
    def test_dependents_reflect_cached_leaf_sets(self, bag):
        engine = CountingEngine(bag)
        engine.evaluate(Chain([Leaf("A"), Leaf("B")]))
        engine.evaluate(Chain([Leaf("B"), Leaf("C")]))
        assert "(A@B)" in engine.dependents("A")
        assert "(B@C)" not in engine.dependents("A")
        assert set(engine.dependents("B")) >= {"(A@B)", "(B@C)", "B"}

    def test_update_matrix_drops_dependents_only(self, bag):
        engine = CountingEngine(bag)
        engine.evaluate(Chain([Leaf("A"), Leaf("B")]))
        engine.evaluate(Chain([Leaf("B"), Leaf("C")]))
        engine.update_matrix("A", bag["C"])
        assert engine.dependents("A") == ()
        assert "(B@C)" in engine.dependents("B")


def _assert_same_csr(actual, expected):
    """Equal shape and the same stored arrays (canonical bytes)."""
    assert actual.shape == expected.shape
    assert np.array_equal(actual.indptr, expected.indptr)
    assert np.array_equal(actual.indices, expected.indices)
    assert np.array_equal(actual.data, expected.data)


class TestSeedChange:
    """Seeded changes stay one pending sum per key until a fold."""

    def test_uncached_expression_is_not_seeded(self, bag):
        engine = CountingEngine(bag)
        expr = Chain([Leaf("A"), Leaf("B")])
        assert not engine.seed_change(expr, _csr([[1, 0], [0, 0]]))
        assert engine.components(expr) is None

    def test_components_hold_at_most_one_change(self, bag):
        engine = CountingEngine(bag)
        expr = Chain([Leaf("A"), Leaf("B")])
        base = engine.evaluate(expr)
        cached, pending = engine.components(expr)
        assert cached is base and pending is None
        changes = [
            _csr([[1, 0], [0, 0]]),
            _csr([[0, 0], [0, -3]]),
            _csr([[2, 1], [0, 0]]),
        ]
        for change in changes:
            assert engine.seed_change(expr, change)
            cached, pending = engine.components(expr)
            assert cached is base
            assert sparse.isspmatrix_csr(pending)
        total = sum(change.toarray() for change in changes)
        assert np.array_equal(pending.toarray(), total)
        assert np.array_equal(
            engine.evaluate(expr).toarray(), base.toarray() + total
        )
        assert engine.components(expr)[1] is None

    def test_changes_seeded_at_growing_shapes(self, bag):
        engine = CountingEngine(bag)
        expr = Chain([Leaf("A"), Leaf("R")])  # 2 x 3
        base = engine.evaluate(expr).toarray()
        first = np.zeros((3, 3))
        first[2, 0], first[0, 1] = 1.0, -1.0
        second = np.zeros((4, 5))
        second[3, 4], second[2, 0] = 2.0, 1.0
        assert engine.seed_change(expr, _csr(first))
        assert engine.seed_change(expr, _csr(second))
        cached, pending = engine.components(expr)
        assert cached.shape == (2, 3) and pending.shape == (4, 5)
        expected = second.copy()
        expected[:3, :3] += first
        expected[:2, :3] += base
        folded = engine.evaluate(expr)
        assert folded.shape == (4, 5)
        assert np.array_equal(folded.toarray(), expected)
        assert folded.has_sorted_indices and np.all(folded.data != 0)

    def test_cancelling_seeds_keep_the_growth(self, bag):
        engine = CountingEngine(bag)
        expr = Chain([Leaf("A"), Leaf("B")])
        base = engine.evaluate(expr).toarray()
        change = np.zeros((3, 4))
        change[2, 3], change[0, 0] = 1.0, 5.0
        assert engine.seed_change(expr, _csr(change))
        assert engine.seed_change(expr, _csr(-change))
        _, pending = engine.components(expr)
        assert pending.nnz == 0 and pending.shape == (3, 4)
        folded = engine.evaluate(expr)
        expected = np.zeros((3, 4))
        expected[:2, :2] = base
        assert folded.shape == (3, 4)
        assert np.array_equal(folded.toarray(), expected)
        assert folded.nnz == np.count_nonzero(expected)

    def test_evaluate_after_seeds_matches_a_fresh_engine(self):
        """Seed each step's exact change over growing matrices, fold
        once: the bytes a fresh engine computes over the last ones."""
        rng = np.random.default_rng(5)
        shapes = [(4, 3), (4, 3), (6, 3), (6, 5), (7, 6)]

        def grown(previous, shape):
            values = (rng.random(shape) < 0.3).astype(np.float64)
            if previous is not None:
                kept = previous.toarray()
                values[: kept.shape[0], : kept.shape[1]] = kept
                flips = rng.random(kept.shape) < 0.15
                values[: kept.shape[0], : kept.shape[1]][flips] = 1.0 - kept[flips]
            return _csr(values)

        bags, x, y = [], None, None
        for n, m in shapes:
            x = grown(x, (n, n))
            y = grown(y, (n, m))
            bags.append({"X": x, "Y": y})
        stacked = Parallel([Leaf("X"), Leaf("X", transpose=True)])
        expr = Chain([stacked, Leaf("Y")])
        engine = CountingEngine(bags[0])
        engine.evaluate(expr)
        for old, new in zip(bags, bags[1:]):
            keys = []
            for sub in (stacked, expr):
                before = CountingEngine(old).evaluate(sub)
                after = CountingEngine(new).evaluate(sub)
                change = (after - pad_csr(before, after.shape)).tocsr()
                change.eliminate_zeros()
                assert engine.seed_change(sub, change)
                keys.append(sub.key())
            engine.update_matrices(new, preserve=keys)
            assert sparse.isspmatrix_csr(engine.components(expr)[1])
        _assert_same_csr(
            engine.evaluate(expr), CountingEngine(bags[-1]).evaluate(expr)
        )
        _assert_same_csr(
            engine.evaluate(stacked), CountingEngine(bags[-1]).evaluate(stacked)
        )


# ----------------------------------------------------------------------
# Differential oracle: the engine's cheapest forms (reassociated chains,
# face-split stacks) against naive left-to-right evaluation.
# ----------------------------------------------------------------------
#: Node types of the generated bags; matrix ``Mab`` maps type a to b.
_TYPES = range(4)


@st.composite
def _leaf_matrix(draw, rows, cols):
    """A CSR leaf: one-hot rows (a post's timestamp), several values
    per row (a post's words) or small integers, any of them with empty
    rows and columns and explicitly stored zeros."""
    kind = draw(st.sampled_from(["onehot", "wordlike", "integer"]))
    values = np.zeros((rows, cols))
    if cols:
        for row in range(rows):
            if kind == "onehot":
                if draw(st.booleans()):
                    values[row, draw(st.integers(0, cols - 1))] = 1.0
            else:
                picks = draw(st.sets(st.integers(0, cols - 1), max_size=cols))
                for col in picks:
                    values[row, col] = (
                        1.0 if kind == "wordlike" else draw(st.integers(-2, 3))
                    )
    stored = values != 0
    if rows and cols and draw(st.booleans()):
        stored[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] = True
    indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=1))])
    return sparse.csr_matrix(
        (values[stored], np.nonzero(stored)[1], indptr), shape=(rows, cols)
    )


def _operand(draw, a, b, depth):
    """An expression valued ``(size a) x (size b)``."""
    kinds = ["leaf"] if depth == 0 else ["leaf", "chain", "parallel", "stack"]
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        if draw(st.booleans()):
            return Leaf(f"M{b}{a}", transpose=True)
        return Leaf(f"M{a}{b}")
    if kind == "chain":
        inner = draw(st.lists(st.sampled_from(_TYPES), min_size=1, max_size=4))
        ends = [a, *inner, b]
        return Chain(
            [_operand(draw, x, y, depth - 1) for x, y in zip(ends, ends[1:])]
        )
    if kind == "parallel":
        count = draw(st.integers(2, 3))
        return Parallel([_operand(draw, a, b, depth - 1) for _ in range(count)])
    # A stack of two-segment products: the face-split form.
    count = draw(st.integers(2, 3))
    return Parallel(
        [
            Chain([_operand(draw, a, c, depth - 1), _operand(draw, c, b, depth - 1)])
            for c in draw(
                st.lists(st.sampled_from(_TYPES), min_size=count, max_size=count)
            )
        ]
    )


@st.composite
def _expression_and_bag(draw):
    sizes = draw(st.lists(st.integers(0, 5), min_size=4, max_size=4))
    bag = {
        f"M{a}{b}": draw(_leaf_matrix(sizes[a], sizes[b]))
        for a in _TYPES
        for b in _TYPES
    }
    a, b = draw(st.sampled_from(_TYPES)), draw(st.sampled_from(_TYPES))
    return _operand(draw, a, b, depth=draw(st.integers(1, 3))), bag


def _nodes(expr):
    yield expr
    for child in getattr(expr, "segments", ()) + getattr(expr, "branches", ()):
        yield from _nodes(child)


def _canonical(matrix):
    matrix = matrix.tocsr().copy()
    matrix.sum_duplicates()
    matrix.eliminate_zeros()
    matrix.sort_indices()
    return matrix


@settings(max_examples=150, deadline=None)
@given(_expression_and_bag())
def test_engine_matches_naive_evaluation_byte_for_byte(case):
    """Every node of a generated tree, evaluated by one engine (so the
    nodes below it are memoized), holds the naive evaluation's bytes."""
    expr, bag = case
    engine = CountingEngine(bag)
    engine.evaluate(expr)
    for node in _nodes(expr):
        actual = _canonical(engine.evaluate(node))
        expected = _canonical(node.evaluate(bag))
        assert actual.shape == expected.shape, node.key()
        for part in ("indptr", "indices", "data"):
            assert (
                getattr(actual, part).tobytes()
                == getattr(expected, part).tobytes()
            ), (node.key(), part)


def test_face_split_stack_keeps_no_branch_product(bag):
    engine = CountingEngine(bag)
    stack = Parallel(
        [Chain([Leaf("B"), Leaf("C")]), Chain([Leaf("A"), Leaf("B", True)])]
    )
    expected = stack.evaluate(bag)
    _assert_same_csr(engine.evaluate(stack), expected)
    for branch in stack.branches:
        assert engine.components(branch) is None

"""Tests for repro.engine.incremental."""

import numpy as np
import pytest
from scipy import sparse

from repro.engine.incremental import (
    DeltaEvaluator,
    apply_delta,
    leaf_occurrences,
    pad_csr,
    supports_delta,
)
from repro.exceptions import MetaStructureError
from repro.meta.algebra import Chain, CountingEngine, Expr, Leaf, Parallel


def _csr(array) -> sparse.csr_matrix:
    return sparse.csr_matrix(np.asarray(array, dtype=np.float64))


@pytest.fixture()
def bag():
    rng = np.random.default_rng(0)
    m1 = (rng.random((6, 6)) < 0.4).astype(np.float64)
    m2 = (rng.random((5, 5)) < 0.4).astype(np.float64)
    anchors = np.zeros((6, 5))
    anchors[0, 0] = anchors[2, 3] = 1.0
    return {
        "M1": _csr(m1),
        "M2": _csr(m2),
        "A": _csr(anchors),
        "S": _csr((rng.random((6, 5)) < 0.5).astype(np.float64)),
    }


@pytest.fixture()
def delta():
    change = np.zeros((6, 5))
    change[4, 1] = change[5, 2] = 1.0
    return _csr(change)


def _check_exact(expr, bag, deltas):
    """delta(expr) must equal expr(M + delta) - expr(M) exactly."""
    engine = CountingEngine(bag)
    before = engine.evaluate(expr).toarray()
    change = DeltaEvaluator(engine, deltas).evaluate(expr).toarray()
    grown = dict(bag)
    for name, d in deltas.items():
        grown[name] = (bag[name] + d).tocsr()
    after = CountingEngine(grown).evaluate(expr).toarray()
    assert np.array_equal(before + change, after)


class TestLinearityChecks:
    def test_leaf_occurrences(self):
        expr = Chain([Leaf("M1"), Leaf("A"), Leaf("M2")])
        assert leaf_occurrences(expr, "A") == 1
        assert leaf_occurrences(expr, "M1") == 1
        assert leaf_occurrences(expr, "Z") == 0

    def test_supports_delta_standard_trees(self):
        assert supports_delta(Chain([Leaf("M1"), Leaf("A"), Leaf("M2")]))
        assert supports_delta(Leaf("M1"))

    def test_supports_repeated_leaf(self):
        """The generalized algebra covers repeated occurrences exactly."""
        expr = Parallel(
            [
                Chain([Leaf("M1"), Leaf("A"), Leaf("M2")]),
                Chain([Leaf("M1"), Leaf("A"), Leaf("M2"), Leaf("M2")]),
            ]
        )
        assert leaf_occurrences(expr, "A") == 2
        assert supports_delta(expr)

    def test_rejects_unknown_node_types(self):
        class Opaque(Expr):
            def key(self):
                return "opaque"

            def leaves(self):
                return ("A",)

        assert not supports_delta(Opaque())
        assert not supports_delta(Chain([Leaf("M1"), Opaque()]))


class TestPadCsr:
    def test_pads_rows_and_cols(self):
        matrix = _csr([[1, 0], [0, 2]])
        padded = pad_csr(matrix, (4, 3))
        assert padded.shape == (4, 3)
        expected = np.zeros((4, 3))
        expected[0, 0], expected[1, 1] = 1, 2
        assert np.array_equal(padded.toarray(), expected)

    def test_same_shape_passthrough(self):
        matrix = _csr([[1, 0], [0, 2]])
        assert pad_csr(matrix, (2, 2)) is matrix

    def test_shrink_rejected(self):
        with pytest.raises(MetaStructureError, match="pad"):
            pad_csr(_csr([[1, 0], [0, 2]]), (1, 2))


class TestSingleLeafDelta:
    def test_chain_delta(self, bag, delta):
        _check_exact(
            Chain([Leaf("M1"), Leaf("A"), Leaf("M2")]), bag, {"A": delta}
        )

    def test_transposed_leaf_delta(self, bag, delta):
        expr = Chain([Leaf("M2"), Leaf("A", transpose=True), Leaf("M1")])
        _check_exact(expr, bag, {"A": delta})

    def test_parallel_delta_targets_dynamic_branch(self, bag, delta):
        expr = Parallel(
            [Chain([Leaf("M1"), Leaf("A"), Leaf("M2")]), Leaf("S")]
        )
        _check_exact(expr, bag, {"A": delta})

    def test_nested_stacking_delta(self, bag, delta):
        anchored = Chain(
            [
                Parallel([Leaf("M1"), Leaf("M1", transpose=True)]),
                Leaf("A"),
                Parallel([Leaf("M2"), Leaf("M2", transpose=True)]),
            ]
        )
        _check_exact(Parallel([anchored, Leaf("S")]), bag, {"A": delta})

    def test_negative_delta(self, bag):
        removal = -bag["A"]
        expr = Chain([Leaf("M1"), Leaf("A"), Leaf("M2")])
        engine = CountingEngine(bag)
        before = engine.evaluate(expr).toarray()
        change = DeltaEvaluator(engine, {"A": removal}).evaluate(expr).toarray()
        assert np.array_equal(before + change, np.zeros_like(before))

    def test_legacy_name_delta_signature(self, bag, delta):
        """The anchor-era (engine, name, delta) call form still works."""
        expr = Chain([Leaf("M1"), Leaf("A"), Leaf("M2")])
        engine = CountingEngine(bag)
        legacy = DeltaEvaluator(engine, "A", delta).evaluate(expr)
        mapped = DeltaEvaluator(engine, {"A": delta}).evaluate(expr)
        assert np.array_equal(legacy.toarray(), mapped.toarray())

    def test_untouched_expr_changes_by_zero(self, bag, delta):
        engine = CountingEngine(bag)
        change = DeltaEvaluator(engine, {"A": delta}).evaluate(Leaf("S"))
        assert change.shape == bag["S"].shape
        assert change.nnz == 0


class TestMultiLeafDelta:
    """Cross-term exactness of the generalized delta algebra."""

    def _m1_delta(self):
        change = np.zeros((6, 6))
        change[1, 4] = 1.0
        change[3, 0] = 1.0
        return _csr(change)

    def _m2_delta(self):
        change = np.zeros((5, 5))
        change[0, 4] = 1.0
        return _csr(change)

    def test_two_sided_chain_delta(self, bag, delta):
        """Deltas on both chain sides expand the cross term exactly."""
        expr = Chain([Leaf("M1"), Leaf("A"), Leaf("M2")])
        _check_exact(
            expr, bag, {"M1": self._m1_delta(), "M2": self._m2_delta()}
        )

    def test_all_leaves_at_once(self, bag, delta):
        expr = Chain([Leaf("M1"), Leaf("A"), Leaf("M2")])
        _check_exact(
            expr,
            bag,
            {"M1": self._m1_delta(), "A": delta, "M2": self._m2_delta()},
        )

    def test_leaf_on_both_sides_of_chain(self, bag):
        """The same changed leaf appearing twice (transposed) is exact."""
        expr = Chain([Leaf("M1"), Leaf("A"), Leaf("A", transpose=True)])
        change = np.zeros((6, 5))
        change[4, 1] = 1.0
        _check_exact(expr, bag, {"A": _csr(change)})

    def test_nested_parallel_multi_delta(self, bag, delta):
        anchored = Chain(
            [
                Parallel([Leaf("M1"), Leaf("M1", transpose=True)]),
                Leaf("A"),
                Parallel([Leaf("M2"), Leaf("M2", transpose=True)]),
            ]
        )
        expr = Parallel([anchored, Leaf("S")])
        _check_exact(
            expr, bag, {"A": delta, "M1": self._m1_delta()}
        )

    def test_delta_in_every_parallel_branch(self, bag, delta):
        expr = Parallel(
            [
                Chain([Leaf("M1"), Leaf("A"), Leaf("M2")]),
                Chain([Leaf("M1"), Leaf("S")]),
            ]
        )
        m1_change = self._m1_delta()
        _check_exact(expr, bag, {"A": delta, "M1": m1_change})

    def test_zero_row_delta_is_exact_noop(self, bag):
        """An all-zero delta produces an empty change, not an error."""
        expr = Chain([Leaf("M1"), Leaf("A"), Leaf("M2")])
        empty = sparse.csr_matrix((6, 5))
        engine = CountingEngine(bag)
        change = DeltaEvaluator(engine, {"A": empty}).evaluate(expr)
        assert change.nnz == 0
        assert change.shape == engine.evaluate(expr).shape

    def test_removal_and_growth_mixed(self, bag, delta):
        """Entries removed from one leaf while another grows."""
        removal = np.zeros((6, 5))
        removal[0, 0] = -1.0  # drop an existing anchor
        mixed = (_csr(removal) + delta).tocsr()
        _check_exact(
            Chain([Leaf("M1"), Leaf("A"), Leaf("M2")]),
            bag,
            {"A": mixed, "M2": self._m2_delta()},
        )

    def test_grown_shapes_pad_old_values(self, bag, delta):
        """Deltas at grown shapes (new nodes) pad cached old values."""
        expr = Chain([Leaf("M1"), Leaf("A"), Leaf("M2")])
        # Two new left nodes, one new right node.
        m1_change = np.zeros((8, 8))
        m1_change[6, 0] = m1_change[1, 7] = 1.0
        a_change = np.zeros((8, 6))
        a_change[7, 5] = 1.0
        m2_change = np.zeros((6, 6))
        m2_change[5, 2] = 1.0
        deltas = {
            "M1": _csr(m1_change),
            "A": _csr(a_change),
            "M2": _csr(m2_change),
        }
        engine = CountingEngine(bag)
        before = pad_csr(engine.evaluate(expr), (8, 6)).toarray()
        change = DeltaEvaluator(engine, deltas).evaluate(expr).toarray()
        grown = {
            "S": bag["S"],
            "M1": (pad_csr(bag["M1"], (8, 8)) + deltas["M1"]).tocsr(),
            "A": (pad_csr(bag["A"], (8, 6)) + deltas["A"]).tocsr(),
            "M2": (pad_csr(bag["M2"], (6, 6)) + deltas["M2"]).tocsr(),
        }
        after = CountingEngine(grown).evaluate(expr).toarray()
        assert np.array_equal(before + change, after)

    def test_requires_some_delta(self, bag):
        engine = CountingEngine(bag)
        with pytest.raises(MetaStructureError, match="at least one"):
            DeltaEvaluator(engine, {})

    def test_rejects_name_and_mapping_together(self, bag, delta):
        engine = CountingEngine(bag)
        with pytest.raises(MetaStructureError, match="not both"):
            DeltaEvaluator(engine, {"A": delta}, delta)


class TestApplyDelta:
    def test_adds_onto_base(self):
        base = _csr([[1, 0], [0, 2]])
        change = _csr([[0, 3], [0, -1]])
        result = apply_delta(base, change).toarray()
        assert np.array_equal(result, [[1, 3], [0, 1]])

    def test_cancelled_entries_are_pruned(self):
        base = _csr([[1, 0], [0, 2]])
        change = _csr([[-1, 0], [0, 0]])
        result = apply_delta(base, change)
        assert result.nnz == 1

    def test_none_base(self):
        change = _csr([[0, 3], [0, 0]])
        assert np.array_equal(
            apply_delta(None, change).toarray(), change.toarray()
        )


def _bottom_up(expr):
    """Every sub-expression of ``expr``, children before their parent."""
    children = getattr(expr, "segments", None) or getattr(expr, "branches", ())
    for child in children:
        yield from _bottom_up(child)
    yield expr


def _csr_bytes(matrix):
    return (
        matrix.shape,
        matrix.data.tobytes(),
        matrix.indices.tobytes(),
        matrix.indptr.tobytes(),
    )


class TestNoAliasing:
    """The fold never writes into a change that another part still holds.

    A Hadamard term keeps its branch change's sparsity pattern and is
    pruned and sorted in place, so it must not share that change's index
    arrays: the change is memoized, seeded into the engine, and (for a
    leaf branch) is the caller's own delta.
    """

    def test_churn_event_leaves_every_change_untouched(self):
        from repro.datasets import foursquare_twitter_like
        from repro.meta.context import build_matrix_bag
        from repro.meta.diagrams import standard_diagram_family
        from repro.networks.aligned import NetworkDelta

        pair = foursquare_twitter_like("tiny", seed=11)
        anchors = sorted(pair.anchors, key=repr)[:5]
        old_bag = build_matrix_bag(pair, known_anchors=anchors)
        users = pair.left_users()
        timestamp = pair.left.attribute_values("timestamp")[0]
        unfollowed = next(iter(pair.left.edges("follow")))
        unwritten = next(iter(pair.left.edges("write")))
        # One event that grows (a user and a post) and removes (edges).
        pair.apply_delta(
            NetworkDelta.build(
                "left",
                added_nodes={"user": ["new:u"], "post": ["new:p"]},
                added_edges=[
                    ("follow", "new:u", users[0]),
                    ("follow", users[1], "new:u"),
                    ("write", "new:u", "new:p"),
                ],
                updated_attributes=[("timestamp", "new:p", timestamp)],
                removed_edges=[
                    ("follow", *unfollowed),
                    ("write", *unwritten),
                ],
            )
        )
        new_bag = build_matrix_bag(pair, known_anchors=anchors)
        deltas = {}
        for name, new in new_bag.items():
            change = (new - pad_csr(old_bag[name], new.shape)).tocsr()
            change.eliminate_zeros()
            if change.nnz:
                deltas[name] = change
        assert {"F1", "W1"} <= set(deltas)
        assert any((change.data < 0).any() for change in deltas.values())
        leaf_bytes = {name: _csr_bytes(delta) for name, delta in deltas.items()}

        exprs = standard_diagram_family().exprs
        engine = CountingEngine(old_bag)
        old = CountingEngine(old_bag)
        before = [engine.evaluate(expr) for expr in exprs]
        evaluator = DeltaEvaluator(
            engine,
            deltas,
            shapes={name: matrix.shape for name, matrix in new_bag.items()},
        )
        # Children first, each change snapshotted as it is memoized, so
        # a parent's evaluation writing into a child's change shows.
        produced = {}
        for expr in exprs:
            for sub in _bottom_up(expr):
                if sub.key() not in produced:
                    change = evaluator.evaluate(sub)
                    produced[sub.key()] = (change, _csr_bytes(change))
        changes = [evaluator.evaluate(expr) for expr in exprs]
        updated = evaluator.updated_changes()
        held = {}
        for expr, change in updated:
            assert produced[expr.key()][0] is change
            held[expr.key()] = engine.components(expr) is not None
            assert engine.seed_change(expr, change) == held[expr.key()]
        # The branch products of a face-split stack are never held, so
        # seeding them keeps nothing; every other product stays warm.
        assert held.pop("(T1@T2^T)") is False
        assert all(held.values())
        engine.update_matrices(
            new_bag, preserve=[expr.key() for expr, _ in updated]
        )

        applied = [
            apply_delta(pad_csr(counts, change.shape), change)
            for counts, change in zip(before, changes)
        ]
        folded = [engine.evaluate(expr) for expr in exprs]
        for name, change in deltas.items():
            assert _csr_bytes(change) == leaf_bytes[name]
        for key, (change, snapshot) in produced.items():
            assert _csr_bytes(change) == snapshot, key

        fresh = CountingEngine(new_bag)
        for expr, after, value in zip(exprs, applied, folded):
            expected = fresh.evaluate(expr).toarray()
            assert np.array_equal(after.toarray(), expected)
            assert np.array_equal(value.toarray(), expected)
        for expr, change in updated:
            exact = fresh.evaluate(expr) - pad_csr(
                old.evaluate(expr), change.shape
            )
            assert np.array_equal(change.toarray(), exact.toarray())


def _face_split_branches(exprs):
    """key -> branch of every stack of two-segment products."""
    branches = {}
    stack = list(exprs)
    while stack:
        expr = stack.pop()
        children = getattr(expr, "segments", ()) + getattr(expr, "branches", ())
        stack.extend(children)
        if isinstance(expr, Parallel) and all(
            isinstance(branch, Chain) and len(branch.segments) == 2
            for branch in expr.branches
        ):
            branches.update((branch.key(), branch) for branch in expr.branches)
    return branches


def _shared_location_posts(pair, count=3):
    """``(left post, right post)`` pairs sharing a location but not a
    timestamp, with distinct left posts."""
    right_by_location = {}
    for post in pair.right.nodes("post"):
        for value in pair.right.node_attributes("location", post):
            right_by_location.setdefault(value, []).append(post)
    found = []
    for post in pair.left.nodes("post"):
        times = set(pair.left.node_attributes("timestamp", post))
        for value in pair.left.node_attributes("location", post):
            match = next(
                (
                    other
                    for other in right_by_location.get(value, [])
                    if not times & set(pair.right.node_attributes("timestamp", other))
                ),
                None,
            )
            if match is not None:
                found.append((post, match))
                break
        if len(found) == count:
            break
    assert len(found) == count, "fixture must share locations across sides"
    return found


class TestFaceSplitBranches:
    """A churn event reads a face-split stack's branches at the rows its
    delta touches; neither set-up nor the fold builds their products."""

    @pytest.mark.parametrize("include_words", [False, True])
    def test_churn_event_holds_no_branch_product(self, include_words):
        import copy

        from repro.datasets import foursquare_twitter_like
        from repro.engine import AlignmentSession
        from repro.networks.aligned import NetworkDelta

        pair = foursquare_twitter_like("tiny", seed=11)
        replica = copy.deepcopy(pair)
        session = AlignmentSession(
            pair,
            known_anchors=sorted(pair.anchors, key=repr)[:5],
            include_words=include_words,
        )
        session.structure_counts()
        # Per side, three new posts that copy a post of the other side
        # (its timestamp, location and words), and on the left three
        # old posts that take the timestamp of a right post they share
        # a location with: every stacked branch changes in several rows,
        # and the unheld sibling is read where it holds counts.
        attributes = ("timestamp", "location", "word")
        sides = (("left", pair.left, pair.right), ("right", pair.right, pair.left))
        for side, network, other in sides:
            sources = [
                post
                for post in other.nodes("post")
                if all(other.node_attributes(name, post) for name in attributes)
            ][:3]
            posts = [f"{side}:new{i}" for i in range(len(sources))]
            retimed = _shared_location_posts(pair) if side == "left" else []
            delta = NetworkDelta.build(
                side,
                added_nodes={"post": posts},
                added_edges=[
                    ("write", user, post)
                    for user, post in zip(network.nodes("user"), posts)
                ],
                updated_attributes=[
                    (name, post, value)
                    for post, source in zip(posts, sources)
                    for name in attributes
                    for value in other.node_attributes(name, source)
                ]
                + [
                    ("timestamp", post, value)
                    for post, source in retimed
                    for value in other.node_attributes("timestamp", source)
                ],
            )
            assert session.apply_network_delta(delta)
            replica.apply_delta(delta)
        assert session.stats.fallback_invalidations == 0

        branches = _face_split_branches(session.family.exprs)
        expected = {"(L1@L2^T)", "(T1@T2^T)"}
        if include_words:
            expected |= {"(D1@D2^T)"}
        assert set(branches) == expected
        for key, branch in branches.items():
            assert session._engine.components(branch) is None, key

        pairs = [
            (left, right)
            for left in pair.left.nodes("user")
            for right in pair.right.nodes("user")
        ]
        fresh = AlignmentSession(
            replica,
            known_anchors=session.known_anchors,
            include_words=include_words,
        )
        assert session.extract(pairs).tobytes() == fresh.extract(pairs).tobytes()

"""Tests for repro.engine.candidates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.engine import (
    AlignmentSession,
    CandidateGenerator,
    ThreadedExecutor,
    linear_scorer,
    streamed_selection,
)
from repro.exceptions import AlignmentError, ConstraintViolationError
from repro.matching.greedy import greedy_link_selection
from repro.networks.aligned import AlignedPair
from repro.networks.builders import SocialNetworkBuilder
from repro.networks.schema import FOLLOW, USER


def _all_pairs(pair):
    return [(u, v) for u in pair.left_users() for v in pair.right_users()]


class TestCandidateGenerator:
    def test_unpruned_stream_covers_cross_product(self, handmade_pair):
        generator = CandidateGenerator(handmade_pair, block_size=4)
        streamed = list(generator.pairs())
        assert streamed == _all_pairs(handmade_pair)
        assert generator.count() == len(streamed)

    def test_block_size_respected(self, handmade_pair):
        generator = CandidateGenerator(handmade_pair, block_size=4)
        blocks = list(generator.blocks())
        assert all(len(block) <= 4 for block in blocks)
        assert sum(len(block) for block in blocks) == 9

    def test_exclude(self, handmade_pair):
        skip = {("la", "ra"), ("lb", "rb")}
        generator = CandidateGenerator(handmade_pair, exclude=skip)
        streamed = set(generator.pairs())
        assert not streamed & skip
        assert generator.count() == 9 - len(skip)

    def test_degree_pruning(self, tiny_synthetic_pair):
        pair = tiny_synthetic_pair
        loose = CandidateGenerator(pair, max_degree_ratio=100.0).count()
        tight = CandidateGenerator(pair, max_degree_ratio=1.5).count()
        assert 0 < tight < loose
        assert loose <= pair.candidate_space_size()

    def test_degree_ratio_validation(self, handmade_pair):
        with pytest.raises(AlignmentError):
            CandidateGenerator(handmade_pair, max_degree_ratio=0.5)
        with pytest.raises(AlignmentError):
            CandidateGenerator(handmade_pair, block_size=0)

    def test_support_pruning_matches_nonzero_features(self, handmade_pair):
        session = AlignmentSession(
            handmade_pair, known_anchors=handmade_pair.anchors
        )
        generator = CandidateGenerator.from_support(session)
        supported = set(generator.pairs())
        X = session.extract(_all_pairs(handmade_pair))
        for pair_, row in zip(_all_pairs(handmade_pair), X):
            has_signal = np.any(row[:-1] > 0)  # exclude bias
            if has_signal:
                assert pair_ in supported

    def test_min_structures_tightens(self, tiny_synthetic_pair):
        session = AlignmentSession(
            tiny_synthetic_pair, known_anchors=tiny_synthetic_pair.anchors
        )
        loose = CandidateGenerator.from_support(session).count()
        tight = CandidateGenerator.from_support(
            session, min_structures=5
        ).count()
        assert tight < loose

    def test_allowed_shape_validated(self, handmade_pair):
        from scipy import sparse

        with pytest.raises(AlignmentError, match="shape"):
            CandidateGenerator(
                handmade_pair, allowed=sparse.csr_matrix((2, 2))
            )


class TestEdgeCases:
    """Empty spaces and oversized blocks stream cleanly, never error."""

    def test_block_size_larger_than_space_single_block(self, handmade_pair):
        generator = CandidateGenerator(handmade_pair, block_size=10**9)
        blocks = list(generator.blocks())
        assert len(blocks) == 1
        assert len(blocks[0]) == 9 == generator.count()

    def test_empty_allowed_mask_yields_empty_stream(self, handmade_pair):
        from scipy import sparse

        generator = CandidateGenerator(
            handmade_pair, allowed=sparse.csr_matrix((3, 3))
        )
        assert list(generator.blocks()) == []
        assert list(generator.pairs()) == []
        assert generator.count() == 0

    def test_exclude_everything_yields_empty_stream(self, handmade_pair):
        everything = [
            (u, v)
            for u in handmade_pair.left_users()
            for v in handmade_pair.right_users()
        ]
        generator = CandidateGenerator(handmade_pair, exclude=everything)
        assert list(generator.blocks()) == []
        assert generator.count() == 0

    def test_streamed_selection_on_empty_stream(self, handmade_pair):
        from scipy import sparse

        generator = CandidateGenerator(
            handmade_pair, allowed=sparse.csr_matrix((3, 3))
        )
        called = []

        def score(block):
            called.append(block)
            return np.ones(len(block))

        assert streamed_selection(generator, score) == []
        assert called == []  # no blocks, no scoring

    def test_streamed_selection_single_oversized_block(self, handmade_pair):
        generator = CandidateGenerator(handmade_pair, block_size=10**6)
        selected = streamed_selection(
            generator, lambda block: np.full(len(block), 0.9)
        )
        assert selected  # one clean block, normal selection

    def test_from_support_empty_family_yields_empty_stream(
        self, handmade_pair
    ):
        from repro.meta.diagrams import DiagramFamily

        session = AlignmentSession(
            handmade_pair,
            family=DiagramFamily(paths=(), diagrams=()),
            include_bias=True,
        )
        generator = CandidateGenerator.from_support(session)
        assert generator.count() == 0
        assert list(generator.blocks()) == []


class TestStreamedSelection:
    def test_matches_materialized_greedy(self, tiny_synthetic_pair):
        """Streaming must be exact vs one global greedy pass."""
        pair = tiny_synthetic_pair
        session = AlignmentSession(pair, known_anchors=pair.anchors)
        rng = np.random.default_rng(3)
        weights = rng.normal(scale=0.7, size=session.n_features)
        generator = CandidateGenerator(pair, block_size=97)
        scorer = linear_scorer(session, weights)

        selected = streamed_selection(generator, scorer, threshold=0.5)
        streamed_set = {pair_ for pair_, _ in selected}

        all_pairs = _all_pairs(pair)
        labels = greedy_link_selection(
            all_pairs, session.extract(all_pairs) @ weights, threshold=0.5
        )
        materialized = {
            pair_ for pair_, label in zip(all_pairs, labels) if label == 1
        }
        assert streamed_set == materialized

    def test_blocked_endpoints(self, handmade_pair):
        session = AlignmentSession(
            handmade_pair, known_anchors=handmade_pair.anchors
        )
        generator = CandidateGenerator(handmade_pair)
        selected = streamed_selection(
            generator,
            lambda block: np.ones(len(block)),
            blocked_left={"la"},
            blocked_right={"rb"},
        )
        for pair_, _ in selected:
            assert pair_[0] != "la" and pair_[1] != "rb"

    def test_empty_when_all_below_threshold(self, handmade_pair):
        generator = CandidateGenerator(handmade_pair)
        assert (
            streamed_selection(generator, lambda block: np.zeros(len(block)))
            == []
        )

    @pytest.mark.parametrize("threads", [0, 2])
    def test_nan_score_rejected_naming_its_block(
        self, tiny_synthetic_pair, threads
    ):
        """A NaN is not above the threshold, but it must not vanish."""

        def score(block):
            scores = np.full(len(block), 0.9)
            if block.offset == 200:
                scores[7] = np.nan
            return scores

        generator = CandidateGenerator(tiny_synthetic_pair, block_size=100)
        with pytest.raises(ConstraintViolationError, match="offset 200"):
            if threads:
                with ThreadedExecutor(threads) as executor:
                    streamed_selection(generator, score, workers=executor)
            else:
                streamed_selection(generator, score)

    def test_pool_built_from_a_count_is_closed(self, tiny_synthetic_pair):
        """``workers=4`` builds a pool for the call and closes it, even
        when the sweep raises; a passed-in executor stays open."""
        import threading

        generator = CandidateGenerator(tiny_synthetic_pair, block_size=50)

        def nan_at_100(block):
            scores = np.full(len(block), 0.9)
            if block.offset == 100:
                scores[0] = np.nan
            return scores

        baseline = threading.active_count()
        for _ in range(3):
            assert streamed_selection(
                generator, lambda block: np.full(len(block), 0.9), workers=4
            )
            assert threading.active_count() == baseline
        with pytest.raises(ConstraintViolationError):
            streamed_selection(generator, nan_at_100, workers=4)
        assert threading.active_count() == baseline
        with ThreadedExecutor(2) as executor:
            streamed_selection(
                generator, lambda block: np.full(len(block), 0.9),
                workers=executor,
            )
            assert threading.active_count() > baseline
            assert streamed_selection(
                generator, lambda block: np.full(len(block), 0.9),
                workers=executor,
            )
        assert threading.active_count() == baseline

    def test_linear_scorer_validates_weights(self, handmade_pair):
        session = AlignmentSession(handmade_pair)
        with pytest.raises(AlignmentError):
            linear_scorer(session, np.ones(session.n_features + 1))

    def test_results_one_to_one(self, tiny_synthetic_pair):
        session = AlignmentSession(
            tiny_synthetic_pair, known_anchors=tiny_synthetic_pair.anchors
        )
        generator = CandidateGenerator.from_support(session)
        selected = streamed_selection(
            generator, lambda block: np.full(len(block), 0.9)
        )
        lefts = [pair_[0] for pair_, _ in selected]
        rights = [pair_[1] for pair_, _ in selected]
        assert len(lefts) == len(set(lefts))
        assert len(rights) == len(set(rights))


def _reference_stream(pair, allowed, max_degree_ratio, exclude):
    """The plain per-pair loop the generator must reproduce exactly."""
    lefts, rights = pair.left_user_slots(), pair.right_user_slots()
    degrees = []
    for network in (pair.left, pair.right):
        adjacency = network.typed_adjacency(FOLLOW)
        degrees.append(
            np.asarray(adjacency.sum(axis=1)).ravel()
            + np.asarray(adjacency.sum(axis=0)).ravel()
        )
    streamed = []
    for i, left_user in enumerate(lefts):
        if left_user is None:
            continue
        if allowed is None:
            columns = range(len(rights))
        else:
            columns = allowed.indices[allowed.indptr[i] : allowed.indptr[i + 1]]
        for j in columns:
            right_user = rights[j]
            if right_user is None:
                continue
            if max_degree_ratio is not None:
                left_degree = 1.0 + degrees[0][i]
                right_degree = 1.0 + degrees[1][j]
                ratio = max(left_degree / right_degree, right_degree / left_degree)
                if ratio > max_degree_ratio:
                    continue
            if (left_user, right_user) in exclude:
                continue
            streamed.append((left_user, right_user))
    return streamed


@st.composite
def _generator_case(draw):
    """A small pair with tombstones (and re-added ids) on both sides, an
    optional mask with stale bits on dead columns, a degree ratio and
    exclusions naming live, dead and unknown users."""
    tuple_ids = draw(st.booleans())
    networks, all_ids = [], []
    for side in ("l", "r"):
        ids = [
            (side, k) if tuple_ids else f"{side}{k}"
            for k in range(draw(st.integers(0, 6)))
        ]
        builder = SocialNetworkBuilder(side).add_users(ids)
        for follower in ids:
            for followee in ids:
                if follower != followee and draw(st.booleans()):
                    builder.follow(follower, followee)
        network = builder.build()
        removed = draw(st.lists(st.sampled_from(ids), unique=True)) if ids else []
        for node_id in removed:
            network.remove_node(USER, node_id)
        for node_id in removed:
            if draw(st.booleans()):
                network.add_node(USER, node_id)  # a fresh slot for an old id
        networks.append(network)
        all_ids.append(ids + [(side, "ghost") if tuple_ids else f"{side}-ghost"])
    pair = AlignedPair(networks[0], networks[1], [])
    shape = (len(pair.left_user_slots()), len(pair.right_user_slots()))
    allowed = None
    if draw(st.booleans()):
        dense = np.array(
            draw(
                st.lists(
                    st.lists(st.booleans(), min_size=shape[1], max_size=shape[1]),
                    min_size=shape[0],
                    max_size=shape[0],
                )
            ),
            dtype=np.float64,
        ).reshape(shape)
        allowed = sparse.csr_matrix(dense)
        if draw(st.booleans()):  # unsorted stored column order
            for i in range(shape[0]):
                row = slice(allowed.indptr[i], allowed.indptr[i + 1])
                allowed.indices[row] = allowed.indices[row][::-1]
            allowed.has_sorted_indices = False
    max_degree_ratio = draw(st.sampled_from([None, 1.0, 1.5, 3.0]))
    exclude = draw(
        st.sets(st.tuples(st.sampled_from(all_ids[0]), st.sampled_from(all_ids[1])))
    )
    return pair, allowed, max_degree_ratio, exclude


@settings(max_examples=150, deadline=None)
@given(case=_generator_case(), block_offset=st.integers(0, 40))
def test_blocks_and_count_match_the_per_pair_loop(case, block_offset):
    pair, allowed, max_degree_ratio, exclude = case
    expected = _reference_stream(pair, allowed, max_degree_ratio, exclude)
    block_size = 1 + block_offset % (len(expected) + 1)
    generator = CandidateGenerator(
        pair,
        block_size=block_size,
        max_degree_ratio=max_degree_ratio,
        allowed=allowed,
        exclude=exclude,
    )
    blocks = list(generator.blocks())
    lefts, rights = pair.left_user_slots(), pair.right_user_slots()
    assert [
        (lefts[i], rights[j])
        for block in blocks
        for i, j in zip(block.left_indices.tolist(), block.right_indices.tolist())
    ] == expected
    assert list(generator.pairs()) == expected
    full, rest = divmod(len(expected), block_size)
    assert [len(block) for block in blocks] == [block_size] * full + (
        [rest] if rest else []
    )
    assert [block.offset for block in blocks] == list(
        range(0, len(expected), block_size)
    )
    assert generator.count() == len(expected)


@pytest.fixture(scope="module")
def tiny_session(tiny_synthetic_pair):
    return AlignmentSession(
        tiny_synthetic_pair, known_anchors=tiny_synthetic_pair.anchors
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_streamed_selection_matches_one_materialized_greedy(tiny_session, data):
    """The position sweep == one greedy over every pair's extracted
    features, as ``(pair, score)`` lists.  Weights come from a few values,
    mostly zero, so many pairs tie.  The materialized scores take
    ``X @ w`` in the stream's blocks: a BLAS row result may depend on
    the shape of the matrix it sits in."""
    session = tiny_session
    pair = session.pair
    block_size = data.draw(st.integers(1, 2500), label="block_size")
    weights = np.array(
        data.draw(
            st.lists(
                st.sampled_from([0.0, 0.0, 0.0, 0.25, 0.5, 1.0, -1.0]),
                min_size=session.n_features,
                max_size=session.n_features,
            ),
            label="weights",
        )
    )
    threshold = data.draw(st.sampled_from([0.5, 0.25, 0.0]), label="threshold")
    blocked_left = data.draw(st.sets(st.sampled_from(pair.left_users())))
    blocked_right = data.draw(st.sets(st.sampled_from(pair.right_users())))
    if data.draw(st.booleans(), label="support"):
        generator = CandidateGenerator.from_support(session, block_size=block_size)
    else:
        generator = CandidateGenerator(pair, block_size=block_size)

    selected = streamed_selection(
        generator,
        linear_scorer(session, weights),
        threshold=threshold,
        blocked_left=blocked_left,
        blocked_right=blocked_right,
    )

    pairs = list(generator.pairs())
    X = session.extract(pairs)
    scores = np.concatenate(
        [np.zeros(0)]
        + [
            X[start : start + block_size].copy() @ weights
            for start in range(0, len(pairs), block_size)
        ]
    )
    labels = greedy_link_selection(
        pairs,
        scores,
        threshold=threshold,
        blocked_left=blocked_left,
        blocked_right=blocked_right,
    )
    expected = sorted(
        ((pairs[k], float(scores[k])) for k in np.flatnonzero(labels)),
        key=lambda item: -item[1],
    )
    assert selected == expected

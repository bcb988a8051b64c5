"""Tests for repro.engine.session."""

import dataclasses

import numpy as np
import pytest

from repro.engine import AlignmentSession
from repro.exceptions import FeatureError
from repro.meta.diagrams import build_diagram_family
from repro.meta.features import FeatureExtractor
from repro.meta.paths import follow_paths, paths_by_name


def _all_pairs(pair):
    return [(u, v) for u in pair.left_users() for v in pair.right_users()]


class TestSessionBasics:
    def test_feature_names_and_dimensions(self, handmade_pair):
        session = AlignmentSession(handmade_pair)
        assert session.n_features == 32
        assert session.feature_names[-1] == "bias"
        assert len(session.anchor_feature_columns) == 28
        assert len(session.static_feature_columns) == 4  # P5, P6, P5xP6, bias

    def test_extract_matches_extractor_wrapper(self, handmade_pair):
        session = AlignmentSession(
            handmade_pair, known_anchors=handmade_pair.anchors
        )
        extractor = FeatureExtractor.from_session(session)
        pairs = _all_pairs(handmade_pair)
        assert np.array_equal(session.extract(pairs), extractor.extract(pairs))

    def test_extract_empty(self, handmade_pair):
        session = AlignmentSession(handmade_pair)
        assert session.extract([]).shape == (0, 32)

    def test_set_anchors_noop_returns_false(self, handmade_pair):
        session = AlignmentSession(
            handmade_pair, known_anchors=handmade_pair.anchors
        )
        assert not session.set_anchors(handmade_pair.anchors)
        assert session.stats.anchor_updates == 0

    def test_known_anchors_is_copy(self, handmade_pair):
        session = AlignmentSession(
            handmade_pair, known_anchors=handmade_pair.anchors
        )
        session.known_anchors.clear()
        assert session.known_anchors == handmade_pair.anchors

    def test_word_matrices_follow_the_family_leaves(self, handmade_pair):
        """A family that reads the word matrices gets them exported,
        whatever its word path is called."""
        word_path = dataclasses.replace(
            paths_by_name(include_words=True)["P7"], name="Pword"
        )
        family = build_diagram_family(follow_paths() + [word_path])
        pairs = _all_pairs(handmade_pair)
        implicit = AlignmentSession(handmade_pair, family=family)
        explicit = AlignmentSession(
            handmade_pair, family=family, include_words=True
        )
        assert np.array_equal(
            implicit.extract(pairs), explicit.extract(pairs)
        )


class TestIncrementalCorrectness:
    """Every update path must match a from-scratch session bit for bit."""

    def _scratch(self, pair, anchors, pairs):
        return AlignmentSession(pair, known_anchors=anchors).extract(pairs)

    def test_grow_delta_matches_scratch(self, tiny_synthetic_pair):
        pair = tiny_synthetic_pair
        anchors = sorted(pair.anchors, key=repr)
        pairs = _all_pairs(pair)[:300]
        session = AlignmentSession(pair, known_anchors=anchors[:4])
        X = session.extract(pairs)
        session.set_anchors(anchors)
        session.refresh_features(X, pairs)
        assert session.stats.delta_updates > 0
        assert np.array_equal(X, self._scratch(pair, anchors, pairs))

    def test_multiple_rounds_accumulate_exactly(self, tiny_synthetic_pair):
        pair = tiny_synthetic_pair
        anchors = sorted(pair.anchors, key=repr)
        pairs = _all_pairs(pair)[:300]
        session = AlignmentSession(pair, known_anchors=anchors[:3])
        X = session.extract(pairs)
        for upto in range(4, len(anchors) + 1):
            session.set_anchors(anchors[:upto])
            session.refresh_features(X, pairs)
        assert np.array_equal(X, self._scratch(pair, anchors, pairs))

    def test_shrink_delta_matches_scratch(self, tiny_synthetic_pair):
        pair = tiny_synthetic_pair
        anchors = sorted(pair.anchors, key=repr)
        pairs = _all_pairs(pair)[:300]
        session = AlignmentSession(pair, known_anchors=anchors)
        X = session.extract(pairs)
        session.set_anchors(anchors[:-1])
        session.refresh_features(X, pairs)
        assert np.array_equal(X, self._scratch(pair, anchors[:-1], pairs))

    def test_disjoint_switch_takes_full_path(self, tiny_synthetic_pair):
        """Fold switches rebuild rather than delta-chase a big change."""
        pair = tiny_synthetic_pair
        anchors = sorted(pair.anchors, key=repr)
        half = len(anchors) // 2
        pairs = _all_pairs(pair)[:300]
        session = AlignmentSession(pair, known_anchors=anchors[:half])
        session.extract(pairs)
        session.set_anchors(anchors[half:])
        assert session.stats.delta_updates == 0  # heuristic chose rebuild
        assert np.array_equal(
            session.extract(pairs), self._scratch(pair, anchors[half:], pairs)
        )

    def test_non_incremental_session_matches(self, tiny_synthetic_pair):
        pair = tiny_synthetic_pair
        anchors = sorted(pair.anchors, key=repr)
        pairs = _all_pairs(pair)[:300]
        session = AlignmentSession(
            pair, known_anchors=anchors[:4], incremental=False
        )
        X = session.extract(pairs)
        session.set_anchors(anchors)
        session.refresh_features(X, pairs)
        assert session.stats.delta_updates == 0
        assert np.array_equal(X, self._scratch(pair, anchors, pairs))

    def test_extract_after_deferred_deltas(self, tiny_synthetic_pair):
        """Pending deltas must fold before counts are read directly."""
        pair = tiny_synthetic_pair
        anchors = sorted(pair.anchors, key=repr)
        pairs = _all_pairs(pair)[:300]
        session = AlignmentSession(pair, known_anchors=anchors[:4])
        session.extract(pairs)
        session.set_anchors(anchors)
        # structure_counts() folds pending deltas into the count matrices.
        counts = session.structure_counts()
        scratch = AlignmentSession(pair, known_anchors=anchors)
        for name, matrix in scratch.structure_counts().items():
            assert np.array_equal(counts[name].toarray(), matrix.toarray())


class TestRefreshFeatures:
    def test_static_columns_untouched(self, handmade_pair):
        session = AlignmentSession(handmade_pair, known_anchors=[])
        pairs = _all_pairs(handmade_pair)
        X = session.extract(pairs)
        static = X[:, session.static_feature_columns].copy()
        sentinel = X.copy()
        sentinel[:, session.static_feature_columns] = -7.0
        session.set_anchors(handmade_pair.anchors)
        session.refresh_features(sentinel, pairs)
        # Static columns keep the sentinel: refresh never writes them.
        assert np.all(sentinel[:, session.static_feature_columns] == -7.0)
        assert np.array_equal(X[:, session.static_feature_columns], static)

    def test_shape_mismatch_rejected(self, handmade_pair):
        session = AlignmentSession(handmade_pair)
        pairs = _all_pairs(handmade_pair)
        with pytest.raises(FeatureError, match="shape"):
            session.refresh_features(np.zeros((2, session.n_features)), pairs)

    def test_empty_pairs_ok(self, handmade_pair):
        session = AlignmentSession(handmade_pair)
        X = np.zeros((0, session.n_features))
        assert session.refresh_features(X, []) is X


class TestCandidateViews:
    def test_view_cache_bounded(self, handmade_pair):
        session = AlignmentSession(handmade_pair)
        blocks = [
            [(u, v)]
            for u in handmade_pair.left_users()
            for v in handmade_pair.right_users()
        ] * 3
        for block in blocks:
            session.extract(block)
        assert len(session._views) <= 16

    def test_same_list_reuses_view(self, handmade_pair):
        session = AlignmentSession(handmade_pair)
        pairs = _all_pairs(handmade_pair)
        session.extract(pairs)
        session.extract(pairs)
        assert len(session._views) == 1


class TestFallbackObservability:
    def test_fold_switch_counts_fallback_invalidations(
        self, tiny_synthetic_pair
    ):
        """Replacing the anchor set wholesale (a fold rotation) drops
        every materialized anchor-dependent structure — each drop is a
        future full recount and must be counted, not silent."""
        anchors = sorted(tiny_synthetic_pair.anchors, key=repr)
        session = AlignmentSession(
            tiny_synthetic_pair, known_anchors=anchors[: len(anchors) // 2]
        )
        candidates = [(left, right) for left, right in anchors]
        session.extract(candidates)  # materialize every structure
        assert session.stats.fallback_invalidations == 0
        # A disjoint anchor set forces the non-delta branch.
        session.set_anchors(anchors[len(anchors) // 2:])
        assert session.stats.fallback_invalidations > 0
        assert "fallback_invalidations=" in session.stats.summary()

    def test_incremental_anchor_growth_has_no_fallbacks(
        self, tiny_synthetic_pair
    ):
        anchors = sorted(tiny_synthetic_pair.anchors, key=repr)
        session = AlignmentSession(
            tiny_synthetic_pair, known_anchors=anchors[:-1]
        )
        session.extract([(left, right) for left, right in anchors])
        session.add_anchors([anchors[-1]])
        assert session.stats.fallback_invalidations == 0
        assert session.stats.delta_updates > 0

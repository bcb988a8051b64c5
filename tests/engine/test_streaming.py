"""Tests for repro.engine.streaming and the streamed fit paths."""

import numpy as np
import pytest

from repro.active.oracle import LabelOracle
from repro.active.strategies import (
    ConflictFalseNegativeStrategy,
    MarginQueryStrategy,
    RandomQueryStrategy,
)
from repro.core.activeiter import ActiveIter
from repro.core.base import AlignmentTask
from repro.core.itermpmd import IterMPMD
from repro.engine import (
    AUTO_BLOCK_SIZE,
    AlignmentSession,
    CandidateGenerator,
    StreamedAlignmentTask,
    blockify,
    resolve_block_size,
    tune_block_size,
)
from repro.engine.streaming import _AUTO_MAX_BLOCK, _AUTO_MIN_BLOCK
from repro.eval.protocol import ProtocolConfig, build_splits
from repro.exceptions import ModelError


def _split_for(pair, np_ratio=5, seed=13):
    config = ProtocolConfig(
        np_ratio=np_ratio, sample_ratio=1.0, n_repeats=1, seed=seed
    )
    return next(iter(build_splits(pair, config)))


def _positives(split):
    return {
        split.candidates[i]
        for i in range(len(split.candidates))
        if split.truth[i] == 1
    }


class TestBlockify:
    def test_blockify_round_trip(self):
        pairs = [(f"l{i}", f"r{i}") for i in range(10)]
        blocks = blockify(pairs, 3)
        assert [len(block) for block in blocks] == [3, 3, 3, 1]
        assert [pair for block in blocks for pair in block] == pairs

    def test_block_size_larger_than_space_single_block(self):
        pairs = [("l0", "r0"), ("l1", "r1")]
        assert blockify(pairs, 100) == [pairs]

    def test_empty_list_empty_stream(self):
        assert blockify([], 4) == []

    def test_invalid_block_size(self):
        with pytest.raises(ModelError):
            blockify([("l", "r")], 0)


class TestStreamedTask:
    def test_matches_materialized_extraction(self, tiny_synthetic_pair):
        pair = tiny_synthetic_pair
        split = _split_for(pair)
        session = AlignmentSession(
            pair, known_anchors=split.train_positive_pairs
        )
        candidates = list(split.candidates)
        task = StreamedAlignmentTask(
            session,
            blockify(candidates, 37),
            split.train_indices,
            split.truth[split.train_indices],
        )
        X = session.extract(candidates)
        assert task.n_candidates == len(candidates)
        assert task.n_features == session.n_features
        streamed = np.vstack(
            [block for _, block in task.feature_blocks()]
        )
        assert np.array_equal(streamed, X)

        weights = np.random.default_rng(3).normal(size=session.n_features)
        assert np.allclose(task.scores(weights), X @ weights)
        assert np.allclose(task.gram(), X.T @ X)
        target = np.random.default_rng(4).normal(size=len(candidates))
        assert np.allclose(task.xt_dot(target), X.T @ target)
        sample_weight = np.abs(target) + 1.0
        assert np.allclose(
            task.gram(sample_weight), (X.T * sample_weight) @ X
        )

    def test_empty_candidates_rejected(self, handmade_pair):
        session = AlignmentSession(handmade_pair)
        with pytest.raises(ModelError, match="no candidate"):
            StreamedAlignmentTask(
                session, [], np.zeros(0, int), np.zeros(0, int)
            )

    def test_label_validation(self, handmade_pair):
        session = AlignmentSession(handmade_pair)
        blocks = blockify([("la", "ra"), ("lb", "rb")], 1)
        with pytest.raises(ModelError, match="out of range"):
            StreamedAlignmentTask(
                session, blocks, np.array([5]), np.array([1])
            )
        with pytest.raises(ModelError, match="0/1"):
            StreamedAlignmentTask(
                session, blocks, np.array([0]), np.array([2])
            )

    def test_from_generator_maps_labels(self, tiny_synthetic_pair):
        pair = tiny_synthetic_pair
        session = AlignmentSession(pair, known_anchors=pair.anchors)
        generator = CandidateGenerator(pair, block_size=101)
        anchor = next(iter(pair.anchors))
        task = StreamedAlignmentTask.from_generator(
            session, generator, labeled=[(anchor, 1)]
        )
        assert task.pairs[task.labeled_indices[0]] == anchor
        assert task.labeled_values.tolist() == [1]

    def test_from_generator_rejects_pruned_label(self, tiny_synthetic_pair):
        pair = tiny_synthetic_pair
        session = AlignmentSession(pair, known_anchors=pair.anchors)
        generator = CandidateGenerator(
            pair, exclude=[next(iter(pair.anchors))]
        )
        with pytest.raises(ModelError, match="pruned"):
            StreamedAlignmentTask.from_generator(
                session, generator, labeled=[(next(iter(pair.anchors)), 1)]
            )

    def test_scored_blocks_slices(self, handmade_pair):
        session = AlignmentSession(handmade_pair)
        pairs = [
            (u, v)
            for u in handmade_pair.left_users()
            for v in handmade_pair.right_users()
        ]
        task = StreamedAlignmentTask(
            session, blockify(pairs, 4), np.zeros(0, int), np.zeros(0, int)
        )
        scores = np.arange(len(pairs), dtype=np.float64)
        labels = np.zeros(len(pairs), dtype=np.int64)
        queryable = np.ones(len(pairs), dtype=bool)
        blocks = list(task.scored_blocks(scores, labels, queryable))
        assert [block.offset for block in blocks] == [0, 4, 8]
        recomposed = np.concatenate([block.scores for block in blocks])
        assert np.array_equal(recomposed, scores)


class TestAutoBlockSize:
    def test_tuned_size_within_envelope(self, tiny_synthetic_pair):
        pair = tiny_synthetic_pair
        split = _split_for(pair)
        session = AlignmentSession(
            pair, known_anchors=split.train_positive_pairs
        )
        size = tune_block_size(session, list(split.candidates))
        assert _AUTO_MIN_BLOCK <= size <= _AUTO_MAX_BLOCK

    def test_empty_candidates_get_minimum(self, tiny_synthetic_pair):
        session = AlignmentSession(tiny_synthetic_pair)
        assert tune_block_size(session, []) == _AUTO_MIN_BLOCK

    def test_resolve_passes_integers_through(self, tiny_synthetic_pair):
        session = AlignmentSession(tiny_synthetic_pair)
        assert resolve_block_size(session, [], 512) == 512

    def test_resolve_rejects_junk(self, tiny_synthetic_pair):
        session = AlignmentSession(tiny_synthetic_pair)
        with pytest.raises(ModelError):
            resolve_block_size(session, [], "huge")
        with pytest.raises(ModelError):
            resolve_block_size(session, [], 2.5)

    def test_from_pairs_auto_builds_working_task(self, tiny_synthetic_pair):
        pair = tiny_synthetic_pair
        split = _split_for(pair)
        session = AlignmentSession(
            pair, known_anchors=split.train_positive_pairs
        )
        task = StreamedAlignmentTask.from_pairs(
            session,
            list(split.candidates),
            split.train_indices,
            split.truth[split.train_indices],
            block_size=AUTO_BLOCK_SIZE,
        )
        assert _AUTO_MIN_BLOCK <= task.block_size <= _AUTO_MAX_BLOCK
        assert task.n_candidates == len(split.candidates)
        # The partition must cover the candidate list exactly, in order.
        assert [
            pair_ for block in task.blocks for pair_ in block
        ] == list(split.candidates)

    def test_auto_fit_matches_fixed_block_labels(self, tiny_synthetic_pair):
        """Query sets are partition-independent, so auto == fixed."""
        pair = tiny_synthetic_pair
        split = _split_for(pair)
        positives = _positives(split)

        def fit(block_size):
            session = AlignmentSession(
                pair, known_anchors=split.train_positive_pairs
            )
            task = StreamedAlignmentTask.from_pairs(
                session,
                list(split.candidates),
                split.train_indices,
                split.truth[split.train_indices],
                block_size=block_size,
            )
            model = ActiveIter(
                LabelOracle(positives, budget=6), batch_size=2
            )
            model.fit(task)
            return model

        fixed = fit(97)
        auto = fit(AUTO_BLOCK_SIZE)
        assert auto.queried_ == fixed.queried_
        assert np.array_equal(auto.labels_, fixed.labels_)


class TestStreamedFitEquivalence:
    """Streamed fits must select the same query sets as materialized."""

    def _fit(self, pair, split, streamed, strategy, block_size=64, budget=10):
        session = AlignmentSession(
            pair, known_anchors=split.train_positive_pairs
        )
        candidates = list(split.candidates)
        model = ActiveIter(
            LabelOracle(_positives(split), budget=budget),
            strategy=strategy,
            batch_size=2,
            session=session,
            refresh_features=False,
        )
        if streamed:
            task = StreamedAlignmentTask(
                session,
                blockify(candidates, block_size),
                split.train_indices,
                split.truth[split.train_indices],
            )
        else:
            task = AlignmentTask(
                pairs=candidates,
                X=session.extract(candidates),
                labeled_indices=split.train_indices,
                labeled_values=split.truth[split.train_indices],
            )
        model.fit(task)
        return model

    @pytest.mark.parametrize(
        "make_strategy",
        [
            lambda: ConflictFalseNegativeStrategy(),
            lambda: RandomQueryStrategy(seed=11),
            lambda: MarginQueryStrategy(),
        ],
        ids=["conflict", "random", "margin"],
    )
    def test_query_sets_match_materialized(
        self, tiny_synthetic_pair, make_strategy
    ):
        pair = tiny_synthetic_pair
        split = _split_for(pair)
        materialized = self._fit(
            pair, split, streamed=False, strategy=make_strategy()
        )
        streamed = self._fit(
            pair, split, streamed=True, strategy=make_strategy()
        )
        assert streamed.queried_ == materialized.queried_
        assert np.array_equal(streamed.labels_, materialized.labels_)
        assert streamed.result_.n_rounds == materialized.result_.n_rounds

    @pytest.mark.parametrize("streamed", [False, True], ids=["dense", "streamed"])
    def test_conflict_codes_each_side_once_per_fit(
        self, tiny_synthetic_pair, monkeypatch, streamed
    ):
        """Every round passes the same candidate list (or block lists),
        so a fit codes each side of it once, not once per round."""
        from repro.active import strategies

        coded = []
        user_codes = strategies._user_codes

        def counted(users):
            coded.append(len(users))
            return user_codes(users)

        monkeypatch.setattr(strategies, "_user_codes", counted)
        split = _split_for(tiny_synthetic_pair)
        model = self._fit(
            tiny_synthetic_pair,
            split,
            streamed=streamed,
            strategy=ConflictFalseNegativeStrategy(),
        )
        assert model.result_.n_rounds >= 3
        assert coded == [len(split.candidates)] * 2

    def test_single_block_bitwise_identical(self, tiny_synthetic_pair):
        """One block reproduces the materialized arithmetic exactly."""
        pair = tiny_synthetic_pair
        split = _split_for(pair)
        materialized = self._fit(
            pair, split, streamed=False, strategy=ConflictFalseNegativeStrategy()
        )
        streamed = self._fit(
            pair,
            split,
            streamed=True,
            strategy=ConflictFalseNegativeStrategy(),
            block_size=10**9,
        )
        assert np.array_equal(streamed.scores_, materialized.scores_)
        assert np.array_equal(streamed.weights_, materialized.weights_)
        assert streamed.queried_ == materialized.queried_

    def test_streamed_refresh_matches_materialized_refresh(
        self, tiny_synthetic_pair
    ):
        pair = tiny_synthetic_pair
        split = _split_for(pair)
        candidates = list(split.candidates)

        def run(streamed):
            session = AlignmentSession(
                pair, known_anchors=split.train_positive_pairs
            )
            model = ActiveIter(
                LabelOracle(_positives(split), budget=8),
                batch_size=2,
                session=session,
                refresh_features=True,
            )
            if streamed:
                task = StreamedAlignmentTask(
                    session,
                    blockify(candidates, 48),
                    split.train_indices,
                    split.truth[split.train_indices],
                )
            else:
                task = AlignmentTask(
                    pairs=list(candidates),
                    X=session.extract(list(candidates)),
                    labeled_indices=split.train_indices,
                    labeled_values=split.truth[split.train_indices],
                )
            return model.fit(task)

        materialized = run(False)
        streamed = run(True)
        assert streamed.queried_ == materialized.queried_
        assert np.array_equal(streamed.labels_, materialized.labels_)

    def test_foreign_session_rejected_before_any_query(
        self, tiny_synthetic_pair
    ):
        """A model bound to one session refuses a task over another."""
        pair = tiny_synthetic_pair
        split = _split_for(pair)
        model_session = AlignmentSession(
            pair, known_anchors=split.train_positive_pairs
        )
        task_session = AlignmentSession(
            pair, known_anchors=split.train_positive_pairs
        )
        task = StreamedAlignmentTask(
            task_session,
            blockify(list(split.candidates), 48),
            split.train_indices,
            split.truth[split.train_indices],
        )
        oracle = LabelOracle(_positives(split), budget=6)
        model = ActiveIter(oracle, batch_size=2, session=model_session)
        with pytest.raises(ModelError, match="streamed task's session"):
            model.fit(task)
        assert oracle.spent == 0

    def test_never_materializes_full_matrix(
        self, tiny_synthetic_pair, monkeypatch
    ):
        pair = tiny_synthetic_pair
        split = _split_for(pair)
        session = AlignmentSession(
            pair, known_anchors=split.train_positive_pairs
        )
        candidates = list(split.candidates)
        block_size = 32
        original = AlignmentSession.extract
        largest = {"n": 0}

        def spying_extract(self, pairs):
            largest["n"] = max(largest["n"], len(pairs))
            return original(self, pairs)

        monkeypatch.setattr(AlignmentSession, "extract", spying_extract)
        task = StreamedAlignmentTask(
            session,
            blockify(candidates, block_size),
            split.train_indices,
            split.truth[split.train_indices],
        )
        ActiveIter(
            LabelOracle(_positives(split), budget=6), batch_size=2
        ).fit(task)
        assert 0 < largest["n"] <= block_size < len(candidates)

    def test_itermpmd_streamed_matches(self, tiny_synthetic_pair):
        pair = tiny_synthetic_pair
        split = _split_for(pair)
        session = AlignmentSession(
            pair, known_anchors=split.train_positive_pairs
        )
        candidates = list(split.candidates)
        task = AlignmentTask(
            pairs=candidates,
            X=session.extract(candidates),
            labeled_indices=split.train_indices,
            labeled_values=split.truth[split.train_indices],
        )
        materialized = IterMPMD().fit(task)
        streamed_task = StreamedAlignmentTask(
            session,
            blockify(candidates, 41),
            split.train_indices,
            split.truth[split.train_indices],
        )
        streamed = IterMPMD().fit(streamed_task)
        assert np.array_equal(streamed.labels_, materialized.labels_)
        assert streamed.predicted_anchors() == materialized.predicted_anchors()

    def test_workers_do_not_change_streamed_fit(self, tiny_synthetic_pair):
        pair = tiny_synthetic_pair
        split = _split_for(pair)

        def run(workers):
            session = AlignmentSession(
                pair,
                known_anchors=split.train_positive_pairs,
                workers=workers,
            )
            task = StreamedAlignmentTask(
                session,
                blockify(list(split.candidates), 48),
                split.train_indices,
                split.truth[split.train_indices],
            )
            return ActiveIter(
                LabelOracle(_positives(split), budget=8), batch_size=2
            ).fit(task)

        serial = run(1)
        threaded = run(4)
        assert threaded.queried_ == serial.queried_
        assert np.array_equal(threaded.scores_, serial.scores_)
        assert np.array_equal(threaded.labels_, serial.labels_)


class TestLabeledRowsAndModelScores:
    def test_labeled_rows_match_materialized_gather(
        self, tiny_synthetic_pair
    ):
        split = _split_for(tiny_synthetic_pair)
        session = AlignmentSession(
            tiny_synthetic_pair, known_anchors=split.train_positive_pairs
        )
        candidates = list(split.candidates)
        X = session.extract(candidates)
        task = StreamedAlignmentTask.from_pairs(
            session,
            candidates,
            split.train_indices,
            split.truth[split.train_indices],
            block_size=13,
        )
        assert np.array_equal(task.labeled_rows(), X[task.labeled_indices])

    def test_linear_model_scores_inline_matches_manual(
        self, tiny_synthetic_pair
    ):
        from repro.ml.backends import LinearModelState, _stream_scores

        split = _split_for(tiny_synthetic_pair)
        session = AlignmentSession(
            tiny_synthetic_pair, known_anchors=split.train_positive_pairs
        )
        candidates = list(split.candidates)
        task = StreamedAlignmentTask.from_pairs(
            session,
            candidates,
            split.train_indices,
            split.truth[split.train_indices],
            block_size=19,
        )
        rng = np.random.default_rng(1)
        state = LinearModelState(
            coef=rng.normal(size=task.n_features), intercept=-0.5
        )
        scores = _stream_scores(task, state)
        manual = np.empty(task.n_candidates)
        for offset, block in task.feature_blocks():
            manual[offset: offset + block.shape[0]] = (
                block @ state.coef + state.intercept
            )
        assert np.array_equal(scores, manual)

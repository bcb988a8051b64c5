"""Store-backed sessions against the in-memory reference.

The store subsystem's headline guarantee: spilling count matrices to a
memory-mapped arena changes where the bytes live, never what the engine
computes — every streamed fit, streamed prediction, Gram matrix and
score vector of a store-backed session is byte-identical to the
in-memory run.  (The test names keep their ``process_vs_*`` form from
when the store side also ran on a process pool; both sides are serial
now.)
"""

import numpy as np
import pytest

from repro.active.oracle import LabelOracle
from repro.core.activeiter import ActiveIter
from repro.core.pipeline import AlignmentPipeline
from repro.engine import AlignmentSession, StreamedAlignmentTask
from repro.eval.protocol import ProtocolConfig, build_splits
from repro.types import Labeled


@pytest.fixture(scope="module")
def split_setup(tiny_pair_module):
    pair = tiny_pair_module
    config = ProtocolConfig(np_ratio=5, sample_ratio=1.0, n_repeats=1, seed=13)
    split = next(iter(build_splits(pair, config)))
    positives = {
        split.candidates[i]
        for i in range(len(split.candidates))
        if split.truth[i] == 1
    }
    return pair, split, positives


class TestProcessExactness:
    def _streamed_fit(self, pair, split, positives, store):
        with AlignmentSession(
            pair, known_anchors=split.train_positive_pairs, store=store
        ) as session:
            task = StreamedAlignmentTask.from_pairs(
                session,
                list(split.candidates),
                split.train_indices,
                split.truth[split.train_indices],
                block_size=64,
            )
            model = ActiveIter(
                LabelOracle(positives, budget=8),
                batch_size=2,
                session=session,
                refresh_features=True,
            )
            model.fit(task)
            return model

    def test_fit_streamed_process_vs_serial(self, split_setup, tmp_path):
        pair, split, positives = split_setup
        memory = self._streamed_fit(pair, split, positives, store=None)
        stored = self._streamed_fit(pair, split, positives, store=tmp_path)
        assert stored.queried_ == memory.queried_
        assert np.array_equal(stored.labels_, memory.labels_)
        assert np.array_equal(stored.weights_, memory.weights_)
        assert np.array_equal(stored.scores_, memory.scores_)

    def _stream_predict(self, pair, split, store):
        labeled = [
            Labeled(pair=split.candidates[i], label=int(split.truth[i]))
            for i in split.train_indices
        ]
        with AlignmentPipeline(pair, store=store) as pipeline:
            pipeline.run(list(split.candidates), labeled)
            return pipeline.stream_predict(block_size=128)

    def test_stream_predict_process_vs_serial(self, split_setup, tmp_path):
        pair, split, _ = split_setup
        memory = self._stream_predict(pair, split, store=None)
        stored = self._stream_predict(pair, split, store=tmp_path)
        assert stored == memory

    def test_gram_and_scores_process_vs_serial(self, split_setup, tmp_path):
        pair, split, _ = split_setup

        def build(store):
            session = AlignmentSession(
                pair, known_anchors=split.train_positive_pairs, store=store
            )
            return session, StreamedAlignmentTask.from_pairs(
                session,
                list(split.candidates),
                split.train_indices,
                split.truth[split.train_indices],
                block_size=32,
            )

        memory_session, memory_task = build(None)
        stored_session, stored_task = build(tmp_path)
        with memory_session, stored_session:
            assert stored_session.arena is not None
            assert np.array_equal(memory_task.gram(), stored_task.gram())
            target = np.arange(memory_task.n_candidates, dtype=np.float64)
            assert np.array_equal(
                memory_task.xt_dot(target), stored_task.xt_dot(target)
            )
            weights = np.random.default_rng(5).normal(
                size=memory_task.n_features
            )
            assert np.array_equal(
                memory_task.scores(weights), stored_task.scores(weights)
            )


class TestModelScoreJob:
    def test_model_state_scoring_process_vs_inline(self, split_setup, tmp_path):
        """A full LinearModelState (feature map + scaler + coefficients)
        scores a store-backed task's blocks byte-identically to the
        inline kernel over an in-memory session's blocks."""
        from repro.ml.backends import (
            LinearModelState,
            _stream_scores,
            apply_model_state,
        )
        from repro.ml.kernels import NystroemMap
        from repro.ml.scaling import StandardScaler

        pair, split, _ = split_setup

        def build(store):
            session = AlignmentSession(
                pair, known_anchors=split.train_positive_pairs, store=store
            )
            return session, StreamedAlignmentTask.from_pairs(
                session,
                list(split.candidates),
                split.train_indices,
                split.truth[split.train_indices],
                block_size=32,
            )

        memory_session, memory_task = build(None)
        stored_session, stored_task = build(tmp_path)
        with memory_session, stored_session:
            X = memory_session.extract(list(split.candidates))
            mapper = NystroemMap(n_landmarks=12, seed=1).fit(X)
            scaler = StandardScaler().fit(mapper.transform(X))
            rng = np.random.default_rng(0)
            state = LinearModelState(
                coef=rng.normal(size=scaler.mean_.shape[0]),
                intercept=0.125,
                map_state=mapper.state_dict(),
                scaler_mean=scaler.mean_,
                scaler_scale=scaler.scale_,
            )
            # Store-backed sweep ...
            stored_scores = _stream_scores(stored_task, state)
            # ... vs the inline kernel over the in-memory blocks.
            inline = np.empty(memory_task.n_candidates)
            for offset, block in memory_task.feature_blocks():
                inline[offset: offset + block.shape[0]] = apply_model_state(
                    state, block
                )
            assert np.array_equal(stored_scores, inline)

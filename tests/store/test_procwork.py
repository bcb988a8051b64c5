"""Process-executor exactness against the serial reference.

The store subsystem's headline guarantee: fanning block work across a
``ProcessPoolExecutor`` through arena-resolved descriptors changes
wall-clock behavior only — every extracted feature block, streamed fit
and streamed prediction is byte-identical to the serial in-process run.
"""

import numpy as np
import pytest

from repro.active.oracle import LabelOracle
from repro.core.activeiter import ActiveIter
from repro.core.pipeline import AlignmentPipeline
from repro.engine import (
    AlignmentSession,
    ProcessExecutor,
    SerialExecutor,
    StreamedAlignmentTask,
)
from repro.eval.protocol import ProtocolConfig, build_splits
from repro.exceptions import AlignmentError, StoreError
from repro.store import (
    ArenaLinearScorer,
    ArenaSpec,
    BlockDescriptor,
    extract_block_job,
    model_score_block_job,
    score_block_job,
)
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


@pytest.fixture(scope="module")
def process_executor():
    """One module-shared pool: process startup dominates tiny workloads."""
    with ProcessExecutor(2) as executor:
        yield executor


class TestWorkerKernel:
    def test_extract_job_matches_session_extract(
        self, split_setup, tmp_path
    ):
        pair, split, _ = split_setup
        candidates = list(split.candidates)
        with AlignmentSession(
            pair, known_anchors=split.train_positive_pairs, store=tmp_path
        ) as session:
            X = session.extract(candidates)
            spec = session.flush_store()
            left, right = pair.pairs_to_indices(candidates)
            descriptor = BlockDescriptor(
                offset=0, left_indices=left, right_indices=right
            )
            offset, X_worker = extract_block_job((spec, descriptor))
            assert offset == 0
            assert np.array_equal(X, X_worker)

            weights = np.random.default_rng(3).normal(size=session.n_features)
            _, scores = score_block_job((spec, descriptor, weights))
            assert np.array_equal(X @ weights, scores)

            scorer = ArenaLinearScorer(spec=spec, weights=weights)
            assert np.array_equal(X @ weights, scorer(descriptor))

    def test_arena_scorer_checks_its_weights_when_built(
        self, split_setup, tmp_path
    ):
        """Like linear_scorer: a wrong weight count fails in the driver,
        not as a matmul error inside a worker's first block."""
        pair, split, _ = split_setup
        with AlignmentSession(
            pair, known_anchors=split.train_positive_pairs, store=tmp_path
        ) as session:
            spec = session.flush_store()
            n_features = session.n_features
            with pytest.raises(
                AlignmentError,
                match=f"{n_features + 3} weights for {n_features} features",
            ):
                ArenaLinearScorer(spec=spec, weights=np.ones(n_features + 3))

    def test_meta_with_position_maps_still_loads(self, split_setup, tmp_path):
        """Arenas flushed before position blocks also stored user-position
        maps in the session meta; workers ignore the extra keys."""
        from repro.store.procwork import SESSION_META

        pair, split, _ = split_setup
        candidates = list(split.candidates)
        with AlignmentSession(
            pair, known_anchors=split.train_positive_pairs, store=tmp_path
        ) as session:
            X = session.extract(candidates)
            session.flush_store()
            meta = dict(session.arena.get_object(SESSION_META))
            assert "left_positions" not in meta
            anchor_type = pair.anchor_node_type
            meta["left_positions"] = {
                user: pair.left.node_position(anchor_type, user)
                for user in pair.left_users()
            }
            meta["right_positions"] = {
                user: pair.right.node_position(anchor_type, user)
                for user in pair.right_users()
            }
            session.arena.put_object(SESSION_META, meta)
            spec = ArenaSpec(
                store_dir=str(session.arena.store_dir),
                version=session.arena.version,
            )
            left, right = pair.pairs_to_indices(candidates)
            descriptor = BlockDescriptor(
                offset=0, left_indices=left, right_indices=right
            )
            _, X_worker = extract_block_job((spec, descriptor))
            assert np.array_equal(X, X_worker)
            weights = np.random.default_rng(4).normal(size=session.n_features)
            scorer = ArenaLinearScorer(spec=spec, weights=weights)
            assert np.array_equal(X @ weights, scorer(descriptor))

    def test_stale_version_demands_a_flush(self, split_setup, tmp_path):
        pair, split, _ = split_setup
        with AlignmentSession(
            pair, known_anchors=split.train_positive_pairs, store=tmp_path
        ) as session:
            spec = session.flush_store()
            future = ArenaSpec(
                store_dir=spec.store_dir, version=spec.version + 100
            )
            left, right = pair.pairs_to_indices(list(split.candidates[:4]))
            descriptor = BlockDescriptor(
                offset=0, left_indices=left, right_indices=right
            )
            with pytest.raises(StoreError):
                extract_block_job((future, descriptor))

    def test_flush_reflects_anchor_updates(self, split_setup, tmp_path):
        pair, split, _ = split_setup
        candidates = list(split.candidates)
        with AlignmentSession(
            pair, known_anchors=split.train_positive_pairs, store=tmp_path
        ) as session:
            session.extract(candidates)
            spec_before = session.flush_store()
            grown = list(split.train_positive_pairs) + [
                candidates[i]
                for i in range(len(candidates))
                if split.truth[i] == 1
            ]
            session.set_anchors(grown)
            spec_after = session.flush_store()
            assert spec_after.version > spec_before.version
            left, right = pair.pairs_to_indices(candidates)
            descriptor = BlockDescriptor(
                offset=0, left_indices=left, right_indices=right
            )
            _, X_worker = extract_block_job((spec_after, descriptor))
            assert np.array_equal(session.extract(candidates), X_worker)


    def test_network_delta_republishes_session_meta(self, tmp_path):
        """Regression: a delta that grows the right side changes
        ``n_right``, so the next flush must republish the once-written
        session meta — workers otherwise compute ``query_keys`` with a
        stale stride against fresh matrices and return wrong features.
        """
        from repro.datasets import foursquare_twitter_like
        from repro.engine.evolution import scripted_delta_schedule
        from repro.store.procwork import SESSION_META

        pair = foursquare_twitter_like("tiny", seed=7)
        config = ProtocolConfig(
            np_ratio=5, sample_ratio=1.0, n_repeats=1, seed=13
        )
        split = next(iter(build_splits(pair, config)))
        candidates = list(split.candidates)
        with AlignmentSession(
            pair, known_anchors=split.train_positive_pairs, store=tmp_path
        ) as session:
            session.extract(candidates)
            spec_before = session.flush_store()
            meta_before = session.arena.get_object(SESSION_META)

            delta = scripted_delta_schedule(
                pair, events=1, seed=5, sides=("right",)
            )[0]
            session.apply_network_delta(delta)
            spec_after = session.flush_store()
            assert spec_after.version > spec_before.version
            meta_after = session.arena.get_object(SESSION_META)
            assert meta_after["n_right"] > meta_before["n_right"]

            left, right = pair.pairs_to_indices(candidates)
            descriptor = BlockDescriptor(
                offset=0, left_indices=left, right_indices=right
            )
            _, X_worker = extract_block_job((spec_after, descriptor))
            assert np.array_equal(session.extract(candidates), X_worker)


class TestProcessExactness:
    def _streamed_fit(self, pair, split, positives, store, workers):
        with AlignmentSession(
            pair,
            known_anchors=split.train_positive_pairs,
            store=store,
            workers=workers,
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

    def test_fit_streamed_process_vs_serial(
        self, split_setup, tmp_path, process_executor
    ):
        pair, split, positives = split_setup
        serial = self._streamed_fit(
            pair, split, positives, store=None, workers=SerialExecutor()
        )
        process = self._streamed_fit(
            pair, split, positives, store=tmp_path, workers=process_executor
        )
        assert process.queried_ == serial.queried_
        assert np.array_equal(process.labels_, serial.labels_)
        assert np.array_equal(process.weights_, serial.weights_)
        assert np.array_equal(process.scores_, serial.scores_)

    def _stream_predict(self, pair, split, store, workers, tmp_dir=None):
        labeled = [
            Labeled(pair=split.candidates[i], label=int(split.truth[i]))
            for i in split.train_indices
        ]
        with AlignmentPipeline(
            pair, workers=workers, store=store
        ) as pipeline:
            pipeline.run(list(split.candidates), labeled)
            return pipeline.stream_predict(block_size=128)

    def test_stream_predict_process_vs_serial(
        self, split_setup, tmp_path, process_executor
    ):
        pair, split, _ = split_setup
        serial = self._stream_predict(pair, split, store=None, workers=None)
        process = self._stream_predict(
            pair, split, store=tmp_path, workers=process_executor
        )
        assert process == serial

    def test_gram_and_scores_process_vs_serial(
        self, split_setup, tmp_path, process_executor
    ):
        pair, split, _ = split_setup

        def build(store, workers):
            session = AlignmentSession(
                pair,
                known_anchors=split.train_positive_pairs,
                store=store,
                workers=workers,
            )
            return session, StreamedAlignmentTask.from_pairs(
                session,
                list(split.candidates),
                split.train_indices,
                split.truth[split.train_indices],
                block_size=32,
            )

        serial_session, serial_task = build(None, None)
        process_session, process_task = build(tmp_path, process_executor)
        with serial_session, process_session:
            assert np.array_equal(serial_task.gram(), process_task.gram())
            target = np.arange(
                serial_task.n_candidates, dtype=np.float64
            )
            assert np.array_equal(
                serial_task.xt_dot(target), process_task.xt_dot(target)
            )
            weights = np.random.default_rng(5).normal(
                size=serial_task.n_features
            )
            assert np.array_equal(
                serial_task.scores(weights), process_task.scores(weights)
            )


class TestModelScoreJob:
    def test_model_state_scoring_process_vs_inline(
        self, split_setup, tmp_path, process_executor
    ):
        """The model-backend work unit: a full LinearModelState (feature
        map + scaler + coefficients) scores byte-identically whether the
        blocks run through worker processes or inline — the SVM decision
        pass and the landmark transform both cross the exec boundary."""
        from repro.ml.backends import LinearModelState, apply_model_state
        from repro.ml.kernels import NystroemMap
        from repro.ml.scaling import StandardScaler

        pair, split, _ = split_setup
        with AlignmentSession(
            pair,
            known_anchors=split.train_positive_pairs,
            store=tmp_path,
            workers=process_executor,
        ) as session:
            task = StreamedAlignmentTask.from_pairs(
                session,
                list(split.candidates),
                split.train_indices,
                split.truth[split.train_indices],
                block_size=32,
            )
            X = session.extract(list(split.candidates))
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
            # Process path (ProcessExecutor + arena) ...
            process_scores = task.linear_model_scores(state)
            # ... vs the inline kernel over the same blocks.
            inline = np.empty(task.n_candidates)
            for offset, block in task.feature_blocks():
                inline[offset: offset + block.shape[0]] = apply_model_state(
                    state, block
                )
            assert np.array_equal(process_scores, inline)

    def test_model_score_job_direct(self, split_setup, tmp_path):
        from repro.ml.backends import LinearModelState

        pair, split, _ = split_setup
        with AlignmentSession(
            pair, known_anchors=split.train_positive_pairs, store=tmp_path
        ) as session:
            spec = session.flush_store()
            left, right = session.pair.pairs_to_indices(
                list(split.candidates)[:9]
            )
            descriptor = BlockDescriptor(
                offset=0, left_indices=left, right_indices=right
            )
            state = LinearModelState(
                coef=np.ones(session.n_features), intercept=1.0
            )
            offset, scores = model_score_block_job((spec, descriptor, state))
            expected = (
                session.extract(list(split.candidates)[:9])
                @ state.coef + 1.0
            )
            assert offset == 0
            assert np.array_equal(scores, expected)

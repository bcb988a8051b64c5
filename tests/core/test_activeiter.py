"""Tests for repro.core.activeiter."""

import numpy as np
import pytest

from repro.active.oracle import LabelOracle
from repro.active.strategies import MarginQueryStrategy, RandomQueryStrategy
from repro.core.activeiter import ActiveIter
from repro.exceptions import ModelError
from repro.matching.constraints import satisfies_one_to_one
from repro.meta.features import FeatureExtractor

from test_itermpmd import _synthetic_task


def _oracle_for(task, truth, budget):
    positives = {
        task.pairs[i] for i in range(task.n_candidates) if truth[i] == 1
    }
    return LabelOracle(positives, budget=budget)


class TestActiveIter:
    def test_validation(self, tiny_synthetic_pair):
        task, truth = _synthetic_task(tiny_synthetic_pair)
        oracle = _oracle_for(task, truth, 5)
        with pytest.raises(ModelError):
            ActiveIter(oracle, batch_size=0)
        with pytest.raises(ModelError):
            ActiveIter(oracle, refresh_features=True)

    def test_budget_respected(self, tiny_synthetic_pair):
        task, truth = _synthetic_task(tiny_synthetic_pair)
        oracle = _oracle_for(task, truth, 7)
        model = ActiveIter(oracle, batch_size=3).fit(task)
        assert len(model.queried_) <= 7
        assert oracle.spent <= 7

    def test_queried_labels_truthful_and_clamped(self, tiny_synthetic_pair):
        task, truth = _synthetic_task(tiny_synthetic_pair)
        oracle = _oracle_for(task, truth, 10)
        model = ActiveIter(oracle).fit(task)
        for pair, label in model.queried_:
            index = task.index_of(pair)
            assert truth[index] == label
            assert model.labels_[index] == label

    def test_queries_spent_only_on_unlabeled(self, tiny_synthetic_pair):
        task, truth = _synthetic_task(tiny_synthetic_pair)
        oracle = _oracle_for(task, truth, 10)
        model = ActiveIter(oracle).fit(task)
        train_pairs = {task.pairs[i] for i in task.labeled_indices}
        assert all(pair not in train_pairs for pair, _ in model.queried_)

    def test_oracle_answering_out_of_order_rejected(self, tiny_synthetic_pair):
        """Answers map back to candidates by position, so an oracle that
        breaks the prefix contract must fail loudly."""

        class ReversingOracle(LabelOracle):
            def query_batch(self, pairs):
                return super().query_batch(pairs)[::-1]

        task, truth = _synthetic_task(tiny_synthetic_pair)
        positives = {
            task.pairs[i] for i in range(task.n_candidates) if truth[i] == 1
        }
        model = ActiveIter(ReversingOracle(positives, budget=6), batch_size=3)
        with pytest.raises(ModelError, match="prefix of the asked pairs"):
            model.fit(task)

    def test_one_to_one_maintained(self, tiny_synthetic_pair):
        task, truth = _synthetic_task(tiny_synthetic_pair)
        oracle = _oracle_for(task, truth, 10)
        model = ActiveIter(oracle).fit(task)
        assert satisfies_one_to_one(task.pairs, model.labels_)

    def test_zero_budget_equals_itermpmd(self, tiny_synthetic_pair):
        from repro.core.itermpmd import IterMPMD

        task_a, truth = _synthetic_task(tiny_synthetic_pair)
        task_b, _ = _synthetic_task(tiny_synthetic_pair)
        oracle = _oracle_for(task_a, truth, 0)
        active = ActiveIter(oracle).fit(task_a)
        passive = IterMPMD().fit(task_b)
        assert np.array_equal(active.labels_, passive.labels_)
        assert active.queried_ == ()

    def test_multiple_rounds_executed(self, tiny_synthetic_pair):
        task, truth = _synthetic_task(tiny_synthetic_pair)
        oracle = _oracle_for(task, truth, 10)
        model = ActiveIter(oracle, batch_size=5).fit(task)
        assert model.result_.n_rounds >= 2

    def test_active_beats_passive_on_test_anchors(self, small_synthetic_pair):
        from repro.core.itermpmd import IterMPMD

        task_a, truth = _synthetic_task(small_synthetic_pair, seed=3)
        task_b, _ = _synthetic_task(small_synthetic_pair, seed=3)
        oracle = _oracle_for(task_a, truth, 30)
        active = ActiveIter(oracle).fit(task_a)
        passive = IterMPMD().fit(task_b)

        queried = {pair for pair, _ in active.queried_}
        eval_mask = np.array(
            [
                task_a.unlabeled_mask[i] and task_a.pairs[i] not in queried
                for i in range(task_a.n_candidates)
            ]
        )
        def recall(labels):
            hits = np.sum((labels == 1) & (truth == 1) & eval_mask)
            total = np.sum((truth == 1) & eval_mask)
            return hits / total

        assert recall(active.labels_) >= recall(passive.labels_)

    def test_custom_strategy_used(self, tiny_synthetic_pair):
        task, truth = _synthetic_task(tiny_synthetic_pair)
        oracle = _oracle_for(task, truth, 6)
        model = ActiveIter(
            oracle, strategy=RandomQueryStrategy(seed=3), batch_size=3
        ).fit(task)
        assert len(model.queried_) == 6

    def test_margin_strategy_runs(self, tiny_synthetic_pair):
        task, truth = _synthetic_task(tiny_synthetic_pair)
        oracle = _oracle_for(task, truth, 6)
        model = ActiveIter(oracle, strategy=MarginQueryStrategy()).fit(task)
        assert len(model.queried_) == 6

    def test_refresh_features_extension(self, tiny_synthetic_pair):
        task, truth = _synthetic_task(tiny_synthetic_pair)
        train_positives = [
            task.pairs[i]
            for i, v in zip(task.labeled_indices, task.labeled_values)
            if v == 1
        ]
        extractor = FeatureExtractor(
            tiny_synthetic_pair, known_anchors=train_positives
        )
        oracle = _oracle_for(task, truth, 10)
        model = ActiveIter(
            oracle,
            feature_extractor=extractor,
            refresh_features=True,
        ).fit(task)
        assert model.result_ is not None
        assert satisfies_one_to_one(task.pairs, model.labels_)


class TestDriftingActiveLoop:
    """Evolution schedules: deltas arrive between query rounds."""

    def _drifting_setup(self, budget=8):
        from repro.datasets import foursquare_twitter_like
        from repro.engine import (
            AlignmentSession,
            evolution_rounds,
            scripted_delta_schedule,
        )
        from repro.eval.protocol import ProtocolConfig, build_splits

        pair = foursquare_twitter_like("tiny", seed=11)
        config = ProtocolConfig(
            np_ratio=5, sample_ratio=1.0, n_repeats=1, seed=13
        )
        split = next(iter(build_splits(pair, config)))
        schedule = scripted_delta_schedule(pair, events=2, seed=3)
        positives = {
            split.candidates[i]
            for i in range(len(split.candidates))
            if split.truth[i] == 1
        }
        session = AlignmentSession(
            pair, known_anchors=split.train_positive_pairs
        )
        from repro.core.base import AlignmentTask

        candidates = list(split.candidates)
        task = AlignmentTask(
            pairs=candidates,
            X=session.extract(candidates),
            labeled_indices=split.train_indices,
            labeled_values=split.truth[split.train_indices],
        )
        model = ActiveIter(
            LabelOracle(positives, budget=budget),
            batch_size=2,
            session=session,
            refresh_features=True,
            evolution=evolution_rounds(schedule),
        )
        return model, task, session, pair

    def test_evolution_requires_session_and_refresh(self, tiny_synthetic_pair):
        from repro.engine import scripted_delta_schedule

        task, truth = _synthetic_task(tiny_synthetic_pair)
        oracle = _oracle_for(task, truth, 5)
        schedule = scripted_delta_schedule(tiny_synthetic_pair, events=1)
        with pytest.raises(ModelError, match="evolution"):
            ActiveIter(oracle, evolution=[(1, schedule[0])])

    def test_drift_applies_and_preserves_bought_labels(self):
        model, task, session, pair = self._drifting_setup()
        model.fit(task)
        # The scheduled deltas were applied through the session...
        assert session.stats.network_updates >= 1
        assert pair.left.has_node("user", "evo:left:u0")
        # ...and every bought label survived the drift, truthfully.
        assert len(model.queried_) > 0
        for queried_pair, label in model.queried_:
            index = task.index_of(queried_pair)
            assert model.labels_[index] == label

    def test_pre_drifted_session_skips_nothing(self):
        """Deltas applied outside the schedule do not consume it."""
        from repro.networks.aligned import NetworkDelta

        model, task, session, pair = self._drifting_setup()
        # Drift the session manually before the fit with a delta that
        # is NOT part of the schedule.
        session.apply_network_delta(
            NetworkDelta.build(
                "left", added_nodes={"user": ["manual:u"]}
            )
        )
        session.refresh_features(task.X, task.pairs)
        assert model._evolution_start() == 0  # nothing matched
        model.fit(task)
        # Every scheduled event still applied on top of the manual one.
        assert session.stats.network_updates >= len(model.evolution)

    def test_drifted_features_match_scratch_extraction(self):
        from repro.engine import AlignmentSession

        model, task, session, pair = self._drifting_setup()
        model.fit(task)
        known_positives = [
            task.pairs[i]
            for i, value in zip(task.labeled_indices, task.labeled_values)
            if value == 1
        ] + [queried for queried, label in model.queried_ if label == 1]
        scratch = AlignmentSession(pair, known_anchors=known_positives)
        assert np.array_equal(task.X, scratch.extract(task.pairs))

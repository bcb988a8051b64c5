"""Tests for repro.active.committee."""

import numpy as np
import pytest

from repro.active.committee import CommitteeQueryStrategy
from repro.exceptions import ReproError

PAIRS = [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")]


def _bound_strategy(seed=0, n=4, d=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    return CommitteeQueryStrategy(n_members=5, seed=seed).bind(X), X


class TestCommitteeQueryStrategy:
    def test_requires_bind(self):
        strategy = CommitteeQueryStrategy()
        with pytest.raises(ReproError, match="bind"):
            strategy.select(
                PAIRS, np.zeros(4), np.zeros(4), np.ones(4, bool), 2
            )

    def test_needs_two_members(self):
        with pytest.raises(ReproError):
            CommitteeQueryStrategy(n_members=1)

    def test_selects_within_mask_and_batch(self):
        strategy, _ = _bound_strategy()
        queryable = np.array([True, False, True, True])
        picks = strategy.select(
            PAIRS, np.zeros(4), np.zeros(4), queryable, batch_size=2
        )
        assert len(picks) == 2
        assert set(picks) <= {0, 2, 3}

    def test_deterministic_given_seed_and_round(self):
        a, _ = _bound_strategy(seed=3)
        b, _ = _bound_strategy(seed=3)
        labels = np.array([1, 0, 0, 1], dtype=float)
        pick_a = a.select(PAIRS, np.zeros(4), labels, np.ones(4, bool), 2)
        pick_b = b.select(PAIRS, np.zeros(4), labels, np.ones(4, bool), 2)
        assert pick_a == pick_b

    def test_rounds_vary_bootstrap(self):
        strategy, _ = _bound_strategy(seed=3)
        labels = np.array([1, 0, 0, 1], dtype=float)
        first = strategy.select(PAIRS, np.zeros(4), labels, np.ones(4, bool), 4)
        second = strategy.select(PAIRS, np.zeros(4), labels, np.ones(4, bool), 4)
        # Both are full orderings of the same pool; they may differ in
        # order (bootstrap reseeded per round) but cover the pool.
        assert set(first) == set(second) == {0, 1, 2, 3}

    def test_negative_batch_rejected(self):
        strategy, _ = _bound_strategy()
        with pytest.raises(ReproError, match="batch_size"):
            strategy.select(PAIRS, np.zeros(4), np.zeros(4), np.ones(4, bool), -1)

    def test_length_mismatch_rejected(self):
        strategy, _ = _bound_strategy()
        with pytest.raises(ReproError):
            strategy.select(PAIRS, np.zeros(4), np.zeros(3), np.ones(4, bool), 1)

    def test_high_disagreement_candidates_preferred(self):
        # Three identical rows and one outlier: the outlier's prediction
        # varies most across bootstrap committees.
        X = np.array(
            [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [8.0, 9.0]]
        )
        strategy = CommitteeQueryStrategy(n_members=15, seed=1).bind(X)
        labels = np.array([1, 1, 0, 0], dtype=float)
        picks = strategy.select(
            PAIRS, np.zeros(4), labels, np.ones(4, bool), batch_size=1
        )
        assert picks == [3]

    def test_works_inside_activeiter(self, tiny_synthetic_pair):
        from repro.active.oracle import LabelOracle
        from repro.core.activeiter import ActiveIter

        import sys
        sys.path.insert(0, "tests/core")
        from test_itermpmd import _synthetic_task

        task, truth = _synthetic_task(tiny_synthetic_pair)
        positives = {
            task.pairs[i] for i in range(task.n_candidates) if truth[i] == 1
        }
        strategy = CommitteeQueryStrategy(seed=2).bind(task.X)
        model = ActiveIter(
            LabelOracle(positives, budget=6), strategy=strategy
        ).fit(task)
        assert len(model.queried_) == 6

    def test_resume_reproduces_uninterrupted_run(
        self, tiny_synthetic_pair, tmp_path
    ):
        """A checkpointed run resumes on the interrupted round's bootstrap."""
        from repro.active.oracle import LabelOracle
        from repro.core.activeiter import ActiveIter
        from repro.core.base import AlignmentTask
        from repro.engine import AlignmentSession
        from repro.eval.protocol import ProtocolConfig, build_splits
        from repro.exceptions import CheckpointInterrupt
        from repro.store import SessionCheckpoint

        config = ProtocolConfig(
            np_ratio=5, sample_ratio=1.0, n_repeats=1, seed=13
        )
        split = next(iter(build_splits(tiny_synthetic_pair, config)))
        candidates = list(split.candidates)
        positives = {
            candidates[i] for i in range(len(candidates)) if split.truth[i] == 1
        }

        def build(checkpoint=None):
            session = AlignmentSession(
                tiny_synthetic_pair, known_anchors=split.train_positive_pairs
            )
            task = AlignmentTask(
                pairs=candidates,
                X=session.extract(candidates),
                labeled_indices=split.train_indices,
                labeled_values=split.truth[split.train_indices],
            )
            model = ActiveIter(
                LabelOracle(positives, budget=12),
                strategy=CommitteeQueryStrategy(n_members=5, seed=1).bind(
                    task.X
                ),
                batch_size=2,
                checkpoint=checkpoint,
            )
            return model, task

        reference, reference_task = build()
        reference.fit(reference_task)

        model, task = build(SessionCheckpoint(tmp_path, interrupt_after=2))
        with pytest.raises(CheckpointInterrupt):
            model.fit(task)
        resumed, resumed_task = build(SessionCheckpoint(tmp_path))
        resumed.fit(resumed_task)
        assert resumed.queried_ == reference.queried_
        assert np.array_equal(resumed.labels_, reference.labels_)
        assert np.array_equal(resumed.scores_, reference.scores_)

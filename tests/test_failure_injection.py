"""Failure injection: the library must fail loudly on corrupted input.

Silent garbage is the worst failure mode of a numerical pipeline; these
tests inject NaNs, truncated budgets, empty structures and mid-run
corruption, asserting the library raises typed errors instead of
producing plausible-looking nonsense.
"""

import numpy as np
import pytest

from repro.active.oracle import LabelOracle
from repro.core.activeiter import ActiveIter
from repro.core.base import AlignmentTask
from repro.core.itermpmd import IterMPMD
from repro.exceptions import (
    BudgetExhaustedError,
    ExperimentError,
    ModelError,
)


def _task(X=None, n=6):
    pairs = [(f"l{i}", f"r{i}") for i in range(n)]
    if X is None:
        X = np.random.default_rng(0).random((n, 3))
    return AlignmentTask(
        pairs=pairs,
        X=X,
        labeled_indices=np.array([0, 1]),
        labeled_values=np.array([1, 0]),
    )


class TestCorruptedFeatures:
    def test_nan_features_rejected_at_task_construction(self):
        X = np.random.default_rng(0).random((6, 3))
        X[2, 1] = np.nan
        with pytest.raises(ModelError, match="non-finite"):
            _task(X=X)

    def test_inf_features_rejected(self):
        X = np.random.default_rng(0).random((6, 3))
        X[4, 0] = np.inf
        with pytest.raises(ModelError, match="non-finite"):
            _task(X=X)

    def test_wrong_width_weights_rejected_by_solver(self):
        from repro.ml.ridge import RidgeSolver

        with pytest.raises(ModelError):
            RidgeSolver(np.ones((4, 2)), sample_weight=np.ones(5))


class TestBudgetEdgeCases:
    def test_oracle_never_answers_beyond_budget(self):
        oracle = LabelOracle({("a", "b")}, budget=1)
        oracle.query(("a", "b"))
        with pytest.raises(BudgetExhaustedError):
            oracle.query(("x", "y"))

    def test_activeiter_survives_budget_starvation(self):
        """Budget smaller than one batch: the model must still finish."""
        task = _task()
        oracle = LabelOracle({task.pairs[0]}, budget=2)
        model = ActiveIter(oracle, batch_size=5).fit(task)
        assert len(model.queried_) <= 2
        assert model.result_ is not None

    def test_activeiter_with_all_candidates_labeled(self):
        """Nothing queryable: the query loop must terminate cleanly."""
        pairs = [("l0", "r0"), ("l1", "r1")]
        task = AlignmentTask(
            pairs=pairs,
            X=np.random.default_rng(1).random((2, 3)),
            labeled_indices=np.array([0, 1]),
            labeled_values=np.array([1, 0]),
        )
        oracle = LabelOracle({pairs[0]}, budget=5)
        model = ActiveIter(oracle).fit(task)
        assert model.queried_ == ()


class TestDegenerateTasks:
    def test_no_positive_labels_does_not_crash(self):
        """All-negative supervision: degenerate but must not explode."""
        pairs = [(f"l{i}", f"r{i}") for i in range(5)]
        task = AlignmentTask(
            pairs=pairs,
            X=np.random.default_rng(2).random((5, 3)),
            labeled_indices=np.array([0, 1]),
            labeled_values=np.array([0, 0]),
        )
        model = IterMPMD().fit(task)
        assert set(np.unique(model.labels_)) <= {0, 1}

    def test_single_candidate_task(self):
        task = AlignmentTask(
            pairs=[("l", "r")],
            X=np.ones((1, 2)),
            labeled_indices=np.array([0]),
            labeled_values=np.array([1]),
        )
        model = IterMPMD().fit(task)
        assert model.labels_.tolist() == [1]

    def test_empty_candidate_metrics_rejected(self):
        from repro.ml.metrics import classification_report

        with pytest.raises(ExperimentError):
            classification_report(np.array([]), np.array([]))


class TestProtocolEdges:
    def test_anchorless_pair_rejected_by_protocol(self):
        from repro.eval.protocol import ProtocolConfig, build_splits
        from repro.networks.aligned import AlignedPair
        from repro.networks.builders import SocialNetworkBuilder

        left = SocialNetworkBuilder("l").add_users(["a"]).build()
        right = SocialNetworkBuilder("r").add_users(["b"]).build()
        pair = AlignedPair(left, right, [])
        with pytest.raises(ExperimentError, match="no anchors"):
            next(iter(build_splits(pair, ProtocolConfig())))

    def test_oversized_negative_request_rejected(self, handmade_pair):
        from repro.eval.protocol import sample_negatives

        with pytest.raises(ExperimentError, match="cannot sample"):
            sample_negatives(handmade_pair, 10_000, np.random.default_rng(0))


class TestPUCheckpointResume:
    """A PU-mode SVM active fit interrupted mid-loop resumes exactly.

    PU training touches every streamed candidate row, so its dual box
    and shrink state are part of what the checkpoint must carry; a
    resume that refit from scratch (or with the wrong mode) would
    diverge from the uninterrupted trajectory.
    """

    def _build(self, pair, split, checkpoint=None):
        from repro.engine import AlignmentSession, StreamedAlignmentTask
        from repro.meta.diagrams import standard_diagram_family
        from repro.ml.backends import make_backend

        positives = {
            split.candidates[i]
            for i in range(len(split.candidates))
            if split.truth[i] == 1
        }
        session = AlignmentSession(
            pair,
            family=standard_diagram_family(),
            known_anchors=split.train_positive_pairs,
        )
        task = StreamedAlignmentTask.from_pairs(
            session,
            list(split.candidates),
            split.train_indices,
            split.truth[split.train_indices],
            block_size=32,
        )
        model = ActiveIter(
            LabelOracle(positives, budget=8),
            batch_size=2,
            session=session,
            refresh_features=True,
            checkpoint=checkpoint,
            backend=make_backend("svm-pu", unlabeled_C=0.05, seed=0),
            positive_threshold=0.0,
        )
        return model, task

    def test_resume_is_byte_identical(self, tiny_synthetic_pair, tmp_path):
        from repro.eval.protocol import ProtocolConfig, build_splits
        from repro.exceptions import CheckpointInterrupt
        from repro.store import SessionCheckpoint

        config = ProtocolConfig(
            np_ratio=5, sample_ratio=1.0, n_repeats=1, seed=3
        )
        split = next(iter(build_splits(tiny_synthetic_pair, config)))

        reference, reference_task = self._build(tiny_synthetic_pair, split)
        reference.fit(reference_task)
        assert len(reference.queried_) > 0

        interrupted, task = self._build(
            tiny_synthetic_pair,
            split,
            checkpoint=SessionCheckpoint(tmp_path, interrupt_after=2),
        )
        with pytest.raises(CheckpointInterrupt):
            interrupted.fit(task)

        # The snapshot carries the PU mode (a supervised resume must
        # not silently adopt it) and the solver's shrink telemetry.
        _, payload = SessionCheckpoint(tmp_path).load()
        assert payload["backend"]["mode"] == "pu"
        assert payload["backend"]["svc"]["shrink_stats"]

        resumed, resumed_task = self._build(
            tiny_synthetic_pair,
            split,
            checkpoint=SessionCheckpoint(tmp_path),
        )
        resumed.fit(resumed_task)
        assert resumed.queried_ == reference.queried_
        assert np.array_equal(resumed.labels_, reference.labels_)
        assert np.array_equal(resumed.weights_, reference.weights_)

    def test_supervised_resume_of_pu_checkpoint_rejected(
        self, tiny_synthetic_pair, tmp_path
    ):
        from repro.eval.protocol import ProtocolConfig, build_splits
        from repro.exceptions import CheckpointInterrupt
        from repro.ml.backends import SVMBackend
        from repro.store import SessionCheckpoint

        config = ProtocolConfig(
            np_ratio=5, sample_ratio=1.0, n_repeats=1, seed=3
        )
        split = next(iter(build_splits(tiny_synthetic_pair, config)))
        interrupted, task = self._build(
            tiny_synthetic_pair,
            split,
            checkpoint=SessionCheckpoint(tmp_path, interrupt_after=2),
        )
        with pytest.raises(CheckpointInterrupt):
            interrupted.fit(task)
        _, payload = SessionCheckpoint(tmp_path).load()
        with pytest.raises(ModelError, match="'pu'-mode"):
            SVMBackend(mode="supervised").load_state_dict(
                payload["backend"]
            )

    def test_backendless_resume_of_backend_checkpoint_rejected(
        self, tiny_synthetic_pair, tmp_path
    ):
        """Resuming without a backend must not silently refit with ridge."""
        from repro.eval.protocol import ProtocolConfig, build_splits
        from repro.exceptions import CheckpointInterrupt
        from repro.store import SessionCheckpoint

        config = ProtocolConfig(
            np_ratio=5, sample_ratio=1.0, n_repeats=1, seed=3
        )
        split = next(iter(build_splits(tiny_synthetic_pair, config)))
        interrupted, task = self._build(
            tiny_synthetic_pair,
            split,
            checkpoint=SessionCheckpoint(tmp_path, interrupt_after=2),
        )
        with pytest.raises(CheckpointInterrupt):
            interrupted.fit(task)

        positives = {
            split.candidates[i]
            for i in range(len(split.candidates))
            if split.truth[i] == 1
        }
        bare = ActiveIter(
            LabelOracle(positives, budget=8),
            batch_size=2,
            refresh_features=False,
            checkpoint=SessionCheckpoint(tmp_path),
        )
        with pytest.raises(ModelError, match="backend state"):
            bare.fit(task)

"""Tests for repro.core.itermpmd."""

import numpy as np
import pytest

from repro.core.base import AlignmentTask
from repro.core.itermpmd import IterMPMD
from repro.exceptions import ModelError
from repro.matching.constraints import satisfies_one_to_one
from repro.matching.greedy import greedy_link_selection
from repro.meta.features import FeatureExtractor
from repro.ml.ridge import RidgeSolver


def _synthetic_task(pair, np_ratio=5, train_fraction=0.3, seed=0):
    """Candidate set + task from a synthetic aligned pair."""
    rng = np.random.default_rng(seed)
    positives = sorted(pair.anchors, key=repr)
    lefts, rights = pair.left_users(), pair.right_users()
    negatives = []
    seen = set(positives)
    while len(negatives) < np_ratio * len(positives):
        cand = (
            lefts[rng.integers(len(lefts))],
            rights[rng.integers(len(rights))],
        )
        if cand not in seen:
            seen.add(cand)
            negatives.append(cand)
    candidates = positives + negatives
    truth = np.array([1] * len(positives) + [0] * len(negatives))
    n_train_pos = max(2, int(train_fraction * len(positives)))
    n_train_neg = max(2, int(train_fraction * len(negatives)))
    train_idx = np.concatenate(
        [
            np.arange(n_train_pos),
            len(positives) + np.arange(n_train_neg),
        ]
    )
    extractor = FeatureExtractor(
        pair, known_anchors=[candidates[i] for i in train_idx if truth[i] == 1]
    )
    X = extractor.extract(candidates)
    task = AlignmentTask(
        pairs=candidates,
        X=X,
        labeled_indices=train_idx,
        labeled_values=truth[train_idx],
    )
    return task, truth


def _closed_form_alternation(task, c=1.0, tol=0.5, max_iterations=30):
    """The paper's (1-1)/(1-2) alternation, written out as a reference.

    Step (1-1) is the closed-form ridge ``w = c (I + c XᵀΩX)⁻¹ XᵀΩy``
    with balanced Ω (trusted positives weighted by #others/#positives);
    step (1-2) relabels the free candidates greedily one-to-one, with
    the known positives' endpoints blocked.
    """
    clamped, values = task.labeled_indices, task.labeled_values
    positives = clamped[values == 1]
    omega = np.ones(task.n_candidates)
    omega[positives] = (task.n_candidates - positives.size) / positives.size
    solver = RidgeSolver(task.X, c=c, sample_weight=omega)
    free = np.setdiff1d(np.arange(task.n_candidates), clamped)
    free_pairs = [task.pairs[i] for i in free]
    blocked_left = {task.pairs[i][0] for i in positives}
    blocked_right = {task.pairs[i][1] for i in positives}

    y = np.zeros(task.n_candidates)
    y[clamped] = values
    w = solver.solve(y)
    scores = task.X @ w
    trace = []
    for _ in range(max_iterations):
        new_y = y.copy()
        new_y[free] = greedy_link_selection(
            free_pairs,
            scores[free],
            threshold=0.5,
            blocked_left=blocked_left,
            blocked_right=blocked_right,
        )
        delta = float(np.abs(new_y - y).sum())
        trace.append(delta)
        y = new_y
        w = solver.solve(y)
        scores = task.X @ w
        if delta <= tol:
            break
    return y, w, scores, trace


class TestIterMPMD:
    def test_validation(self):
        with pytest.raises(ModelError):
            IterMPMD(max_iterations=0)
        with pytest.raises(ModelError):
            IterMPMD(tol=-1)
        with pytest.raises(ModelError):
            IterMPMD(positive_weight=0)

    def test_fit_produces_consistent_result(self, tiny_synthetic_pair):
        task, truth = _synthetic_task(tiny_synthetic_pair)
        model = IterMPMD().fit(task)
        assert model.labels_.shape == (task.n_candidates,)
        assert set(np.unique(model.labels_)) <= {0, 1}
        assert model.scores_.shape == (task.n_candidates,)
        assert model.weights_ is not None

    def test_known_labels_clamped(self, tiny_synthetic_pair):
        task, _ = _synthetic_task(tiny_synthetic_pair)
        model = IterMPMD().fit(task)
        assert np.array_equal(
            model.labels_[task.labeled_indices], task.labeled_values
        )

    def test_prediction_satisfies_one_to_one(self, tiny_synthetic_pair):
        task, _ = _synthetic_task(tiny_synthetic_pair)
        model = IterMPMD().fit(task)
        assert satisfies_one_to_one(task.pairs, model.labels_)

    def test_recovers_unlabeled_anchors(self, small_synthetic_pair):
        """PU iteration must find a meaningful share of test anchors."""
        task, truth = _synthetic_task(small_synthetic_pair, seed=3)
        model = IterMPMD().fit(task)
        test_mask = task.unlabeled_mask
        found = np.sum((model.labels_ == 1) & (truth == 1) & test_mask)
        total = np.sum((truth == 1) & test_mask)
        assert found / total > 0.15

    def test_convergence_trace_recorded_and_decreasing_tail(
        self, tiny_synthetic_pair
    ):
        task, _ = _synthetic_task(tiny_synthetic_pair)
        model = IterMPMD(tol=0.0, max_iterations=10).fit(task)
        trace = model.result_.convergence_trace
        assert len(trace) >= 1
        # The final recorded delta is the smallest (converged).
        assert trace[-1] <= trace[0]

    def test_converges_quickly(self, tiny_synthetic_pair):
        """Figure 3 behaviour: y stabilizes within a few iterations."""
        task, _ = _synthetic_task(tiny_synthetic_pair)
        model = IterMPMD(tol=0.5, max_iterations=30).fit(task)
        assert len(model.result_.convergence_trace) <= 10

    def test_unweighted_variant_runs(self, tiny_synthetic_pair):
        task, _ = _synthetic_task(tiny_synthetic_pair)
        model = IterMPMD(positive_weight=1.0).fit(task)
        assert model.result_ is not None

    @pytest.mark.parametrize("c", [1.0, 0.25])
    def test_matches_closed_form_reference(self, small_synthetic_pair, c):
        """The backend loop is bitwise the paper's closed-form step (1-1)."""
        task, _ = _synthetic_task(small_synthetic_pair, seed=3)
        y, w, scores, trace = _closed_form_alternation(task, c=c)
        assert len(trace) > 1, "need a multi-iteration alternation"
        model = IterMPMD(c=c).fit(task)
        assert np.array_equal(model.weights_, w)
        assert np.array_equal(model.scores_, scores)
        assert np.array_equal(model.labels_, y.astype(np.int64))
        assert model.result_.convergence_trace == tuple(trace)

    def test_deterministic(self, tiny_synthetic_pair):
        task_a, _ = _synthetic_task(tiny_synthetic_pair)
        task_b, _ = _synthetic_task(tiny_synthetic_pair)
        labels_a = IterMPMD().fit(task_a).labels_
        labels_b = IterMPMD().fit(task_b).labels_
        assert np.array_equal(labels_a, labels_b)


class TestAlternatingState:
    def test_from_task_builds_invariants(self, tiny_synthetic_pair):
        from repro.core.itermpmd import AlternatingState

        task, _ = _synthetic_task(tiny_synthetic_pair)
        state = AlternatingState.from_task(
            task, task.labeled_indices, task.labeled_values
        )
        assert len(state.free_pairs) == task.n_candidates - task.labeled_indices.size
        assert set(state.free_indices) == (
            set(range(task.n_candidates)) - set(task.labeled_indices.tolist())
        )
        for index, value in zip(task.labeled_indices, task.labeled_values):
            if value == 1:
                left_user, right_user = task.pairs[index]
                assert left_user in state.blocked_left
                assert right_user in state.blocked_right

    def test_clamp_matches_rebuild(self, tiny_synthetic_pair):
        """Incremental narrowing equals building from the grown clamp set."""
        from repro.core.itermpmd import AlternatingState

        task, _ = _synthetic_task(tiny_synthetic_pair)
        state = AlternatingState.from_task(
            task, task.labeled_indices, task.labeled_values
        )
        new_indices = np.array(sorted(set(state.free_indices[:4])), dtype=np.int64)
        new_values = np.array(
            [1, 0, 1, 0][: new_indices.size], dtype=np.int64
        )
        state.clamp(task, new_indices, new_values)

        grown_indices = np.concatenate([task.labeled_indices, new_indices])
        grown_values = np.concatenate([task.labeled_values, new_values])
        rebuilt = AlternatingState.from_task(task, grown_indices, grown_values)
        assert np.array_equal(state.free_indices, rebuilt.free_indices)
        assert state.free_pairs == rebuilt.free_pairs
        assert state.blocked_left == rebuilt.blocked_left
        assert state.blocked_right == rebuilt.blocked_right

    def test_clamp_empty_is_noop(self, tiny_synthetic_pair):
        from repro.core.itermpmd import AlternatingState

        task, _ = _synthetic_task(tiny_synthetic_pair)
        state = AlternatingState.from_task(
            task, task.labeled_indices, task.labeled_values
        )
        free_before = state.free_indices.copy()
        state.clamp(task, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert np.array_equal(state.free_indices, free_before)

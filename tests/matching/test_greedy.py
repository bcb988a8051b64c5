"""Tests for repro.matching.greedy."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConstraintViolationError
from repro.matching import greedy
from repro.matching.constraints import satisfies_one_to_one
from repro.matching.greedy import (
    greedy_link_selection,
    greedy_walk,
    selection_objective,
    stable_descending,
)
from repro.matching.hungarian import exact_link_selection


class TestGreedySelection:
    def test_picks_best_per_user(self):
        pairs = [("a", "x"), ("a", "y"), ("b", "x")]
        scores = np.array([0.9, 0.8, 0.7])
        labels = greedy_link_selection(pairs, scores)
        assert labels.tolist() == [1, 0, 0]

    def test_second_best_gets_leftovers(self):
        pairs = [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")]
        scores = np.array([0.9, 0.8, 0.85, 0.6])
        labels = greedy_link_selection(pairs, scores)
        # (a,x)=0.9 first; (b,x) blocked by x; (a,y) blocked by a; (b,y) ok.
        assert labels.tolist() == [1, 0, 0, 1]

    def test_threshold_excludes_weak_links(self):
        pairs = [("a", "x"), ("b", "y")]
        scores = np.array([0.51, 0.49])
        labels = greedy_link_selection(pairs, scores, threshold=0.5)
        assert labels.tolist() == [1, 0]

    def test_threshold_boundary_is_exclusive(self):
        labels = greedy_link_selection([("a", "x")], np.array([0.5]))
        assert labels.tolist() == [0]

    def test_blocked_endpoints_respected(self):
        pairs = [("a", "x"), ("b", "y")]
        scores = np.array([0.9, 0.9])
        labels = greedy_link_selection(
            pairs, scores, blocked_left={"a"}, blocked_right=set()
        )
        assert labels.tolist() == [0, 1]
        labels = greedy_link_selection(
            pairs, scores, blocked_left=set(), blocked_right={"y"}
        )
        assert labels.tolist() == [1, 0]

    def test_deterministic_tie_break_by_order(self):
        pairs = [("a", "x"), ("a", "y")]
        scores = np.array([0.8, 0.8])
        labels = greedy_link_selection(pairs, scores)
        assert labels.tolist() == [1, 0]

    def test_empty_input(self):
        assert greedy_link_selection([], np.array([])).size == 0

    def test_nan_score_rejected(self):
        with pytest.raises(ConstraintViolationError):
            greedy_link_selection([("a", "x"), ("b", "y")], np.array([0.9, np.nan]))

    def test_score_length_mismatch(self):
        with pytest.raises(ConstraintViolationError):
            greedy_link_selection([("a", "x")], np.array([0.1, 0.2]))

    def test_selection_objective(self):
        scores = np.array([0.9, 0.2, 0.7])
        labels = np.array([1, 0, 1])
        assert selection_objective(scores, labels) == pytest.approx(1.6)


@st.composite
def _candidate_problem(draw):
    n_left = draw(st.integers(2, 6))
    n_right = draw(st.integers(2, 6))
    pairs = [(f"l{i}", f"r{j}") for i in range(n_left) for j in range(n_right)]
    scores = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    return pairs, np.asarray(scores)


@settings(max_examples=60, deadline=None)
@given(problem=_candidate_problem())
def test_greedy_always_satisfies_one_to_one(problem):
    pairs, scores = problem
    labels = greedy_link_selection(pairs, scores)
    assert satisfies_one_to_one(pairs, labels)


@settings(max_examples=60, deadline=None)
@given(problem=_candidate_problem())
def test_greedy_selects_only_above_threshold(problem):
    pairs, scores = problem
    labels = greedy_link_selection(pairs, scores, threshold=0.5)
    assert np.all(scores[labels == 1] > 0.5)


@settings(max_examples=60, deadline=None)
@given(problem=_candidate_problem())
def test_greedy_is_maximal(problem):
    """No unselected admissible link has both endpoints free."""
    pairs, scores = problem
    labels = greedy_link_selection(pairs, scores, threshold=0.5)
    used_left = {pairs[i][0] for i in np.flatnonzero(labels)}
    used_right = {pairs[i][1] for i in np.flatnonzero(labels)}
    for index, (left_user, right_user) in enumerate(pairs):
        if labels[index] == 0 and scores[index] > 0.5:
            assert left_user in used_left or right_user in used_right


@settings(max_examples=60, deadline=None)
@given(problem=_candidate_problem())
def test_greedy_half_approximation(problem):
    """Greedy captures at least half the optimum's selected score."""
    pairs, scores = problem
    greedy = greedy_link_selection(pairs, scores, threshold=0.5)
    exact = exact_link_selection(pairs, scores, threshold=0.5)
    greedy_value = selection_objective(scores, greedy)
    exact_value = selection_objective(scores, exact)
    assert greedy_value >= 0.5 * exact_value - 1e-9


def _reference_greedy(pairs, scores, threshold, blocked_left, blocked_right):
    """The plain greedy: every link in stable descending score order."""
    used_left, used_right = set(blocked_left), set(blocked_right)
    labels = [0] * len(pairs)
    for index in sorted(range(len(pairs)), key=lambda k: -scores[k]):
        if scores[index] <= threshold:
            break
        left_user, right_user = pairs[index]
        if left_user in used_left or right_user in used_right:
            continue
        labels[index] = 1
        used_left.add(left_user)
        used_right.add(right_user)
    return labels


_SCORES = st.one_of(
    st.sampled_from([-np.inf, 0.0, 0.25, 0.5, 0.75, 1.0, np.inf]),
    st.floats(-2.0, 2.0, allow_nan=False),
)


@st.composite
def _greedy_problem(draw):
    """Links over few users (so ties and conflicts are common), scores
    that may sit on the threshold or be infinite, and blocked users."""
    lefts = [f"l{i}" for i in range(draw(st.integers(1, 5)))]
    rights = [f"r{j}" for j in range(draw(st.integers(1, 5)))]
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(lefts), st.sampled_from(rights)), max_size=20
        )
    )
    threshold = draw(st.sampled_from([0.5, 0.0, -np.inf]))
    scores = np.array(draw(st.lists(_SCORES, min_size=len(pairs), max_size=len(pairs))))
    mode = draw(st.sampled_from(["mixed", "all-above", "none-above"]))
    if mode == "all-above":
        scores = np.where(scores > threshold, scores, np.inf)
    elif mode == "none-above":
        scores = np.where(scores > threshold, threshold, scores)
    blocked_left = draw(st.sets(st.sampled_from(lefts + ["ghost"])))
    blocked_right = draw(st.sets(st.sampled_from(rights + ["ghost"])))
    return pairs, scores, threshold, blocked_left, blocked_right


@pytest.mark.parametrize("below", [0, 1])
def test_long_tie_runs_keep_candidate_order(below):
    """Ties past a sort's small-input cutoff still break by candidate
    order, with and without links below the threshold."""
    order = np.random.default_rng(0).permutation(15 * 15)
    pairs = [(f"l{k // 15}", f"r{k % 15}") for k in order.tolist()]
    scores = np.where(order % 4 == 0, 0.9, 0.75)
    scores[:below] = 0.1
    labels = greedy_link_selection(pairs, scores, blocked_left={"l3"})
    assert labels.tolist() == _reference_greedy(pairs, scores, 0.5, {"l3"}, set())


@settings(max_examples=300, deadline=None)
@given(problem=_greedy_problem())
def test_greedy_matches_the_plain_loop(problem):
    pairs, scores, threshold, blocked_left, blocked_right = problem
    labels = greedy_link_selection(
        pairs,
        scores,
        threshold=threshold,
        blocked_left=blocked_left,
        blocked_right=blocked_right,
    )
    assert labels.dtype == np.int64
    assert labels.tolist() == _reference_greedy(
        pairs, scores, threshold, blocked_left, blocked_right
    )


@settings(max_examples=200, deadline=None)
@given(problem=_greedy_problem(), chunk=st.integers(1, 5))
def test_walk_over_codes_matches_the_plain_loop_in_small_chunks(problem, chunk):
    """The integer walk, with chunks small enough that the numpy
    prefilter of later chunks sees endpoints taken by earlier ones."""
    pairs, scores, threshold, blocked_left, blocked_right = problem
    left_ids = sorted({left for left, _ in pairs} | set(blocked_left))
    right_ids = sorted({right for _, right in pairs} | set(blocked_right))
    left = [left_ids.index(left_user) for left_user, _ in pairs]
    right = [right_ids.index(right_user) for _, right_user in pairs]
    with mock.patch.object(greedy, "_WALK_CHUNK", chunk):
        picks = greedy_walk(
            left,
            right,
            scores,
            threshold=threshold,
            blocked_left=[left_ids.index(user) for user in blocked_left],
            blocked_right=[right_ids.index(user) for user in blocked_right],
        )
    expected = _reference_greedy(
        pairs, scores, threshold, blocked_left, blocked_right
    )
    assert sorted(picks.tolist()) == [k for k, label in enumerate(expected) if label]
    # Acceptance order is the stable descending order of the picks.
    assert picks.tolist() == sorted(picks.tolist(), key=lambda k: -scores[k])


def test_walk_rejects_nan():
    with pytest.raises(ConstraintViolationError, match="NaN"):
        greedy_walk([0, 1], [0, 1], [0.9, np.nan])


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.sampled_from([-np.inf, -0.0, 0.0, 0.5, 1.0, np.inf]),
            st.floats(-2.0, 2.0, allow_nan=False),
        ),
        max_size=60,
    )
)
def test_stable_descending_is_the_stable_argsort(values):
    values = np.asarray(values, dtype=np.float64)
    assert np.array_equal(
        stable_descending(values), np.argsort(-values, kind="stable")
    )

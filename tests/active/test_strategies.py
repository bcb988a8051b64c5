"""Tests for repro.active.strategies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.active.strategies import (
    ConflictFalseNegativeStrategy,
    MarginQueryStrategy,
    RandomQueryStrategy,
    ScoredBlock,
)
from repro.exceptions import ReproError
from repro.matching.constraints import conflicting_indices

# Candidate layout: left users a, b; right users x, y.
PAIRS = [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")]


def _blockify_inputs(pairs, scores, labels, queryable, block_size):
    """Chop whole-of-H strategy inputs into ScoredBlock records."""
    blocks = []
    for start in range(0, len(pairs), block_size):
        end = start + block_size
        blocks.append(
            ScoredBlock(
                pairs=pairs[start:end],
                scores=np.asarray(scores, dtype=np.float64)[start:end],
                labels=np.asarray(labels)[start:end],
                queryable=np.asarray(queryable, dtype=bool)[start:end],
                offset=start,
            )
        )
    return blocks


class TestConflictStrategy:
    def test_selects_near_miss_dominant_negative(self):
        strategy = ConflictFalseNegativeStrategy(closeness_threshold=0.05)
        # (a,x) positive with 0.60; (a,y) negative scored 0.58: close to
        # its conflicting winner -> near miss.  It also dominates the
        # other conflicting positive (b,y)=0.30 via user y.
        scores = np.array([0.60, 0.58, 0.10, 0.30])
        labels = np.array([1, 0, 0, 1])
        queryable = np.array([True, True, True, True])
        picks = strategy.select(PAIRS, scores, labels, queryable, batch_size=1)
        assert picks == [1]

    def test_not_near_miss_excluded_without_fallback(self):
        strategy = ConflictFalseNegativeStrategy(
            closeness_threshold=0.05, allow_fallback=False
        )
        # Negative (a,y)=0.3 is far from both conflicting positives
        # ((a,x)=0.9 and (b,y)=0.45): not a near miss.
        scores = np.array([0.90, 0.30, 0.10, 0.45])
        labels = np.array([1, 0, 0, 1])
        queryable = np.ones(4, dtype=bool)
        picks = strategy.select(PAIRS, scores, labels, queryable, batch_size=2)
        assert picks == []

    def test_requires_dominance_over_some_positive(self):
        strategy = ConflictFalseNegativeStrategy(allow_fallback=False)
        # (a,y)=0.58 is close to (a,x)=0.60 but dominates no positive:
        # the other conflicting positive (b,y)=0.70 beats it.
        scores = np.array([0.60, 0.58, 0.10, 0.70])
        labels = np.array([1, 0, 0, 1])
        picks = strategy.select(
            PAIRS, scores, labels, np.ones(4, dtype=bool), batch_size=2
        )
        assert picks == []

    def test_fallback_fills_batch_with_top_scores(self):
        strategy = ConflictFalseNegativeStrategy(allow_fallback=True)
        scores = np.array([0.90, 0.30, 0.10, 0.25])
        labels = np.array([1, 0, 0, 1])
        queryable = np.array([False, True, True, False])
        picks = strategy.select(PAIRS, scores, labels, queryable, batch_size=2)
        assert picks == [1, 2]  # highest-scoring queryable negatives

    def test_respects_queryable_mask(self):
        strategy = ConflictFalseNegativeStrategy()
        scores = np.array([0.60, 0.58, 0.10, 0.30])
        labels = np.array([1, 0, 0, 1])
        queryable = np.array([False, False, True, False])
        picks = strategy.select(PAIRS, scores, labels, queryable, batch_size=5)
        assert picks == [2]

    def test_batch_size_limits(self):
        strategy = ConflictFalseNegativeStrategy()
        scores = np.array([0.60, 0.58, 0.10, 0.30])
        labels = np.array([1, 0, 0, 1])
        picks = strategy.select(
            PAIRS, scores, labels, np.ones(4, dtype=bool), batch_size=2
        )
        assert len(picks) == 2

    def test_negative_threshold_rejected(self):
        with pytest.raises(ReproError):
            ConflictFalseNegativeStrategy(closeness_threshold=-0.1)

    def test_input_validation(self):
        strategy = ConflictFalseNegativeStrategy()
        with pytest.raises(ReproError):
            strategy.select(PAIRS, np.ones(3), np.zeros(4), np.ones(4, bool), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        """A NaN positive must not be skipped silently, nor an inf ranked."""
        strategy = ConflictFalseNegativeStrategy()
        scores = np.array([0.60, 0.58, bad, bad])
        labels = np.array([1, 0, 0, 1])
        queryable = np.ones(4, dtype=bool)
        with pytest.raises(ReproError, match="2 non-finite"):
            strategy.select(PAIRS, scores, labels, queryable, 1)
        with pytest.raises(ReproError, match="2 non-finite"):
            strategy.select_streamed(
                _blockify_inputs(PAIRS, scores, labels, queryable, 2), 1
            )


def _paper_rule(pairs, scores, labels, queryable, batch_size, tau, fallback):
    """The paper's conflict rule, written plainly over conflicting_indices."""
    conflicts = conflicting_indices(pairs)
    pool = [i for i in range(len(pairs)) if queryable[i] and labels[i] == 0]
    ranked = []
    for index in pool:
        winners = [other for other in conflicts[index] if labels[other] == 1]
        near_miss = any(
            abs(scores[other] - scores[index]) <= tau for other in winners
        )
        dominance = max(
            (scores[index] - scores[other] for other in winners),
            default=-np.inf,
        )
        if near_miss and dominance > 0:
            ranked.append((-dominance, index))
    picks = [index for _, index in sorted(ranked)[:batch_size]]
    if len(picks) < batch_size and fallback:
        rest = sorted((-scores[i], i) for i in pool if i not in picks)
        picks += [index for _, index in rest[: batch_size - len(picks)]]
    return picks


@st.composite
def _conflict_problem(draw):
    """Few users (so duplicates on both sides), any 0/1 labels, scores on
    a dyadic grid (exact ties, |Δ| == τ exactly) or anywhere."""
    n = draw(st.integers(0, 14))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    users = column(st.tuples(st.integers(0, 3), st.integers(0, 3)))
    if draw(st.booleans()):
        values = st.integers(-4, 4).map(lambda k: k * 0.25)
    else:
        values = st.floats(-2, 2, allow_nan=False)
    bounds = sorted(draw(st.sets(st.integers(0, n))) | {0, n})
    return {
        "pairs": [(f"l{left}", f"r{right}") for left, right in users],
        "scores": np.array(column(values), dtype=np.float64),
        "labels": np.array(column(st.sampled_from([0, 1])), dtype=np.int64),
        "queryable": np.array(column(st.booleans()), dtype=bool),
        "batch_size": draw(st.sampled_from([0, 1, 2, n + 1])),
        "tau": draw(st.sampled_from([0.0, 0.05, 0.25, 0.5])),
        "fallback": draw(st.booleans()),
        "blocks": list(zip(bounds, bounds[1:])),
    }


@settings(max_examples=300, deadline=None)
@given(problem=_conflict_problem())
def test_conflict_selection_matches_paper_rule(problem):
    """select and select_streamed equal the plain rule, for any input."""
    pairs, scores = problem["pairs"], problem["scores"]
    labels, queryable = problem["labels"], problem["queryable"]
    batch_size = problem["batch_size"]
    expected = _paper_rule(
        pairs, scores, labels, queryable, batch_size,
        problem["tau"], problem["fallback"],
    )
    strategy = ConflictFalseNegativeStrategy(
        problem["tau"], problem["fallback"]
    )
    picks = strategy.select(pairs, scores, labels, queryable, batch_size)
    assert picks == expected
    blocks = [
        ScoredBlock(
            pairs=pairs[start:end],
            scores=scores[start:end],
            labels=labels[start:end],
            queryable=queryable[start:end],
            offset=start,
        )
        for start, end in problem["blocks"]
    ]
    assert strategy.select_streamed(blocks, batch_size) == expected


class TestRandomStrategy:
    def test_picks_only_queryable(self):
        strategy = RandomQueryStrategy(seed=0)
        queryable = np.array([True, False, True, False])
        for _ in range(10):
            picks = strategy.select(
                PAIRS, np.zeros(4), np.zeros(4), queryable, batch_size=2
            )
            assert set(picks) <= {0, 2}

    def test_no_duplicates(self):
        strategy = RandomQueryStrategy(seed=1)
        picks = strategy.select(
            PAIRS, np.zeros(4), np.zeros(4), np.ones(4, bool), batch_size=4
        )
        assert len(picks) == len(set(picks)) == 4

    def test_empty_pool(self):
        strategy = RandomQueryStrategy()
        picks = strategy.select(
            PAIRS, np.zeros(4), np.zeros(4), np.zeros(4, bool), batch_size=2
        )
        assert picks == []

    def test_deterministic_given_seed(self):
        a = RandomQueryStrategy(seed=5).select(
            PAIRS, np.zeros(4), np.zeros(4), np.ones(4, bool), 2
        )
        b = RandomQueryStrategy(seed=5).select(
            PAIRS, np.zeros(4), np.zeros(4), np.ones(4, bool), 2
        )
        assert a == b


class TestMarginStrategy:
    def test_picks_closest_to_boundary(self):
        strategy = MarginQueryStrategy(boundary=0.5)
        scores = np.array([0.1, 0.49, 0.95, 0.55])
        picks = strategy.select(
            PAIRS, scores, np.zeros(4), np.ones(4, bool), batch_size=2
        )
        assert picks == [1, 3]

    def test_respects_mask_and_batch(self):
        strategy = MarginQueryStrategy()
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        queryable = np.array([False, True, True, True])
        picks = strategy.select(PAIRS, scores, np.zeros(4), queryable, 2)
        assert picks == [1, 2]


class TestSelectStreamed:
    """select_streamed must pick exactly what select picks."""

    def _rig(self, n=60, seed=0):
        """A synthetic candidate space with plenty of conflicts."""
        rng = np.random.default_rng(seed)
        pairs = [
            (f"l{rng.integers(0, 12)}", f"r{rng.integers(0, 12)}")
            for _ in range(n)
        ]
        scores = rng.normal(loc=0.5, scale=0.3, size=n)
        labels = (rng.random(n) < 0.25).astype(np.int64)
        queryable = rng.random(n) < 0.8
        return pairs, scores, labels, queryable

    @pytest.mark.parametrize("block_size", [1, 7, 16, 100])
    @pytest.mark.parametrize(
        "make_strategy",
        [
            lambda: ConflictFalseNegativeStrategy(),
            lambda: ConflictFalseNegativeStrategy(allow_fallback=False),
            lambda: MarginQueryStrategy(boundary=0.4),
        ],
        ids=["conflict", "conflict-strict", "margin"],
    )
    def test_matches_select(self, make_strategy, block_size):
        pairs, scores, labels, queryable = self._rig()
        for batch_size in (1, 5, 200):
            expected = make_strategy().select(
                pairs, scores, labels, queryable, batch_size
            )
            streamed = make_strategy().select_streamed(
                _blockify_inputs(pairs, scores, labels, queryable, block_size),
                batch_size,
            )
            assert streamed == expected

    @pytest.mark.parametrize("block_size", [1, 7, 100])
    def test_random_matches_select(self, block_size):
        pairs, scores, labels, queryable = self._rig(seed=3)
        expected = RandomQueryStrategy(seed=42).select(
            pairs, scores, labels, queryable, 5
        )
        streamed = RandomQueryStrategy(seed=42).select_streamed(
            _blockify_inputs(pairs, scores, labels, queryable, block_size), 5
        )
        assert streamed == expected

    def test_empty_stream(self):
        assert ConflictFalseNegativeStrategy().select_streamed([], 5) == []
        assert MarginQueryStrategy().select_streamed([], 5) == []
        assert RandomQueryStrategy().select_streamed([], 5) == []

    def test_block_validation(self):
        bad = ScoredBlock(
            pairs=PAIRS,
            scores=np.ones(3),
            labels=np.zeros(4),
            queryable=np.ones(4, dtype=bool),
        )
        with pytest.raises(ReproError):
            ConflictFalseNegativeStrategy().select_streamed([bad], 1)

    def test_conflicts_across_block_boundaries(self):
        """A positive in one block must rank negatives in another."""
        strategy = ConflictFalseNegativeStrategy(allow_fallback=False)
        scores = np.array([0.60, 0.58, 0.10, 0.30])
        labels = np.array([1, 0, 0, 1])
        queryable = np.ones(4, dtype=bool)
        picks = strategy.select_streamed(
            _blockify_inputs(PAIRS, scores, labels, queryable, 1), 2
        )
        assert picks == strategy.select(PAIRS, scores, labels, queryable, 2)
        assert picks == [1]


@pytest.mark.parametrize(
    "make_strategy",
    [ConflictFalseNegativeStrategy, RandomQueryStrategy, MarginQueryStrategy],
    ids=["conflict", "random", "margin"],
)
@pytest.mark.parametrize("streamed", [False, True], ids=["select", "streamed"])
def test_negative_batch_size_rejected(make_strategy, streamed):
    """A negative batch would slice off the last picks; 0 picks none."""
    scores = np.array([0.9, 0.4, 0.45, 0.2])
    labels = np.array([1, 0, 0, 0])
    queryable = np.array([False, True, True, True])

    def select(batch_size):
        if streamed:
            blocks = _blockify_inputs(PAIRS, scores, labels, queryable, 2)
            return make_strategy().select_streamed(blocks, batch_size)
        return make_strategy().select(PAIRS, scores, labels, queryable, batch_size)

    assert select(0) == []
    with pytest.raises(ReproError, match="batch_size"):
        select(-1)

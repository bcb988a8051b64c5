"""Tests for repro.meta.proximity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.exceptions import FeatureError
from repro.meta.proximity import (
    ProximityMatrix,
    csr_values_at,
    dice_proximity,
    dice_scores,
    proximity_block,
)


def _prox(array) -> ProximityMatrix:
    return ProximityMatrix(sparse.csr_matrix(np.asarray(array, dtype=float)))


class TestScore:
    def test_definition(self):
        prox = _prox([[2, 0], [1, 3]])
        # s(0,0) = 2*2 / (rowsum0 + colsum0) = 4 / (2 + 3)
        assert prox.score(0, 0) == pytest.approx(4 / 5)

    def test_zero_denominator_is_zero(self):
        prox = _prox([[0, 0], [0, 0]])
        assert prox.score(0, 1) == 0.0

    def test_isolated_row_against_active_column(self):
        prox = _prox([[0, 0], [0, 5]])
        assert prox.score(0, 1) == 0.0

    def test_perfect_exclusive_match_scores_one(self):
        prox = _prox([[7, 0], [0, 0]])
        assert prox.score(0, 0) == 1.0


class TestVectorizedScores:
    def test_matches_scalar(self):
        counts = np.array([[2.0, 1.0, 0.0], [0.0, 4.0, 1.0]])
        prox = _prox(counts)
        lefts = np.array([0, 0, 1, 1])
        rights = np.array([0, 2, 1, 0])
        vector = prox.scores(lefts, rights)
        for k in range(4):
            assert vector[k] == pytest.approx(prox.score(lefts[k], rights[k]))

    def test_empty_input(self):
        prox = _prox([[1.0]])
        assert prox.scores(np.array([], dtype=int), np.array([], dtype=int)).size == 0

    def test_shape_mismatch_rejected(self):
        prox = _prox([[1.0]])
        with pytest.raises(FeatureError):
            prox.scores(np.array([0]), np.array([0, 0]))


class TestLookupBounds:
    @staticmethod
    def _matrix():
        # Row 1 holds 7 at column 0: the linearized key 3 that an
        # unchecked lookup of (0, 3) would alias onto.
        return sparse.csr_matrix(np.array([[0.0, 1.0, 0.0], [7.0, 0.0, 2.0]]))

    def test_column_past_the_shape_raises(self):
        with pytest.raises(FeatureError):
            csr_values_at(self._matrix(), np.array([0]), np.array([3]))

    @pytest.mark.parametrize(
        "rows, cols", [([-1], [0]), ([2], [0]), ([0], [-1]), ([0, 1, 2], [0, 0, 0])]
    )
    def test_any_position_outside_the_shape_raises(self, rows, cols):
        with pytest.raises(FeatureError):
            csr_values_at(self._matrix(), np.array(rows), np.array(cols))

    def test_negative_row_does_not_wrap_the_row_sums(self):
        with pytest.raises(FeatureError):
            ProximityMatrix(self._matrix()).scores(np.array([-1]), np.array([0]))


def test_dice_scores_match_the_masked_formula():
    values = np.array([0.0, 3.0, 1.0, 2.0, 5.0])
    denominators = np.array([0.0, 7.0, 0.0, 3.0, 11.0])
    nonzero = denominators > 0
    expected = np.zeros(5)
    expected[nonzero] = 2.0 * values[nonzero] / denominators[nonzero]
    assert dice_scores(values, denominators).tobytes() == expected.tobytes()


class TestDense:
    def test_matches_scalar(self):
        counts = np.array([[2.0, 1.0], [0.0, 4.0]])
        prox = _prox(counts)
        dense = prox.dense()
        for i in range(2):
            for j in range(2):
                assert dense[i, j] == pytest.approx(prox.score(i, j))


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.lists(st.integers(0, 5), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_scores_bounded_in_unit_interval(data):
    """Dice proximity is always in [0, 1]."""
    prox = dice_proximity(sparse.csr_matrix(np.asarray(data, dtype=float)))
    dense = prox.dense()
    assert np.all(dense >= 0.0)
    assert np.all(dense <= 1.0)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.lists(st.integers(0, 5), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_zero_count_implies_zero_score(data):
    counts = np.asarray(data, dtype=float)
    dense = dice_proximity(sparse.csr_matrix(counts)).dense()
    assert np.all(dense[counts == 0] == 0.0)


@st.composite
def _lookup_case(draw):
    """A small CSR matrix (sorted or not, int32 or int64 indices) and a
    batch of (row, col) queries, some possibly outside its shape.

    Any row may hold no entry.  A tall matrix fills only its first and
    last rows and a few between, and its queries favour those rows, so
    a batch's row window spans empty rows it does not touch.  Queries
    come in any order and may repeat (a drawn flag appends the batch
    reversed)."""
    n_rows = draw(st.one_of(st.integers(0, 6), st.integers(20, 60)))
    n_cols = draw(st.integers(0, 6))
    filled = set(range(n_rows))
    if n_rows > 6:
        filled = {0, n_rows - 1}
        filled.update(draw(st.lists(st.integers(1, n_rows - 2), max_size=3)))
    dense = np.zeros((n_rows, n_cols))
    indices, indptr = [], [0]
    shuffle = draw(st.booleans())
    for i in range(n_rows):
        columns = []
        if i in filled:
            columns = draw(
                st.lists(st.integers(0, max(n_cols - 1, 0)), unique=True)
            )
        columns = [j for j in columns if j < n_cols]
        if not shuffle:
            columns.sort()
        for j in columns:
            dense[i, j] = draw(st.integers(1, 9))
        indices.extend(columns)
        indptr.append(len(indices))
    index_dtype = draw(st.sampled_from([np.int32, np.int64]))
    matrix = sparse.csr_matrix(
        (
            dense[np.repeat(np.arange(n_rows), np.diff(indptr)), indices]
            if indices
            else np.zeros(0),
            np.asarray(indices, dtype=index_dtype),
            np.asarray(indptr, dtype=index_dtype),
        ),
        shape=(n_rows, n_cols),
    )
    outside = draw(st.booleans())
    low, pad = (-1, 1) if outside else (0, 0)
    row_high, col_high = n_rows - 1 + pad, n_cols - 1 + pad
    size = draw(st.integers(0, 12)) if min(row_high, col_high) >= low else 0
    row_values = st.integers(low, max(row_high, low))
    if n_rows > 6:
        row_values = st.one_of(st.sampled_from(sorted(filled)), row_values)
    rows = draw(st.lists(row_values, min_size=size, max_size=size))
    cols = draw(
        st.lists(st.integers(low, max(col_high, low)), min_size=size, max_size=size)
    )
    if draw(st.booleans()):
        rows, cols = rows + rows[::-1], cols + cols[::-1]
    rows, cols = (np.asarray(values, dtype=np.int64) for values in (rows, cols))
    return matrix, dense, rows, cols


@settings(max_examples=300, deadline=None)
@given(case=_lookup_case())
def test_csr_values_at_matches_dense_indexing(case):
    """Touched-row batch lookup == dense indexing, for any query batch."""
    matrix, dense, rows, cols = case
    n_rows, n_cols = dense.shape
    inside = all(0 <= i < n_rows for i in rows) and all(0 <= j < n_cols for j in cols)
    if not inside:
        with pytest.raises(FeatureError):
            csr_values_at(matrix, rows, cols)
        return
    values = csr_values_at(matrix, rows, cols)
    expected = np.array([dense[i, j] for i, j in zip(rows, cols)], dtype=np.float64)
    assert values.dtype == np.float64
    assert values.tobytes() == expected.tobytes()


@st.composite
def _block_case(draw):
    """Count matrices of one shape and a position block.

    Stored values include explicit and negative zeros, rows may be
    shuffled within, and a dead (tombstoned) row and column may hold no
    entry at all.  Positions come in any order, may repeat, span rows,
    and may fall outside the shape."""
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    dead_row = draw(st.one_of(st.none(), st.integers(0, n_rows - 1)))
    dead_col = draw(st.one_of(st.none(), st.integers(0, n_cols - 1)))
    structures = []
    for _ in range(draw(st.integers(0, 4))):
        data, indices, indptr = [], [], [0]
        dense = np.zeros((n_rows, n_cols))
        for i in range(n_rows):
            columns = draw(st.lists(st.integers(0, n_cols - 1), unique=True))
            columns = [j for j in columns if i != dead_row and j != dead_col]
            if not draw(st.booleans()):
                columns.sort()
            for j in columns:
                dense[i, j] = draw(st.sampled_from([0.0, -0.0, 1.0, 2.0, 5.0]))
                data.append(dense[i, j])
            indices.extend(columns)
            indptr.append(len(indices))
        counts = sparse.csr_matrix(
            (np.asarray(data), np.asarray(indices, dtype=np.int32), indptr),
            shape=(n_rows, n_cols),
        )
        structures.append((counts, dense.sum(axis=1), dense.sum(axis=0)))
    outside = draw(st.booleans())
    pad = 1 if outside else 0
    size = draw(st.integers(0, 14))
    rows, cols = (
        np.asarray(
            draw(
                st.lists(
                    st.integers(-pad, n - 1 + pad), min_size=size, max_size=size
                )
            ),
            dtype=np.int64,
        )
        for n in (n_rows, n_cols)
    )
    return structures, rows, cols


@settings(max_examples=300, deadline=None)
@given(case=_block_case(), include_bias=st.booleans())
def test_proximity_block_matches_per_structure_lookups(case, include_bias):
    """One gather == per-structure ``csr_values_at`` + ``dice_scores``
    columns stacked side by side, byte for byte."""
    structures, rows, cols = case
    columns = []
    try:
        for counts, row_sums, col_sums in structures:
            # A copy: csr_values_at sorts a matrix's indices in place.
            values = csr_values_at(counts.copy(), rows, cols)
            columns.append(dice_scores(values, row_sums[rows] + col_sums[cols]))
    except FeatureError:
        with pytest.raises(FeatureError, match="outside"):
            proximity_block(rows, cols, structures, include_bias)
        return
    if include_bias:
        columns.append(np.ones(rows.size))
    expected = (
        np.column_stack(columns) if columns else np.zeros((rows.size, 0))
    )
    block = proximity_block(rows, cols, structures, include_bias)
    assert block.dtype == np.float64 and block.flags.c_contiguous
    assert block.shape == expected.shape
    assert block.tobytes() == expected.tobytes()


def test_proximity_block_rejects_mixed_shapes():
    structures = [
        (sparse.csr_matrix(np.eye(3)), np.ones(3), np.ones(3)),
        (sparse.csr_matrix(np.eye(3)[:, :2]), np.ones(3), np.ones(2)),
    ]
    with pytest.raises(FeatureError, match="differs"):
        proximity_block(np.array([0]), np.array([1]), structures, True)

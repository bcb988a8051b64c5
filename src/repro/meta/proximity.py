"""Meta diagram proximity (Definition 6).

Given the instance-count matrix ``M`` of a meta structure, the proximity
between ``u_i`` (left) and ``u_j`` (right) is the Dice-style ratio

    s(i, j) = 2 * M[i, j] / (rowsum(M)[i] + colsum(M)[j]),

which rewards many connecting instances while penalizing promiscuous
users with many instances to *anyone*.  Scores live in ``[0, 1]`` and are
``0`` when the denominator vanishes (neither user touches the structure).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.exceptions import FeatureError


class ProximityMatrix:
    """Lazy proximity lookup over one count matrix.

    Parameters
    ----------
    counts:
        |U1| x |U2| sparse instance-count matrix of one meta structure.

    Notes
    -----
    Row/column sums are precomputed; individual scores are evaluated on
    demand so extracting features for a candidate subset of H never
    densifies the full matrix.
    """

    def __init__(self, counts: sparse.csr_matrix) -> None:
        if counts.ndim != 2:
            raise FeatureError("count matrix must be two-dimensional")
        self._counts = counts.tocsr()
        self._counts.sort_indices()
        self._row_sums = np.asarray(counts.sum(axis=1)).ravel()
        self._col_sums = np.asarray(counts.sum(axis=0)).ravel()

    @property
    def shape(self):
        """Shape of the underlying count matrix."""
        return self._counts.shape

    def score(self, i: int, j: int) -> float:
        """Proximity of left user ``i`` and right user ``j``."""
        denominator = self._row_sums[i] + self._col_sums[j]
        if denominator == 0:
            return 0.0
        return float(2.0 * self._counts[i, j] / denominator)

    def scores(self, left_indices: np.ndarray, right_indices: np.ndarray) -> np.ndarray:
        """Vectorized proximity for parallel index arrays.

        Parameters
        ----------
        left_indices, right_indices:
            Equal-length integer arrays selecting (i, j) pairs.
        """
        left_indices = np.asarray(left_indices, dtype=np.int64)
        right_indices = np.asarray(right_indices, dtype=np.int64)
        if left_indices.shape != right_indices.shape:
            raise FeatureError("index arrays must have equal shape")
        if left_indices.size == 0:
            return np.zeros(0, dtype=np.float64)
        counts = csr_values_at(self._counts, left_indices, right_indices)
        denominators = self._row_sums[left_indices] + self._col_sums[right_indices]
        return dice_scores(counts, denominators)

    def dense(self) -> np.ndarray:
        """Full dense proximity matrix (small networks / diagnostics only)."""
        counts = np.asarray(self._counts.todense(), dtype=np.float64)
        denominators = self._row_sums[:, None] + self._col_sums[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = np.where(denominators > 0, 2.0 * counts / denominators, 0.0)
        return scores


def dice_proximity(counts: sparse.csr_matrix) -> ProximityMatrix:
    """Build a :class:`ProximityMatrix` from raw instance counts."""
    return ProximityMatrix(counts)


def dice_scores(
    values: np.ndarray, denominators: np.ndarray
) -> np.ndarray:
    """The Dice ratio ``2 v / d`` with the zero-denominator guard.

    Single home of the proximity formula (Definition 6); every scoring
    path — :meth:`ProximityMatrix.scores`, the incremental session's
    view scoring and :func:`proximity_block` — must go through it so
    they stay bit-identical.
    """
    scores = np.zeros_like(denominators, dtype=np.float64)
    np.divide(2.0 * values, denominators, out=scores, where=denominators > 0)
    return scores


def csr_values_at(
    matrix: sparse.csr_matrix, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Batch-read ``matrix[rows[k], cols[k]]`` values, zeros where absent.

    Scipy's CSR fancy indexing walks entries one by one in Python;
    instead, the entries of the rows the positions touch get sorted
    keys ``rank * n_cols + j`` (a row's rank among the touched rows
    comes from a cumsum over a boolean mask of the row window
    [min(rows), max(rows)]), and one ``searchsorted`` serves the batch.
    A handful of positions in a large matrix thus costs O(window rows +
    touched entries), not O(nnz).  When every row of the window is
    touched (a row-major candidate block), the window's entries are
    read as one slice instead of gathered.  Sorts ``matrix``'s indices
    in place.  A position outside the matrix's shape raises
    :class:`~repro.exceptions.FeatureError` — linearized keys would
    silently alias it to another row.
    """
    matrix = matrix.tocsr()
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.size == 0:
        return np.zeros(0, dtype=np.float64)
    n_rows, n_cols = matrix.shape
    first, last = int(rows.min()), int(rows.max())
    if first < 0 or last >= n_rows or cols.min() < 0 or cols.max() >= n_cols:
        raise FeatureError(
            f"lookup position outside the {n_rows} x {n_cols} matrix"
        )
    matrix.sort_indices()
    indptr = matrix.indptr
    ranks = rows - first  # offsets into the row window
    touched = np.zeros(last - first + 1, dtype=bool)
    touched[ranks] = True
    if touched.all():
        start, stop = indptr[first], indptr[last + 1]
        row_lengths = np.diff(indptr[first : last + 2])
        entries = slice(start, stop)
    else:
        touched_rows = np.flatnonzero(touched) + first
        row_starts = indptr[touched_rows]
        row_lengths = indptr[touched_rows + 1] - row_starts
        # Entry k of touched row r sits at row_starts[r] + k.
        entries = np.arange(row_lengths.sum()) + np.repeat(
            row_starts - (np.cumsum(row_lengths) - row_lengths), row_lengths
        )
        ranks = (np.cumsum(touched) - 1)[ranks]
    keys = (
        np.repeat(np.arange(row_lengths.size, dtype=np.int64), row_lengths)
        * n_cols
        + matrix.indices[entries]
    )
    query_keys = ranks * n_cols + cols
    values = np.zeros(rows.size, dtype=np.float64)
    if keys.size == 0:
        return values
    positions = np.minimum(np.searchsorted(keys, query_keys), keys.size - 1)
    hits = keys[positions] == query_keys
    values[hits] = matrix.data[entries][positions[hits]]
    return values


def proximity_block(
    rows: np.ndarray,
    cols: np.ndarray,
    structures: Sequence[Tuple[sparse.csr_matrix, np.ndarray, np.ndarray]],
    include_bias: bool,
) -> np.ndarray:
    """Feature rows at positions ``(rows[k], cols[k])``, all structures at once.

    ``structures`` holds each structure's ``(counts, row_sums, col_sums)``
    in column order; the counts are canonical CSR (no duplicate entries)
    of one shape.  Returns a zeroed C-order ``(m, len(structures) [+ 1])``
    float64 block with the bias column of ones last.

    Rather than search every position in every count matrix, the kernel
    collects every structure's entries in the block's row window (a
    structure with an empty window costs two ``indptr`` reads), looks
    them all up among the block's sorted keys in one pass, and computes
    Dice only at the hits.  An absent position keeps ``+0.0``, exactly
    what :func:`dice_scores` gives a zero count, so the bytes equal
    per-structure :func:`csr_values_at` plus :func:`dice_scores` columns
    stacked side by side — in any position order, and with repeated
    positions (each copy gets the row of its first).  A position outside
    the matrices' shape raises :class:`~repro.exceptions.FeatureError`.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape or rows.ndim != 1:
        raise FeatureError("position arrays must be one-dimensional and equal")
    n_features = len(structures) + int(bool(include_bias))
    block = np.zeros((rows.size, n_features), dtype=np.float64)
    if include_bias:
        block[:, -1] = 1.0
    if rows.size == 0 or not structures:
        return block
    shape = structures[0][0].shape
    first, last = int(rows.min()), int(rows.max())
    if first < 0 or last >= shape[0] or cols.min() < 0 or cols.max() >= shape[1]:
        raise FeatureError(
            f"lookup position outside the {shape[0]} x {shape[1]} matrix"
        )
    # The entries in rows [first, last] of each structure that has any,
    # with that structure's sums over the same window.
    columns, row_lengths, entry_cols, entry_values = [], [], [], []
    window_row_sums, window_col_sums = [], []
    for column, (counts, row_sums, col_sums) in enumerate(structures):
        if counts.shape != shape:
            raise FeatureError(
                f"count matrix shape {counts.shape} differs from {shape}"
            )
        start, stop = int(counts.indptr[first]), int(counts.indptr[last + 1])
        if start == stop:
            continue
        columns.append(column)
        row_lengths.append(np.diff(counts.indptr[first : last + 2]))
        entry_cols.append(counts.indices[start:stop])
        entry_values.append(counts.data[start:stop])
        window_row_sums.append(row_sums[first : last + 1])
        window_col_sums.append(col_sums)
    if not columns:
        return block
    n_rows, n_cols = last - first + 1, shape[1]
    # Window entry e lies in cell part * n_rows + (row - first), where
    # ``part`` counts the structures that have entries.
    cell = np.repeat(
        np.arange(len(columns) * n_rows), np.concatenate(row_lengths)
    )
    entry_cols = np.concatenate(entry_cols)
    entry_keys = (
        np.tile(np.arange(first, last + 1) * n_cols, len(columns))[cell]
        + entry_cols
    )
    keys = rows * n_cols + cols
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    found = np.searchsorted(sorted_keys, entry_keys)
    hits = np.flatnonzero(
        sorted_keys[np.minimum(found, rows.size - 1)] == entry_keys
    )
    slots = order[found[hits]]
    cell = cell[hits]
    part = cell // n_rows
    values = np.concatenate(entry_values)[hits].astype(np.float64, copy=False)
    denominators = (
        np.concatenate(window_row_sums)[cell]
        + np.concatenate(window_col_sums)[part * n_cols + entry_cols[hits]]
    )
    np.put(
        block,
        slots * n_features + np.asarray(columns)[part],
        dice_scores(values, denominators),
    )
    # The lookup filled the first copy of each key in sorted order;
    # repeated positions copy its row.
    repeated = sorted_keys[1:] == sorted_keys[:-1]
    if repeated.any():
        copies = np.flatnonzero(repeated) + 1
        run_start = np.maximum.accumulate(
            np.where(repeated, 0, np.arange(1, rows.size))
        )
        block[order[copies]] = block[order[run_start[copies - 1]]]
    return block

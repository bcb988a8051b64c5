"""Shared model API: alignment tasks, results and the model base class.

An :class:`AlignmentTask` freezes everything a model may see: the
candidate link list H, the feature matrix X, and which candidates carry
known labels.  Ground truth for the *unlabeled* candidates is only
reachable through a budgeted :class:`~repro.active.oracle.LabelOracle`,
so no model can accidentally peek.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import ModelError, NotFittedError
from repro.types import LinkPair


@dataclass
class AlignmentTask:
    """One alignment problem instance in feature space.

    Attributes
    ----------
    pairs:
        All candidate anchor links (the sampled H), fixed order.
    X:
        Feature matrix, one row per candidate.
    labeled_indices:
        Indices into ``pairs`` with known labels (the training set).
    labeled_values:
        The 0/1 labels parallel to ``labeled_indices``.
    """

    pairs: List[LinkPair]
    X: np.ndarray
    labeled_indices: np.ndarray
    labeled_values: np.ndarray

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.float64)
        self.labeled_indices = np.asarray(self.labeled_indices, dtype=np.int64)
        self.labeled_values = np.asarray(self.labeled_values, dtype=np.int64)
        if self.X.ndim != 2 or self.X.shape[0] != len(self.pairs):
            raise ModelError(
                f"X shape {self.X.shape} does not match {len(self.pairs)} pairs"
            )
        if not np.all(np.isfinite(self.X)):
            bad = int(np.sum(~np.isfinite(self.X)))
            raise ModelError(
                f"feature matrix contains {bad} non-finite entries "
                "(NaN/inf); refusing to fit on corrupted features"
            )
        if self.labeled_indices.shape != self.labeled_values.shape:
            raise ModelError("labeled indices/values must align")
        if self.labeled_indices.size:
            if self.labeled_indices.min() < 0 or self.labeled_indices.max() >= len(
                self.pairs
            ):
                raise ModelError("labeled index out of range")
            if np.bincount(self.labeled_indices).max() > 1:
                raise ModelError("labeled indices contain duplicates")
        values = self.labeled_values
        bad = values[(values != 0) & (values != 1)]
        if bad.size:
            raise ModelError(f"labels must be 0/1, got {np.unique(bad).tolist()}")

    @property
    def n_candidates(self) -> int:
        """|H| — number of candidate links."""
        return len(self.pairs)

    @property
    def unlabeled_mask(self) -> np.ndarray:
        """Boolean mask of candidates without a known label."""
        mask = np.ones(self.n_candidates, dtype=bool)
        mask[self.labeled_indices] = False
        return mask

    @property
    def positive_indices(self) -> np.ndarray:
        """Indices of known positive candidates (the paper's L+)."""
        return self.labeled_indices[self.labeled_values == 1]

    @property
    def negative_indices(self) -> np.ndarray:
        """Indices of known negative candidates."""
        return self.labeled_indices[self.labeled_values == 0]

    def index_of(self, pair: LinkPair) -> int:
        """Index of a candidate pair (built lazily, cached)."""
        index = getattr(self, "_pair_index", None)
        if index is None:
            index = {pair_: i for i, pair_ in enumerate(self.pairs)}
            self._pair_index = index
        try:
            return index[pair]
        except KeyError:
            raise ModelError(f"pair {pair!r} is not a candidate") from None


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of fitting an alignment model.

    Attributes
    ----------
    labels:
        Final 0/1 assignment over the task's candidates.
    scores:
        Final raw scores ``ŷ = Xw`` (or decision values for SVMs).
    queried:
        Links whose labels were bought from the oracle, with answers.
    convergence_trace:
        ``Δy = ||y_i − y_{i−1}||₁`` per alternating iteration (Figure 3).
    n_rounds:
        Number of external (query) rounds executed.
    """

    labels: np.ndarray
    scores: np.ndarray
    queried: Tuple[Tuple[LinkPair, int], ...] = ()
    convergence_trace: Tuple[float, ...] = ()
    n_rounds: int = 0


class AlignmentModel:
    """Base class for alignment models.

    Subclasses implement :meth:`fit` and populate ``result_``.
    """

    def __init__(self) -> None:
        self.result_: Optional[AlignmentResult] = None
        self.task_: Optional[AlignmentTask] = None

    def fit(self, task: AlignmentTask) -> "AlignmentModel":
        """Fit the model on one task; returns self."""
        raise NotImplementedError

    def _require_fitted(self) -> AlignmentResult:
        if self.result_ is None:
            raise NotFittedError(f"{type(self).__name__} has not been fitted")
        return self.result_

    @property
    def labels_(self) -> np.ndarray:
        """Final labels over the fitted task's candidates."""
        return self._require_fitted().labels

    @property
    def scores_(self) -> np.ndarray:
        """Final raw scores over the fitted task's candidates."""
        return self._require_fitted().scores

    @property
    def queried_(self) -> Tuple[Tuple[LinkPair, int], ...]:
        """Oracle queries spent during fitting."""
        return self._require_fitted().queried

    def predicted_anchors(self) -> List[LinkPair]:
        """Candidate pairs labeled positive by the fitted model."""
        result = self._require_fitted()
        if self.task_ is None:  # pragma: no cover - defensive
            raise NotFittedError("task missing from fitted model")
        return [
            pair
            for pair, label in zip(self.task_.pairs, result.labels)
            if label == 1
        ]

"""The paper's experimental protocol (§IV-B.1).

Construction of one experiment instance:

1. positives L+ = the ground-truth anchor set;
2. negatives: ``θ · |L+|`` non-anchor pairs sampled uniformly from
   H \\ L+ (θ is the NP-ratio, 5..50 in the paper);
3. positives and negatives are split into ``n_folds`` folds (10 in the
   paper); one fold trains, the rest test;
4. the training fold is further subsampled by the sample-ratio γ
   (10%..100%), simulating scarce labels;
5. folds rotate so every fold trains once; metrics are averaged.

For active methods, queried links are removed from the test set before
scoring (§IV-B.3) to keep the comparison fair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Set, Tuple

import numpy as np

from repro.exceptions import ExperimentError
from repro.networks.aligned import AlignedPair
from repro.types import LinkPair


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters of the evaluation protocol.

    Attributes
    ----------
    np_ratio:
        θ — negatives sampled per positive.
    sample_ratio:
        γ — fraction of the training fold actually used (0 < γ ≤ 1).
    n_folds:
        Number of folds (the paper uses 10).
    n_repeats:
        How many fold rotations to run (≤ n_folds); the paper runs all.
    seed:
        Seed for negative sampling, fold assignment and subsampling.
    """

    np_ratio: int = 10
    sample_ratio: float = 0.6
    n_folds: int = 10
    n_repeats: int = 10
    seed: int = 13

    def __post_init__(self) -> None:
        if self.np_ratio < 1:
            raise ExperimentError("np_ratio must be >= 1")
        if not 0.0 < self.sample_ratio <= 1.0:
            raise ExperimentError("sample_ratio must be in (0, 1]")
        if self.n_folds < 2:
            raise ExperimentError("n_folds must be >= 2")
        if not 1 <= self.n_repeats <= self.n_folds:
            raise ExperimentError("n_repeats must be in [1, n_folds]")


@dataclass(frozen=True)
class ExperimentSplit:
    """One train/test split over a sampled candidate set.

    Attributes
    ----------
    candidates:
        The sampled links (all positives followed by all negatives).
    truth:
        Ground-truth 0/1 labels parallel to ``candidates``.
    train_indices:
        Indices of training candidates (after γ subsampling).
    test_indices:
        Indices of test candidates.
    fold:
        Which fold served as the training fold.
    """

    candidates: Tuple[LinkPair, ...]
    truth: np.ndarray
    train_indices: np.ndarray
    test_indices: np.ndarray
    fold: int

    @property
    def train_pairs(self) -> List[LinkPair]:
        """Training candidate links."""
        return [self.candidates[i] for i in self.train_indices.tolist()]

    @property
    def train_labels(self) -> np.ndarray:
        """Training labels (parallel to :attr:`train_pairs`)."""
        return self.truth[self.train_indices]

    @property
    def train_positive_pairs(self) -> List[LinkPair]:
        """Known positive links — the anchors visible to models."""
        positives = self.train_indices[self.truth[self.train_indices] == 1]
        return [self.candidates[i] for i in positives.tolist()]


def sample_negatives(
    pair: AlignedPair, n_negatives: int, rng: np.random.Generator
) -> List[LinkPair]:
    """Sample distinct non-anchor pairs uniformly from H \\ L+.

    Uses rejection sampling over the index grid, which stays cheap while
    ``n_negatives`` is far below |H| − |L+| (always true for the paper's
    θ ≤ 50 regime).
    """
    left_users = pair.left_users()
    right_users = pair.right_users()
    capacity = len(left_users) * len(right_users) - pair.anchor_count()
    if n_negatives > capacity:
        raise ExperimentError(
            f"cannot sample {n_negatives} negatives from {capacity} non-anchors"
        )
    chosen: Set[LinkPair] = set()
    result: List[LinkPair] = []
    while len(result) < n_negatives:
        block = max(256, n_negatives - len(result))
        lefts = rng.integers(0, len(left_users), size=block)
        rights = rng.integers(0, len(right_users), size=block)
        for li, ri in zip(lefts, rights):
            candidate = (left_users[li], right_users[ri])
            if candidate in chosen or pair.is_anchor(candidate):
                continue
            chosen.add(candidate)
            result.append(candidate)
            if len(result) == n_negatives:
                break
    return result


def assign_folds(
    n_items: int, n_folds: int, rng: np.random.Generator
) -> np.ndarray:
    """Random balanced fold assignment for ``n_items`` items."""
    if n_items < n_folds:
        raise ExperimentError(
            f"cannot split {n_items} items into {n_folds} folds"
        )
    folds = np.arange(n_items) % n_folds
    rng.shuffle(folds)
    return folds


def build_splits(
    pair: AlignedPair, config: ProtocolConfig
) -> Iterator[ExperimentSplit]:
    """Yield one :class:`ExperimentSplit` per fold rotation.

    Negative sampling and fold assignment happen once (shared across
    rotations), matching the paper's "take 10 folds in turns" setup.
    """
    rng = np.random.default_rng(config.seed)
    positives = sorted(pair.anchors, key=repr)
    if not positives:
        raise ExperimentError("the aligned pair has no anchors to learn from")
    negatives = sample_negatives(pair, config.np_ratio * len(positives), rng)

    candidates: Tuple[LinkPair, ...] = tuple(positives) + tuple(negatives)
    truth = np.zeros(len(candidates), dtype=np.int64)
    truth[: len(positives)] = 1

    positive_folds = assign_folds(len(positives), config.n_folds, rng)
    negative_folds = assign_folds(len(negatives), config.n_folds, rng)
    folds = np.concatenate([positive_folds, negative_folds])

    for fold in range(config.n_repeats):
        fold_mask = folds == fold
        train_pool = np.flatnonzero(fold_mask)
        test_indices = np.flatnonzero(~fold_mask)
        if config.sample_ratio < 1.0:
            # Subsample positives and negatives separately so γ preserves
            # the class ratio of the training fold.
            train_parts = []
            for label in (1, 0):
                pool = train_pool[truth[train_pool] == label]
                keep = max(1, int(round(config.sample_ratio * pool.size)))
                train_parts.append(
                    rng.choice(pool, size=min(keep, pool.size), replace=False)
                )
            train_indices = np.sort(np.concatenate(train_parts))
        else:
            train_indices = train_pool
        yield ExperimentSplit(
            candidates=candidates,
            truth=truth,
            train_indices=train_indices,
            test_indices=test_indices,
            fold=fold,
        )

"""Query-by-committee strategy (active-learning extension).

Trains a committee of ridge regressors on bootstrap resamples of the
clamped labels and queries the unlabeled links the committee disagrees
on most (score variance).  A classic strategy included to ablate the
paper's conflict-based rule against a stronger generic baseline than
margin sampling; it is *not* part of the paper.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.active.strategies import _check_batch_size, _ranked
from repro.exceptions import ReproError
from repro.ml.ridge import RidgeSolver
from repro.types import LinkPair


class CommitteeQueryStrategy:
    """Bootstrap-committee disagreement sampling.

    Parameters
    ----------
    n_members:
        Committee size.
    c:
        Ridge loss weight for committee members.
    seed:
        Bootstrap seed (deterministic given the seed).

    Notes
    -----
    The strategy re-fits its committee every round from the *current*
    labels ``y`` (treating them as soft supervision, as the main model
    does), so disagreement reflects the live state of the alternating
    optimization rather than the initial training set only.
    """

    def __init__(self, n_members: int = 7, c: float = 1.0, seed: int = 0) -> None:
        if n_members < 2:
            raise ReproError("a committee needs at least 2 members")
        self.n_members = int(n_members)
        self.c = float(c)
        self.seed = int(seed)
        self._round = 0

    def snapshot_state(self) -> dict:
        """The round counter that seeds each round's bootstrap draws.

        Checkpointed by the active loop, so a resumed run draws the
        same committees as an uninterrupted one.
        """
        return {"round": self._round}

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` payload."""
        self._round = int(state["round"])

    def select(
        self,
        pairs: Sequence[LinkPair],
        scores: np.ndarray,
        labels: np.ndarray,
        queryable: np.ndarray,
        batch_size: int,
    ) -> List[int]:
        """Pick the queryable links with the highest committee variance."""
        _check_batch_size(batch_size)
        labels = np.asarray(labels, dtype=np.float64).ravel()
        queryable = np.asarray(queryable, dtype=bool).ravel()
        if labels.shape[0] != len(pairs) or queryable.shape[0] != len(pairs):
            raise ReproError("labels/queryable length mismatch")
        X = getattr(self, "_X", None)
        if X is None or X.shape[0] != len(pairs):
            raise ReproError(
                "CommitteeQueryStrategy.bind(X) must be called with the "
                "task's feature matrix before selection"
            )
        rng = np.random.default_rng(self.seed + self._round)
        self._round += 1
        n = len(pairs)
        member_scores = np.zeros((self.n_members, n))
        for member in range(self.n_members):
            sample = rng.integers(0, n, size=n)
            solver = RidgeSolver(X[sample], c=self.c)
            w = solver.solve(labels[sample])
            member_scores[member] = X @ w
        disagreement = member_scores.std(axis=0)
        pool = np.flatnonzero(queryable)
        return _ranked(pool, -disagreement[pool], batch_size)

    def bind(self, X: np.ndarray) -> "CommitteeQueryStrategy":
        """Attach the task's feature matrix (required before selection)."""
        self._X = np.asarray(X, dtype=np.float64)
        return self

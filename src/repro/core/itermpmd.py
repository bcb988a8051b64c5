"""Iter-MPMD: PU-learning iterative aligner (no active queries).

This is the paper's Iter-MPMD baseline and, equally, the inner engine of
ActiveIter: alternate between

* **step (1-1)** — closed-form ridge ``w = c (I + c XᵀX)⁻¹ Xᵀ y`` with
  the current label vector, fitted through the model backend
  (:class:`~repro.ml.backends.RidgeBackend` by default, which factorizes
  the block-accumulated Gram system once per fit);
* **step (1-2)** — re-infer the unlabeled labels from the scores
  ``ŷ = Xw`` with the greedy one-to-one selector, keeping known labels
  clamped.

Iterate until the label vector stops changing (Δy = ‖yᵢ − yᵢ₋₁‖₁ below
tolerance) or a safety cap; the per-iteration Δy values are recorded as
the convergence trace used by Figure 3.

Every task runs the same loop over
:func:`~repro.ml.backends.as_block_source`: a materialized task is the
trivial one-block stream, and a
:class:`~repro.engine.streaming.StreamedAlignmentTask` streams its
candidate blocks without ever allocating the |H| x d matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.base import AlignmentModel, AlignmentResult, AlignmentTask
from repro.exceptions import ModelError
from repro.matching.greedy import greedy_link_selection
from repro.ml.backends import (
    ModelBackend,
    RidgeBackend,
    as_block_source,
    make_backend,
)
from repro.types import LinkPair, NodeId


@dataclass
class AlternatingState:
    """Per-task invariants of the alternating loop, reused across refits.

    Which candidates are free and which endpoints are blocked depends
    only on the task and the clamped label set — not on the iteration.
    The active loop refits after every query round, so the state is
    built once and then *narrowed* as answers arrive (:meth:`clamp`)
    instead of being rebuilt per fit.  The greedy step runs over every
    candidate with the clamped scores at ``-inf``: none of them clears
    the threshold, so the free candidates get the labels a greedy over
    the free candidates alone would give.  ``clamped`` lists the
    positions ``free`` excludes as indices (an index passed twice in one
    :meth:`clamp` call is listed twice, which its scatters ignore): the
    loop writes through them, which costs less than a ``np.where`` over
    the mask when few candidates are clamped.
    """

    pairs: Sequence[LinkPair]
    free: np.ndarray
    clamped: np.ndarray
    blocked_left: Set[NodeId]
    blocked_right: Set[NodeId]

    @classmethod
    def from_task(
        cls,
        task: AlignmentTask,
        clamped_indices: np.ndarray,
        clamped_values: np.ndarray,
    ) -> "AlternatingState":
        """Build the state for a task and its clamped label set."""
        free = np.ones(task.n_candidates, dtype=bool)
        clamped = np.zeros(0, dtype=np.int64)
        state = cls(task.pairs, free, clamped, set(), set())
        state.clamp(task, clamped_indices, clamped_values)
        return state

    def clamp(
        self,
        task: AlignmentTask,
        indices: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Narrow the state after new labels are clamped (queried)."""
        indices = np.asarray(indices, dtype=np.int64)
        newly_clamped = indices[self.free[indices]]
        self.free[newly_clamped] = False
        self.clamped = np.concatenate([self.clamped, newly_clamped])
        for index in indices[np.asarray(values) == 1].tolist():
            left_user, right_user = task.pairs[index]
            self.blocked_left.add(left_user)
            self.blocked_right.add(right_user)


class IterMPMD(AlignmentModel):
    """Cardinality-constrained PU iterative alignment model.

    Parameters
    ----------
    c:
        Ridge loss weight (the paper's ``c``).
    max_iterations:
        Cap on alternating (1-1)/(1-2) iterations per fit.
    tol:
        Convergence threshold on Δy (L1 change of the label vector).
    positive_threshold:
        Minimum score for the greedy selector to label a link positive.
    positive_weight:
        Ridge sample weight of the trusted (clamped) positive labels.
        ``"balanced"`` (default) sets it to ``(#other candidates) /
        (#clamped positives)`` so the scarce supervision is not drowned
        by the sea of zero targets — the standard PU class-weighting
        remedy; a float fixes it explicitly, and ``1.0`` recovers the
        paper's unweighted objective.
    backend:
        Model backend of the internal fit step (see
        :mod:`repro.ml.backends`): ``None`` (the default) resolves to
        :class:`~repro.ml.backends.RidgeBackend`, the paper's
        closed-form ridge; a name (``"ridge"``, ``"svm"``) or a
        :class:`~repro.ml.backends.ModelBackend` instance swaps the
        model — the alternating loop, the block plumbing and the greedy
        relabeling are unchanged.  Backends score on their own scale
        (an SVM's decision boundary is 0, not 0.5), so pair a non-ridge
        backend with a matching ``positive_threshold``.
    """

    def __init__(
        self,
        c: float = 1.0,
        max_iterations: int = 30,
        tol: float = 0.5,
        positive_threshold: float = 0.5,
        positive_weight="balanced",
        backend=None,
    ) -> None:
        super().__init__()
        if max_iterations < 1:
            raise ModelError("max_iterations must be >= 1")
        if tol < 0:
            raise ModelError("tol must be >= 0")
        if positive_weight != "balanced" and float(positive_weight) <= 0:
            raise ModelError("positive_weight must be 'balanced' or > 0")
        self.c = float(c)
        self.max_iterations = int(max_iterations)
        self.tol = float(tol)
        self.positive_threshold = float(positive_threshold)
        self.positive_weight = positive_weight
        self.backend = backend
        self._backend_instance: Optional[ModelBackend] = None
        self._pending_backend_state: Optional[dict] = None
        self.weights_: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Backend plumbing
    # ------------------------------------------------------------------
    def _resolved_backend(self) -> ModelBackend:
        """The model's backend instance (built once, reused per round).

        A single instance lives for the whole fit so sticky state — a
        fitted feature map's landmark sample, the last dual solution —
        carries across query rounds; checkpoint resume injects restored
        state here before the first round runs.
        """
        if self._backend_instance is None:
            spec = self.backend
            if spec is None:
                instance: ModelBackend = RidgeBackend(c=self.c)
            elif isinstance(spec, str):
                instance = make_backend(spec, c=self.c)
            elif isinstance(spec, ModelBackend):
                instance = spec
            else:
                raise ModelError(
                    f"backend must be None, a name or a ModelBackend, "
                    f"got {spec!r}"
                )
            if self._pending_backend_state is not None:
                instance.load_state_dict(self._pending_backend_state)
                self._pending_backend_state = None
            self._backend_instance = instance
        return self._backend_instance

    def _sample_weight(
        self,
        n_candidates: int,
        clamped_indices: np.ndarray,
        clamped_values: np.ndarray,
        population: Optional[int] = None,
    ) -> Optional[np.ndarray]:
        """Per-sample ridge weights, or ``None`` for the unweighted case.

        ``population`` overrides the candidate pool the ``"balanced"``
        ratio is computed against: ``None`` (the ridge/PU case) balances
        positives against all |H| pseudo-labeled candidates, while a
        ``"labeled"`` backend — which trains on the clamped rows only —
        passes the clamped-set size, so the ratio reflects the actual
        training class balance rather than the sea of unlabeled rows.
        The returned vector is always over all candidates (labeled
        backends slice it at their training indices).
        """
        positives = clamped_indices[clamped_values == 1]
        if self.positive_weight == "balanced":
            total = n_candidates if population is None else int(population)
            n_other = total - positives.size
            weight = n_other / positives.size if positives.size else 1.0
            if weight <= 0:
                weight = 1.0
        else:
            weight = float(self.positive_weight)
        if weight == 1.0:
            return None
        sample_weight = np.ones(n_candidates, dtype=np.float64)
        sample_weight[positives] = weight
        return sample_weight

    # ------------------------------------------------------------------
    # Core alternating loop, reused by ActiveIter.
    # ------------------------------------------------------------------
    def _alternate_backend(
        self,
        source,
        state: AlternatingState,
        clamped_indices: np.ndarray,
        clamped_values: np.ndarray,
        y: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[float]]:
        """Run (1-1)/(1-2) to convergence from the given label vector.

        ``source`` is the task as a block source (see
        :func:`~repro.ml.backends.as_block_source`); ``state`` carries
        the free/blocked invariants built from the task, which the
        active loop narrows between rounds instead of rebuilding.
        Step (1-1) is the backend's ``fit``/``scores`` pair.
        ``"labeled"`` backends (SVM) receive the clamped set as their
        training rows — the supervised semantics of the paper's SVM
        baselines inside the query loop; ``"all"`` backends (ridge)
        regress on every candidate's pseudo-label, the PU semantics;
        ``"pu"`` backends (the biased all-of-H SVM) also receive the
        clamped set — it marks the rows holding full cost ``C`` — but
        train on every candidate row, so their positive balance is
        computed against |H| like ridge's.  Returns
        ``(y, w, scores, trace)``.
        """
        backend = self._resolved_backend()
        train_indices = (
            clamped_indices
            if backend.trains_on in ("labeled", "pu")
            else None
        )
        sample_weight = self._sample_weight(
            source.n_candidates,
            clamped_indices,
            clamped_values,
            # A labeled backend trains on the clamped rows only; balance
            # its positives against that training set, not against |H|.
            # PU backends train on everything, so they balance like
            # ridge does.
            population=(
                clamped_indices.size
                if backend.trains_on == "labeled"
                else None
            ),
        )
        backend.begin(
            source, sample_weight=sample_weight, train_indices=train_indices
        )

        trace: List[float] = []
        clamped = state.clamped
        w = backend.fit(y)
        scores = backend.scores(w)
        for _ in range(self.max_iterations):
            masked = scores.copy()
            masked[clamped] = -np.inf
            labels = greedy_link_selection(
                state.pairs,
                masked,
                threshold=self.positive_threshold,
                blocked_left=state.blocked_left,
                blocked_right=state.blocked_right,
            )
            # Free candidates take the greedy's labels, clamped ones
            # keep theirs.  Both vectors are 0/1, so ‖new_y − y‖₁ is
            # the number of positions that differ.
            new_y = labels.astype(np.float64)
            new_y[clamped] = y[clamped]
            delta = float(np.count_nonzero(new_y != y))
            trace.append(delta)
            y = new_y
            w = backend.fit(y)
            scores = backend.scores(w)
            if delta <= self.tol:
                break
        return y, w, scores, trace

    def _initial_labels(
        self,
        task: AlignmentTask,
        clamped_indices: np.ndarray,
        clamped_values: np.ndarray,
    ) -> np.ndarray:
        """Initial y: known labels clamped, unlabeled start at 0."""
        y = np.zeros(task.n_candidates, dtype=np.float64)
        y[clamped_indices] = clamped_values
        return y

    # ------------------------------------------------------------------
    def fit(self, task: AlignmentTask) -> "IterMPMD":
        """Fit on a task using only its known labels (PU setting).

        A materialized task runs as a one-block stream and a
        :class:`~repro.engine.streaming.StreamedAlignmentTask` as its
        candidate blocks — the same loop, the same labels.
        """
        self.task_ = task
        clamped_indices = task.labeled_indices
        clamped_values = task.labeled_values
        y, w, scores, trace = self._alternate_backend(
            as_block_source(task),
            AlternatingState.from_task(task, clamped_indices, clamped_values),
            clamped_indices,
            clamped_values,
            self._initial_labels(task, clamped_indices, clamped_values),
        )
        self.weights_ = w
        self.result_ = AlignmentResult(
            labels=y.astype(np.int64),
            scores=scores,
            queried=(),
            convergence_trace=tuple(trace),
            n_rounds=1,
        )
        return self

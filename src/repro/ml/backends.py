"""The model-backend seam: every model trains and scores from blocks.

Before this module, the streamed fit path was linear-ridge-only: the
alternating engine hardwired Gram accumulation, the SVM baselines
demanded a materialized ``|H| x d`` matrix, and kernel feature maps
could only be applied to a dense ``X``.  :class:`ModelBackend` is the
protocol that unifies them — a backend *trains* and *scores* by
consuming block iterators, so any model rides the whole scaling stack
(block streaming, thread executors, the mmap arena, checkpoint/resume)
without the dense matrix ever existing.

A backend binds to a **block source** — any object exposing

* ``n_candidates`` — number of rows |H|,
* ``n_features`` — raw feature dimensionality d,
* ``feature_blocks()`` — an ordered iterator of ``(offset, X_block)``;

:class:`~repro.engine.streaming.StreamedAlignmentTask` is the canonical
source (its extraction already fans out across the session's
executor); :class:`DenseBlockSource` adapts a materialized matrix as
the trivial one-block stream so the dense paths run through the very
same backend code.

Three backends implement the protocol:

* :class:`RidgeBackend` — the existing closed-form ridge, rehomed: the
  block-accumulated Gram system of
  :class:`~repro.ml.ridge.GramRidgeSolver`, byte-identical to the
  previous hardwired path (it delegates to the source's own
  ``gram``/``xt_dot``/``scores`` fast paths when no feature map is
  configured, preserving the dirty-block score cache);
* :class:`SVMBackend` — a soft-margin linear SVM over streamed blocks,
  trained by :class:`~repro.ml.svm.LinearSVC` (re-exported here under
  its streaming name ``StreamedLinearSVC``), which never needs the
  rows in one matrix — bit-identical given the seed and the
  concatenated row order;
* either backend composed with a **feature map** (``feature_map=``):
  :class:`~repro.ml.kernels.NystroemMap` fits its landmarks from a
  streamed reservoir sample, the other explicit maps need only the
  input dimensionality; blocks are mapped on the fly, so kernelized
  fits stream exactly like linear ones.

Scoring reads a :class:`LinearModelState` — plain arrays: optional map
state, optional scaler statistics, coefficients — through
:func:`apply_model_state`, one block at a time.

Backends expose :meth:`ModelBackend.state_dict` /
:meth:`ModelBackend.load_state_dict` so their sticky state — dual
coefficients, the landmark sample, map statistics — enters session
checkpoints and resume stays byte-identical for non-ridge models too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ModelError, NotFittedError
from repro.ml.kernels import (
    FEATURE_MAP_NAMES,
    feature_map_from_state,
    make_feature_map,
)
from repro.ml.ridge import GramRidgeSolver
from repro.ml.scaling import StandardScaler
from repro.ml.svm import LinearSVC
from repro.ml.svm import StreamedLinearSVC  # noqa: F401 - re-exported
from repro.obs.metrics import global_registry

#: Model backends addressable by name (CLI / MethodSpec knobs).
BACKEND_NAMES = ("ridge", "svm", "svm-pu")


# ----------------------------------------------------------------------
# Block sources
# ----------------------------------------------------------------------
class DenseBlockSource:
    """A materialized matrix served as the trivial one-block stream.

    Wraps either a plain array or any object with a mutable ``X``
    attribute (an :class:`~repro.core.base.AlignmentTask`, whose ``X``
    the active loop rewrites in place between rounds) — the block is
    read at iteration time, so refreshes are always visible.
    """

    def __init__(self, X) -> None:
        self._holder = X if hasattr(X, "X") else None
        self._X = None if self._holder is not None else np.asarray(X, dtype=np.float64)

    @property
    def X(self) -> np.ndarray:
        """The live matrix (re-read from the holder each access)."""
        if self._holder is not None:
            return np.asarray(self._holder.X, dtype=np.float64)
        return self._X

    @property
    def n_candidates(self) -> int:
        """Number of rows."""
        return int(self.X.shape[0])

    @property
    def n_features(self) -> int:
        """Raw feature dimensionality."""
        return int(self.X.shape[1])

    def feature_blocks(self) -> Iterator[Tuple[int, np.ndarray]]:
        """The whole matrix as one ``(0, X)`` block."""
        yield 0, self.X

    def block_spans(self) -> List[Tuple[int, int]]:
        """Partition map: the single block's ``(offset, length)``."""
        return [(0, self.n_candidates)]

    def selected_feature_blocks(
        self, block_indices: Sequence[int]
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Selective pass over the trivial one-block partition."""
        for b in block_indices:
            if int(b) != 0:
                raise ModelError(f"block index {b} out of range")
            yield 0, self.X


def as_block_source(task_or_X) -> object:
    """Coerce a task or matrix into a block source (ducks pass through)."""
    if hasattr(task_or_X, "feature_blocks"):
        return task_or_X
    return DenseBlockSource(task_or_X)


def gather_rows(source, indices: np.ndarray) -> np.ndarray:
    """Collect ``X[indices]`` from a block source in one streamed pass.

    Row values are copied verbatim from their home blocks, so the
    result is bit-identical to fancy-indexing the materialized matrix.
    The output row order follows ``indices`` (duplicates included).
    """
    indices = np.asarray(indices, dtype=np.int64)
    out = np.empty((indices.shape[0], source.n_features), dtype=np.float64)
    if indices.size == 0:
        return out
    order = np.argsort(indices, kind="stable")
    sorted_indices = indices[order]
    if sorted_indices[0] < 0 or sorted_indices[-1] >= source.n_candidates:
        raise ModelError("row index out of range for the block source")
    filled = 0
    for offset, X in source.feature_blocks():
        lo = int(np.searchsorted(sorted_indices, offset, side="left"))
        hi = int(
            np.searchsorted(sorted_indices, offset + X.shape[0], side="left")
        )
        if hi > lo:
            out[order[lo:hi]] = X[sorted_indices[lo:hi] - offset]
            filled += hi - lo
    if filled != indices.size:  # pragma: no cover - defensive
        raise ModelError("block stream did not cover every requested row")
    return out


# ----------------------------------------------------------------------
# Picklable scoring state
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinearModelState:
    """Everything needed to score a feature block, as plain arrays.

    The picklable scoring payload of the model seam: an optional
    fitted feature-map state (:func:`~repro.ml.kernels.feature_map_from_state`),
    optional scaler statistics, and the linear coefficients of the
    fitted model in the mapped/scaled space.
    """

    coef: np.ndarray
    intercept: float = 0.0
    map_state: Optional[Dict] = None
    scaler_mean: Optional[np.ndarray] = None
    scaler_scale: Optional[np.ndarray] = None


def apply_model_state(state: LinearModelState, X: np.ndarray) -> np.ndarray:
    """Score one raw feature block: map, scale, then the linear form."""
    Z = np.asarray(X, dtype=np.float64)
    if state.map_state is not None:
        Z = feature_map_from_state(state.map_state).transform(Z)
    if state.scaler_mean is not None:
        Z = (Z - state.scaler_mean) / state.scaler_scale
    return Z @ state.coef + state.intercept


def _stream_scores(source, state: LinearModelState) -> np.ndarray:
    """Whole-of-source scores for a model state, block by block.

    Each raw feature block runs through :func:`apply_model_state`
    (feature map, scaler, linear form).
    """
    scores = np.empty(source.n_candidates, dtype=np.float64)
    for offset, X in source.feature_blocks():
        scores[offset: offset + X.shape[0]] = apply_model_state(state, X)
    return scores


# ----------------------------------------------------------------------
# The backend protocol
# ----------------------------------------------------------------------
class ModelBackend:
    """One model family behind the streamed fit seam.

    Lifecycle, per fit round: :meth:`begin` binds the backend to a
    block source and does the per-round precomputation (Gram
    accumulation, map fitting, training-row gathers are all deferred to
    the concrete class); :meth:`fit` trains on the current labels and
    returns a packed weight vector; :meth:`scores` maps a weight vector
    back to whole-of-source decision scores.  The alternating engine
    calls ``fit``/``scores`` repeatedly between ``begin`` calls with
    the label vector evolving — exactly the closure contract the
    ridge-only path used, now model-agnostic.

    ``trains_on`` declares what :meth:`fit` learns from: ``"all"``
    backends (ridge) regress on every candidate's current pseudo-label;
    ``"labeled"`` backends (SVM) train on the clamped/labeled rows only
    — the supervised semantics of the paper's SVM baselines, which also
    keeps the optimizer's working set at the label budget rather than
    |H|; ``"pu"`` backends (the biased SVM) train on every streamed
    row, with the clamped indices marking which rows carry full cost.

    Sticky cross-round state (a fitted feature map's landmark sample
    and statistics, the last dual solution) round-trips through
    :meth:`state_dict`/:meth:`load_state_dict`, which is how backends
    enter session checkpoints.
    """

    kind: str = "backend"
    #: ``"all"`` — fit on every row; ``"labeled"`` — fit on train rows;
    #: ``"pu"`` — fit on every row, train indices mark the C-cost band.
    trains_on: str = "all"

    def __init__(self, feature_map=None) -> None:
        self.feature_map = feature_map
        self._map_fitted = False
        # The source the fitted map belongs to.  ``None`` while a
        # checkpoint-restored map waits to adopt its first source.
        self._map_source = None
        self._source = None

    # -- feature-map plumbing ------------------------------------------
    def _ensure_map(self, source) -> None:
        """Fit the configured feature map once *per bound task*.

        :class:`~repro.ml.kernels.NystroemMap` consumes the stream (its
        reservoir sample); the other maps need only the input
        dimensionality and fit on the first block.  Repeated ``begin``
        calls with the *same* source (the active loop's per-round
        refits) reuse the fitted map — the feature space stays fixed
        across query rounds, which is what makes checkpointed resumes
        byte-identical — while binding to a *different* source (a model
        instance refit on a new task) refits the map, so no landmark
        sample or projection ever leaks between tasks.  A map restored
        by :meth:`load_state_dict` adopts the next source without
        refitting (that is the resume path).
        """
        if self.feature_map is None:
            return
        if self._map_fitted:
            if self._map_source is None:
                self._map_source = source
                return
            if self._map_source is source:
                return
            self._map_fitted = False
        if hasattr(self.feature_map, "fit_streamed"):
            self.feature_map.fit_streamed(
                X for _, X in source.feature_blocks()
            )
        else:
            first = next(iter(source.feature_blocks()), None)
            if first is None:
                raise ModelError("cannot fit a feature map on zero blocks")
            self.feature_map.fit(first[1])
        self._map_fitted = True
        self._map_source = source

    def _transform(self, X: np.ndarray) -> np.ndarray:
        """Apply the fitted feature map (identity when none)."""
        if self.feature_map is None:
            return X
        return self.feature_map.transform(X)

    def _map_state(self) -> Optional[Dict]:
        """Picklable state of the fitted map, or ``None``."""
        if self.feature_map is None or not self._map_fitted:
            return None
        return self.feature_map.state_dict()

    # -- protocol ------------------------------------------------------
    def begin(
        self,
        source,
        sample_weight: Optional[np.ndarray] = None,
        train_indices: Optional[np.ndarray] = None,
    ) -> None:
        """Bind to a block source and do per-round precomputation."""
        raise NotImplementedError

    def fit(self, y: np.ndarray) -> np.ndarray:
        """Train on the bound source; returns the packed weight vector."""
        raise NotImplementedError

    def scores(self, weights: np.ndarray) -> np.ndarray:
        """Whole-of-source decision scores for a packed weight vector."""
        raise NotImplementedError

    def state_dict(self) -> Dict:
        """Picklable sticky state (for checkpoints)."""
        raise NotImplementedError

    def load_state_dict(self, state: Dict) -> None:
        """Restore :meth:`state_dict` output (checkpoint resume)."""
        raise NotImplementedError

    def _check_state_kind(self, state: Dict) -> None:
        found = state.get("kind")
        if found != self.kind:
            raise ModelError(
                f"checkpoint carries {found!r} backend state but this model "
                f"uses the {self.kind!r} backend; resume with the model "
                "configuration the run was started with"
            )

    def _restore_map(self, state: Dict) -> None:
        map_state = state.get("map")
        if map_state is not None:
            self.feature_map = feature_map_from_state(map_state)
            self._map_fitted = True
            self._map_source = None  # adopt the next bound source as-is


class RidgeBackend(ModelBackend):
    """The paper's closed-form ridge, behind the backend seam.

    Without a feature map this is byte-for-byte the pre-seam streamed
    path: ``begin`` factorizes the source's block-accumulated
    ``XᵀΩX`` through :class:`~repro.ml.ridge.GramRidgeSolver`,
    ``fit`` solves against the block-accumulated right-hand side, and
    ``scores`` delegates to the source's own score sweep (keeping the
    streamed task's dirty-block rescore cache).  With a feature map the
    same accumulations run over mapped blocks.
    """

    kind = "ridge"
    trains_on = "all"

    def __init__(self, c: float = 1.0, feature_map=None) -> None:
        super().__init__(feature_map=feature_map)
        if c <= 0:
            raise ModelError(f"loss weight c must be > 0, got {c}")
        self.c = float(c)
        self._solver: Optional[GramRidgeSolver] = None
        self._sample_weight: Optional[np.ndarray] = None

    def begin(self, source, sample_weight=None, train_indices=None) -> None:
        if train_indices is not None:
            raise ModelError(
                "the ridge backend regresses on every candidate; "
                "train_indices only applies to 'labeled' backends"
            )
        self._source = source
        self._sample_weight = sample_weight
        self._ensure_map(source)
        if self.feature_map is None and hasattr(source, "gram"):
            gram = source.gram(sample_weight)
        else:
            gram = None
            for offset, X in source.feature_blocks():
                Z = self._transform(X)
                if gram is None:
                    gram = np.zeros((Z.shape[1], Z.shape[1]))
                if sample_weight is None:
                    gram += Z.T @ Z
                else:
                    weights = sample_weight[offset: offset + Z.shape[0]]
                    gram += (Z.T * weights) @ Z
            if gram is None:
                raise ModelError("cannot fit on an empty block stream")
        self._solver = GramRidgeSolver(gram, c=self.c)

    def fit(self, y: np.ndarray) -> np.ndarray:
        if self._solver is None or self._source is None:
            raise NotFittedError("RidgeBackend.begin has not been called")
        y = np.asarray(y, dtype=np.float64).ravel()
        target = y if self._sample_weight is None else y * self._sample_weight
        if self.feature_map is None and hasattr(self._source, "xt_dot"):
            rhs = self._source.xt_dot(target)
        else:
            rhs = np.zeros(self._solver.n_features)
            for offset, X in self._source.feature_blocks():
                Z = self._transform(X)
                rhs += Z.T @ target[offset: offset + Z.shape[0]]
        return self._solver.solve_rhs(rhs)

    def scores(self, weights: np.ndarray) -> np.ndarray:
        if self._source is None:
            raise NotFittedError("RidgeBackend.begin has not been called")
        if self.feature_map is None and hasattr(self._source, "scores"):
            return self._source.scores(weights)
        state = LinearModelState(
            coef=np.asarray(weights, dtype=np.float64).ravel(),
            map_state=self._map_state(),
        )
        return _stream_scores(self._source, state)

    def state_dict(self) -> Dict:
        return {"kind": self.kind, "c": self.c, "map": self._map_state()}

    def load_state_dict(self, state: Dict) -> None:
        self._check_state_kind(state)
        self._restore_map(state)


def _fit_scaler(blocks) -> StandardScaler:
    """Standardization statistics over an iterable of mapped blocks.

    A single block dense-fits :class:`StandardScaler`, bit-identical to
    the dense baseline's scaler; several blocks accumulate moments in
    stream order, so the blocks are never concatenated.
    """
    first: Optional[np.ndarray] = None
    n_blocks = 0
    count = 0
    total = None
    total_sq = None
    for block in blocks:
        n_blocks += 1
        if n_blocks == 1:
            first = block
        if total is None:
            total = block.sum(axis=0)
            total_sq = (block * block).sum(axis=0)
        else:
            total += block.sum(axis=0)
            total_sq += (block * block).sum(axis=0)
        count += block.shape[0]
    if count == 0:
        raise ModelError("cannot fit scaler on zero rows")
    if n_blocks == 1:
        return StandardScaler().fit(first)
    scaler = StandardScaler()
    mean = total / count
    variance = np.maximum(total_sq / count - mean * mean, 0.0)
    std = np.sqrt(variance)
    std[std == 0] = 1.0
    scaler.mean_ = mean
    scaler.scale_ = std
    return scaler


class SVMBackend(ModelBackend):
    """Soft-margin linear SVM behind the backend seam.

    Trains a :class:`~repro.ml.svm.LinearSVC` on the bound source's
    training rows — gathered from the block stream, never via a
    materialized ``|H| x d`` matrix — optionally standardized
    (statistics from the training rows only, the leakage-safe
    convention of the dense
    :class:`~repro.core.svm_baselines.SVMAligner`) and optionally
    kernelized through the composed feature map.  Scoring streams every
    block through :func:`apply_model_state`.

    With ``train_indices`` (the supervised mode used by the SVM
    baselines and by the active loop, where the clamped set is the
    training set), the fit gathers exactly those rows and solves over
    them in memory; without it the optimizer streams the whole source
    through :meth:`~repro.ml.svm.LinearSVC.fit_source`.

    ``mode="pu"`` is the positive-unlabeled variant: the fit trains on
    the clamped rows at cost ``C`` *plus every other streamed candidate
    row as a weighted soft negative* at cost ``unlabeled_C`` (the
    biased-SVM formulation), through
    :meth:`~repro.ml.svm.LinearSVC.fit_source` — an all-of-H dual pass
    kept tractable by the certified working-set sweep, its compact
    resident row cache, and block screening (``svm.blocks_skipped`` /
    ``phase.svm_epoch`` in the bound session's metrics registry).

    Every fit, in either mode, adds to ``svm.unconverged_fits`` in that
    same registry when it stops at ``max_iter`` short of ``tol``
    (:attr:`~repro.ml.svm.LinearSVC.converged_` is ``False``).
    """

    kind = "svm"
    trains_on = "labeled"

    def __init__(
        self,
        C: float = 1.0,
        scale_features: bool = True,
        seed: int = 0,
        feature_map=None,
        max_iter: int = 1000,
        tol: float = 1e-4,
        mode: str = "supervised",
        unlabeled_C: float = 0.1,
        shrink: bool = True,
    ) -> None:
        super().__init__(feature_map=feature_map)
        if mode not in ("supervised", "pu"):
            raise ModelError(
                f"mode must be 'supervised' or 'pu', got {mode!r}"
            )
        if unlabeled_C <= 0:
            raise ModelError(f"unlabeled_C must be > 0, got {unlabeled_C}")
        self.C = float(C)
        self.scale_features = bool(scale_features)
        self.seed = int(seed)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.mode = mode
        self.unlabeled_C = float(unlabeled_C)
        self.shrink = bool(shrink)
        #: PU backends receive the clamped indices (they set the
        #: positive cost band) but train on every candidate row.
        self.trains_on = "labeled" if mode == "supervised" else "pu"
        self.svc_: Optional[LinearSVC] = None
        self.scaler_: Optional[StandardScaler] = None
        self._sample_weight: Optional[np.ndarray] = None
        self._train_indices: Optional[np.ndarray] = None
        self._train_rows: Optional[np.ndarray] = None
        self._fit_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._score_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def begin(self, source, sample_weight=None, train_indices=None) -> None:
        self._source = source
        self._sample_weight = sample_weight
        self._train_indices = (
            np.asarray(train_indices, dtype=np.int64)
            if train_indices is not None
            else None
        )
        self._ensure_map(source)
        # Training rows are fixed for the duration of one round: the
        # alternation loop calls fit() per inner iteration, and the
        # gather (a full block sweep on a streamed source) plus the map
        # transform are loop-invariant — cache them per begin().  The
        # solve and the whole-of-source score sweep are likewise pure
        # functions of (training labels, weights) within a round, so
        # repeat calls with unchanged inputs (the alternation loop's
        # fixed clamped labels) return the cached result instead of
        # re-running the optimizer and another full block sweep.
        self._train_rows = None
        self._fit_cache = None
        self._score_cache = None

    def _gathered_rows(self) -> np.ndarray:
        """The mapped training rows, gathered once per :meth:`begin`."""
        if self._train_rows is None:
            raw = gather_rows(self._source, self._train_indices)
            self._train_rows = self._transform(raw)
        return self._train_rows

    def _scaled(self, Z: np.ndarray) -> np.ndarray:
        """Apply the fitted scaler (identity when scaling is off)."""
        return self.scaler_.transform(Z) if self.scaler_ is not None else Z

    def _pu_costs(self) -> Optional[np.ndarray]:
        """PU box constraints: ``C`` on clamped rows, ``unlabeled_C``
        elsewhere, times any sample weights; ``None`` when supervised."""
        if self.mode != "pu":
            return None
        box = np.full(self._source.n_candidates, self.unlabeled_C)
        if self._train_indices is not None:
            box[self._train_indices] = self.C
        else:
            box[:] = self.C
        if self._sample_weight is not None:
            box = box * np.asarray(self._sample_weight, dtype=np.float64).ravel()
        return box

    def _metrics_registry(self):
        """The bound session's registry, else the process-global one."""
        session = getattr(self._source, "session", None)
        metrics = getattr(session, "metrics", None)
        if metrics is not None:
            return metrics
        return global_registry()

    def fit(self, y: np.ndarray) -> np.ndarray:
        if self._source is None:
            raise NotFittedError("SVMBackend.begin has not been called")
        y = np.asarray(y).ravel()
        if y.shape[0] != self._source.n_candidates:
            raise ModelError(
                f"label vector length {y.shape[0]} does not match "
                f"{self._source.n_candidates} candidates"
            )
        labels = np.asarray(np.rint(y), dtype=np.int64)
        # Supervised fits with train indices solve over the gathered
        # training rows, held in memory (the active loop's hot path);
        # PU and all-rows fits stream the whole source through the
        # evicting working set.
        gathered = self.mode == "supervised" and self._train_indices is not None
        if gathered:
            labels = labels[self._train_indices]
        if self._fit_cache is not None and np.array_equal(
            self._fit_cache[0], labels
        ):
            return self._fit_cache[1].copy()
        self.svc_ = LinearSVC(
            C=self.C, max_iter=self.max_iter, tol=self.tol,
            seed=self.seed, shrink=self.shrink,
        )
        if gathered:
            rows = self._gathered_rows()
            self.scaler_ = _fit_scaler([rows]) if self.scale_features else None
            weights = self._sample_weight
            self.svc_.fit_blocks(
                [self._scaled(rows)],
                labels,
                sample_weight=(
                    weights[self._train_indices]
                    if weights is not None else None
                ),
            )
        else:
            self.scaler_ = _fit_scaler(
                self._transform(np.asarray(X, dtype=np.float64))
                for _, X in self._source.feature_blocks()
            ) if self.scale_features else None
            self.svc_.fit_source(
                self._source,
                labels,
                sample_weight=self._sample_weight,
                sample_C=self._pu_costs(),
                prepare=lambda X: self._scaled(self._transform(X)),
                registry=self._metrics_registry(),
            )
        self._metrics_registry().counter("svm.unconverged_fits").inc(
            int(not self.svc_.converged_)
        )
        packed = np.concatenate([self.svc_.coef_, [self.svc_.intercept_]])
        self._fit_cache = (labels.copy(), packed.copy())
        return packed

    def _model_state(self, weights: np.ndarray) -> LinearModelState:
        weights = np.asarray(weights, dtype=np.float64).ravel()
        return LinearModelState(
            coef=weights[:-1],
            intercept=float(weights[-1]),
            map_state=self._map_state(),
            scaler_mean=(
                np.asarray(self.scaler_.mean_)
                if self.scaler_ is not None
                else None
            ),
            scaler_scale=(
                np.asarray(self.scaler_.scale_)
                if self.scaler_ is not None
                else None
            ),
        )

    def scores(self, weights: np.ndarray) -> np.ndarray:
        if self._source is None:
            raise NotFittedError("SVMBackend.begin has not been called")
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if self._score_cache is not None and np.array_equal(
            self._score_cache[0], weights
        ):
            return self._score_cache[1].copy()
        result = _stream_scores(self._source, self._model_state(weights))
        self._score_cache = (weights.copy(), result.copy())
        return result

    def state_dict(self) -> Dict:
        svc_state = None
        if self.svc_ is not None and self.svc_.coef_ is not None:
            svc_state = {
                "coef": np.array(self.svc_.coef_),
                "intercept": self.svc_.intercept_,
                "n_iter": self.svc_.n_iter_,
                "shrink_stats": dict(self.svc_.shrink_stats_),
            }
        scaler_state = None
        if self.scaler_ is not None and self.scaler_.mean_ is not None:
            scaler_state = {
                "mean": np.array(self.scaler_.mean_),
                "scale": np.array(self.scaler_.scale_),
            }
        return {
            "kind": self.kind,
            "C": self.C,
            "mode": self.mode,
            "unlabeled_C": self.unlabeled_C,
            "shrink": self.shrink,
            "map": self._map_state(),
            "scaler": scaler_state,
            "svc": svc_state,
        }

    def load_state_dict(self, state: Dict) -> None:
        self._check_state_kind(state)
        mode = state.get("mode", "supervised")
        if mode != self.mode:
            raise ModelError(
                f"checkpoint holds a {mode!r}-mode SVM backend but this "
                f"backend is {self.mode!r}"
            )
        self._restore_map(state)
        scaler_state = state.get("scaler")
        if scaler_state is not None:
            self.scaler_ = StandardScaler()
            self.scaler_.mean_ = np.asarray(scaler_state["mean"])
            self.scaler_.scale_ = np.asarray(scaler_state["scale"])
        svc_state = state.get("svc")
        if svc_state is not None:
            self.svc_ = LinearSVC(
                C=self.C, max_iter=self.max_iter, tol=self.tol,
                seed=self.seed, shrink=self.shrink,
            )
            self.svc_.coef_ = np.asarray(svc_state["coef"])
            self.svc_.intercept_ = float(svc_state["intercept"])
            self.svc_.n_iter_ = int(svc_state["n_iter"])
            self.svc_.shrink_stats_ = dict(
                svc_state.get("shrink_stats") or {}
            )


def make_backend(
    model: str = "ridge",
    c: float = 1.0,
    svm_C: float = 1.0,
    seed: int = 0,
    feature_map: Union[str, object, None] = None,
    scale_features: bool = True,
    max_iter: int = 1000,
    tol: float = 1e-4,
    unlabeled_C: float = 0.1,
    shrink: bool = True,
) -> ModelBackend:
    """Build a model backend from names and knobs.

    ``model`` is ``"ridge"``, ``"svm"`` or ``"svm-pu"`` (the
    positive-unlabeled biased SVM, all-of-H training at
    ``unlabeled_C`` per unlabeled row); ``feature_map`` is ``None``, a
    registry name (see :data:`~repro.ml.kernels.FEATURE_MAP_NAMES`) or
    a map instance.  ``seed`` reaches both the map (landmark /
    projection draws) and the SVM's coordinate shuffling; ``shrink``
    toggles the certified working-set sweep (bit-identical either way).
    """
    if model not in BACKEND_NAMES:
        raise ModelError(
            f"unknown model backend {model!r}; choose from {BACKEND_NAMES}"
        )
    if isinstance(feature_map, str):
        if feature_map not in FEATURE_MAP_NAMES:
            raise ModelError(
                f"unknown feature map {feature_map!r}; "
                f"choose from {FEATURE_MAP_NAMES}"
            )
        feature_map = make_feature_map(feature_map, seed=seed)
    if model == "ridge":
        return RidgeBackend(c=c, feature_map=feature_map)
    return SVMBackend(
        C=svm_C,
        scale_features=scale_features,
        seed=seed,
        feature_map=feature_map,
        max_iter=max_iter,
        tol=tol,
        mode="pu" if model == "svm-pu" else "supervised",
        unlabeled_C=unlabeled_C,
        shrink=shrink,
    )

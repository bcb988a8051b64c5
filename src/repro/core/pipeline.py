"""End-to-end alignment pipeline: networks in, anchor predictions out.

:class:`AlignmentPipeline` wires the stages for the common use case —
callers who just want predicted anchors from an aligned pair and a few
labeled examples, without assembling tasks manually:

    aligned pair + labeled links
        -> alignment session (meta diagram features, training anchors only)
        -> model (ActiveIter / Iter-MPMD / SVM)
        -> predicted anchor links

The pipeline owns one :class:`~repro.engine.session.AlignmentSession`
per lifetime: repeated ``run*`` calls reuse its cached count matrices
(attribute structures are never recomputed, anchor-dependent ones are
delta-updated), and active runs with ``refresh_features=True`` get the
session's sparse incremental anchor path.

The evaluation harness in :mod:`repro.eval` builds tasks directly for
finer experimental control; this pipeline is the library's front door.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.active.oracle import LabelOracle
from repro.active.strategies import QueryStrategy
from repro.core.activeiter import ActiveIter
from repro.core.base import AlignmentModel, AlignmentTask
from repro.core.itermpmd import IterMPMD
from repro.core.svm_baselines import SVMAligner
from repro.engine.candidates import (
    CandidateGenerator,
    linear_scorer,
    streamed_selection,
)
from repro.engine.parallel import WorkersSpec
from repro.engine.session import AlignmentSession
from repro.engine.streaming import (
    BlockSizeSpec,
    StreamedAlignmentTask,
    blockify,
    resolve_block_size,
)
from repro.exceptions import ModelError, NotFittedError
from repro.meta.diagrams import DiagramFamily
from repro.meta.features import FeatureExtractor
from repro.networks.aligned import AlignedPair
from repro.store.arena import MatrixArena
from repro.types import Labeled, LinkPair


class AlignmentPipeline:
    """Feature extraction plus model fitting in one object.

    Parameters
    ----------
    pair:
        The aligned networks.
    family:
        Meta structure family for features (defaults to the full Φ).
    include_words:
        Forwarded to the session (enables P7 matrices).
    feature_map:
        Optional kernel feature map ``g`` (§III-C.1) applied to the
        extracted proximity features; any object with
        ``fit(X)``/``transform(X)`` works (see :mod:`repro.ml.kernels`).
        ``None`` is the paper's linear kernel.
    session:
        Share an existing :class:`AlignmentSession` (e.g. with another
        pipeline or a candidate generator).  Defaults to a private one,
        created lazily on the first task build.
    workers:
        Execution-layer knob forwarded to the session: ``None``/``1``
        for serial, >= 2 for a thread pool, or a shared
        :class:`~repro.engine.parallel.Executor`.  Ignored when an
        existing ``session`` is supplied.
    store:
        Disk-backed matrix store (a directory path or a shared
        :class:`~repro.store.arena.MatrixArena`) forwarded to the
        session: count matrices spill to disk and are served as memory
        maps.  Ignored when an existing ``session`` is supplied.

    Notes
    -----
    The pipeline is a context manager; :meth:`close` (idempotent)
    releases the session it created — its thread pool and its
    arena handles — so ``with AlignmentPipeline(...) as pipeline:``
    never leaks pools, even on exceptions.
    """

    def __init__(
        self,
        pair: AlignedPair,
        family: Optional[DiagramFamily] = None,
        include_words: bool = False,
        feature_map=None,
        session: Optional[AlignmentSession] = None,
        workers: WorkersSpec = None,
        store: Optional[Union[str, Path, MatrixArena]] = None,
    ) -> None:
        self.pair = pair
        self.family = family
        self.include_words = include_words
        self.feature_map = feature_map
        self.workers = workers
        self.store = store
        self.session_: Optional[AlignmentSession] = session
        self._owns_session = session is None
        self.extractor_: Optional[FeatureExtractor] = None
        self.model_: Optional[AlignmentModel] = None
        self.task_: Optional[AlignmentTask] = None

    # ------------------------------------------------------------------
    def _session_for(self, known_anchors: Sequence[LinkPair]) -> AlignmentSession:
        """The pipeline's session, anchored at ``known_anchors``.

        Created on first use; later calls reuse cached structure counts
        and delta-update the anchor-dependent ones.
        """
        if self.session_ is None:
            self.session_ = AlignmentSession(
                self.pair,
                family=self.family,
                known_anchors=known_anchors,
                include_words=self.include_words,
                workers=self.workers,
                store=self.store,
            )
            self._owns_session = True
        else:
            self.session_.set_anchors(known_anchors)
        return self.session_

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the session the pipeline created (idempotent).

        A session passed in at construction is shared state and stays
        open — its owner closes it.
        """
        if self._owns_session and self.session_ is not None:
            self.session_.close()

    def __enter__(self) -> "AlignmentPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def build_task(
        self,
        candidates: Sequence[LinkPair],
        labeled: Sequence[Labeled],
    ) -> AlignmentTask:
        """Extract features and assemble an :class:`AlignmentTask`.

        Only the *positive* labeled links feed the anchor matrix used in
        path counting, so test/unlabeled anchors never leak.
        """
        if not candidates:
            raise ModelError("no candidate links supplied")
        # One canonical list object: the session's view cache is keyed by
        # list identity, so extraction and the task must share it or the
        # active loop would maintain (and delta-patch) two views.
        candidates = list(candidates)
        candidate_index = {pair: i for i, pair in enumerate(candidates)}
        labeled_indices: List[int] = []
        labeled_values: List[int] = []
        for item in labeled:
            try:
                labeled_indices.append(candidate_index[item.pair])
            except KeyError:
                raise ModelError(
                    f"labeled link {item.pair!r} is not in the candidate list"
                ) from None
            labeled_values.append(item.label)
        known_anchors = [item.pair for item in labeled if item.label == 1]
        session = self._session_for(known_anchors)
        self.extractor_ = FeatureExtractor.from_session(session)
        X = session.extract(candidates)
        if self.feature_map is not None:
            self.feature_map.fit(X)
            X = self.feature_map.transform(X)
        self.task_ = AlignmentTask(
            pairs=candidates,
            X=X,
            labeled_indices=np.asarray(labeled_indices, dtype=np.int64),
            labeled_values=np.asarray(labeled_values, dtype=np.int64),
        )
        return self.task_

    def build_streamed_task(
        self,
        candidates: Sequence[LinkPair],
        labeled: Sequence[Labeled],
        block_size: BlockSizeSpec = 4096,
    ) -> StreamedAlignmentTask:
        """Assemble a :class:`StreamedAlignmentTask` — no |H| x d matrix.

        The candidate list is chopped into ``block_size`` blocks
        (``"auto"`` tunes the size from a measured probe extraction);
        features are extracted per block, per pass, from the pipeline's
        session.  Labeling rules match :meth:`build_task` exactly.
        """
        if not candidates:
            raise ModelError("no candidate links supplied")
        if self.feature_map is not None:
            raise ModelError(
                "streamed tasks support the linear kernel only "
                "(feature_map transforms need the materialized matrix)"
            )
        candidates = list(candidates)
        candidate_index = {pair: i for i, pair in enumerate(candidates)}
        labeled_indices: List[int] = []
        labeled_values: List[int] = []
        for item in labeled:
            try:
                labeled_indices.append(candidate_index[item.pair])
            except KeyError:
                raise ModelError(
                    f"labeled link {item.pair!r} is not in the candidate list"
                ) from None
            labeled_values.append(item.label)
        known_anchors = [item.pair for item in labeled if item.label == 1]
        session = self._session_for(known_anchors)
        self.extractor_ = FeatureExtractor.from_session(session)
        resolved = resolve_block_size(session, candidates, block_size)
        task = StreamedAlignmentTask(
            session,
            blockify(candidates, resolved),
            np.asarray(labeled_indices, dtype=np.int64),
            np.asarray(labeled_values, dtype=np.int64),
        )
        task.block_size = resolved
        self.task_ = task
        return task

    # ------------------------------------------------------------------
    def run(
        self,
        candidates: Sequence[LinkPair],
        labeled: Sequence[Labeled],
        model: Optional[AlignmentModel] = None,
    ) -> List[LinkPair]:
        """Fit a model and return its predicted anchor links.

        ``model`` defaults to :class:`~repro.core.itermpmd.IterMPMD`.
        """
        task = self.build_task(candidates, labeled)
        self.model_ = model if model is not None else IterMPMD()
        self.model_.fit(task)
        return self.model_.predicted_anchors()

    def run_active(
        self,
        candidates: Sequence[LinkPair],
        labeled: Sequence[Labeled],
        budget: int,
        strategy: Optional[QueryStrategy] = None,
        batch_size: int = 5,
        refresh_features: bool = False,
        streamed: bool = False,
        block_size: BlockSizeSpec = 4096,
        checkpoint=None,
    ) -> List[LinkPair]:
        """Fit ActiveIter with an oracle built from the pair's ground truth.

        The oracle answers from ``pair.anchors`` — appropriate for
        benchmark/simulation settings where ground truth exists.  For
        real deployments construct :class:`ActiveIter` directly with a
        custom oracle.  With ``refresh_features=True`` queried positives
        flow back into the session as sparse delta anchor updates.

        With ``streamed=True`` the fit runs over candidate blocks of
        ``block_size`` instead of a materialized feature matrix (see
        :meth:`build_streamed_task`); query strategies consume scored
        blocks and select the same query sets as the materialized path.

        ``checkpoint`` (a
        :class:`~repro.store.checkpoint.SessionCheckpoint`) makes the
        query loop durable and resumable — see :class:`ActiveIter`.
        """
        if refresh_features and self.feature_map is not None:
            raise ModelError(
                "refresh_features is incompatible with a feature_map: "
                "refreshed proximity columns cannot be re-transformed in place"
            )
        if streamed:
            task = self.build_streamed_task(
                candidates, labeled, block_size=block_size
            )
        else:
            task = self.build_task(candidates, labeled)
        oracle = LabelOracle(self.pair.anchors, budget=budget)
        self.model_ = ActiveIter(
            oracle=oracle,
            strategy=strategy,
            batch_size=batch_size,
            session=self.session_ if (refresh_features or streamed) else None,
            refresh_features=refresh_features,
            checkpoint=checkpoint,
        )
        self.model_.fit(task)
        return self.model_.predicted_anchors()

    def run_svm(
        self,
        candidates: Sequence[LinkPair],
        labeled: Sequence[Labeled],
        C: float = 1.0,
    ) -> List[LinkPair]:
        """Fit the SVM baseline over the pipeline's feature family."""
        task = self.build_task(candidates, labeled)
        self.model_ = SVMAligner(C=C)
        self.model_.fit(task)
        return self.model_.predicted_anchors()

    # ------------------------------------------------------------------
    def stream_predict(
        self,
        generator: Optional[CandidateGenerator] = None,
        threshold: float = 0.5,
        block_size: int = 4096,
        min_structures: int = 1,
    ) -> List[LinkPair]:
        """Score the *whole pruned candidate space* with the fitted model.

        The sampled-H task a model was fitted on covers only a slice of
        |U1| x |U2|; this method reuses the learned linear weights to
        sweep the full space in streamed blocks — candidates are pruned
        to the union of the meta structures' supports
        (:meth:`CandidateGenerator.from_support`) and selected with the
        exact streamed greedy pass.  Requires a fitted linear model
        (Iter-MPMD / ActiveIter) on untransformed features.
        """
        if self.session_ is None or self.model_ is None:
            raise NotFittedError("run a model before streaming predictions")
        weights = getattr(self.model_, "weights_", None)
        if weights is None:
            raise ModelError(
                "stream_predict needs a linear model exposing weights_"
            )
        if self.feature_map is not None:
            raise ModelError(
                "stream_predict supports the linear kernel only "
                "(feature_map transforms are not streamable)"
            )
        if generator is None:
            # Support pruning drops pairs with all-zero proximity
            # features, which is only sound while such pairs score below
            # the threshold.  With a bias column they score exactly the
            # bias weight — if that alone clears the threshold (a
            # degenerate but possible fit), sweep the full space instead.
            zero_feature_score = (
                float(weights[-1]) if self.session_.include_bias else 0.0
            )
            if zero_feature_score > threshold:
                generator = CandidateGenerator(
                    self.pair, block_size=block_size
                )
            else:
                generator = CandidateGenerator.from_support(
                    self.session_,
                    block_size=block_size,
                    min_structures=min_structures,
                )
        known = self.session_.known_anchors
        selected = streamed_selection(
            generator,
            linear_scorer(self.session_, weights),
            threshold=threshold,
            blocked_left={left for left, _ in known},
            blocked_right={right for _, right in known},
            workers=self.session_.executor,
        )
        return [pair for pair, _ in selected]

"""SVM-MP and SVM-MPMD baseline aligners (§IV-B.2).

Both are plain supervised linear SVMs trained on the labeled candidates
and applied to the rest; they differ only in the feature family used
upstream (meta paths only vs paths + meta diagrams), which is decided by
the caller when extracting features.  They apply **no** one-to-one
constraint and no PU iteration — that is the point of the comparison.

:class:`SVMAligner` is a thin wrapper around the model-backend seam
(:class:`~repro.ml.backends.SVMBackend`): a materialized task runs as a
one-block stream, and a
:class:`~repro.engine.streaming.StreamedAlignmentTask` runs the very
same code over blocks — training gathers only the labeled rows, scoring
streams every block (through the process pool when the session is
store-backed), and the |H| x d matrix never exists.  The streamed fit
is byte-identical to the materialized one given the seed: the gathered
training rows, the dual-coordinate-descent updates and the per-row
scoring arithmetic are all identical.  ``feature_map=`` composes a
kernel feature map (Nyström landmarks, random Fourier, polynomial)
into both paths.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import AlignmentModel, AlignmentResult, AlignmentTask
from repro.exceptions import ModelError
from repro.ml.backends import SVMBackend, as_block_source


class SVMAligner(AlignmentModel):
    """Supervised SVM aligner over precomputed or streamed link features.

    Parameters
    ----------
    C:
        SVM inverse regularization strength.
    scale_features:
        Standardize features on the labeled rows before fitting.
    seed:
        Seed for the SVM optimizer's coordinate shuffling (and for the
        feature map's random draws, when one is configured).
    feature_map:
        Optional kernel feature map — a registry name (see
        :data:`~repro.ml.kernels.FEATURE_MAP_NAMES`) or a map instance —
        applied to every feature block before scaling and fitting.
    """

    def __init__(
        self,
        C: float = 1.0,
        scale_features: bool = True,
        seed: int = 0,
        feature_map=None,
    ) -> None:
        super().__init__()
        self.C = float(C)
        self.scale_features = bool(scale_features)
        self.seed = int(seed)
        self.backend = SVMBackend(
            C=self.C,
            scale_features=self.scale_features,
            seed=self.seed,
            feature_map=self._resolve_map(feature_map),
        )
        self.svc_ = None
        self.scaler_ = None

    def _resolve_map(self, feature_map):
        if isinstance(feature_map, str):
            from repro.ml.kernels import make_feature_map

            return make_feature_map(feature_map, seed=self.seed)
        return feature_map

    def fit(self, task: AlignmentTask) -> "SVMAligner":
        """Train on the labeled candidates, label every candidate."""
        if task.labeled_indices.size == 0:
            raise ModelError("SVMAligner requires at least one labeled link")
        self.task_ = task
        self.backend.begin(
            as_block_source(task), train_indices=task.labeled_indices
        )
        y = np.zeros(task.n_candidates, dtype=np.int64)
        y[task.labeled_indices] = task.labeled_values
        weights = self.backend.fit(y)
        scores = self.backend.scores(weights)
        self.svc_ = self.backend.svc_
        self.scaler_ = self.backend.scaler_

        labels = (scores > 0).astype(np.int64)
        # Known labels are known: keep them clamped in the output.
        labels[task.labeled_indices] = task.labeled_values
        self.result_ = AlignmentResult(
            labels=labels,
            scores=scores,
            queried=(),
            convergence_trace=(),
            n_rounds=1,
        )
        return self

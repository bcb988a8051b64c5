"""repro — reproduction of "Meta Diagram based Active Social Networks
Alignment" (Ren, Aggarwal, Zhang; ICDE 2019).

Public API tour:

* :mod:`repro.networks` — attributed heterogeneous social networks,
  aligned pairs, anchors, schemas, I/O.
* :mod:`repro.synth` / :mod:`repro.datasets` — synthetic aligned network
  generation (the documented stand-in for the paper's crawl).
* :mod:`repro.meta` — inter-network meta paths/diagrams, counting,
  proximities and link feature extraction.
* :mod:`repro.engine` — the incremental alignment engine: per-pair
  :class:`~repro.engine.session.AlignmentSession` state with sparse
  delta anchor updates, plus batched candidate streaming.
* :mod:`repro.core` — the ActiveIter model, Iter-MPMD and SVM baselines,
  plus the end-to-end :class:`~repro.core.pipeline.AlignmentPipeline`.
* :mod:`repro.matching`, :mod:`repro.active`, :mod:`repro.ml` —
  supporting subsystems (one-to-one selection, oracle/strategies, ML
  primitives).
* :mod:`repro.store` — disk-backed state: the memory-mapped
  :class:`~repro.store.arena.MatrixArena`, atomic
  :class:`~repro.store.checkpoint.SessionCheckpoint` snapshots with a
  byte-identical resume path.
* :mod:`repro.eval` — the paper's full experimental protocol and the
  harnesses behind every table and figure.
"""

from repro.core import (
    ActiveIter,
    AlignmentPipeline,
    AlignmentResult,
    AlignmentTask,
    IterMPMD,
    SVMAligner,
)
from repro.datasets import foursquare_twitter_like
from repro.engine import (
    AlignmentSession,
    CandidateGenerator,
    StreamedAlignmentTask,
)
from repro.meta import FeatureExtractor, standard_diagram_family
from repro.networks import (
    AlignedPair,
    HeterogeneousNetwork,
    NetworkDelta,
    SocialNetworkBuilder,
)
from repro.store import MatrixArena, SessionCheckpoint
from repro.synth import WorldConfig, generate_aligned_pair
from repro.types import Labeled

__version__ = "1.0.0"

__all__ = [
    "ActiveIter",
    "AlignedPair",
    "AlignmentPipeline",
    "AlignmentResult",
    "AlignmentSession",
    "AlignmentTask",
    "CandidateGenerator",
    "StreamedAlignmentTask",
    "FeatureExtractor",
    "HeterogeneousNetwork",
    "IterMPMD",
    "Labeled",
    "MatrixArena",
    "NetworkDelta",
    "SVMAligner",
    "SessionCheckpoint",
    "SocialNetworkBuilder",
    "WorldConfig",
    "__version__",
    "foursquare_twitter_like",
    "generate_aligned_pair",
    "standard_diagram_family",
]

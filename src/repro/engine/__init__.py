"""Incremental alignment engine: sessions, delta updates, streaming.

The engine layer sits between the meta-structure counting algebra and
the models.  An :class:`~repro.engine.session.AlignmentSession` owns all
per-pair cached state (count matrices, proximities, the known anchor
set) and updates it incrementally as the active loop buys labels;
:mod:`repro.engine.candidates` streams the candidate space in pruned
blocks instead of materializing the |U1| x |U2| cross product;
:mod:`repro.engine.streaming` carries whole fit problems in block form
(no |H| x d feature matrix); :mod:`repro.engine.parallel` provides
the executor abstraction that fans per-structure and per-block work out
across threads with byte-identical results;
and :mod:`repro.engine.evolution` scripts deterministic network-growth
schedules for the evolving-network workload served by
``AlignmentSession.apply_network_delta``.
"""

from repro.engine.candidates import (
    BlockDescriptor,
    CandidateGenerator,
    linear_scorer,
    streamed_selection,
)
from repro.engine.evolution import (
    evolution_rounds,
    replay_schedule,
    scripted_delta_schedule,
)
from repro.engine.incremental import (
    DeltaEvaluator,
    apply_delta,
    leaf_occurrences,
    pad_csr,
    supports_delta,
)
from repro.engine.parallel import (
    Executor,
    SerialExecutor,
    ThreadedExecutor,
    get_executor,
)
from repro.engine.session import AlignmentSession, SessionStats
from repro.engine.streaming import (
    AUTO_BLOCK_SIZE,
    StreamedAlignmentTask,
    blockify,
    resolve_block_size,
    tune_block_size,
)

__all__ = [
    "AUTO_BLOCK_SIZE",
    "AlignmentSession",
    "BlockDescriptor",
    "CandidateGenerator",
    "DeltaEvaluator",
    "Executor",
    "SerialExecutor",
    "SessionStats",
    "StreamedAlignmentTask",
    "ThreadedExecutor",
    "apply_delta",
    "blockify",
    "evolution_rounds",
    "get_executor",
    "leaf_occurrences",
    "linear_scorer",
    "pad_csr",
    "replay_schedule",
    "resolve_block_size",
    "scripted_delta_schedule",
    "streamed_selection",
    "supports_delta",
    "tune_block_size",
]

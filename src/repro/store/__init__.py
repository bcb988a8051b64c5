"""Disk-backed state for the alignment engine: spill, resume, fan out.

The store layer is what lets the engine outgrow RAM and survive
restarts, built from three pieces that share one ``store_dir``:

* :mod:`repro.store.arena` — :class:`MatrixArena`, a versioned,
  atomically-written, memory-mapped matrix store.  Sessions spill their
  count matrices into it and read them back as mmaps, so the resident
  set is the pages in flight rather than every materialized matrix;
* :mod:`repro.store.checkpoint` — :class:`SessionCheckpoint`, atomic
  snapshot/restore of session plus active-loop state with a resume path
  that is byte-identical to an uninterrupted run;
* :mod:`repro.store.procwork` — picklable block descriptors and job
  functions resolved against the shared arena, the work units of the
  :class:`~repro.engine.parallel.ProcessExecutor` (matrices cross
  process boundaries as page-cache mappings, never as pickles).
"""

from repro.store.arena import MatrixArena, as_arena
from repro.store.checkpoint import CHECKPOINT_FILENAME, SessionCheckpoint
from repro.store.memory import peak_rss_bytes
from repro.store.procwork import (
    SESSION_META,
    SESSION_SLOTS,
    ArenaLinearScorer,
    ArenaSpec,
    BlockDescriptor,
    col_sums_slot,
    counts_slot,
    extract_block_job,
    model_score_block_job,
    row_sums_slot,
    score_block_job,
)

__all__ = [
    "ArenaLinearScorer",
    "ArenaSpec",
    "BlockDescriptor",
    "CHECKPOINT_FILENAME",
    "MatrixArena",
    "SESSION_META",
    "SESSION_SLOTS",
    "SessionCheckpoint",
    "as_arena",
    "col_sums_slot",
    "counts_slot",
    "extract_block_job",
    "model_score_block_job",
    "peak_rss_bytes",
    "row_sums_slot",
    "score_block_job",
]

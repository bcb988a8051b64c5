"""Disk-backed state for the alignment engine: spill and resume.

The store layer is what lets the engine outgrow RAM and survive
restarts, built from two pieces that share one ``store_dir``:

* :mod:`repro.store.arena` — :class:`MatrixArena`, a versioned,
  atomically-written, memory-mapped matrix store.  Sessions spill their
  count matrices into it and read them back as mmaps, so the resident
  set is the pages in flight rather than every materialized matrix;
* :mod:`repro.store.checkpoint` — :class:`SessionCheckpoint`, atomic
  snapshot/restore of session plus active-loop state with a resume path
  that is byte-identical to an uninterrupted run.
"""

from repro.store.arena import MatrixArena, as_arena
from repro.store.checkpoint import CHECKPOINT_FILENAME, SessionCheckpoint
from repro.store.memory import peak_rss_bytes

__all__ = [
    "CHECKPOINT_FILENAME",
    "MatrixArena",
    "SessionCheckpoint",
    "as_arena",
    "peak_rss_bytes",
]

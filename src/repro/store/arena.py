"""Disk-backed matrix arena: memory-mapped storage for engine state.

A :class:`MatrixArena` owns one ``store_dir`` holding numpy ``.npy``
files plus a versioned JSON manifest.  Three kinds of entries exist:

* **CSR matrices** — stored as three component arrays
  (``data``/``indices``/``indptr``); :meth:`get` reconstructs the
  matrix over ``np.load(..., mmap_mode="r")`` views, so reading a
  matrix costs no resident memory beyond the pages actually touched;
* **dense arrays** — one ``.npy`` file, also served memory-mapped;
* **objects** — arbitrary picklable payloads (vocabulary/position
  maps, small metadata records).

Writes are **atomic**: every component is written to a temporary file
and ``os.replace``-d into place, and the manifest is rewritten the same
way with a monotonically increasing ``version``.  A reader (including
one in another process — the :class:`~repro.engine.parallel`
``ProcessExecutor`` workers) therefore never observes a half-written
matrix, and can use the version counter to detect staleness cheaply.

Entries are opened **lazily** and the open (mmap-backed) handles are
cached per name; :meth:`put` and :meth:`drop` invalidate the handle so
rewritten matrices are re-opened on next access.  Matrices are stored
with sorted indices in canonical format, and the reconstructed CSR is
flagged accordingly so no downstream consumer ever attempts an in-place
sort of the read-only mapped arrays.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import pickle
import re
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np
from scipy import sparse

from repro.exceptions import StoreError

logger = logging.getLogger(__name__)

#: Manifest format history: **1** — entries with kind/shape/files;
#: **2** — every entry additionally records a SHA-256 content digest per
#: component file (``"digests"``), which :meth:`MatrixArena.verify`
#: checks.  Version-1 manifests still load — their entries simply carry
#: no digests (and cannot be verified).
_FORMAT_VERSION = 2

#: Manifest format versions :meth:`MatrixArena._load_manifest` accepts.
_READABLE_FORMATS = (1, 2)

#: Characters allowed verbatim inside stored file stems.
_SAFE = re.compile(r"[^A-Za-z0-9._-]+")

#: Unique-per-call suffix source for temporary files.  PID alone is not
#: enough: two threads spilling the same entry (e.g. both racing to
#: memoize one shared counting-engine product) would collide on one tmp
#: path and one writer's ``os.replace`` would crash or publish a
#: truncated file.  ``itertools.count`` is atomic under the GIL.
_TMP_COUNTER = itertools.count()


def _tmp_path(path: Path) -> Path:
    """A collision-free temporary sibling of ``path``."""
    return path.with_suffix(f".tmp.{os.getpid()}.{next(_TMP_COUNTER)}")


def _slot_stem(name: str) -> str:
    """Filesystem-safe, collision-free stem for an entry name."""
    digest = hashlib.sha1(name.encode("utf-8")).hexdigest()[:10]
    readable = _SAFE.sub("_", name).strip("_")[:60] or "entry"
    return f"{readable}-{digest}"


def file_sha256(path: Union[str, Path]) -> str:
    """SHA-256 hex digest of one file, read in chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class MatrixArena:
    """Versioned, memory-mapped matrix store rooted at one directory.

    Parameters
    ----------
    store_dir:
        Directory holding the manifest and data files; created (with
        parents) when missing.  An existing manifest is loaded, so an
        arena can be reopened across processes and sessions.

    Notes
    -----
    The arena is the unit of sharing between processes: every worker
    opens the same ``store_dir`` and the OS page cache serves one
    physical copy of each matrix to all of them — matrices are never
    pickled across process boundaries.
    """

    def __init__(self, store_dir: Union[str, Path]) -> None:
        self.store_dir = Path(store_dir)
        self.data_dir = self.store_dir / "data"
        self.manifest_path = self.store_dir / "manifest.json"
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self._entries: Dict[str, Dict] = {}
        self._version = 0
        self._open: Dict[str, object] = {}
        # Serializes manifest/entry mutation: a threaded session spills
        # several structures concurrently into one arena.
        self._lock = threading.Lock()
        if self.manifest_path.exists():
            self._load_manifest()

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def _load_manifest(self) -> None:
        try:
            payload = json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise StoreError(
                f"unreadable arena manifest at {self.manifest_path}: {error}"
            ) from None
        version = payload.get("format_version")
        if version not in _READABLE_FORMATS:
            raise StoreError(
                f"unsupported arena manifest format {version!r} "
                f"(this build writes {_FORMAT_VERSION})"
            )
        self._entries = dict(payload.get("entries", {}))
        self._version = int(payload.get("version", 0))
        logger.debug(
            "loaded arena manifest %s: version=%d entries=%d",
            self.manifest_path,
            self._version,
            len(self._entries),
        )

    def _write_manifest(self) -> None:
        self._version += 1
        payload = {
            "format_version": _FORMAT_VERSION,
            "version": self._version,
            "entries": self._entries,
        }
        tmp = _tmp_path(self.manifest_path)
        tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
        os.replace(tmp, self.manifest_path)

    def refresh(self) -> int:
        """Re-read the manifest (another process may have written it)."""
        with self._lock:
            if self.manifest_path.exists():
                stale = set(self._entries)
                self._load_manifest()
                for name in stale | set(self._entries):
                    self._open.pop(name, None)
            return self._version

    @property
    def version(self) -> int:
        """Monotonic manifest version; bumps on every put/drop."""
        return self._version

    def keys(self) -> List[str]:
        """Names of all stored entries."""
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _atomic_save(self, path: Path, array: np.ndarray) -> str:
        tmp = _tmp_path(path)
        with open(tmp, "wb") as handle:
            np.save(handle, np.ascontiguousarray(array))
        # Hash the finished file (cheap: the pages are still hot) so the
        # digest covers exactly the bytes verify() will read back.
        digest = file_sha256(tmp)
        os.replace(tmp, path)
        return digest

    def put(self, name: str, matrix: sparse.spmatrix) -> None:
        """Store one CSR matrix (atomically, canonicalized)."""
        csr = matrix.tocsr()
        csr.sum_duplicates()
        csr.sort_indices()
        stem = _slot_stem(name)
        files = {
            "data": f"{stem}.data.npy",
            "indices": f"{stem}.indices.npy",
            "indptr": f"{stem}.indptr.npy",
        }
        digests = {
            component: self._atomic_save(
                self.data_dir / filename, getattr(csr, component)
            )
            for component, filename in files.items()
        }
        with self._lock:
            self._entries[name] = {
                "kind": "csr",
                "shape": [int(csr.shape[0]), int(csr.shape[1])],
                "nnz": int(csr.nnz),
                "dtype": str(csr.data.dtype),
                "index_dtype": str(csr.indices.dtype),
                "files": files,
                "digests": digests,
            }
            self._open.pop(name, None)
            self._write_manifest()

    def put_array(self, name: str, array: np.ndarray) -> None:
        """Store one dense numpy array (atomically)."""
        array = np.asarray(array)
        stem = _slot_stem(name)
        filename = f"{stem}.npy"
        digest = self._atomic_save(self.data_dir / filename, array)
        with self._lock:
            self._entries[name] = {
                "kind": "array",
                "shape": list(array.shape),
                "dtype": str(array.dtype),
                "files": {"array": filename},
                "digests": {"array": digest},
            }
            self._open.pop(name, None)
            self._write_manifest()

    def put_object(self, name: str, payload: object) -> None:
        """Store one picklable object (atomically)."""
        stem = _slot_stem(name)
        filename = f"{stem}.pkl"
        path = self.data_dir / filename
        tmp = _tmp_path(path)
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.write_bytes(blob)
        os.replace(tmp, path)
        with self._lock:
            self._entries[name] = {
                "kind": "object",
                "files": {"object": filename},
                "digests": {"object": hashlib.sha256(blob).hexdigest()},
            }
            self._open.pop(name, None)
            self._write_manifest()

    def verify(self, name: str) -> bool:
        """Integrity-check one entry against its recorded digests.

        Re-hashes every component file and compares against the SHA-256
        digests the manifest recorded at ``put`` time.  Returns ``True``
        when everything matches; raises :class:`StoreError` on a missing
        entry, a missing/unreadable file, a digest mismatch, or an entry
        written by a digest-less (format-1) manifest.
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise StoreError(f"arena has no entry named {name!r}")
            digests = entry.get("digests")
            if not digests:
                raise StoreError(
                    f"arena entry {name!r} predates content digests "
                    "(format-1 manifest); rewrite it to make it verifiable"
                )
            files = dict(entry["files"])
        for component, filename in files.items():
            path = self.data_dir / filename
            try:
                actual = file_sha256(path)
            except OSError as error:
                raise StoreError(
                    f"arena entry {name!r} component {component!r} is "
                    f"unreadable: {error}"
                ) from None
            if actual != digests[component]:
                raise StoreError(
                    f"arena entry {name!r} component {component!r} is "
                    f"corrupt: stored digest {digests[component][:12]}..., "
                    f"file hashes to {actual[:12]}..."
                )
        return True

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _entry(self, name: str, kind: str) -> Dict:
        entry = self._entries.get(name)
        if entry is None:
            raise StoreError(f"arena has no entry named {name!r}")
        if entry["kind"] != kind:
            raise StoreError(
                f"arena entry {name!r} is a {entry['kind']}, not a {kind}"
            )
        return entry

    def get(self, name: str) -> sparse.csr_matrix:
        """Memory-mapped view of a stored CSR matrix (lazy, cached)."""
        with self._lock:
            cached = self._open.get(name)
            if isinstance(cached, sparse.csr_matrix):
                return cached
            entry = self._entry(name, "csr")
            files = entry["files"]
            data = np.load(self.data_dir / files["data"], mmap_mode="r")
            indices = np.load(self.data_dir / files["indices"], mmap_mode="r")
            indptr = np.load(self.data_dir / files["indptr"], mmap_mode="r")
            matrix = sparse.csr_matrix(
                (data, indices, indptr), shape=tuple(entry["shape"]), copy=False
            )
            # Stored canonical; flag it so no reader tries an in-place
            # sort of the read-only mapped component arrays.
            matrix.has_sorted_indices = True
            matrix.has_canonical_format = True
            # Mark provenance so writers can skip re-spilling a matrix
            # that is already served from this arena.
            matrix._arena_slot = name
            self._open[name] = matrix
            return matrix

    def get_array(self, name: str) -> np.ndarray:
        """Memory-mapped view of a stored dense array (lazy, cached)."""
        with self._lock:
            cached = self._open.get(name)
            if isinstance(cached, np.ndarray):
                return cached
            entry = self._entry(name, "array")
            array = np.load(
                self.data_dir / entry["files"]["array"], mmap_mode="r"
            )
            self._open[name] = array
            return array

    def get_object(self, name: str) -> object:
        """A stored pickled object (loaded fresh on every call)."""
        entry = self._entry(name, "object")
        return pickle.loads(
            (self.data_dir / entry["files"]["object"]).read_bytes()
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drop(self, name: str) -> bool:
        """Delete one entry and its files; returns whether it existed."""
        with self._lock:
            entry = self._entries.pop(name, None)
            self._open.pop(name, None)
            if entry is None:
                return False
            for filename in entry["files"].values():
                try:
                    (self.data_dir / filename).unlink()
                except FileNotFoundError:
                    pass
            self._write_manifest()
            return True

    def vacuum(self) -> Tuple[int, int]:
        """Delete data files no manifest entry references.

        Orphans accumulate from crashed writers (a ``.tmp`` file whose
        ``os.replace`` never ran) and from sessions of a previous
        manifest generation whose entries were since dropped or renamed.
        Called by session compaction so the on-disk footprint shrinks
        with the logical state.  In-flight temporary files (``.tmp.*``)
        are left alone — a live writer thread may still hold one.

        Returns ``(files_removed, bytes_freed)``.
        """
        removed = 0
        freed = 0
        with self._lock:
            referenced = {
                filename
                for entry in self._entries.values()
                for filename in entry["files"].values()
            }
            for path in self.data_dir.iterdir():
                if not path.is_file() or path.name in referenced:
                    continue
                if ".tmp." in path.name:
                    continue
                try:
                    size = path.stat().st_size
                    path.unlink()
                except OSError:  # pragma: no cover - concurrent delete
                    continue
                removed += 1
                freed += size
        if removed:
            logger.info(
                "arena vacuum at %s: removed %d orphan file(s), freed %d bytes",
                self.store_dir,
                removed,
                freed,
            )
        return removed, freed

    def nbytes(self) -> int:
        """Total on-disk size of all stored data files."""
        return sum(
            (self.data_dir / filename).stat().st_size
            for entry in self._entries.values()
            for filename in entry["files"].values()
            if (self.data_dir / filename).exists()
        )

    def release_pages(self) -> int:
        """Advise the kernel to drop resident pages of all open maps.

        The mappings are read-only views of immutable files, so dropped
        pages are simply re-faulted (from the page cache, usually) on
        the next access — values never change.  This is what keeps a
        store-backed session's *peak* RSS at the working set of the
        columns in flight instead of the sum of every matrix ever
        touched: callers release between independent units of work.
        Returns the number of maps advised (0 where ``madvise`` is
        unavailable).
        """
        import mmap as mmap_module

        if not hasattr(mmap_module, "MADV_DONTNEED"):  # pragma: no cover
            return 0
        released = 0
        with self._lock:
            for handle in self._open.values():
                if isinstance(handle, sparse.csr_matrix):
                    arrays = (handle.data, handle.indices, handle.indptr)
                else:
                    arrays = (handle,)
                for array in arrays:
                    base = array
                    while not isinstance(base, np.memmap) and (
                        getattr(base, "base", None) is not None
                    ):
                        base = base.base
                    raw = getattr(base, "_mmap", None)
                    if raw is None:
                        continue
                    try:
                        raw.madvise(mmap_module.MADV_DONTNEED)
                        released += 1
                    except (ValueError, OSError):  # pragma: no cover
                        pass  # closed map or filesystem without support
        return released

    def close(self) -> None:
        """Release cached handles (idempotent; files stay on disk)."""
        with self._lock:
            self._open.clear()

    def __enter__(self) -> "MatrixArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MatrixArena({str(self.store_dir)!r}, entries={len(self._entries)}, "
            f"version={self._version})"
        )


def as_arena(
    store: Optional[Union[str, Path, "MatrixArena"]],
) -> Tuple[Optional["MatrixArena"], bool]:
    """Resolve a ``store`` knob into ``(arena, owned)``.

    ``None`` passes through; a path builds a private arena the caller
    owns (and should close); an existing arena is shared, not owned.
    """
    if store is None:
        return None, False
    if isinstance(store, MatrixArena):
        return store, False
    return MatrixArena(store), True

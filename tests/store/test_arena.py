"""Tests for the disk-backed matrix arena."""

import json

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import StoreError
from repro.store import MatrixArena, as_arena


def _random_csr(seed: int, shape=(30, 20), density=0.15) -> sparse.csr_matrix:
    matrix = sparse.random(
        *shape, density=density, format="csr", random_state=seed
    )
    matrix.data = np.round(matrix.data * 10)
    matrix.eliminate_zeros()
    return matrix


class TestCsrRoundTrip:
    def test_put_get_exact(self, tmp_path):
        arena = MatrixArena(tmp_path)
        matrix = _random_csr(1)
        arena.put("counts/P1", matrix)
        loaded = arena.get("counts/P1")
        assert loaded.shape == matrix.shape
        assert (abs(loaded - matrix)).nnz == 0
        assert np.array_equal(loaded.data, matrix.data)

    def test_get_is_memory_mapped_and_canonical(self, tmp_path):
        arena = MatrixArena(tmp_path)
        arena.put("m", _random_csr(2))
        loaded = arena.get("m")
        # The component arrays must be zero-copy views over the mapped
        # files: read-only, non-owning, with a memory map at the view
        # root (np.memmap, or the raw mmap buffer it wraps).
        import mmap

        base = loaded.data
        while getattr(base, "base", None) is not None:
            base = base.base
        assert isinstance(base, (np.memmap, mmap.mmap))
        assert not loaded.data.flags.writeable
        assert not loaded.data.flags.owndata
        assert loaded.has_sorted_indices
        # A no-op sort must not raise on the read-only mapped arrays.
        loaded.sort_indices()

    def test_get_caches_handle(self, tmp_path):
        arena = MatrixArena(tmp_path)
        arena.put("m", _random_csr(3))
        assert arena.get("m") is arena.get("m")

    def test_put_invalidates_cached_handle(self, tmp_path):
        arena = MatrixArena(tmp_path)
        first = _random_csr(4)
        arena.put("m", first)
        stale = arena.get("m")
        second = _random_csr(5)
        arena.put("m", second)
        fresh = arena.get("m")
        assert fresh is not stale
        assert (abs(fresh - second)).nnz == 0

    def test_downstream_sparse_ops_work(self, tmp_path):
        arena = MatrixArena(tmp_path)
        matrix = _random_csr(6)
        arena.put("m", matrix)
        loaded = arena.get("m")
        assert np.array_equal(
            np.asarray(loaded.sum(axis=1)).ravel(),
            np.asarray(matrix.sum(axis=1)).ravel(),
        )
        product = (loaded @ loaded.T).tocsr()
        expected = (matrix @ matrix.T).tocsr()
        assert (abs(product - expected)).nnz == 0


class TestArraysAndObjects:
    def test_array_round_trip(self, tmp_path):
        arena = MatrixArena(tmp_path)
        array = np.arange(12, dtype=np.float64).reshape(3, 4)
        arena.put_array("sums/x", array)
        assert np.array_equal(arena.get_array("sums/x"), array)

    def test_object_round_trip(self, tmp_path):
        arena = MatrixArena(tmp_path)
        payload = {"names": ["a", "b"], "positions": {"u1": 0, "u2": 1}}
        arena.put_object("meta", payload)
        assert arena.get_object("meta") == payload

    def test_kind_mismatch_raises(self, tmp_path):
        arena = MatrixArena(tmp_path)
        arena.put_array("x", np.zeros(3))
        with pytest.raises(StoreError):
            arena.get("x")
        with pytest.raises(StoreError):
            arena.get_object("x")

    def test_missing_entry_raises(self, tmp_path):
        with pytest.raises(StoreError):
            MatrixArena(tmp_path).get("absent")


class TestManifest:
    def test_version_bumps_on_every_write(self, tmp_path):
        arena = MatrixArena(tmp_path)
        v0 = arena.version
        arena.put("a", _random_csr(7))
        v1 = arena.version
        arena.put_array("b", np.zeros(2))
        assert v0 < v1 < arena.version

    def test_reopen_sees_same_state(self, tmp_path):
        arena = MatrixArena(tmp_path)
        matrix = _random_csr(8)
        arena.put("m", matrix)
        arena.put_object("meta", {"k": 1})
        reopened = MatrixArena(tmp_path)
        assert reopened.version == arena.version
        assert set(reopened.keys()) == {"m", "meta"}
        assert (abs(reopened.get("m") - matrix)).nnz == 0

    def test_unsupported_format_rejected(self, tmp_path):
        arena = MatrixArena(tmp_path)
        arena.put_array("x", np.zeros(1))
        manifest = json.loads(arena.manifest_path.read_text())
        manifest["format_version"] = 99
        arena.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError):
            MatrixArena(tmp_path)

    def test_no_temp_files_left_behind(self, tmp_path):
        arena = MatrixArena(tmp_path)
        arena.put("m", _random_csr(10))
        arena.put_array("a", np.zeros(4))
        arena.put_object("o", {"x": 1})
        leftovers = [
            path for path in tmp_path.rglob("*") if ".tmp." in path.name
        ]
        assert leftovers == []


class TestContentDigests:
    def test_every_put_kind_records_sha256_digests(self, tmp_path):
        arena = MatrixArena(tmp_path)
        arena.put("m", _random_csr(20))
        arena.put_array("a", np.arange(5.0))
        arena.put_object("o", {"k": 1})
        manifest = json.loads(arena.manifest_path.read_text())
        for name, entry in manifest["entries"].items():
            digests = entry["digests"]
            assert set(digests) == set(entry["files"]), name
            for digest in digests.values():
                assert len(digest) == 64 and int(digest, 16) >= 0

    def test_digests_cover_on_disk_bytes(self, tmp_path):
        import hashlib

        arena = MatrixArena(tmp_path)
        arena.put_array("a", np.arange(7.0))
        manifest = json.loads(arena.manifest_path.read_text())
        entry = manifest["entries"]["a"]
        filename = entry["files"]["array"]
        actual = hashlib.sha256(
            (arena.data_dir / filename).read_bytes()
        ).hexdigest()
        assert actual == entry["digests"]["array"]

    def test_verify_passes_on_intact_entries(self, tmp_path):
        arena = MatrixArena(tmp_path)
        arena.put("m", _random_csr(21))
        arena.put_array("a", np.arange(3.0))
        arena.put_object("o", [1, 2])
        for name in ("m", "a", "o"):
            assert arena.verify(name) is True

    def test_verify_detects_corruption(self, tmp_path):
        arena = MatrixArena(tmp_path)
        arena.put_array("a", np.arange(9.0))
        manifest = json.loads(arena.manifest_path.read_text())
        filename = manifest["entries"]["a"]["files"]["array"]
        path = arena.data_dir / filename
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(StoreError, match="corrupt"):
            arena.verify("a")

    def test_verify_detects_missing_file(self, tmp_path):
        arena = MatrixArena(tmp_path)
        arena.put_array("a", np.arange(4.0))
        manifest = json.loads(arena.manifest_path.read_text())
        (arena.data_dir / manifest["entries"]["a"]["files"]["array"]).unlink()
        with pytest.raises(StoreError, match="unreadable"):
            arena.verify("a")

    def test_verify_missing_entry_raises(self, tmp_path):
        with pytest.raises(StoreError, match="no entry"):
            MatrixArena(tmp_path).verify("ghost")

    def test_digestless_format1_manifest_loads_but_cannot_verify(
        self, tmp_path
    ):
        arena = MatrixArena(tmp_path)
        arena.put_array("a", np.arange(2.0))
        manifest = json.loads(arena.manifest_path.read_text())
        manifest["format_version"] = 1
        for entry in manifest["entries"].values():
            entry.pop("digests")
        arena.manifest_path.write_text(json.dumps(manifest))
        reopened = MatrixArena(tmp_path)
        # Backward compatibility: the data still reads fine...
        assert np.array_equal(reopened.get_array("a"), np.arange(2.0))
        # ...but integrity checking needs the digests a rewrite adds.
        with pytest.raises(StoreError, match="predates content digests"):
            reopened.verify("a")
        reopened.put_array("a", np.arange(2.0))
        assert reopened.verify("a") is True


class TestLifecycle:
    def test_drop_removes_entry_and_files(self, tmp_path):
        arena = MatrixArena(tmp_path)
        arena.put("m", _random_csr(11))
        files = list(arena.data_dir.iterdir())
        assert files
        assert arena.drop("m")
        assert "m" not in arena
        assert list(arena.data_dir.iterdir()) == []
        assert not arena.drop("m")

    def test_nbytes_counts_stored_files(self, tmp_path):
        arena = MatrixArena(tmp_path)
        assert arena.nbytes() == 0
        arena.put("m", _random_csr(12))
        assert arena.nbytes() > 0

    def test_close_idempotent_and_context_manager(self, tmp_path):
        with MatrixArena(tmp_path) as arena:
            arena.put("m", _random_csr(13))
        arena.close()
        # Entries survive close; handles are simply re-opened.
        assert "m" in arena
        assert arena.get("m").nnz >= 0

    def test_as_arena_resolution(self, tmp_path):
        assert as_arena(None) == (None, False)
        arena, owned = as_arena(tmp_path)
        assert isinstance(arena, MatrixArena) and owned
        shared, owned = as_arena(arena)
        assert shared is arena and not owned

    def test_slot_names_survive_special_characters(self, tmp_path):
        arena = MatrixArena(tmp_path)
        name = "engine/((F1@A)*(W1@W2^T))"
        matrix = _random_csr(14)
        arena.put(name, matrix)
        assert (abs(MatrixArena(tmp_path).get(name) - matrix)).nnz == 0

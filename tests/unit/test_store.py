"""Unit tests for the content-addressed array store and its tile cache."""

import hashlib
import json
import os
import sys
import threading

import numpy as np
import pytest

from repro.codec.registry import get_codec
from repro.errors import ChecksumError, ReproError, ShapeError, StoreError
from repro.parallel import tile_compress, tile_decompress
from repro.service.metrics import MetricsRegistry
from repro.store import ArrayStore, TileCache, manifest_digest
from repro.store import store as store_module
from repro.store.store import MANIFEST_FORMAT, MANIFEST_MEMO_ENTRIES


@pytest.fixture()
def store(tmp_path):
    return ArrayStore(tmp_path / "store")


class TestPut:
    def test_put_writes_manifest_and_objects(self, store, smooth2d):
        result = store.put("ts", smooth2d, "sz14", 1e-3, n_tiles=4)
        assert result.n_tiles == 4
        assert result.new_objects == 4
        manifest = json.loads(
            (store.root / "manifests" / "ts.json").read_text()
        )
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["codec"] == "SZ-1.4"  # canonical, not the alias
        assert manifest["shape"] == list(smooth2d.shape)
        assert manifest["dtype"] == "float32"
        assert len(manifest["tiles"]) == 4
        for digest in manifest["tiles"]:
            blob = (store.root / "objects" / digest).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == digest

    def test_objects_are_the_tiled_payload_bands(self, store, smooth2d):
        """Store objects are byte-identical to the tiled container's bands
        — the store is the same wire format, re-homed per tile."""
        store.put("ts", smooth2d, "sz14", 1e-3, n_tiles=3)
        manifest = store.manifest("ts")
        comp = get_codec("sz14")
        tiled = tile_compress(comp, smooth2d, 1e-3, "vr_rel", n_tiles=3)
        from repro.io.container import Container

        container = Container.from_bytes(tiled.payload)
        for t, digest in enumerate(manifest["tiles"]):
            assert (store.root / "objects" / digest).read_bytes() == (
                container.get(f"tile{t}")
            )

    def test_identical_fields_deduplicate(self, store, smooth2d):
        first = store.put("a", smooth2d, "sz14", 1e-3, n_tiles=4)
        second = store.put("b", smooth2d, "sz14", 1e-3, n_tiles=4)
        assert second.new_objects == 0
        assert second.dedup_objects == 4
        assert second.dedup_bytes == first.stored_bytes
        assert second.tile_digests == first.tile_digests

    def test_small_field_clamps_tile_count(self, store):
        tiny = np.linspace(0, 1, 3 * 8, dtype=np.float32).reshape(3, 8)
        result = store.put("tiny", tiny, "sz14", 1e-3, n_tiles=16)
        assert result.n_tiles == 1
        res = store.read("tiny")
        assert res.data.shape == (3, 8)

    @pytest.mark.parametrize("name", ["", "../evil", "a/b", ".hidden",
                                      "x" * 200, "sp ace"])
    def test_bad_names_rejected(self, store, smooth2d, name):
        with pytest.raises(StoreError, match="bad dataset name"):
            store.put(name, smooth2d)

    def test_1d_field_rejected(self, store, ramp1d):
        # the default codec (waveSZ) refuses 1D at its field contract; one
        # that takes 1D meets the tiling precondition
        with pytest.raises(ShapeError, match="waveSZ accepts 2D/3D"):
            store.put("ramp", ramp1d)
        with pytest.raises(ShapeError, match="tiling needs a 2D or higher"):
            store.put("ramp", ramp1d, "sz14")
        assert store.names() == ()


class TestConcurrentPuts:
    """One handle, many threads (the service runs every store op in a
    worker thread): every put acks, every acked put is durable."""

    def test_threads_putting_the_same_tiles_under_different_names(
        self, tmp_path
    ):
        n_threads, rounds = 4, 10
        rng = np.random.default_rng(17)
        fields = [
            rng.standard_normal((64, 64)).astype(np.float32)
            for _ in range(rounds)
        ]
        store = ArrayStore(tmp_path / "store")
        acked: list[tuple[str, int]] = []
        failed: list[tuple[str, Exception]] = []

        def put(name, r, barrier):
            barrier.wait(30)  # all threads hit the same digests at once
            try:
                store.put(name, fields[r], "sz14", 1e-3, n_tiles=4)
            except ReproError as exc:
                failed.append((name, exc))
            else:
                acked.append((name, r))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for r in range(rounds):
                barrier = threading.Barrier(n_threads)
                threads = [
                    threading.Thread(target=put, args=(f"r{r}.t{k}", r, barrier))
                    for k in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
                    assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)

        assert failed == []
        assert len(acked) == n_threads * rounds
        reference = ArrayStore(tmp_path / "reference")  # single-threaded
        for r in range(rounds):
            reference.put(f"r{r}", fields[r], "sz14", 1e-3, n_tiles=4)
        fresh = ArrayStore(store.root)
        assert fresh.recovery.clean
        for name, r in acked:
            np.testing.assert_array_equal(
                fresh.read(name).data, reference.read(f"r{r}").data
            )
        fresh.fsck().assert_clean()


class TestRead:
    def test_read_bit_exact_with_serial_tiled_decode(self, store, smooth2d):
        store.put("ts", smooth2d, "sz14", 1e-3, n_tiles=4)
        comp = get_codec("sz14")
        serial = tile_decompress(
            comp, tile_compress(comp, smooth2d, 1e-3, "vr_rel", n_tiles=4).payload
        )
        np.testing.assert_array_equal(store.read("ts").data, serial)

    def test_read_unknown_dataset(self, store):
        with pytest.raises(StoreError, match="no dataset"):
            store.read("nope")

    def test_read_slice_equals_full_read_window(self, store, smooth2d):
        store.put("ts", smooth2d, "sz14", 1e-3, n_tiles=4)
        full = store.read("ts").data
        res = store.read_slice("ts", (slice(10, 30), slice(5, 71)))
        np.testing.assert_array_equal(res.data, full[10:30, 5:71])

    def test_read_slice_decodes_only_overlapping_tiles(self, store, smooth3d):
        store.put("v", smooth3d, "sz14", 1e-3, n_tiles=4)  # 4-row bands
        before = store.decode_calls
        res = store.read_slice("v", (slice(0, 3),))
        assert res.tile_indices == (0,)
        assert store.decode_calls - before == 1
        res = store.read_slice("v", (slice(3, 9),))
        assert res.tile_indices == (0, 1, 2)
        assert store.decode_calls - before == 3  # tile 0 came from cache

    def test_warm_read_decodes_nothing(self, store, smooth2d):
        store.put("ts", smooth2d, "sz14", 1e-3, n_tiles=4)
        first = store.read("ts")
        before = store.decode_calls
        again = store.read("ts")
        assert store.decode_calls == before
        assert store.cache.hits >= 4
        np.testing.assert_array_equal(first.data, again.data)

    def test_cached_reads_share_dedup_entries(self, store, smooth2d):
        """Two names over identical bytes warm each other's cache."""
        store.put("a", smooth2d, "sz14", 1e-3, n_tiles=4)
        store.put("b", smooth2d, "sz14", 1e-3, n_tiles=4)
        store.read("a")
        before = store.decode_calls
        store.read("b")
        assert store.decode_calls == before


class TestDamage:
    def _corrupt_tile(self, store, name, index):
        """Flip one payload bit of tile ``index`` via the fault machinery."""
        from repro.faults import FaultKind, FaultSpec, inject

        digest = store.manifest(name)["tiles"][index]
        path = store.root / "objects" / digest
        blob = path.read_bytes()
        path.write_bytes(
            inject(blob, FaultSpec(
                kind=FaultKind.BITFLIP, offset=len(blob) // 2, bit=3
            ))
        )
        return digest

    def test_strict_read_raises_checksum_error(self, store, smooth2d):
        store.put("ts", smooth2d, "sz14", 1e-3, n_tiles=4)
        self._corrupt_tile(store, "ts", 2)
        with pytest.raises(ChecksumError):
            store.read("ts")

    def test_lenient_read_reports_lost_tiles(self, tmp_path, smooth2d):
        metrics = MetricsRegistry()
        store = ArrayStore(tmp_path / "store", metrics=metrics)
        store.put("ts", smooth2d, "sz14", 1e-3, n_tiles=4)
        clean = store.read("ts").data
        self._corrupt_tile(store, "ts", 2)
        store.cache.clear()
        res = store.read("ts", strict=False)
        assert not res.ok
        assert res.damaged_tiles == (2,)
        assert res.damaged[0].stage == "checksum"
        # one damaged read, counted once under the layer's own prefix
        assert metrics.snapshot().events.get("store.degraded_reads") == 1
        # every intact band survives bit-exactly; the lost band is zeroed
        from repro.tiling import TileGrid

        m = store.manifest("ts")
        grid = TileGrid.from_starts(m["shape"], m["band_starts"])
        for t in (0, 1, 3):
            np.testing.assert_array_equal(
                res.data[grid.band_slice(t)], clean[grid.band_slice(t)]
            )
        assert (res.data[grid.band_slice(2)] == 0).all()

    def test_lenient_slice_outside_damage_is_clean(self, store, smooth2d):
        store.put("ts", smooth2d, "sz14", 1e-3, n_tiles=4)
        self._corrupt_tile(store, "ts", 3)
        store.cache.clear()
        res = store.read_slice("ts", (slice(0, 12),), strict=False)
        assert res.ok  # the damaged tile was never touched

    def test_object_of_another_dtype_is_refused(self, store, smooth2d):
        """A valid float64 band under a float32 manifest: the digest and
        the container are sound, the decoded dtype is not the manifest's,
        so the tile is a decode loss, never cast into the field."""
        from repro.errors import ContainerError

        store.put("ts", smooth2d, "wavesz-dp", 1e-3, n_tiles=2)
        m = json.loads(store._manifest_path("ts").read_text())
        rows = slice(m["band_starts"][1], None)
        band = get_codec("wavesz-dp").compress(
            np.ascontiguousarray(smooth2d[rows], dtype=np.float64), 1e-3, "abs"
        ).payload
        digest = hashlib.sha256(band).hexdigest()
        store._object_path(digest).write_bytes(band)
        m["tiles"][1] = digest
        store._manifest_path("ts").write_text(json.dumps(m, sort_keys=True))
        with pytest.raises(ContainerError, match="tile 1 decoded to float64"):
            store.read("ts")
        res = store.read("ts", strict=False)
        assert res.damaged_tiles == (1,) and res.damaged[0].stage == "decode"
        assert "decode-damage" in {f.kind for f in store.fsck(deep=True).findings}

    def test_missing_object_reported_as_missing(self, store, smooth2d):
        store.put("ts", smooth2d, "sz14", 1e-3, n_tiles=4)
        digest = store.manifest("ts")["tiles"][1]
        (store.root / "objects" / digest).unlink()
        res = store.read("ts", strict=False)
        assert res.damaged_tiles == (1,)
        assert res.damaged[0].stage == "missing"


class TestGC:
    def test_gc_keeps_referenced_objects(self, store, smooth2d):
        store.put("ts", smooth2d, "sz14", 1e-3, n_tiles=4)
        result = store.gc()
        assert result.n_removed == 0
        assert result.kept == 4
        assert store.read("ts").ok

    def test_overwrite_then_gc_reclaims_old_version(self, store, smooth2d):
        store.put("ts", smooth2d, "sz14", 1e-3, n_tiles=4)
        old = set(store.manifest("ts")["tiles"])
        store.put("ts", smooth2d, "sz14", 5e-4, n_tiles=4)  # tighter bound
        new = set(store.manifest("ts")["tiles"])
        assert old.isdisjoint(new)
        result = store.gc()
        assert set(result.removed) == old
        assert result.reclaimed_bytes > 0
        assert store.read("ts").ok

    def test_delete_then_gc_empties_object_area(self, store, smooth2d):
        store.put("ts", smooth2d, "sz14", 1e-3, n_tiles=4)
        store.delete("ts")
        with pytest.raises(StoreError):
            store.read("ts")
        result = store.gc()
        assert result.n_removed == 4
        assert result.kept == 0

    def test_gc_evicts_removed_digests_from_cache(self, store, smooth2d):
        store.put("ts", smooth2d, "sz14", 1e-3, n_tiles=4)
        store.read("ts")  # warm the cache
        store.delete("ts")
        store.gc()
        assert len(store.cache) == 0

    def test_gc_ignores_foreign_files(self, store, smooth2d):
        store.put("ts", smooth2d, "sz14", 1e-3, n_tiles=2)
        junk = store.root / "objects" / "README"
        junk.write_text("not an object")
        assert store.gc().n_removed == 0
        assert junk.exists()


class TestLs:
    def test_ls_rows(self, store, smooth2d, smooth3d):
        store.put("b2", smooth2d, "sz14", 1e-3, n_tiles=4)
        store.put("a3", smooth3d, "wavesz", 1e-3, n_tiles=2)
        rows = store.ls()
        assert [r["name"] for r in rows] == ["a3", "b2"]
        assert rows[1]["shape"] == smooth2d.shape
        assert rows[1]["codec"] == "SZ-1.4"
        assert rows[0]["n_tiles"] == 2
        assert rows[1]["compressed_bytes"] > 0
        assert store.names() == ("a3", "b2")

    def test_empty_store(self, store):
        assert store.ls() == []

    def test_listing_ignores_a_writers_temp_file(self, store, smooth2d):
        """pathlib's ``*.json`` matches dot-files: a manifest write in
        flight (or crashed) must not fail or show up in a listing."""
        store.put("ts", smooth2d, "sz14", 1e-3, n_tiles=2)
        tmp = store.root / "manifests" / ".tmp-1-other.json"
        tmp.write_text("{torn")
        assert store.names() == ("ts",)
        assert [r["name"] for r in store.ls()] == ["ts"]
        assert len(store.referenced_digests()) == 2

    def test_corrupt_manifest_is_a_store_error(self, store, smooth2d):
        store.put("ts", smooth2d, "sz14", 1e-3, n_tiles=2)
        (store.root / "manifests" / "ts.json").write_text("{not json")
        with pytest.raises(StoreError, match="unreadable"):
            store.read("ts")


class TestTileCache:
    def test_hit_miss_counters(self):
        cache = TileCache(1 << 20)
        a = np.ones((4, 4), dtype=np.float32)
        assert cache.get("k1") is None
        cache.put("k1", a)
        assert cache.get("k1") is not None
        assert cache.hits == 1 and cache.misses == 1

    def test_membership_probe_counts_and_touches_nothing(self):
        tile = np.zeros(256, dtype=np.float32)
        cache = TileCache(2 * tile.nbytes)
        cache.put("a", tile)
        cache.put("b", tile)
        assert "a" in cache and "z" not in cache
        assert (cache.hits, cache.misses) == (0, 0)
        cache.put("c", tile)  # "a" was probed, not used: still the LRU
        assert "a" not in cache and "b" in cache

    def test_byte_budget_evicts_lru(self):
        tile = np.zeros(256, dtype=np.float32)  # 1 KiB each
        cache = TileCache(3 * tile.nbytes)
        for k in ("a", "b", "c"):
            cache.put(k, tile)
        cache.get("a")  # a is now most-recent
        cache.put("d", tile)  # evicts b (LRU)
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.evictions == 1
        assert cache.resident_bytes == 3 * tile.nbytes

    def test_oversized_tile_not_cached(self):
        cache = TileCache(64)
        cache.put("big", np.zeros(1024, dtype=np.float64))
        assert cache.get("big") is None
        assert cache.resident_bytes == 0

    def test_entries_are_read_only(self):
        cache = TileCache(1 << 20)
        cache.put("k", np.ones(8, dtype=np.float32))
        tile = cache.get("k")
        with pytest.raises(ValueError):
            tile[0] = 5.0

    def test_gauges_register_before_traffic(self):
        metrics = MetricsRegistry()
        TileCache(1 << 20, metrics=metrics)
        snap = metrics.snapshot()
        assert snap.gauges["store.cache.hits"] == 0.0
        assert snap.gauges["store.cache.resident_bytes"] == 0.0
        # and the snapshot serializes despite zero latency samples
        import json as _json

        assert _json.dumps(snap.to_dict())

    def test_gauges_track_mutations(self, tmp_path, smooth2d):
        metrics = MetricsRegistry()
        store = ArrayStore(tmp_path / "s", metrics=metrics)
        store.put("ts", smooth2d, "sz14", 1e-3, n_tiles=4)
        store.read("ts")
        store.read("ts")
        gauges = metrics.snapshot().gauges
        assert gauges["store.cache.misses"] == 4.0
        assert gauges["store.cache.hits"] == 4.0
        assert gauges["store.cache.resident_bytes"] == float(
            store.cache.resident_bytes
        )


class TestManifestMemo:
    """``ArrayStore.manifest`` parses a manifest file once: every
    mutation the handle makes drops the entry, a ``stat`` catches the
    writers it was not told about, and the memo is bounded."""

    @pytest.fixture()
    def loads(self, monkeypatch):
        """How many manifest files were parsed since the fixture began."""
        calls = []
        real = json.loads
        monkeypatch.setattr(
            store_module.json, "loads",
            lambda raw, **kw: calls.append(1) or real(raw, **kw))
        return calls

    def test_repeat_lookups_parse_once(self, store, smooth2d, loads):
        store.put("ts", smooth2d, "sz14", 1e-3, n_tiles=4)
        first = store.manifest("ts")
        assert store.manifest("ts") is first and len(loads) == 1
        m, digest = store.manifest_with_digest("ts")
        assert m is first and digest == manifest_digest(first)
        assert store.manifest_unchanged("ts", digest)
        assert not store.manifest_unchanged("ts", "0" * 64)
        assert len(loads) == 1

    def test_nothing_remembered_means_not_unchanged(self, store, smooth2d):
        store.put("ts", smooth2d, "sz14", 1e-3, n_tiles=4)
        digest = manifest_digest(json.loads(
            (store.root / "manifests" / "ts.json").read_text()))
        assert not store.manifest_unchanged("ts", digest)  # never loaded
        assert not store.manifest_unchanged("../etc", digest)
        store.manifest("ts")
        assert store.manifest_unchanged("ts", digest)

    def test_every_mutation_of_the_handle_invalidates(self, store, smooth2d):
        store.put("ts", smooth2d, "sz14", 1e-3, n_tiles=4)
        v1 = store.manifest("ts")
        store.put("ts", smooth2d * np.float32(2), "sz14", 1e-3, n_tiles=2)
        v2 = store.manifest("ts")
        assert len(v2["tiles"]) == 2 and v2 is not v1
        store.put_manifest("ts", {**v1, "version": 7})
        assert store.manifest("ts")["version"] == 7
        assert not store.manifest_unchanged("ts", manifest_digest(v2))
        store.delete("ts")
        with pytest.raises(StoreError, match="no dataset"):
            store.manifest("ts")

    def test_rollback_restores_the_prior_manifest_in_the_memo_too(
        self, store, smooth2d
    ):
        store.put("ts", smooth2d, "sz14", 1e-3, n_tiles=4)
        prior = (store.root / "manifests" / "ts.json").read_text()
        store.put("ts", smooth2d * np.float32(2), "sz14", 1e-3, n_tiles=2)
        assert len(store.manifest("ts")["tiles"]) == 2  # remembered
        entry = {"format": 1, "txid": "t-1", "name": "ts",
                 "prior_manifest": prior, "new_tiles": []}
        jdir = store.root / "journal"
        jdir.mkdir(exist_ok=True)
        (jdir / "tx-t-1.json").write_text(json.dumps(entry))
        assert "rolled back interrupted put of 'ts'" in (
            store.fsck(repair=True).actions)
        assert len(store.manifest("ts")["tiles"]) == 4
        (jdir / "tx-t-2.json").write_text(json.dumps(
            {**entry, "txid": "t-2", "prior_manifest": None}))
        assert store.recover().count("rolled-back") == 1
        with pytest.raises(StoreError, match="no dataset"):
            store.manifest("ts")

    def test_a_writer_outside_the_handle_is_seen(self, store, smooth2d, tmp_path):
        store.put("ts", smooth2d, "sz14", 1e-3, n_tiles=4)
        path = store.root / "manifests" / "ts.json"
        v1_bytes = path.read_bytes()
        store.put("ts", smooth2d * np.float32(2), "sz14", 1e-3, n_tiles=2)
        v2 = store.manifest("ts")
        digest = manifest_digest(v2)
        assert store.manifest_unchanged("ts", digest)
        # same directory, another writer: a second handle's atomic rename
        tmp = path.with_name("other-writer.tmp")
        tmp.write_bytes(v1_bytes)
        os.replace(tmp, path)
        assert not store.manifest_unchanged("ts", digest)
        assert store.manifest("ts") == json.loads(v1_bytes)
        assert store.read("ts").data.shape == smooth2d.shape
        path.unlink()  # ... or its delete
        with pytest.raises(StoreError, match="no dataset"):
            store.manifest("ts")

    def test_a_bad_manifest_is_never_remembered(self, store, smooth2d):
        store.put("ts", smooth2d, "sz14", 1e-3, n_tiles=4)
        good = store.manifest("ts")
        path = store.root / "manifests" / "ts.json"
        for _ in range(2):  # the failure is the file's, every time
            path.write_bytes(b"\xff\xfe{ not json")
            with pytest.raises(StoreError, match="unreadable"):
                store.manifest("ts")
            path.write_text(json.dumps({"format": 99}))
            with pytest.raises(StoreError, match="unsupported format"):
                store.manifest("ts")
        assert not store.manifest_unchanged("ts", manifest_digest(good))

    def test_the_memo_is_bounded_and_evicts_the_oldest(self, store):
        memo = store._manifests
        assert memo.max_entries == MANIFEST_MEMO_ENTRIES
        for i in range(MANIFEST_MEMO_ENTRIES):
            memo.put(f"n{i}", i)
        assert memo.get("n0") == 0  # touched: now the most recent
        memo.put("one-more", -1)
        assert len(memo) == MANIFEST_MEMO_ENTRIES
        assert memo.get("n1") is None and memo.get("n0") == 0
        memo.pop("n0")
        assert memo.get("n0") is None and len(memo) == MANIFEST_MEMO_ENTRIES - 1

    def test_an_evicted_name_still_reads(self, store, smooth2d, monkeypatch):
        monkeypatch.setattr(store._manifests, "max_entries", 2)
        for i in range(3):
            store.put(f"f{i}", smooth2d + np.float32(i), "sz14", 1e-3, n_tiles=2)
        expect = [store.read(f"f{i}").data for i in range(3)]
        assert len(store._manifests) == 2
        for i in range(3):
            np.testing.assert_array_equal(store.read(f"f{i}").data, expect[i])
        assert len(store._manifests) == 2

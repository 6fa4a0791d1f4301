"""Unit tests for store fsck: finding taxonomy, repair convergence."""

import hashlib
import json

import numpy as np
import pytest

from repro.codec.registry import get_codec
from repro.errors import SimulatedCrash, StoreError
from repro.faults.fsim import CrashFS, FsFault, FsFaultKind
from repro.store import ArrayStore


@pytest.fixture
def field():
    rng = np.random.default_rng(11)
    return rng.normal(size=(8, 12)).astype(np.float32)


@pytest.fixture
def store(tmp_path, field):
    s = ArrayStore(tmp_path / "store")
    s.put("a", field, "sz10", n_tiles=2)
    s.put("b", (field * 2).astype(np.float32), "sz10", n_tiles=2)
    return s


def _kinds(report):
    return sorted({f.kind for f in report.findings})


class TestCleanStore:
    def test_ok_fast_and_deep(self, store):
        for deep in (False, True):
            report = store.fsck(deep=deep)
            assert report.ok
            assert report.manifests_checked == 2
            assert report.objects_checked == 4
            assert "OK" in report.summary()
            report.assert_clean()

    def test_assert_clean_raises_on_findings(self, store):
        next(store._object_dir.iterdir()).unlink()
        with pytest.raises(StoreError, match="fsck found"):
            store.fsck().assert_clean()


class TestFindings:
    def test_missing_object_unrepairable(self, store):
        digest = store.manifest("a")["tiles"][0]
        store._object_path(digest).unlink()
        report = store.fsck(repair=True)
        assert _kinds(report) == ["missing-object"]
        assert not report.errors[0].repaired
        # no repair possible: a second pass still reports it
        assert not store.fsck().ok

    def test_digest_mismatch(self, store):
        digest = store.manifest("a")["tiles"][0]
        path = store._object_path(digest)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        report = store.fsck()
        assert "digest-mismatch" in _kinds(report)

    def test_orphan_object_repaired(self, store):
        store.delete("b")
        report = store.fsck(repair=True)
        orphans = [f for f in report.findings if f.kind == "orphan-object"]
        assert len(orphans) == 2
        assert all(f.repaired for f in orphans)
        assert store.fsck().ok  # convergence

    def test_foreign_file_flagged_not_deleted(self, store):
        alien = store._object_dir / "README.txt"
        alien.write_text("not an object")
        report = store.fsck(repair=True)
        assert "orphan-object" in _kinds(report)
        assert alien.exists()  # never auto-deleted

    def test_stale_tmp_swept(self, store):
        junk = store._manifest_dir / ".tmp-999-x.json"
        junk.write_bytes(b"partial")
        report = store.fsck(repair=True)
        assert "stale-tmp" in _kinds(report)
        assert not junk.exists()
        assert store.fsck().ok

    def test_bad_manifest_reported_not_deleted(self, store):
        mpath = store._manifest_path("a")
        mpath.write_text("{not json")
        report = store.fsck(repair=True)
        assert "bad-manifest" in _kinds(report)
        assert mpath.exists()

    def test_torn_journal_repaired(self, store):
        store._journal_dir.mkdir(parents=True, exist_ok=True)
        torn = store._journal_dir / "tx-1-1.json"
        torn.write_bytes(b'{"format": 1, "na')
        report = store.fsck(repair=True)
        assert "torn-journal" in _kinds(report)
        assert not torn.exists()
        assert store.fsck().ok

    def test_dangling_journal_rolled_back(self, tmp_path, field):
        root = tmp_path / "crashed"
        base = ArrayStore(root)
        base.put("a", field, "sz10", n_tiles=2)
        old = base.read("a").data
        fs = CrashFS(root, schedule=(FsFault(FsFaultKind.CRASH, 12),))
        with pytest.raises(SimulatedCrash):
            ArrayStore(root, fs=fs).put(
                "a", (field + 1).astype(np.float32), "sz10", n_tiles=2
            )
        fs.crash_and_restore(0)
        # open WITHOUT automatic recovery so fsck sees the raw state
        dirty = ArrayStore(root, recover=False)
        report = dirty.fsck(repair=True)
        assert "dangling-journal" in _kinds(report)
        assert dirty.fsck().ok
        np.testing.assert_array_equal(dirty.read("a").data, old)

    def test_deep_decode_damage(self, store, field):
        """An object that hashes right but decodes to the wrong shape."""
        wrong = get_codec("sz10").compress(
            np.ascontiguousarray(field[:2]), 1e-3, "vr_rel"
        ).payload
        digest = hashlib.sha256(wrong).hexdigest()
        store._object_path(digest).write_bytes(wrong)
        m = json.loads(store._manifest_path("a").read_text())
        m["tiles"][0] = digest
        store._manifest_path("a").write_text(json.dumps(m, sort_keys=True))
        assert all(
            f.kind == "orphan-object" for f in store.fsck().findings
        )  # fast pass cannot see it (the old tile is now unreferenced)
        report = store.fsck(deep=True)
        assert "decode-damage" in _kinds(report)


class TestJournalReader:
    """``recover()`` and ``fsck`` read the journal one way: an entry of
    another format names no transaction of this store, so both drop it
    as torn and neither rolls back the acked put it names."""

    @pytest.fixture
    def foreign(self, store):
        store._journal_dir.mkdir(parents=True, exist_ok=True)
        entry = store._journal_dir / "tx-1-1.json"
        entry.write_text(json.dumps({
            "format": 99, "txid": "1-1", "name": "a",
            "prior_manifest": None, "new_tiles": store.manifest("a")["tiles"],
        }))
        return entry

    def test_fsck_repair_drops_it_as_torn(self, store, foreign):
        old = store.read("a").data
        dirty = ArrayStore(store.root, recover=False)
        report = dirty.fsck(repair=True)
        assert _kinds(report) == ["torn-journal"]
        assert "format 99" in report.findings[0].detail
        assert not foreign.exists()
        assert dirty.fsck().ok
        np.testing.assert_array_equal(dirty.read("a").data, old)

    def test_recover_agrees(self, store, foreign):
        old = store.read("a").data
        reopened = ArrayStore(store.root)
        assert reopened.recovery.actions == (("torn-journal", foreign.name),)
        np.testing.assert_array_equal(reopened.read("a").data, old)


class TestReportShape:
    def test_summary_counts_kinds(self, store):
        store.delete("b")
        (store._object_dir / ".tmp-1-z").write_bytes(b"x")
        report = store.fsck()
        s = report.summary()
        assert "orphan-object=2" in s
        assert "stale-tmp=1" in s
        assert report.warnings and not report.errors

    def test_repair_counts_in_metrics(self, tmp_path, field):
        from repro.service.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        s = ArrayStore(tmp_path / "m", metrics=metrics)
        s.put("a", field, "sz10", n_tiles=2)
        s.delete("a")
        s.fsck(repair=True)
        assert metrics.snapshot().events["store.fsck_repairs"] == 2

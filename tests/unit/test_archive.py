"""The snapshot contract: a multi-field archive is an ``ArrayStore`` directory.

These are the tests the retired ``repro.io.Archive`` format was held to,
re-pointed at what replaced it — several named fields in one store root,
each with its own codec, each readable (and damageable) without touching
the others.  Single-dataset behaviour lives in ``test_store.py``.
"""

import numpy as np
import pytest

from repro import SZ14Compressor, load_field
from repro.errors import ChecksumError, StoreError
from repro.store import ArrayStore


@pytest.fixture(scope="module")
def snapshot():
    return {
        "CLDLOW": load_field("CESM-ATM", "CLDLOW")[:48, :96],
        "TS": load_field("CESM-ATM", "TS")[:48, :96],
    }


def _build(root, fields, codecs=("sz14",)) -> ArrayStore:
    """One put per field (codecs cycle), then a fresh handle on the root."""
    store = ArrayStore(root)
    for i, (name, data) in enumerate(fields.items()):
        store.put(name, data, codecs[i % len(codecs)], 1e-3, "vr_rel")
    return ArrayStore(root)


def _within_bound(out: np.ndarray, data: np.ndarray, rows=slice(None)) -> bool:
    vr = float(data.max() - data.min())  # the bound is the whole field's
    return np.abs(out[rows].astype(np.float64) - data[rows]).max() <= 1e-3 * vr


class TestArchive:
    def test_build_and_extract(self, tmp_path, snapshot):
        back = _build(tmp_path / "snap", snapshot)
        assert back.names() == ("CLDLOW", "TS")
        for name, data in snapshot.items():
            assert _within_bound(back.read(name).data, data)

    def test_manifest_metadata(self, tmp_path, snapshot):
        for row in _build(tmp_path / "snap", snapshot).ls():
            assert row["codec"] == "SZ-1.4"
            assert row["shape"] == (48, 96)
            assert row["original_bytes"] > row["compressed_bytes"] > 0

    def test_random_access_payload(self, tmp_path, snapshot):
        """One tile of one field decodes standalone, by digest."""
        back = _build(tmp_path / "snap", snapshot)
        digest = back.manifest("TS")["tiles"][0]
        out = SZ14Compressor().decompress(back.get_object(digest))
        assert out.shape == (12, 96)  # band 0 of 4

    def test_missing_field_rejected(self, tmp_path, snapshot):
        with pytest.raises(StoreError, match="no dataset"):
            _build(tmp_path / "snap", snapshot).read("nope")

    def test_not_an_archive_rejected(self, tmp_path, snapshot):
        payload = tmp_path / "ts.wsz"
        payload.write_bytes(SZ14Compressor().compress(snapshot["TS"], 1e-3).payload)
        with pytest.raises(StoreError, match="no dataset"):
            ArrayStore(payload).read("TS")

    def test_mixed_variants(self, tmp_path, snapshot):
        back = _build(tmp_path / "snap", snapshot, codecs=("sz14", "wavesz"))
        assert {r["name"]: r["codec"] for r in back.ls()} == {
            "CLDLOW": "SZ-1.4", "TS": "waveSZ",
        }
        assert back.read("CLDLOW").data.shape == (48, 96)
        assert back.read("TS").data.shape == (48, 96)


def _damage_field(store: ArrayStore, name: str, tile: int = 1) -> None:
    """Flip one bit inside one tile object of a named field."""
    path = store.root / "objects" / store.manifest(name)["tiles"][tile]
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x20
    path.write_bytes(bytes(blob))


class TestExtractAll:
    def test_extract_all_clean(self, tmp_path, snapshot):
        back = _build(tmp_path / "snap", snapshot)
        for name in back.names():
            result = back.read(name, strict=False)
            assert result.ok
            assert _within_bound(result.data, snapshot[name])

    def test_extract_all_resolves_mixed_variants(self, tmp_path, snapshot):
        """The reader is told no codec: each manifest names its own."""
        back = _build(tmp_path / "snap", snapshot, codecs=("sz14", "wavesz"))
        assert all(back.read(n, strict=False).ok for n in back.names())

    def test_damaged_field_strict_raises(self, tmp_path, snapshot):
        back = _build(tmp_path / "snap", snapshot)
        _damage_field(back, "TS")
        with pytest.raises(ChecksumError):
            back.read("TS")

    def test_damaged_field_lenient_recovers_the_rest(self, tmp_path, snapshot):
        back = _build(tmp_path / "snap", snapshot)
        _damage_field(back, "TS", tile=1)
        result = back.read("TS", strict=False)
        assert not result.ok
        (d,) = result.damaged
        assert (d.index, d.stage) == (1, "checksum")
        assert "digest" in d.error
        assert not result.data[12:24].any()  # the lost band is zero-filled
        assert _within_bound(result.data, snapshot["TS"], np.r_[0:12, 24:48])
        assert back.read("CLDLOW", strict=False).ok  # other fields untouched

    def test_damaged_extract_still_refused(self, tmp_path, snapshot):
        back = _build(tmp_path / "snap", snapshot)
        _damage_field(back, "TS")
        with pytest.raises(ChecksumError):
            back.read_slice("TS", (slice(12, 24),))
        assert back.read_slice("TS", (slice(0, 12),)).ok  # other tiles do
        assert back.read("CLDLOW").data.shape == (48, 96)

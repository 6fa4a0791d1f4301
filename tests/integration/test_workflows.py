"""Integration: multi-step user workflows across subsystems."""

import numpy as np
import pytest

from repro import (
    OnlineSelector,
    SZ14Compressor,
    ZFPCompressor,
    load_field,
)
from repro.cli import main
from repro.io import read_raw_field
from repro.parallel import tile_compress, tile_decompress
from repro.store import ArrayStore


class TestSnapshotWorkflow:
    def test_archive_whole_dataset_and_extract(self, tmp_path):
        """Compress a snapshot, ship one directory, extract one field."""
        fields = {
            f: load_field("CESM-ATM", f)[:60, :120]
            for f in ("CLDLOW", "TS", "PSL")
        }
        store = ArrayStore(tmp_path / "snapshot")
        stored = sum(
            store.put(name, data, "wavesz", 1e-3, "vr_rel").stored_bytes
            for name, data in fields.items()
        )
        assert stored < sum(f.nbytes for f in fields.values())

        back = ArrayStore(store.root)
        assert back.names() == ("CLDLOW", "PSL", "TS")
        ts = back.read("TS").data
        vr = float(fields["TS"].max() - fields["TS"].min())
        assert np.abs(ts.astype(np.float64) - fields["TS"]).max() <= 1e-3 * vr

    def test_selector_feeds_archive(self, tmp_path):
        """Per-field bestfit selection, archived together."""
        selector = OnlineSelector([SZ14Compressor(), ZFPCompressor()])
        store = ArrayStore(tmp_path / "snapshot")
        fields = {
            "TS": load_field("CESM-ATM", "TS")[:48, :96],
            "FLNS": load_field("CESM-ATM", "FLNS")[:48, :96],
        }
        chosen = {}
        for name, data in fields.items():
            res = selector.select(data, 1e-3, "vr_rel")
            chosen[name] = res.compressed.variant
            store.put(name, data, codec=chosen[name], eb=1e-3, mode="vr_rel")
        back = ArrayStore(store.root)
        assert {r["name"]: r["codec"] for r in back.ls()} == chosen
        for name, data in fields.items():
            out = back.read(name).data
            vr = float(data.max() - data.min())
            assert np.abs(out.astype(np.float64) - data).max() <= 1e-3 * vr

    def test_tiled_then_archived(self):
        """Bands for lanes, archive for shipping — composed."""
        comp = SZ14Compressor()
        x = load_field("NYX", "velocity_x")[:32]
        tiled = tile_compress(comp, x, 1e-3, n_tiles=4)
        out = tile_decompress(comp, tiled.payload)
        vr = float(x.max() - x.min())
        assert np.abs(out.astype(np.float64) - x).max() <= 1e-3 * vr


class TestCLIWorkflow:
    def test_generate_compress_decompress_chain(self, tmp_path):
        """The full artifact-style command chain through the CLI."""
        raw = tmp_path / "f.f32"
        wsz = tmp_path / "f.wsz"
        restored = tmp_path / "g.f32"
        assert main(["generate", "CESM-ATM", "PSL", "-o", str(raw)]) == 0
        assert main(["compress", str(raw), "--dims", "180", "360",
                     "--variant", "sz20", "--eb", "1e-3",
                     "-o", str(wsz), "--verify"]) == 0
        assert main(["decompress", str(wsz), "-o", str(restored)]) == 0
        a = read_raw_field(raw, (180, 360), np.float32)
        b = read_raw_field(restored, (180, 360), np.float32)
        vr = float(a.max() - a.min())
        assert np.abs(b.astype(np.float64) - a).max() <= 1e-3 * vr

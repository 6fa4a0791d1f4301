"""Integration: cross-cutting behaviours — file IO round trips, container
safety, public API surface."""

import numpy as np
import pytest

import repro
from repro import (
    GhostSZCompressor,
    SZ14Compressor,
    WaveSZCompressor,
    load_field,
)
from repro.io import read_raw_field, write_raw_field


class TestFileWorkflow:
    def test_sdrb_dump_compress_cycle(self, tmp_path):
        """The artifact workflow: raw .f32 -> compress -> decompress."""
        x = load_field("CESM-ATM", "CLDHGH")
        raw = tmp_path / "CLDHGH.f32"
        write_raw_field(raw, x)
        loaded = read_raw_field(raw, x.shape, np.float32)
        comp = WaveSZCompressor(use_huffman=True)
        cf = comp.compress(loaded, 1e-3, "vr_rel")
        blob = tmp_path / "CLDHGH.wsz"
        blob.write_bytes(cf.payload)
        out = comp.decompress(blob.read_bytes())
        assert np.abs(out.astype(np.float64) - x).max() <= cf.bound.absolute
        assert blob.stat().st_size < raw.stat().st_size

    def test_compressed_smaller_than_raw_for_all_variants(self, tmp_path):
        x = load_field("CESM-ATM", "PSL")[:60, :120]
        for comp in (GhostSZCompressor(), WaveSZCompressor(), SZ14Compressor()):
            cf = comp.compress(x, 1e-3, "vr_rel")
            assert len(cf.payload) < x.nbytes


class TestContainerSafety:
    def test_each_variant_rejects_others(self, smooth2d):
        comps = [GhostSZCompressor(), WaveSZCompressor(), SZ14Compressor()]
        payloads = {c.name: c.compress(smooth2d, 1e-3).payload for c in comps}
        for producer, blob in payloads.items():
            for consumer in comps:
                if consumer.name == producer:
                    continue
                with pytest.raises(repro.ReproError):
                    consumer.decompress(blob)

    def test_truncated_payload_raises(self, smooth2d):
        cf = SZ14Compressor().compress(smooth2d, 1e-3)
        with pytest.raises(Exception):
            SZ14Compressor().decompress(cf.payload[: len(cf.payload) // 3])


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_docstring_flow(self):
        """The README/docstring quickstart must actually work."""
        field = load_field("CESM-ATM", "CLDLOW")
        wavesz = WaveSZCompressor(use_huffman=True)
        compressed = wavesz.compress(field, eb=1e-3, mode="vr_rel")
        restored = wavesz.decompress(compressed)
        assert np.abs(restored - field).max() <= compressed.bound.absolute
        assert compressed.stats.ratio > 1

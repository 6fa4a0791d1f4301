"""Unit tests for the SZ-1.4 end-to-end compressor."""

import numpy as np
import pytest

from repro.config import QuantizerConfig
from repro.errors import ContainerError
from repro.sz import SZ14Compressor


class TestRoundtrip:
    @pytest.mark.parametrize("border", ["padded", "truncate", "verbatim"])
    def test_2d(self, smooth2d, border):
        c = SZ14Compressor(border=border)
        cf = c.compress(smooth2d, 1e-3, "vr_rel")
        out = c.decompress(cf)
        assert out.shape == smooth2d.shape and out.dtype == smooth2d.dtype
        assert np.abs(out.astype(np.float64) - smooth2d).max() <= cf.bound.absolute

    def test_3d(self, smooth3d):
        c = SZ14Compressor()
        cf = c.compress(smooth3d, 1e-3, "vr_rel")
        out = c.decompress(cf)
        assert np.abs(out.astype(np.float64) - smooth3d).max() <= cf.bound.absolute

    def test_abs_mode(self, smooth2d):
        c = SZ14Compressor()
        cf = c.compress(smooth2d, 5e-4, "abs")
        out = c.decompress(cf)
        assert np.abs(out.astype(np.float64) - smooth2d).max() <= 5e-4

    def test_decompress_from_raw_bytes(self, smooth2d):
        c = SZ14Compressor()
        cf = c.compress(smooth2d, 1e-3)
        out = c.decompress(cf.payload)
        assert np.abs(out.astype(np.float64) - smooth2d).max() <= cf.bound.absolute

    def test_idempotent_recompression(self, smooth2d):
        """decompress(compress(x)) is a fixed point of the compressor."""
        c = SZ14Compressor()
        once = c.decompress(c.compress(smooth2d, 1e-3, "abs"))
        twice = c.decompress(c.compress(once, 1e-3, "abs"))
        assert (once == twice).all()


class TestBehaviour:
    def test_tighter_bound_lower_ratio(self, smooth2d):
        c = SZ14Compressor()
        loose = c.compress(smooth2d, 1e-2).stats.ratio
        tight = c.compress(smooth2d, 1e-5).stats.ratio
        assert loose > tight

    def test_smoother_data_higher_ratio(self, smooth2d, rough2d):
        c = SZ14Compressor()
        rs = c.compress(smooth2d, 1e-3).stats.ratio
        rr = c.compress(rough2d, 1e-3).stats.ratio
        assert rs > rr

    def test_quant_bits_affect_overflow(self, rough2d):
        tight = 1e-7
        small = SZ14Compressor(quant=QuantizerConfig(bits=6))
        big = SZ14Compressor(quant=QuantizerConfig(bits=16))
        cf_small = small.compress(rough2d, tight, "abs")
        cf_big = big.compress(rough2d, tight, "abs")
        assert cf_small.stats.n_unpredictable >= cf_big.stats.n_unpredictable

    def test_stats_sum_to_compressed_size(self, smooth2d):
        cf = SZ14Compressor().compress(smooth2d, 1e-3)
        s = cf.stats
        assert s.compressed_bytes == (
            s.encoded_code_bytes + s.outlier_bytes + s.border_bytes
        )
        assert s.original_bytes == smooth2d.size * 4

    def test_header_records_configuration(self, smooth2d):
        from repro.io.container import Container

        cf = SZ14Compressor().compress(smooth2d, 1e-3)
        h = Container.from_bytes(cf.payload).header
        assert h["variant"] == "SZ-1.4"
        assert tuple(h["shape"]) == smooth2d.shape
        assert h["quant_bits"] == 16
        assert h["border"] == "padded"

    def test_wrong_variant_rejected(self, smooth2d):
        from repro.ghostsz import GhostSZCompressor

        cf = GhostSZCompressor().compress(smooth2d, 1e-3)
        with pytest.raises(ContainerError):
            SZ14Compressor().decompress(cf)

    def test_saturated_field_bound(self, saturated2d):
        c = SZ14Compressor()
        cf = c.compress(saturated2d, 1e-3, "vr_rel")
        out = c.decompress(cf)
        assert np.abs(out.astype(np.float64) - saturated2d).max() <= cf.bound.absolute

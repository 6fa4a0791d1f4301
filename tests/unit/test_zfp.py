"""Unit tests for the ZFP-like transform codec."""

import numpy as np
import pytest

from repro.errors import ConfigError, ContainerError, DTypeError, ShapeError
from repro.zfp import ZFPCompressor
from repro.zfp.transform import (
    fwd_lift,
    fwd_transform,
    inv_lift,
    inv_transform,
    sequency_order,
)


class TestTransform:
    def test_near_inverse(self):
        """ZFP's integer lifting is lossy by design (~1 ulp per step);
        the roundtrip error must stay within a few ulps."""
        rng = np.random.default_rng(0)
        for shape in ((200, 4), (200, 4, 4), (100, 4, 4, 4)):
            b = rng.integers(-(2**40), 2**40, size=shape).astype(np.int64)
            orig = b.copy()
            fwd_transform(b)
            inv_transform(b)
            # error compounds ~2 ulps per lifting pass, one pass per axis
            assert np.abs(b - orig).max() <= 8 * b.ndim

    def test_decorrelates_constant_block(self):
        """A constant block transforms to a single DC coefficient."""
        b = np.full((1, 4, 4), 1024, dtype=np.int64)
        fwd_transform(b)
        flat = b.reshape(-1)
        assert flat[0] == 1024
        assert (flat[1:] == 0).all()

    def test_decorrelates_ramp(self):
        """A linear ramp's energy lands in the lowest-sequency coeffs."""
        b = (np.arange(16, dtype=np.int64) * 1000).reshape(1, 4, 4)
        fwd_transform(b)
        order = sequency_order(2)
        coeffs = np.abs(b.reshape(-1)[order])
        assert coeffs[:3].sum() > 10 * coeffs[8:].sum()

    def test_lift_requires_length_4(self):
        with pytest.raises(ShapeError):
            fwd_lift(np.zeros((2, 5), dtype=np.int64), 1)
        with pytest.raises(ShapeError):
            inv_lift(np.zeros((2, 5), dtype=np.int64), 1)

    def test_sequency_order_is_permutation(self):
        for ndim in (1, 2, 3):
            order = sequency_order(ndim)
            assert sorted(order.tolist()) == list(range(4**ndim))

    def test_sequency_starts_at_dc(self):
        assert sequency_order(2)[0] == 0
        assert sequency_order(3)[0] == 0


class TestCodec:
    @pytest.fixture(scope="class")
    def codec(self):
        return ZFPCompressor()

    @pytest.mark.parametrize("eb", [1e-2, 1e-3, 1e-4])
    def test_bound_2d(self, codec, smooth2d, eb):
        cf = codec.compress(smooth2d, eb, "vr_rel")
        out = codec.decompress(cf)
        assert out.shape == smooth2d.shape and out.dtype == smooth2d.dtype
        assert np.abs(out.astype(np.float64) - smooth2d).max() <= cf.bound.absolute

    def test_bound_3d(self, codec, smooth3d):
        cf = codec.compress(smooth3d, 1e-3, "vr_rel")
        out = codec.decompress(cf)
        assert np.abs(out.astype(np.float64) - smooth3d).max() <= cf.bound.absolute

    def test_non_multiple_of_4_shapes(self, codec):
        rng = np.random.default_rng(1)
        x = np.cumsum(rng.normal(size=(17, 23)), axis=1).astype(np.float32)
        cf = codec.compress(x, 1e-3, "vr_rel")
        out = codec.decompress(cf)
        assert out.shape == x.shape
        assert np.abs(out.astype(np.float64) - x).max() <= cf.bound.absolute

    def test_all_zero_field(self, codec):
        x = np.zeros((8, 8), dtype=np.float32)
        cf = codec.compress(x, 1e-3, "abs")
        out = codec.decompress(cf)
        assert (out == 0).all()
        # all-zero blocks cost one bit each
        assert cf.stats.compressed_bytes < 32

    def test_zero_blocks_exact(self, codec):
        x = np.zeros((16, 16), dtype=np.float32)
        x[8:, 8:] = 1.0
        out = codec.decompress(codec.compress(x, 1e-3, "abs"))
        assert (out[:8, :8] == 0).all()

    def test_wide_dynamic_range(self, codec):
        rng = np.random.default_rng(2)
        x = (np.exp(rng.normal(size=(24, 24)) * 4)).astype(np.float32)
        cf = codec.compress(x, 1e-3, "vr_rel")
        out = codec.decompress(cf)
        assert np.abs(out.astype(np.float64) - x).max() <= cf.bound.absolute

    def test_tighter_bound_bigger_payload(self, codec, smooth2d):
        loose = codec.compress(smooth2d, 1e-2).stats.compressed_bytes
        tight = codec.compress(smooth2d, 1e-5).stats.compressed_bytes
        assert tight > loose

    def test_deterministic(self, codec, smooth2d):
        a = codec.compress(smooth2d, 1e-3).payload
        b = codec.compress(smooth2d, 1e-3).payload
        assert a == b

    def test_rejects_nonfinite(self, codec):
        """Finite data is the blocks stage's value rule; a vr_rel request
        meets bound resolution first, as with every other codec."""
        x = np.array([[np.inf, 0], [0, 0]], dtype=np.float32)
        with pytest.raises(DTypeError, match="non-finite"):
            codec.compress(x, 1e-3, "abs")
        with pytest.raises(ConfigError, match="non-finite"):
            codec.compress(x, 1e-3, "vr_rel")

    def test_rejects_1d(self, codec, ramp1d):
        with pytest.raises(ShapeError):
            codec.compress(ramp1d, 1e-3, "abs")

    def test_wrong_variant_rejected(self, codec, smooth2d):
        from repro.sz import SZ14Compressor

        cf = SZ14Compressor().compress(smooth2d, 1e-3)
        with pytest.raises(ContainerError):
            codec.decompress(cf)

"""Unit tests for the SZ-1.0 bestfit compressor."""

import numpy as np
import pytest

from repro.errors import ConfigError, ContainerError
from repro.sz import SZ10Compressor
from repro.sz.sz10 import sz10_predict_loop


class TestPredictLoop:
    def test_types_and_errors_shape(self, ramp1d):
        types, dec, errs = sz10_predict_loop(ramp1d, 1e-3)
        assert types.shape == dec.shape == errs.shape == (ramp1d.size,)
        assert types[0] == 0  # first point has no basis

    def test_bound_enforced(self, ramp1d):
        p = 1e-3
        types, dec, _ = sz10_predict_loop(ramp1d, p)
        assert (np.abs(dec - ramp1d.astype(np.float64)) <= p).all()

    def test_linear_sequence_mostly_order1(self):
        seq = (0.5 + 0.01 * np.arange(2000)).astype(np.float32)
        types, _, _ = sz10_predict_loop(seq, 1e-4)
        # fit-type 2 == order-1 linear fit
        assert (types[10:] == 2).mean() > 0.8

    def test_unpredictable_on_jumps(self):
        seq = np.zeros(100, dtype=np.float32)
        seq[50:] = 100.0
        types, dec, _ = sz10_predict_loop(seq, 1e-4)
        assert types[50] == 0  # the jump cannot be fit
        assert (np.abs(dec - seq) <= 1e-4).all()


class TestSZ10EndToEnd:
    def test_roundtrip_1d(self, ramp1d):
        c = SZ10Compressor()
        cf = c.compress(ramp1d, 1e-3, "abs")
        out = c.decompress(cf)
        assert out.shape == ramp1d.shape
        assert out.dtype == ramp1d.dtype
        assert np.abs(out.astype(np.float64) - ramp1d).max() <= 1e-3

    def test_roundtrip_2d_linearized(self, smooth2d):
        small = smooth2d[:20, :30]
        c = SZ10Compressor()
        cf = c.compress(small, 1e-3, "vr_rel")
        out = c.decompress(cf)
        assert out.shape == small.shape
        assert np.abs(out.astype(np.float64) - small).max() <= cf.bound.absolute

    def test_lower_ratio_than_lorenzo_on_2d(self, smooth2d):
        """The Figure 1 / Table 1 claim: 1D fitting loses to Lorenzo on 2D."""
        from repro.sz import SZ14Compressor

        small = smooth2d[:32, :48]
        r10 = SZ10Compressor().compress(small, 1e-3).stats.ratio
        r14 = SZ14Compressor().compress(small, 1e-3).stats.ratio
        assert r14 > r10

    def test_wrong_variant_rejected(self, smooth2d):
        from repro.sz import SZ14Compressor

        cf = SZ14Compressor().compress(smooth2d[:16, :16], 1e-3)
        with pytest.raises(ContainerError):
            SZ10Compressor().decompress(cf)

    def test_stats_account_unpredictables(self, rough2d):
        c = SZ10Compressor()
        cf = c.compress(rough2d[:20, :20], 1e-6, "abs")
        assert cf.stats.n_unpredictable > 0
        assert cf.stats.compressed_bytes > 0


class TestSubnormalBound:
    """SZ-1.0 truncation stores an unpredictable subnormal as zero, so a
    bound below such a point's magnitude is refused at compress, never
    returned as a payload that decodes out of bound."""

    @staticmethod
    def _denormal_field() -> np.ndarray:
        rng = np.random.default_rng(11)
        return (rng.random((24, 40)) * 1e-39).astype(np.float32)

    @pytest.mark.parametrize("eb, mode", [(1e-3, "vr_rel"), (1e-41, "abs")])
    def test_a_bound_below_the_subnormals_is_refused(self, eb, mode):
        x = self._denormal_field()
        assert (np.abs(x) < np.finfo(np.float32).tiny).all()
        with pytest.raises(ConfigError, match="SZ-1.0 cannot hold the absolute bound"):
            SZ10Compressor().compress(x, eb, mode)

    @pytest.mark.parametrize("eb", [1e-38, 1.0])
    def test_a_bound_above_the_subnormals_still_holds(self, eb):
        x = self._denormal_field()
        c = SZ10Compressor()
        out = c.decompress(c.compress(x, eb, "abs"))
        assert np.abs(out.astype(np.float64) - x).max() <= eb

    def test_normal_values_and_zeros_hold_at_a_tiny_bound(self):
        # truncation keeps every mantissa bit here: nothing to refuse
        x = np.array([1.0, 0.0, -2.5, 7.0, -0.0, 3e-30] * 20, dtype=np.float32)
        c = SZ10Compressor()
        out = c.decompress(c.compress(x, 1e-30, "abs"))
        assert np.abs(out.astype(np.float64) - x).max() <= 1e-30

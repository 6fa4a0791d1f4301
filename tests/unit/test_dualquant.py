"""Unit tests for the dual-quant PQD engine and the waveSZ-dp codec.

Covers the phase-1 lattice contract (rounding bound, raw-point demotion
for non-finite / overflowing / dtype-rounded values), the phase-2
residual codec (outlier-delta stream, count mismatch taxonomy), the
engine round trip, the registered ``waveSZ-dp`` pipeline (wire header,
meta, registry dispatch, stage-timing labels), and the kernel pair's
bit-exactness across dispatch modes.  Randomized coverage lives in
``tests/property/test_prop_dualquant.py``.
"""

import numpy as np
import pytest

from repro.codec.registry import REGISTRY, get_codec
from repro.config import QuantizerConfig
from repro.io import Container
from repro.errors import ContainerError, DTypeError, ShapeError
from repro.kernels import forced
from repro.perf import measure_compressor
from repro.streams import decompress_auto
from repro.sz.dualquant import (
    codes_to_deltas,
    dq_compress,
    dq_decompress,
    lattice_to_values,
    predict_encode,
    prequantize,
)

Q = QuantizerConfig()
EB = 1e-3


def _roundtrip(result, shape, dtype):
    return dq_decompress(
        result.codes.reshape(shape),
        result.outlier_deltas,
        result.raw_idx,
        result.raw_values,
        precision=EB,
        quant=Q,
        dtype=dtype,
    )


class TestPrequantize:
    def test_lattice_reconstruction_within_bound(self, smooth2d):
        pre = prequantize(smooth2d, EB)
        recon = lattice_to_values(pre.q, EB, smooth2d.dtype)
        lattice = np.ones(smooth2d.shape, dtype=bool)
        lattice.reshape(-1)[pre.raw_idx] = False
        err = np.abs(recon[lattice].astype(np.float64)
                     - smooth2d[lattice].astype(np.float64))
        assert float(err.max()) <= EB

    def test_q_is_int64_field_shaped(self, smooth2d):
        pre = prequantize(smooth2d, EB)
        assert pre.q.dtype == np.int64
        assert pre.q.shape == smooth2d.shape

    def test_nonfinite_points_go_raw(self):
        data = np.linspace(0.0, 1.0, 32, dtype=np.float32)
        data[3] = np.nan
        data[17] = np.inf
        data[29] = -np.inf
        pre = prequantize(data, EB)
        assert sorted(pre.raw_idx.tolist()) == [3, 17, 29]
        # raw positions carry the agreed q = 0 lattice convention
        assert np.all(pre.q[pre.raw_idx] == 0)
        np.testing.assert_array_equal(pre.raw_values, data[pre.raw_idx])

    def test_lattice_overflow_goes_raw(self):
        data = np.array([0.5, 1e17, -1e17, 0.25], dtype=np.float64)
        pre = prequantize(data, EB)  # |q| would exceed 2**53
        assert set(pre.raw_idx.tolist()) == {1, 2}

    def test_raw_demotion_keeps_bound_on_float32_rounding(self):
        # Large float32 magnitudes where q*2eb rounds past the bound in
        # the storage dtype must be demoted rather than shipped broken.
        rng = np.random.default_rng(99)
        data = (rng.uniform(1e4, 5e4, 512) * rng.choice([-1.0, 1.0], 512))
        data = data.astype(np.float32)
        pre = prequantize(data, EB)
        recon = lattice_to_values(pre.q, EB, data.dtype)
        ok = np.ones(data.size, dtype=bool)
        ok[pre.raw_idx] = False
        err = np.abs(recon[ok].astype(np.float64) - data[ok].astype(np.float64))
        assert err.size == 0 or float(err.max()) <= EB

    def test_rejects_bad_inputs(self):
        with pytest.raises(DTypeError):
            prequantize(np.arange(8, dtype=np.int32), EB)
        with pytest.raises(ShapeError):
            prequantize(np.zeros((2, 2, 2, 2), dtype=np.float32), EB)
        with pytest.raises(ShapeError):
            prequantize(np.zeros((0,), dtype=np.float32), EB)


class TestPhase2:
    def test_codes_and_outliers_partition_the_field(self, smooth2d):
        pre = prequantize(smooth2d, EB)
        codes, outlier_deltas = predict_encode(pre.q, Q)
        assert codes.shape == smooth2d.shape
        assert int(np.count_nonzero(codes == 0)) == outlier_deltas.size
        delta = codes_to_deltas(codes, outlier_deltas, Q)
        q = _integrate(delta)
        np.testing.assert_array_equal(q, pre.q)

    def test_big_jump_becomes_outlier_delta(self):
        q = np.zeros(16, dtype=np.int64)
        q[8:] = 10 * Q.capacity  # residual far outside the code range
        codes, outlier_deltas = predict_encode(q, Q)
        assert codes[8] == 0
        assert outlier_deltas.size == 1
        assert outlier_deltas[0] == 10 * Q.capacity
        delta = codes_to_deltas(codes, outlier_deltas, Q)
        np.testing.assert_array_equal(_integrate(delta), q)

    def test_count_mismatch_raises_container_error(self):
        q = np.zeros((4, 4), dtype=np.int64)
        codes, _ = predict_encode(q, Q)
        with pytest.raises(ContainerError, match="outliers"):
            codes_to_deltas(codes, np.array([1, 2], dtype=np.int64), Q)


def _integrate(delta):
    from repro.kernels import resolve

    return resolve("dualquant.delta_integrate")(delta)


class TestEngineRoundTrip:
    @pytest.mark.parametrize("shape", [(64,), (16, 24), (6, 8, 10)])
    def test_roundtrip_within_bound(self, shape):
        rng = np.random.default_rng(7)
        data = rng.standard_normal(shape).astype(np.float32)
        result = dq_compress(data, EB, Q)
        out = _roundtrip(result, shape, data.dtype)
        assert out.shape == data.shape
        assert float(np.abs(out.astype(np.float64)
                            - data.astype(np.float64)).max()) <= EB

    def test_raw_points_reconstruct_verbatim(self):
        data = np.linspace(-1.0, 1.0, 40, dtype=np.float32)
        data[5] = np.inf
        data[11] = np.nan
        result = dq_compress(data, EB, Q)
        out = _roundtrip(result, data.shape, data.dtype)
        assert out[5] == np.inf
        assert np.isnan(out[11])

    def test_raw_stream_mismatch_raises(self):
        data = np.zeros(8, dtype=np.float32)
        result = dq_compress(data, EB, Q)
        with pytest.raises(ContainerError, match="raw"):
            dq_decompress(
                result.codes, result.outlier_deltas,
                np.array([2], dtype=np.int64),
                np.array([], dtype=np.float32),
                precision=EB, quant=Q, dtype=data.dtype,
            )

    def test_raw_index_out_of_bounds_raises(self):
        data = np.zeros(8, dtype=np.float32)
        result = dq_compress(data, EB, Q)
        with pytest.raises(ContainerError, match="bounds"):
            dq_decompress(
                result.codes, result.outlier_deltas,
                np.array([99], dtype=np.int64),
                np.array([1.0], dtype=np.float32),
                precision=EB, quant=Q, dtype=data.dtype,
            )


class TestWaveSZDPCodec:
    def test_registered_and_data_parallel(self):
        entry = REGISTRY.entry("wavesz-dp")
        assert entry.name == "waveSZ-dp"
        assert entry.data_parallel
        assert not REGISTRY.entry("wavesz").data_parallel

    @pytest.mark.parametrize("mode", ["abs", "vr_rel", "pw_rel"])
    def test_roundtrip_all_bound_modes(self, smooth2d, mode):
        comp = get_codec("wavesz-dp")
        eb = 1e-2 if mode == "pw_rel" else EB
        work = np.abs(smooth2d) + 0.25 if mode == "pw_rel" else smooth2d
        cf = comp.compress(work, eb, mode)
        out = comp.decompress(cf.payload)
        assert out.shape == work.shape
        if mode == "pw_rel":
            rel = np.abs(out.astype(np.float64) / work.astype(np.float64) - 1.0)
            assert float(rel.max()) <= eb * (1 + 1e-6)
        else:
            bound = eb if mode == "abs" else eb * float(
                work.max() - work.min()
            )
            err = np.abs(out.astype(np.float64) - work.astype(np.float64))
            assert float(err.max()) <= bound * (1 + 1e-12)

    def test_wire_header_and_meta(self, smooth2d):
        cf = get_codec("wavesz-dp").compress(smooth2d, EB, "vr_rel")
        header = Container.from_bytes(cf.payload).header
        assert header["variant"] == "waveSZ-dp"
        assert header["dq_version"] == 1
        assert cf.meta["backend"] == "dual-quant"
        assert cf.meta["phases"] == ["prequant", "predict_quant"]

    def test_auto_dispatch_and_determinism(self, smooth2d):
        comp = get_codec("wavesz-dp")
        cf1 = comp.compress(smooth2d, EB, "vr_rel")
        cf2 = comp.compress(smooth2d, EB, "vr_rel")
        assert cf1.payload == cf2.payload
        np.testing.assert_array_equal(
            decompress_auto(cf1.payload), comp.decompress(cf1.payload)
        )

    def test_stage_timing_reports_both_phases(self, smooth2d):
        timing, _ = measure_compressor(
            get_codec("wavesz-dp"), smooth2d, EB, "vr_rel", stage_timing=True
        )
        assert "prequant" in timing.compress_stages
        assert "predict_quant" in timing.compress_stages
        assert "prequant" in timing.decompress_stages
        assert "predict_quant" in timing.decompress_stages


class TestKernelDifferential:
    @pytest.mark.parametrize("shape", [(33,), (9, 13), (4, 5, 6)])
    def test_fast_twins_match_reference(self, shape):
        rng = np.random.default_rng(13)
        q = rng.integers(-(2**40), 2**40, size=shape, dtype=np.int64)
        with forced("reference"):
            delta_ref = _encode(q)
            q_ref = _integrate(delta_ref)
        with forced("fast"):
            delta_fast = _encode(q)
            q_fast = _integrate(delta_fast)
        np.testing.assert_array_equal(delta_ref, delta_fast)
        np.testing.assert_array_equal(q_ref, q_fast)
        np.testing.assert_array_equal(q_ref, q)

    def test_codec_payload_identical_across_modes(self, smooth2d):
        comp = get_codec("wavesz-dp")
        with forced("reference"):
            ref = comp.compress(smooth2d, EB, "vr_rel")
        with forced("fast"):
            fast = comp.compress(smooth2d, EB, "vr_rel")
        assert ref.payload == fast.payload


def _encode(q):
    from repro.kernels import resolve

    return resolve("dualquant.delta_encode")(q)

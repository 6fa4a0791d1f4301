"""SZ-2.0: blockwise hybrid Lorenzo / linear-regression compressor.

The modern SZ model (paper ref [32], Table 2 row "2.0+"): the field is
tiled into small blocks; each block is predicted either by the 1-layer
Lorenzo stencil (feedback over decompressed values, via the same local
wavefront schedule as everywhere else in this library) or by a
least-squares hyperplane whose quantized coefficients travel with the
stream (no feedback at all).  Residuals go through the standard
linear-scaling quantizer, so the absolute error bound holds regardless of
which predictor a block uses.

§2.1 of the waveSZ paper motivates building on SZ-1.4 rather than 2.0:
at the relatively *low* error bounds scientists ask for, 2.0's regression
rarely beats Lorenzo — the `bench_sz20_vs_sz14` bench measures exactly
that crossover on the synthetic datasets.

The blockwise hybrid predictor and its side streams (block-type bitmap,
delta-coded regression coefficients, outlier values) are the
SZ-2.0-specific stages here; bound resolution, header assembly and the
Huffman → gzip code path come from :mod:`repro.codec.stages`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..codec.pipeline import PipelineCompressor, PipelineContext, Stage
from ..codec.registry import register_codec
from ..codec.stages import (
    EntropyCodesStage,
    HeaderStage,
    ResolveBoundStage,
    put_section,
    take_section,
)
from ..config import QuantizerConfig
from ..errors import ContainerError
from ..lossless import GzipStage, LosslessMode
from ..streams import MAX_FIELD_POINTS, header_dtype, header_int, header_shape
from ..variants import Feature
from .lorenzo import neighbor_offsets, stencil_predict
from .quantizer import quantize_vector
from .wavefront_index import interior_wavefronts

__all__ = ["SZ20Compressor"]

_LORENZO, _REGRESSION = 0, 1


def _block_grid(shape: tuple[int, ...], bs: int):
    """Yield (block_index, slices) over the field in raster order."""
    ranges = [range(0, n, bs) for n in shape]
    for starts in itertools.product(*ranges):
        yield tuple(
            slice(s, min(s + bs, n)) for s, n in zip(starts, shape)
        )


def _open_loop_lorenzo_padded(data: np.ndarray) -> np.ndarray:
    """Zero-halo open-loop Lorenzo prediction of every point (selection
    heuristic only — the real feedback loop runs per block)."""
    ext_shape = tuple(n + 1 for n in data.shape)
    ext = np.zeros(ext_shape)
    ext[tuple(slice(1, None) for _ in data.shape)] = data
    from .lorenzo import lorenzo_predict

    pred = lorenzo_predict(ext)
    return pred[tuple(slice(1, None) for _ in data.shape)]


def _halo_fill(
    lwork: np.ndarray, work: np.ndarray, sl: tuple[slice, ...]
) -> None:
    """Fill a block's extended-halo faces from the global work array."""
    for axis, s in enumerate(sl):
        if s.start == 0:
            continue  # field border: halo stays zero (padded semantics)
        src = list(sl)
        src[axis] = slice(s.start - 1, s.start)
        dst = [slice(1, None)] * len(sl)
        dst[axis] = slice(0, 1)
        # Halo corners/edges also need earlier-block values; widen the
        # source for already-handled axes.
        for prev_axis in range(axis):
            if sl[prev_axis].start > 0:
                src[prev_axis] = slice(
                    sl[prev_axis].start - 1, sl[prev_axis].stop
                )
                dst[prev_axis] = slice(0, None)
        lwork[tuple(dst)] = work[tuple(src)]


def _lorenzo_block(
    orig: np.ndarray,
    work: np.ndarray,
    codes: np.ndarray,
    sl: tuple[slice, ...],
    p: float,
    quant: QuantizerConfig,
    dtype: np.dtype,
    *,
    origin_verbatim: bool,
) -> np.ndarray:
    """Closed-loop Lorenzo over one block; halo from decompressed
    neighbours (zero outside the field).  Returns outlier originals in
    local raster order."""
    bshape = tuple(s.stop - s.start for s in sl)
    ext_shape = tuple(n + 1 for n in bshape)
    lwork = np.zeros(ext_shape, dtype=np.float64)
    inner = tuple(slice(1, None) for _ in bshape)
    _halo_fill(lwork, work, sl)
    lorig = np.zeros(ext_shape, dtype=np.float64)
    lorig[inner] = orig[sl]

    lcodes = np.zeros(int(np.prod(ext_shape)), dtype=np.int64)
    lwork_flat = lwork.reshape(-1)
    lorig_flat = lorig.reshape(-1)
    offsets, signs = neighbor_offsets(ext_shape)
    outliers: list[np.ndarray] = []

    for k, idx in enumerate(interior_wavefronts(ext_shape)):
        if origin_verbatim and k == 0:
            # The field origin is stored verbatim (see pqd.py).
            lwork_flat[idx] = lorig_flat[idx]
            continue
        pred = stencil_predict(lwork_flat, idx, offsets, signs)
        d = lorig_flat[idx]
        wf_codes, d_out = quantize_vector(d, pred, p, quant, dtype)
        lcodes[idx] = wf_codes
        lwork_flat[idx] = d_out.astype(np.float64)

    lcodes = lcodes.reshape(ext_shape)[inner]
    codes[sl] = lcodes
    work[sl] = lwork[inner]
    fail_local = lcodes.reshape(-1) == 0
    if fail_local.any():
        outliers.append(orig[sl].reshape(-1)[fail_local].astype(dtype))
    return (
        np.concatenate(outliers) if outliers else np.empty(0, dtype=dtype)
    )


def _lorenzo_block_decode(
    work: np.ndarray,
    bcodes: np.ndarray,
    sl: tuple[slice, ...],
    p: float,
    quant: QuantizerConfig,
    dtype: np.dtype,
    outliers: np.ndarray,
    out_pos: int,
) -> int:
    bshape = bcodes.shape
    ext_shape = tuple(n + 1 for n in bshape)
    inner = tuple(slice(1, None) for _ in bshape)
    lwork = np.zeros(ext_shape, dtype=np.float64)
    _halo_fill(lwork, work, sl)

    lcodes = np.zeros(ext_shape, dtype=np.int64)
    lcodes[inner] = bcodes
    lcodes_flat = lcodes.reshape(-1)
    lwork_flat = lwork.reshape(-1)
    offsets, signs = neighbor_offsets(ext_shape)
    r = quant.radius

    # Scatter outliers (code 0 interior) before the sweep: they feed
    # later predictions.  Local raster order matches the encoder.
    inner_flat = np.zeros(ext_shape, dtype=bool)
    inner_flat[inner] = True
    fail_mask = (lcodes_flat == 0) & inner_flat.reshape(-1)
    fail_idx = np.flatnonzero(fail_mask)
    n_fail = fail_idx.size
    if n_fail:
        lwork_flat[fail_idx] = outliers[
            out_pos : out_pos + n_fail
        ].astype(np.float64)
        out_pos += n_fail

    for idx in interior_wavefronts(ext_shape):
        c = lcodes_flat[idx]
        sel = c != 0
        if not sel.any():
            continue
        pred = stencil_predict(lwork_flat, idx, offsets, signs)
        d_re = (pred + 2.0 * (c - r) * p).astype(dtype)
        tgt = idx[sel]
        lwork_flat[tgt] = d_re[sel].astype(np.float64)

    work[sl] = lwork[inner]
    return out_pos


class _BlockHybridStage:
    """Blockwise hybrid Lorenzo/regression prediction + quantization."""

    name = "block_hybrid"
    dims = (2, 3)  # SZ-2.0's blockwise model

    def __init__(self, quant: QuantizerConfig, block_size: int) -> None:
        self.quant = quant
        self.block_size = block_size

    def forward(self, ctx: PipelineContext) -> None:
        from .regression import (
            dequantize_coeffs,
            eval_plane,
            fit_plane,
            quantize_coeffs,
        )

        data = ctx.data
        p = ctx.bound.absolute
        dtype = data.dtype
        bs = self.block_size

        work = np.zeros(data.shape, dtype=np.float64)
        codes = np.zeros(data.shape, dtype=np.int64)
        orig = data.astype(np.float64)
        open_loop_err = np.abs(orig - _open_loop_lorenzo_padded(orig))

        types: list[int] = []
        coeff_rows: list[np.ndarray] = []
        outliers: list[np.ndarray] = []
        first_block = True

        for sl in _block_grid(data.shape, bs):
            block = orig[sl]
            fit = fit_plane(block)
            ccodes = quantize_coeffs(fit, p, block.shape)
            qcoeffs = dequantize_coeffs(ccodes, p, block.shape)
            pred_reg = eval_plane(qcoeffs, block.shape)
            err_reg = float(np.abs(block - pred_reg).mean())
            err_lor = float(open_loop_err[sl].mean())

            if err_reg < err_lor:
                types.append(_REGRESSION)
                coeff_rows.append(ccodes)
                wf_codes, d_out = quantize_vector(
                    block.reshape(-1), pred_reg.reshape(-1), p, self.quant, dtype
                )
                fail = wf_codes == 0
                if fail.any():
                    outliers.append(block.reshape(-1)[fail].astype(dtype))
                codes[sl] = wf_codes.reshape(block.shape)
                work[sl] = d_out.astype(np.float64).reshape(block.shape)
            else:
                types.append(_LORENZO)
                out_vals = _lorenzo_block(
                    orig, work, codes, sl, p, self.quant, dtype,
                    origin_verbatim=first_block,
                )
                if out_vals.size:
                    outliers.append(out_vals)
            first_block = False

        ctx.codes = codes
        ctx.artifacts["block_types"] = types
        ctx.artifacts["coeff_rows"] = coeff_rows
        ctx.artifacts["outlier_values"] = (
            np.concatenate(outliers) if outliers else np.empty(0, dtype=dtype)
        )

    def inverse(self, ctx: PipelineContext) -> None:
        from .regression import dequantize_coeffs, eval_plane

        h = ctx.header
        shape = ctx.shape
        dtype = ctx.dtype
        quant = ctx.quant
        p = ctx.bound.absolute
        bs = header_int(h, "block_size", lo=1, hi=4096)
        r = quant.radius

        codes = ctx.codes.reshape(shape)
        types = ctx.require("block_types")
        cmat = ctx.require("coeff_matrix")
        outliers = ctx.require("outlier_values")

        work = np.zeros(shape, dtype=np.float64)
        reg_i = 0
        out_pos = 0
        for b, sl in enumerate(_block_grid(shape, bs)):
            bshape = tuple(s.stop - s.start for s in sl)
            bcodes = codes[sl]
            if types[b] == _REGRESSION:
                qcoeffs = dequantize_coeffs(cmat[reg_i], p, bshape)
                reg_i += 1
                pred = eval_plane(qcoeffs, bshape)
                d_re = (pred + 2.0 * (bcodes - r) * p).astype(dtype)
                fail = bcodes == 0
                n_fail = int(fail.sum())
                block_out = np.asarray(d_re, dtype=np.float64)
                if n_fail:
                    block_out[fail] = outliers[
                        out_pos : out_pos + n_fail
                    ].astype(np.float64)
                    out_pos += n_fail
                work[sl] = block_out
            else:
                out_pos = _lorenzo_block_decode(
                    work, bcodes, sl, p, quant, dtype, outliers, out_pos
                )
        ctx.out = work.astype(dtype)


class _SZ20HeaderStage(HeaderStage):
    """SZ-2.0 header: block geometry and per-predictor block counts."""

    def __init__(self, compressor: "SZ20Compressor") -> None:
        super().__init__(with_quant=True)
        self._c = compressor

    def write_extra(self, ctx: PipelineContext) -> None:
        types = ctx.require("block_types")
        h = ctx.header
        h["block_size"] = self._c.block_size
        h["n_blocks"] = len(types)
        h["n_reg_blocks"] = int(sum(types))
        ctx.meta["n_blocks"] = len(types)
        ctx.meta["regression_fraction"] = (
            float(np.mean(types)) if types else 0.0
        )

    def read_extra(self, ctx: PipelineContext) -> None:
        h = ctx.header
        bs = header_int(h, "block_size", lo=1, hi=4096)
        n_blocks = header_int(h, "n_blocks", hi=MAX_FIELD_POINTS)
        expected_blocks = 1
        for s in ctx.shape:
            expected_blocks *= -(-s // bs)
        if n_blocks != expected_blocks:
            raise ContainerError(
                f"header declares {n_blocks} blocks, shape implies "
                f"{expected_blocks}"
            )


class _BlockTypesStage:
    """Per-block predictor selection bitmap (packed 1 bit per block)."""

    name = "block_types"

    def forward(self, ctx: PipelineContext) -> None:
        types_arr = np.array(ctx.require("block_types"), dtype=np.uint8)
        payload = np.packbits(types_arr).tobytes()
        ctx.container.add("block_types", payload)
        ctx.extra_bytes += len(payload)

    def inverse(self, ctx: PipelineContext) -> None:
        n_blocks = header_int(ctx.header, "n_blocks", hi=MAX_FIELD_POINTS)
        ctx.artifacts["block_types"] = np.unpackbits(
            np.frombuffer(ctx.container.get("block_types"), dtype=np.uint8),
            count=n_blocks,
        )


class _CoeffsStage:
    """Delta-coded regression-coefficient rows, gzipped when that wins."""

    name = "coeffs"

    def __init__(self, lossless: GzipStage) -> None:
        self.lossless = lossless

    def forward(self, ctx: PipelineContext) -> None:
        coeff_rows = ctx.require("coeff_rows")
        if coeff_rows:
            cmat = np.stack(coeff_rows)
            # Delta-code coefficient streams (adjacent blocks have similar
            # planes); int64 on the wire since intercept codes scale with
            # value/eb.
            deltas = np.diff(cmat, axis=0, prepend=cmat[:1] * 0)
            raw = deltas.astype("<i8").tobytes()
        else:
            raw = b""
        ctx.extra_bytes += put_section(
            ctx.container, self.lossless, "coeffs", raw, "coeffs_gz"
        )

    def inverse(self, ctx: PipelineContext) -> None:
        h = ctx.header
        raw = take_section(
            ctx.container, self.lossless, "coeffs", "coeffs_gz", required=True
        )
        n_blocks = header_int(h, "n_blocks", hi=MAX_FIELD_POINTS)
        n_reg = header_int(h, "n_reg_blocks", hi=n_blocks)
        ndimp1 = len(header_shape(h)) + 1
        if n_reg:
            deltas = np.frombuffer(raw, dtype="<i8").reshape(n_reg, ndimp1)
            cmat = np.cumsum(deltas, axis=0, dtype=np.int64)
        else:
            cmat = np.empty((0, ndimp1), dtype=np.int64)
        ctx.artifacts["coeff_matrix"] = cmat


class _OutliersStage:
    """Raw quantizer-overflow originals, raster order across blocks."""

    name = "outliers"

    def forward(self, ctx: PipelineContext) -> None:
        out_vals = ctx.require("outlier_values")
        ctx.container.add("outliers", out_vals.tobytes())
        ctx.header["n_outliers"] = int(out_vals.size)
        ctx.outlier_bytes = int(out_vals.size * out_vals.dtype.itemsize)
        ctx.n_unpredictable = int(out_vals.size)

    def inverse(self, ctx: PipelineContext) -> None:
        h = ctx.header
        ctx.artifacts["outlier_values"] = np.frombuffer(
            ctx.container.get("outliers"),
            dtype=header_dtype(h),
            count=int(h["n_outliers"]),
        )


@register_codec(aliases=("SZ-2.0+", "sz20"), table2="SZ-2.0+")
@dataclass(frozen=True)
class SZ20Compressor(PipelineCompressor):
    """Blockwise hybrid predictor with 16-bit linear-scaling quantization."""

    quant: QuantizerConfig = field(default_factory=QuantizerConfig)
    lossless: GzipStage = field(
        default_factory=lambda: GzipStage(mode=LosslessMode.BEST_SPEED)
    )
    block_size: int = 6
    #: ``codes_entropy`` backend (``huffman`` | ``rans`` | ``auto``).
    entropy: str = "huffman"

    name = "SZ-2.0"
    realizes = {
        "block_hybrid": {
            Feature.BLOCKING,
            Feature.LORENZO,
            Feature.LINEAR_REGRESSION,
            Feature.QUANTIZATION,
            Feature.DECOMPRESSION_WRITEBACK,
            Feature.OVERBOUND_CHECK_SW,
        },
        "codes_entropy": {Feature.CUSTOM_HUFFMAN, Feature.GZIP},
        "coeffs": {Feature.GZIP},
    }
    # the repro rejects PW_REL bounds and ships gzip instead of Zstandard
    unmodeled = {Feature.LOG_TRANSFORM, Feature.ZSTD}

    def build_stages(self) -> tuple[Stage, ...]:
        return (
            ResolveBoundStage(quant=self.quant),
            _BlockHybridStage(self.quant, self.block_size),
            _SZ20HeaderStage(self),
            EntropyCodesStage(self.lossless, backend=self.entropy, meta_bits=False),
            _BlockTypesStage(),
            _CoeffsStage(self.lossless),
            _OutliersStage(),
        )

"""SZ-1.0: bestfit curve-fitting compressor (the deprecated model, §2.2).

Each point of the linearized field is predicted by the three curve fits
over *decompressed* values; if the best prediction lands within the error
bound, only a 2-bit fit type is stored and the prediction itself becomes
the decompressed value.  Otherwise the point is unpredictable and stored
through truncation-based binary analysis.  No linear-scaling quantization
exists in this model — that is what SZ-1.4 added.

The closed loop along the 1D sequence is inherently sequential (each
prediction needs the previous decompressed values), so the engine is a
scalar loop; it is only used on the small Figure 1 / Table 1 workloads.

The bestfit loop and its fit-type/unpredictable streams are the
SZ-1.0-specific stages; bound resolution and header assembly come from
:mod:`repro.codec.stages`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codec.pipeline import PipelineCompressor, PipelineContext, Stage
from ..codec.registry import register_codec
from ..codec.stages import (
    HeaderStage,
    ResolveBoundStage,
    put_section,
    take_section,
)
from ..encoding.huffman import HuffmanCodec, HuffmanTable
from ..errors import ConfigError
from ..streams import MAX_FIELD_POINTS, bound_from_header, header_dtype, header_int
from ..variants import Feature
from .unpredictable import decode_truncated, encode_truncated, truncate_roundtrip

__all__ = ["SZ10Compressor", "sz10_predict_loop"]

_UNPRED = 0  # fit-type symbols: 0 unpredictable, 1..3 = order 0..2


def sz10_predict_loop(
    seq: np.ndarray, precision: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-loop bestfit pass over a linearized sequence.

    Returns ``(fit_types, decompressed, pred_errors)``; ``pred_errors`` is
    the signed bestfit prediction error per point (NaN where no fit was
    attempted), the quantity plotted in Figure 1 for CF-SZ-1.0.
    """
    x = np.asarray(seq, dtype=np.float64).reshape(-1)
    n = x.size
    # Predictions are stored (and fed back) rounded to the field dtype so
    # the decompressor's recurrence reproduces them bit-exactly.
    cast = np.asarray(seq).dtype.type
    types = np.zeros(n, dtype=np.uint8)
    dec = np.empty(n, dtype=np.float64)
    errs = np.full(n, np.nan)
    stored = truncate_roundtrip(seq.reshape(-1), precision).astype(np.float64)
    for i in range(n):
        d = x[i]
        best_err = np.inf
        best_type = _UNPRED
        best_pred = 0.0
        if i >= 1:
            p0 = dec[i - 1]
            e0 = abs(d - p0)
            if e0 < best_err:
                best_err, best_type, best_pred = e0, 1, p0
        if i >= 2:
            p1 = 2.0 * dec[i - 1] - dec[i - 2]
            e1 = abs(d - p1)
            if e1 < best_err:
                best_err, best_type, best_pred = e1, 2, p1
        if i >= 3:
            p2 = 3.0 * dec[i - 1] - 3.0 * dec[i - 2] + dec[i - 3]
            e2 = abs(d - p2)
            if e2 < best_err:
                best_err, best_type, best_pred = e2, 3, p2
        if best_type != _UNPRED:
            errs[i] = d - best_pred
            stored_pred = float(cast(best_pred))
            if abs(d - stored_pred) <= precision:
                types[i] = best_type
                dec[i] = stored_pred
                continue
        types[i] = _UNPRED
        dec[i] = stored[i]
    return types, dec, errs


class _CurveFitStage:
    """The closed-loop bestfit pass and its decode recurrence."""

    name = "curvefit"

    def forward(self, ctx: PipelineContext) -> None:
        p = ctx.bound.absolute
        types, dec, _ = sz10_predict_loop(ctx.data, p)
        # A fitted point is checked inside the loop; an unpredictable one
        # decodes as its truncation, which stores a subnormal as zero.  A
        # bound below such a point's magnitude cannot be held, so refuse.
        miss = int(np.count_nonzero(np.abs(dec - ctx.data.reshape(-1)) > p))
        if miss:
            raise ConfigError(
                f"SZ-1.0 cannot hold the absolute bound {p:.6g} on this field: "
                f"{miss} of {dec.size} points would decode out of bound "
                "(truncation stores an unpredictable subnormal as zero)"
            )
        ctx.codes = types

    def inverse(self, ctx: PipelineContext) -> None:
        types = ctx.codes
        unpred = ctx.require("unpred_values")
        cast = ctx.dtype.type
        n = types.size
        dec = np.empty(n, dtype=np.float64)
        u = 0
        for i in range(n):
            t = types[i]
            if t == _UNPRED:
                dec[i] = unpred[u]
                u += 1
            elif t == 1:
                dec[i] = cast(dec[i - 1])
            elif t == 2:
                dec[i] = cast(2.0 * dec[i - 1] - dec[i - 2])
            else:
                dec[i] = cast(3.0 * dec[i - 1] - 3.0 * dec[i - 2] + dec[i - 3])
        ctx.out = dec.reshape(ctx.shape).astype(ctx.dtype)


class _SZ10HeaderStage(HeaderStage):
    """SZ-1.0 header: no quantizer, just the unpredictable count."""

    def __init__(self) -> None:
        super().__init__(with_quant=False)

    def write_extra(self, ctx: PipelineContext) -> None:
        ctx.header["n_unpred"] = int((ctx.codes == _UNPRED).sum())


class _TypeEntropyStage:
    """Huffman-coded fit types, gzipped when that wins."""

    name = "type_entropy"

    def forward(self, ctx: PipelineContext) -> None:
        container = ctx.container
        types = ctx.codes
        table = HuffmanTable.from_symbols(types.astype(np.int64))
        payload, _ = HuffmanCodec(table).encode(types.astype(np.int64))
        container.add("huffman_table", table.to_bytes())
        container.header["n_codes"] = int(types.size)
        ctx.encoded_code_bytes = len(table.to_bytes()) + put_section(
            container, "fit_types", payload, "types_gzipped"
        )

    def inverse(self, ctx: PipelineContext) -> None:
        container = ctx.container
        h = ctx.header
        n = header_int(h, "n_codes", hi=MAX_FIELD_POINTS)
        table, _ = HuffmanTable.from_bytes(container.get("huffman_table"))
        stream = take_section(container, "fit_types", "types_gzipped", required=True)
        ctx.codes = HuffmanCodec(table).decode(stream, n).astype(np.uint8)


class _UnpredictableStage:
    """Truncation-coded unpredictable originals (§2.2's binary analysis)."""

    name = "unpredictable"

    def forward(self, ctx: PipelineContext) -> None:
        p = ctx.bound.absolute
        unpred_vals = ctx.data.reshape(-1)[ctx.codes == _UNPRED]
        unpred_stream = encode_truncated(unpred_vals, p)
        ctx.container.add("unpredictable", unpred_stream)
        ctx.outlier_bytes = len(unpred_stream)
        ctx.n_unpredictable = int(unpred_vals.size)

    def inverse(self, ctx: PipelineContext) -> None:
        h = ctx.header
        p = bound_from_header(h["bound"]).absolute
        dtype = header_dtype(h)
        n_unpred = header_int(h, "n_unpred", hi=MAX_FIELD_POINTS)
        ctx.artifacts["unpred_values"] = decode_truncated(
            ctx.container.get("unpredictable"), n_unpred, p, dtype
        ).astype(np.float64)


@register_codec(aliases=("SZ-0.1-1.0", "sz10"), table2="SZ-0.1-1.0")
@dataclass(frozen=True)
class SZ10Compressor(PipelineCompressor):
    """End-to-end SZ-1.0: 2-bit fit types + truncated unpredictables."""

    name = "SZ-1.0"
    realizes = {
        "curvefit": {
            Feature.ORDER012,
            Feature.OVERBOUND_CHECK_SW,
            Feature.DECOMPRESSION_WRITEBACK,
        },
        "type_entropy": {Feature.CUSTOM_HUFFMAN, Feature.GZIP},
    }
    # the repro Huffman-codes the 2-bit fit types (the original packed
    # them raw before gzip)
    extra = {Feature.CUSTOM_HUFFMAN}

    def build_stages(self) -> tuple[Stage, ...]:
        return (
            ResolveBoundStage(),
            _CurveFitStage(),
            _SZ10HeaderStage(),
            _TypeEntropyStage(),
            _UnpredictableStage(),
        )

"""GhostSZ end-to-end compressor front-end.

Wire format mirrors the FPGA design: each point emits a 16-bit word whose
top 2 bits select the bestfit curve (Order-{0,1,2}, or unpredictable) and
whose low 14 bits hold the linear-scaling quantization code — hence only
16,384 usable bins versus SZ-1.4's 65,536 (paper §4.1).  The word stream
goes straight to the gzip stage (the Xilinx gzip IP in hardware); there is
no customized Huffman pass.  3D fields are interpreted rowwise as
``d0 x (d1*d2)``, exactly as the artifact invokes it.

The rowwise prediction loop and the packed type/code words are the
GhostSZ-specific stages; bound resolution and header assembly come from
:mod:`repro.codec.stages`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..codec.pipeline import PipelineCompressor, PipelineContext, Stage
from ..codec.registry import register_codec
from ..codec.stages import (
    HeaderStage,
    ResolveBoundStage,
    put_section,
    take_section,
)
from ..config import QuantizerConfig
from ..streams import MAX_FIELD_POINTS, header_dtype, header_int, values_to_bytes
from ..variants import Feature
from .predictor import ghost_row_decode, ghost_row_loop

__all__ = ["GhostSZCompressor"]

_TYPE_SHIFT = 14


def _rows_shape(shape: tuple[int, ...]) -> tuple[int, int]:
    """Rowwise-decorrelated 2D view (Figure 4a): 1D is one row, 3D
    becomes d0 x (d1*d2)."""
    rows = shape[0] if len(shape) > 1 else 1
    return rows, math.prod(shape) // rows


class _RowsViewStage:
    """Rowwise 2D interpretation, undone after reconstruction."""

    name = "rows"
    dims = (1, 2, 3)

    def forward(self, ctx: PipelineContext) -> None:
        rows = ctx.data.reshape(_rows_shape(ctx.data.shape))
        ctx.work = rows
        ctx.meta["rows"] = rows.shape[0]
        ctx.meta["row_length"] = rows.shape[1]

    def inverse(self, ctx: PipelineContext) -> None:
        ctx.out = ctx.out.reshape(ctx.shape)


class _GhostPredictStage:
    """Rowwise bestfit prediction with 14-bit codes and 2-bit types."""

    name = "ghost_predict"

    def forward(self, ctx: PipelineContext) -> None:
        res = ghost_row_loop(ctx.work, ctx.bound.absolute, ctx.quant)
        ctx.artifacts["ghost"] = res
        ctx.codes = (
            (res.types.astype(np.int64) << _TYPE_SHIFT) | res.codes
        ).reshape(-1)

    def inverse(self, ctx: PipelineContext) -> None:
        words = ctx.codes
        rows_shape = _rows_shape(ctx.shape)
        types = (words >> _TYPE_SHIFT).astype(np.uint8).reshape(rows_shape)
        codes = (words & ((1 << _TYPE_SHIFT) - 1)).reshape(rows_shape)
        ctx.out = ghost_row_decode(
            types,
            codes,
            ctx.require("verbatim_values"),
            precision=ctx.bound.absolute,
            quant=ctx.quant,
            dtype=ctx.dtype,
        )


class _GhostHeaderStage(HeaderStage):
    """GhostSZ header: word and verbatim stream counts."""

    def __init__(self) -> None:
        super().__init__(with_quant=True)

    def write_extra(self, ctx: PipelineContext) -> None:
        res = ctx.require("ghost")
        ctx.header["n_codes"] = int(ctx.codes.size)
        ctx.header["n_verbatim"] = int(res.verbatim_values.size)


class _GhostWordsStage:
    """The packed 16-bit word stream, straight into the gzip IP."""

    name = "ghost_words"

    def forward(self, ctx: PipelineContext) -> None:
        ctx.encoded_code_bytes = put_section(
            ctx.container, "ghost_words",
            ctx.codes.astype("<u2").tobytes(), "codes_gzipped",
        )

    def inverse(self, ctx: PipelineContext) -> None:
        h = ctx.header
        raw = take_section(
            ctx.container, "ghost_words", "codes_gzipped",
            required=True,
        )
        ctx.codes = np.frombuffer(
            raw, dtype="<u2", count=header_int(h, "n_codes", hi=MAX_FIELD_POINTS)
        ).astype(np.int64)


class _GhostVerbatimStage:
    """Unpredictable originals (incl. row pivots), verbatim little-endian."""

    name = "verbatim"

    def forward(self, ctx: PipelineContext) -> None:
        res = ctx.require("ghost")
        verbatim_stream = values_to_bytes(res.verbatim_values)
        ctx.container.add("verbatim", verbatim_stream)
        ctx.outlier_bytes = len(verbatim_stream)
        ctx.n_unpredictable = res.n_unpredictable
        # row pivots are inside n_unpredictable
        ctx.n_border = int(ctx.work.shape[0])

    def inverse(self, ctx: PipelineContext) -> None:
        h = ctx.header
        dtype = header_dtype(h)
        ctx.artifacts["verbatim_values"] = np.frombuffer(
            ctx.container.get("verbatim"),
            dtype=np.dtype(dtype).newbyteorder("<"),
            count=header_int(h, "n_verbatim", hi=MAX_FIELD_POINTS),
        ).astype(dtype)


@register_codec(aliases=("ghostsz",), table2="GhostSZ")
@dataclass(frozen=True)
class GhostSZCompressor(PipelineCompressor):
    """The prior FPGA baseline: CF prediction, 14-bit bins, gzip-only."""

    quant: QuantizerConfig = field(
        default_factory=lambda: QuantizerConfig(bits=16, reserved_bits=2)
    )

    name = "GhostSZ"
    realizes = {
        "ghost_predict": {
            Feature.ORDER012,
            Feature.QUANTIZATION,
            Feature.PREDICTION_WRITEBACK,
            Feature.OVERFLOW_CHECK_HW,
        },
        "ghost_words": {Feature.GZIP},
    }
    # hardware-only execution features of the FPGA design
    unmodeled = {Feature.EXPLICIT_PIPELINING, Feature.LINE_BUFFER}

    def build_stages(self) -> tuple[Stage, ...]:
        return (
            ResolveBoundStage(quant=self.quant),
            _RowsViewStage(),
            _GhostPredictStage(),
            _GhostHeaderStage(),
            _GhostWordsStage(),
            _GhostVerbatimStage(),
        )

"""waveSZ end-to-end compressor.

The algorithmic content mirrors SZ-1.4 exactly — same Lorenzo predictor,
same linear-scaling quantizer — which is the point of the wavefront layout:
unlike GhostSZ it reorganizes *memory*, not the algorithm, so no ratio is
lost (§3.1).  The differences from SZ-1.4 are the ones the paper lists:

* the error bound is tightened to a power of two (base-2 operation, §3.3),
* 3D fields are interpreted as ``d0 x (d1*d2)`` 2D fields and predicted
  with the 2D Lorenzo stencil (artifact appendix),
* border and unpredictable points are passed *verbatim* to gzip instead of
  truncation analysis (§3.2) and counted as unpredictable data (Table 7),
* the code stream is emitted in wavefront issue order, and the lossless
  stage is the FPGA gzip (G⋆); optionally the customized Huffman pass runs
  first (H⋆G⋆ — Table 7's demonstration rows).

The shared machinery (bound/PQD/header/verbatim packing) comes from
:mod:`repro.codec.stages`; this module keeps only the genuinely
waveSZ-specific stages — the 2D view and the wavefront code ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..codec.pipeline import PipelineCompressor, PipelineContext, Stage
from ..codec.registry import register_codec
from ..codec.stages import (
    HeaderStage,
    PQDStage,
    ResolveBoundStage,
    VerbatimValuesStage,
    put_section,
    take_section,
)
from ..config import QuantizerConfig
from ..encoding.huffman import HuffmanCodec, HuffmanTable
from ..errors import ContainerError, ShapeError
from ..lossless import GzipStage, LosslessMode
from ..streams import MAX_FIELD_POINTS, header_int, header_shape
from ..variants import Feature
from .wavefront import build_layout

__all__ = ["WaveSZCompressor"]


class _View2DStage:
    """2D interpretation + orientation check, undone after reconstruction.

    The wavefront needs two dimensions; the artifact reads a 3D field
    ``(d0, d1, d2)`` as ``(d0, d1*d2)``.
    """

    name = "view2d"
    dims = (2, 3)

    def forward(self, ctx: PipelineContext) -> None:
        view = ctx.data.reshape(ctx.data.shape[0], -1)
        if view.shape[1] < view.shape[0]:
            # Iterate along the longer dimension (Λ = shorter dim - 1); the
            # wavefront transform is symmetric so this is just a transpose.
            raise ShapeError(
                f"waveSZ expects d1 >= d0 after 2D interpretation, got {view.shape}; "
                "transpose the field first"
            )
        ctx.work = view

    def inverse(self, ctx: PipelineContext) -> None:
        ctx.out = ctx.out.reshape(ctx.shape)


class _WavefrontOrderStage:
    """Reorder the code raster into wavefront issue order (§3.1)."""

    name = "wavefront_order"

    def forward(self, ctx: PipelineContext) -> None:
        layout = build_layout(ctx.work.shape)
        ctx.codes = ctx.codes.reshape(-1)[layout.flat_order]

    def inverse(self, ctx: PipelineContext) -> None:
        view_shape = ctx.require("view_shape")
        layout = build_layout(view_shape)
        codes = np.empty(ctx.codes.size, dtype=np.int64)
        codes[layout.flat_order] = ctx.codes
        ctx.codes = codes.reshape(view_shape)


class _WaveHeaderStage(HeaderStage):
    """waveSZ header: view shape, stream counts, backend configuration."""

    def __init__(self, compressor: "WaveSZCompressor") -> None:
        super().__init__(with_quant=True)
        self._c = compressor

    def write_extra(self, ctx: PipelineContext) -> None:
        res = ctx.require("pqd")
        h = ctx.header
        h["view_shape"] = list(ctx.work.shape)
        h["n_border"] = res.n_border
        h["n_outliers"] = res.n_outliers
        h["use_huffman"] = self._c.use_huffman
        h["n_codes"] = int(ctx.codes.size)
        ctx.meta["backend"] = "H*G*" if self._c.use_huffman else "G*"
        ctx.meta["lambda"] = ctx.work.shape[0] - 1
        ctx.meta["base2_exponent"] = ctx.bound.exponent

    def read_extra(self, ctx: PipelineContext) -> None:
        ctx.artifacts["view_shape"] = header_shape(ctx.header, "view_shape")


class _WaveCodesStage:
    """Emit the wavefront code stream: optional Huffman pass, then gzip.

    ``use_huffman`` travels in the header, so decode does not depend on
    the compressor's configuration — a G⋆ instance reads H⋆G⋆ payloads.
    """

    name = "codes"

    def __init__(self, lossless: GzipStage, use_huffman: bool) -> None:
        self.lossless = lossless
        self.use_huffman = use_huffman

    def forward(self, ctx: PipelineContext) -> None:
        container = ctx.container
        codes_stream = ctx.codes
        if self.use_huffman:
            table = HuffmanTable.from_symbols(codes_stream)
            pre_gzip, _ = HuffmanCodec(table).encode(codes_stream)
            table_blob = table.to_bytes()
            container.add("huffman_table", table_blob)
            table_bytes = len(table_blob)
        else:
            pre_gzip = codes_stream.astype("<u2").tobytes()
            table_bytes = 0
        ctx.encoded_code_bytes = table_bytes + put_section(
            container, self.lossless, "codes", pre_gzip, "codes_gzipped"
        )

    def inverse(self, ctx: PipelineContext) -> None:
        container = ctx.container
        h = ctx.header
        view_shape = header_shape(h, "view_shape")
        n_codes = header_int(h, "n_codes", hi=MAX_FIELD_POINTS)
        n_view = 1
        for s in view_shape:
            n_view *= s
        if n_codes != n_view:
            raise ContainerError(
                f"header declares {n_codes} codes for view shape {view_shape}"
            )
        stream = take_section(
            container, self.lossless, "codes", "codes_gzipped", required=True
        )
        if h["use_huffman"]:
            table, _ = HuffmanTable.from_bytes(container.get("huffman_table"))
            ctx.codes = HuffmanCodec(table).decode(stream, n_codes)
        else:
            ctx.codes = np.frombuffer(stream, dtype="<u2", count=n_codes).astype(
                np.int64
            )


@register_codec(
    aliases=("wavesz",),
    config={"use_huffman": True},
    profiles={"wavesz-g": {"use_huffman": False}},
    table2="waveSZ",
)
@dataclass(frozen=True)
class WaveSZCompressor(PipelineCompressor):
    """The paper's contribution, software-functional form.

    ``use_huffman=False`` is the shipped FPGA configuration (G⋆: raw 16-bit
    codes into gzip); ``use_huffman=True`` adds the customized Huffman pass
    (H⋆G⋆), which Table 7 shows recovers SZ-1.4-class ratios.
    """

    quant: QuantizerConfig = field(default_factory=QuantizerConfig)
    lossless: GzipStage = field(
        default_factory=lambda: GzipStage(mode=LosslessMode.BEST_SPEED)
    )
    use_huffman: bool = False
    base2: bool = True

    name = "waveSZ"
    realizes = {
        "bound": {Feature.BASE2_MAPPING},
        "pqd": {
            Feature.LORENZO,
            Feature.QUANTIZATION,
            Feature.DECOMPRESSION_WRITEBACK,
            Feature.OVERFLOW_CHECK_HW,
        },
        "wavefront_order": {Feature.MEMORY_LAYOUT_TRANSFORM},
        "codes": {Feature.CUSTOM_HUFFMAN, Feature.GZIP},
        "values": {Feature.GZIP},
    }
    # hardware-only execution features of the FPGA design
    unmodeled = {Feature.EXPLICIT_PIPELINING, Feature.LINE_BUFFER}

    def build_stages(self) -> tuple[Stage, ...]:
        return (
            _View2DStage(),
            ResolveBoundStage(base2=self.base2, quant=self.quant),
            PQDStage(border="verbatim"),
            _WavefrontOrderStage(),
            _WaveHeaderStage(self),
            _WaveCodesStage(self.lossless, self.use_huffman),
            VerbatimValuesStage(self.lossless),
        )

"""SZ-1.4 end-to-end compressor (the CPU baseline of the paper).

Pipeline (§2.1): Lorenzo prediction over decompressed neighbours →
linear-scaling quantization (16-bit bins by default) → customized Huffman
encoding → gzip in ``best_speed`` mode.  Unpredictable points — quantizer
overflows and, in the paper's model, the first-row/column border — are
stored via truncation-based binary analysis.

All stages are the shared :mod:`repro.codec.stages` implementations;
SZ-1.4 contributes only its header fields and the stage selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..codec.pipeline import PipelineCompressor, PipelineContext, Stage
from ..codec.registry import register_codec
from ..codec.stages import (
    EntropyCodesStage,
    HeaderStage,
    PQDStage,
    PwRelForwardStage,
    PwRelMasksStage,
    ResolveBoundStage,
    TruncatedValuesStage,
)
from ..config import QuantizerConfig
from ..variants import Feature
from .pqd import BorderMode

__all__ = ["SZ14Compressor"]


class _SZ14HeaderStage(HeaderStage):
    """SZ-1.4 header: border policy, stencil depth, stream counts."""

    def __init__(self, compressor: "SZ14Compressor") -> None:
        super().__init__(with_quant=True)
        self._c = compressor

    def write_extra(self, ctx: PipelineContext) -> None:
        res = ctx.require("pqd")
        ctx.header["border"] = self._c.border
        ctx.header["layers"] = self._c.layers
        ctx.header["n_border"] = res.n_border
        ctx.header["n_outliers"] = res.n_outliers
        ctx.meta["decompressed_checks"] = True


@register_codec(
    aliases=("sz14",),
    profiles={"sz14-rans": {"entropy": "rans"}},
    table2="SZ-1.4",
)
@dataclass(frozen=True)
class SZ14Compressor(PipelineCompressor):
    """The SZ-1.4 software baseline.

    Defaults match the paper's evaluation setup (§4.1): 16-bit
    quantization, best_compression SZ mode is represented by the Lorenzo
    predictor itself, gzip at best_speed, VR-REL error bounds.
    """

    quant: QuantizerConfig = field(default_factory=QuantizerConfig)
    #: "padded" is production SZ-1.4 behaviour (borders predicted with the
    #: lower-dimensional Lorenzo degenerations, only the origin stored
    #: verbatim); "truncate" is the paper's §3.2 description of the original
    #: model (whole first row/column unpredictable, truncation-coded) and
    #: is kept for the border-handling ablation bench.
    border: BorderMode = "padded"
    #: Lorenzo stencil depth (SZ-1.4's multi-layer option); layers > 1
    #: requires the padded border policy.
    layers: int = 1
    #: ``codes_entropy`` backend (``huffman`` | ``rans`` | ``auto``).
    entropy: str = "huffman"

    name = "SZ-1.4"
    realizes = {
        "pw_rel_log": {Feature.LOG_TRANSFORM},
        "pqd": {
            Feature.LORENZO,
            Feature.QUANTIZATION,
            Feature.DECOMPRESSION_WRITEBACK,
            Feature.OVERBOUND_CHECK_SW,
        },
        "codes_entropy": {Feature.CUSTOM_HUFFMAN, Feature.GZIP},
    }
    # the repro predicts borders with lower-dimensional Lorenzo
    # degenerations instead of SZ-1.4's fixed-size blocking
    unmodeled = {Feature.BLOCKING}
    # PW_REL support via the SZ-2.0 logarithmic transform is carried
    # beyond the SZ-1.4 Table 2 row
    extra = {Feature.LOG_TRANSFORM}

    def build_stages(self) -> tuple[Stage, ...]:
        return (
            ResolveBoundStage(quant=self.quant),
            PwRelForwardStage(),
            PQDStage(border=self.border, layers=self.layers, from_header=True),
            _SZ14HeaderStage(self),
            EntropyCodesStage(backend=self.entropy),
            TruncatedValuesStage(border=self.border),
            PwRelMasksStage(),
        )

"""waveSZ-dp: the dual-quant, data-parallel refactor of the waveSZ path.

Where :mod:`repro.core.wavesz` reorganizes the *schedule* of the serial
PQD recurrence (wavefront issue order), this variant removes the
recurrence itself, cuSZ-style: prequantize to the error-bound lattice
first (the one lossy step), then take Lorenzo residuals over the
resulting integers as a pure data-parallel sweep — see
:mod:`repro.sz.dualquant` for the algebra.  Consequences the pipeline
below encodes:

* no wavefront order stage and no border stream — the zero halo makes
  every point predictable, residuals that overflow the quantizer travel
  as verbatim int64 outlier deltas behind code 0;
* decompression is exact integer arithmetic end to end, so a payload is
  bit-exact against this spec (not against classic waveSZ: snapping to
  the lattice *before* prediction yields different — equally bounded —
  reconstructions than quantizing prediction residuals);
* the two phases are separate pipeline stages (``prequant`` /
  ``predict_quant``), so per-stage timing reports them as distinct
  labels instead of one opaque "pqd";
* because no sweep carries a feedback loop, tile bands of one field may
  fan out across a worker pool (``data_parallel=True`` registry flag —
  the scheduler's routing key).

The bound keeps waveSZ's base-2 tightening; PW_REL rides on the shared
SZ-2.0 logarithmic transform stages.  The lossless tail is the customized
Huffman pass over the raster code stream, then gzip where it wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..codec.pipeline import PipelineCompressor, PipelineContext, Stage
from ..codec.registry import register_codec
from ..codec.stages import (
    DualQuantStage,
    DualQuantValuesStage,
    EntropyCodesStage,
    HeaderStage,
    PrequantStage,
    PwRelForwardStage,
    PwRelMasksStage,
    ResolveBoundStage,
)
from ..config import QuantizerConfig
from ..variants import Feature

__all__ = ["WaveSZDPCompressor"]


class _DPHeaderStage(HeaderStage):
    """waveSZ-dp header: stream counts + dual-quant provenance."""

    def write_extra(self, ctx: PipelineContext) -> None:
        h = ctx.header
        h["dq_version"] = 1
        h["n_outliers"] = int(ctx.require("dq_outlier_deltas").size)
        h["n_raw"] = ctx.require("dq_pre").n_raw
        ctx.meta["backend"] = "dual-quant"
        ctx.meta["phases"] = ["prequant", "predict_quant"]
        ctx.meta["base2_exponent"] = ctx.bound.exponent


@register_codec(
    aliases=("wavesz-dp",),
    profiles={
        "wavesz-dp-rans": {"entropy": "rans"},
        "wavesz-dp-auto": {"entropy": "auto"},
    },
    data_parallel=True,
)
@dataclass(frozen=True)
class WaveSZDPCompressor(PipelineCompressor):
    """Dual-quant data-parallel PQD under the waveSZ bound conventions.

    Takes any extent along each of its ``dims`` (the zero halo needs no
    minimum).  ``base2=True`` keeps waveSZ's
    power-of-two bound tightening; the guarantee ``|d' - d| <= eb`` holds
    for *every* point by construction — the prequant stage re-checks each
    reconstruction and demotes failures to verbatim raw points.
    """

    quant: QuantizerConfig = field(default_factory=QuantizerConfig)
    base2: bool = True
    #: ``codes_entropy`` backend (``huffman`` | ``rans`` | ``auto``).  The
    #: dual-quant code stream is where RLE+rANS pays off most: accurately
    #: predicted regions produce long radius runs the pre-pass collapses.
    entropy: str = "huffman"

    name = "waveSZ-dp"
    # Not a Table 2 row (registered without ``table2``): the dual-quant
    # decomposition is the cuSZ-style extension of the waveSZ design
    # space, so this mapping is documented but not validated against
    # the paper's feature matrix.
    realizes = {
        "bound": {Feature.BASE2_MAPPING},
        "pw_rel_log": {Feature.LOG_TRANSFORM},
        "prequant": {Feature.QUANTIZATION},
        "predict_quant": {Feature.LORENZO},
        "codes_entropy": {Feature.CUSTOM_HUFFMAN, Feature.GZIP},
        "values": {Feature.GZIP},
    }

    def build_stages(self) -> tuple[Stage, ...]:
        return (
            ResolveBoundStage(base2=self.base2, quant=self.quant),
            PwRelForwardStage(),
            PrequantStage(),
            DualQuantStage(),
            _DPHeaderStage(with_quant=True),
            EntropyCodesStage(backend=self.entropy),
            DualQuantValuesStage(),
            PwRelMasksStage(),
        )

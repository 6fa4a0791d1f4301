"""Declarative stage-pipeline codec layer.

The paper's Table 2 frames every SZ-family variant as a *selection of
functionality modules* (preprocessing → prediction → lossy encoding →
lossless).  This package makes that framing executable:

* :mod:`repro.codec.pipeline` — the :class:`Stage` protocol (paired
  ``forward``/``inverse`` transforms over a shared
  :class:`PipelineContext`) and the :class:`StagePipeline` runner every
  compressor front-end drives.
* :mod:`repro.codec.stages` — the shared stage implementations extracted
  from the original hand-rolled compressors: error-bound resolution
  (incl. base-2 tightening), the PW_REL logarithmic transform with
  sign/zero side channels, the PQD closed loop, quantizer-code entropy
  coding (customized Huffman → gzip, or rANS), unpredictable-value
  packing (truncation vs. verbatim), container header assembly, and the
  ``put_section`` / ``take_section`` pair behind every gzip-if-smaller
  section.
* :mod:`repro.codec.spec` — :class:`PipelineSpec`, the stage list of a
  variant with the Table 2 modules each stage realizes.  It is *derived*
  from the stages a compressor builds and its ``realizes`` mapping, and
  validated against the feature matrix in :mod:`repro.variants`.
* :mod:`repro.codec.registry` — the central :class:`CodecRegistry`
  (decorator-registered): derives and checks each codec's spec once, at
  import, resolves canonical variant names, aliases and profiles to one
  shared compressor instance each, and reads a payload's ``variant``
  header (:func:`repro.streams.decompress_auto` decodes any payload).

Variant modules keep only their genuinely variant-specific stages
(wavefront layout, GhostSZ prediction write-back, the ZFP transform);
everything else is assembled from the shared stages above.
"""

from .pipeline import PipelineCompressor, PipelineContext, Stage, StagePipeline
from .registry import (
    REGISTRY,
    CodecEntry,
    CodecRegistry,
    available_codecs,
    get_codec,
    register_codec,
)
from .spec import PipelineSpec, StageSpec, validate_spec

__all__ = [
    "Stage",
    "StagePipeline",
    "PipelineContext",
    "PipelineCompressor",
    "PipelineSpec",
    "StageSpec",
    "validate_spec",
    "CodecRegistry",
    "CodecEntry",
    "REGISTRY",
    "register_codec",
    "get_codec",
    "available_codecs",
]

"""Per-variant pipeline specs, validated against Table 2.

A :class:`PipelineSpec` says *which stages a variant assembles and which
Table 2 functionality modules each stage realizes*.  Nobody writes one
by hand: :meth:`~repro.codec.pipeline.PipelineCompressor.pipeline_spec`
derives it from the stages the compressor builds and the class's
``realizes`` mapping.  It is validated against the corresponding
:class:`~repro.variants.VariantSpec` row, so the feature matrix in
:mod:`repro.variants` actually constrains the implementation instead of
being documentation:

* every feature a stage claims must appear in the variant's
  ``required``/``optional`` set (or be declared an implementation
  ``extra``), and
* every *required* feature must be realized by some stage or be
  explicitly declared ``unmodeled`` (e.g. FPGA pipelining in a software
  reproduction, Zstandard when the repro ships gzip).

``validate_spec`` runs at registration time, so a drifting declaration
fails at import, not in production decode paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from ..variants import VARIANTS, Feature

__all__ = ["ENTROPY_BACKENDS", "StageSpec", "PipelineSpec", "validate_spec"]

#: Valid values of the ``codes_entropy`` backend knob.  ``auto`` probes the
#: code histogram per payload and resolves to one of the concrete two; the
#: resolved choice is recorded in the container header (``entropy`` key,
#: omitted for Huffman so pre-rANS streams stay byte-identical).
ENTROPY_BACKENDS = ("huffman", "rans", "auto")


@dataclass(frozen=True)
class StageSpec:
    """One stage of a variant pipeline and the Table 2 modules it realizes."""

    name: str
    features: frozenset[Feature] = field(default_factory=frozenset)


@dataclass(frozen=True)
class PipelineSpec:
    """The declarative stage list of one compressor variant.

    ``table2`` names the row of :data:`repro.variants.VARIANTS` this
    pipeline implements (``None`` for comparison codecs outside the SZ
    family, e.g. ZFP).  ``unmodeled`` lists required Table 2 features the
    software reproduction deliberately does not realize; ``extra`` lists
    features the implementation provides beyond its Table 2 row.
    """

    variant: str
    stages: tuple[StageSpec, ...]
    table2: str | None = None
    unmodeled: frozenset[Feature] = field(default_factory=frozenset)
    extra: frozenset[Feature] = field(default_factory=frozenset)

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.stages)

    @property
    def features(self) -> frozenset[Feature]:
        """Union of the Table 2 modules realized across all stages."""
        out: frozenset[Feature] = frozenset()
        for stage in self.stages:
            out |= stage.features
        return out

    def stage_for(self, feature: Feature) -> str | None:
        """Name of the first stage realizing a feature, if any."""
        for stage in self.stages:
            if feature in stage.features:
                return stage.name
        return None


def validate_spec(spec: PipelineSpec) -> None:
    """Check a pipeline spec against its Table 2 variant row.

    Raises :class:`ConfigError` on any drift.  Specs with ``table2=None``
    (codecs outside the SZ family) are exempt.
    """
    names = [s.name for s in spec.stages]
    if len(set(names)) != len(names):
        raise ConfigError(
            f"{spec.variant} pipeline spec has duplicate stage names: {names}"
        )
    if spec.table2 is None:
        return
    row = VARIANTS.get(spec.table2)
    if row is None:
        raise ConfigError(
            f"{spec.variant} pipeline spec references unknown Table 2 row "
            f"{spec.table2!r}"
        )
    provided = spec.features
    allowed = row.required | row.optional | spec.extra
    rogue = provided - allowed
    if rogue:
        raise ConfigError(
            f"{spec.variant} stages claim features outside the "
            f"{spec.table2!r} Table 2 row: "
            f"{sorted(f.name for f in rogue)}"
        )
    missing = row.required - provided - spec.unmodeled
    if missing:
        raise ConfigError(
            f"{spec.variant} pipeline realizes no stage for required "
            f"{spec.table2!r} features {sorted(f.name for f in missing)} "
            "(declare them unmodeled if that is intentional)"
        )
    pointless = spec.unmodeled & provided
    if pointless:
        raise ConfigError(
            f"{spec.variant} declares features unmodeled that its stages "
            f"do realize: {sorted(f.name for f in pointless)}"
        )

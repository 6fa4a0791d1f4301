"""SZ-variant feature matrix (paper Table 2).

Each variant is a selection from the functionality groups of the SZ model:
preprocessing, prediction, lossy encoding, lossless stage — plus whether
each feature is pan-platform (P) or platform-specific (S), and whether the
variant's design goal is performance- or data-quality-oriented.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "Feature",
    "Platform",
    "Goal",
    "VariantSpec",
    "VARIANTS",
    "feature_matrix",
]


class Platform(enum.Enum):
    CPU = "CPU"
    FPGA = "FPGA"


class Goal(enum.Enum):
    PERFORMANCE = "performance-oriented"
    DATA_QUALITY = "data-quality-oriented"


class Feature(enum.Enum):
    """Functionality modules of Table 2 (group, name, P/S scope)."""

    # preprocessing
    BLOCKING = ("preprocessing", "blocking", "P")
    MEMORY_LAYOUT_TRANSFORM = ("preprocessing", "memory layout transform", "P")
    LOG_TRANSFORM = ("preprocessing", "logarithmic transform", "P")
    BASE2_MAPPING = ("preprocessing", "base 10->2 mapping", "P")
    # prediction
    ORDER012 = ("prediction", "Order-{0,1,2} curve fitting", "P")
    LORENZO = ("prediction", "Lorenzo (l)", "P")
    LINEAR_REGRESSION = ("prediction", "linear regression", "P")
    # lossy encoding machinery
    OPENMP = ("lossy encoding", "OpenMP", "S")
    EXPLICIT_PIPELINING = ("lossy encoding", "explicit pipelining", "S")
    LINE_BUFFER = ("lossy encoding", "line buffer", "S")
    QUANTIZATION = ("lossy encoding", "linear-scaling quantization", "P")
    DECOMPRESSION_WRITEBACK = ("lossy encoding", "decompression writeback", "S")
    PREDICTION_WRITEBACK = ("lossy encoding", "prediction writeback", "S")
    OVERBOUND_CHECK_SW = ("lossy encoding", "overbound check (s/w)", "S")
    OVERFLOW_CHECK_HW = ("lossy encoding", "over/under-flow check (h/w)", "S")
    # lossless
    CUSTOM_HUFFMAN = ("lossless", "customized Huffman", "P")
    GZIP = ("lossless", "gzip", "P")
    ZSTD = ("lossless", "Zstandard", "P")

    @property
    def group(self) -> str:
        return self.value[0]

    @property
    def label(self) -> str:
        return self.value[1]

    @property
    def scope(self) -> str:
        return self.value[2]


@dataclass(frozen=True)
class VariantSpec:
    name: str
    platform: Platform
    goal: Goal
    required: frozenset[Feature]
    optional: frozenset[Feature] = field(default_factory=frozenset)

    def uses(self, feature: Feature) -> bool:
        return feature in self.required or feature in self.optional


VARIANTS: dict[str, VariantSpec] = {
    "SZ-0.1-1.0": VariantSpec(
        name="SZ-0.1-1.0",
        platform=Platform.CPU,
        goal=Goal.DATA_QUALITY,
        required=frozenset(
            {Feature.ORDER012, Feature.OVERBOUND_CHECK_SW, Feature.GZIP,
             Feature.DECOMPRESSION_WRITEBACK}
        ),
    ),
    "SZ-1.4": VariantSpec(
        name="SZ-1.4",
        platform=Platform.CPU,
        goal=Goal.DATA_QUALITY,
        required=frozenset(
            {Feature.BLOCKING, Feature.LORENZO, Feature.QUANTIZATION,
             Feature.DECOMPRESSION_WRITEBACK, Feature.OVERBOUND_CHECK_SW,
             Feature.CUSTOM_HUFFMAN, Feature.GZIP}
        ),
        optional=frozenset({Feature.OPENMP}),
    ),
    "SZ-2.0+": VariantSpec(
        name="SZ-2.0+",
        platform=Platform.CPU,
        goal=Goal.DATA_QUALITY,
        required=frozenset(
            {Feature.BLOCKING, Feature.LOG_TRANSFORM, Feature.LORENZO,
             Feature.LINEAR_REGRESSION, Feature.QUANTIZATION,
             Feature.DECOMPRESSION_WRITEBACK, Feature.OVERBOUND_CHECK_SW,
             Feature.CUSTOM_HUFFMAN, Feature.ZSTD}
        ),
        optional=frozenset({Feature.OPENMP, Feature.GZIP}),
    ),
    "GhostSZ": VariantSpec(
        name="GhostSZ",
        platform=Platform.FPGA,
        goal=Goal.PERFORMANCE,
        required=frozenset(
            {Feature.ORDER012, Feature.QUANTIZATION, Feature.PREDICTION_WRITEBACK,
             Feature.EXPLICIT_PIPELINING, Feature.LINE_BUFFER,
             Feature.OVERFLOW_CHECK_HW, Feature.GZIP}
        ),
    ),
    "waveSZ": VariantSpec(
        name="waveSZ",
        platform=Platform.FPGA,
        goal=Goal.PERFORMANCE,
        required=frozenset(
            {Feature.MEMORY_LAYOUT_TRANSFORM, Feature.BASE2_MAPPING,
             Feature.LORENZO, Feature.QUANTIZATION,
             Feature.DECOMPRESSION_WRITEBACK, Feature.EXPLICIT_PIPELINING,
             Feature.LINE_BUFFER, Feature.OVERFLOW_CHECK_HW, Feature.GZIP}
        ),
        optional=frozenset({Feature.CUSTOM_HUFFMAN}),
    ),
}


def feature_matrix() -> list[dict[str, object]]:
    """Rows of Table 2: one dict per variant with feature markers."""
    rows = []
    for spec in VARIANTS.values():
        row: dict[str, object] = {
            "version": spec.name,
            "platform": spec.platform.value,
            "goal": spec.goal.value,
        }
        for feat in Feature:
            if feat in spec.required:
                row[feat.label] = "required"
            elif feat in spec.optional:
                row[feat.label] = "optional"
            else:
                row[feat.label] = ""
        rows.append(row)
    return rows

"""Shared result dataclasses returned by the compressors and models."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .config import ErrorBound, QuantizerConfig

__all__ = [
    "CompressedField",
    "CompressionStats",
    "ThroughputReport",
    "ResourceReport",
]


@dataclass(frozen=True)
class CompressionStats:
    """Size accounting for one compressed field.

    All sizes are in bytes.  ``ratio`` is ``original / compressed`` where
    the compressed size includes entropy-coded codes, verbatim outliers and
    (where the variant stores them raw) border points — mirroring the
    artifact's "border points counted as unpredictable data" accounting.
    """

    original_bytes: int
    compressed_bytes: int
    encoded_code_bytes: int
    outlier_bytes: int
    border_bytes: int
    n_points: int
    n_unpredictable: int
    n_border: int

    @property
    def ratio(self) -> float:
        """Compression ratio (original size / compressed size)."""
        return self.original_bytes / self.compressed_bytes

    @property
    def bit_rate(self) -> float:
        """Average output bits per data point."""
        return 8.0 * self.compressed_bytes / self.n_points

    @property
    def unpredictable_fraction(self) -> float:
        return self.n_unpredictable / self.n_points


@dataclass(frozen=True)
class CompressedField:
    """A compressed scientific field: payload plus everything needed to invert it.

    ``payload`` is the serialized container (see :mod:`repro.io.container`);
    ``stats`` carries the size accounting used by the benchmark tables;
    ``meta`` is free-form variant-specific detail (e.g. Huffman bit count,
    chosen entropy backend) surfaced in EXPERIMENTS.md.
    """

    variant: str
    shape: tuple[int, ...]
    dtype: str
    bound: ErrorBound
    quant: QuantizerConfig | None  # None for variants without a quantizer (SZ-1.0)
    payload: bytes
    stats: CompressionStats
    meta: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ThroughputReport:
    """Modelled throughput of one design point (Table 5 / Figure 8 rows).

    ``mb_per_s`` uses the paper's convention: MB = 1e6 bytes of *input*
    processed per second, float32 points.
    """

    design: str
    dataset: str
    lanes: int
    cycles: float
    frequency_hz: float
    n_points: int
    bytes_per_point: int
    mb_per_s: float
    limited_by: str = "pipeline"

    @property
    def points_per_cycle(self) -> float:
        return self.n_points / self.cycles if self.cycles else float("inf")


@dataclass(frozen=True)
class ResourceReport:
    """FPGA resource utilization of a design (Table 6 rows)."""

    design: str
    bram_18k: int
    dsp48e: int
    ff: int
    lut: int

    def utilization(self, device: "Any") -> dict[str, float]:
        """Percent utilization against a device's totals."""
        return {
            "BRAM_18K": 100.0 * self.bram_18k / device.bram_18k,
            "DSP48E": 100.0 * self.dsp48e / device.dsp48e,
            "FF": 100.0 * self.ff / device.ff,
            "LUT": 100.0 * self.lut / device.lut,
        }

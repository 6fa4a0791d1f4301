"""Wall-clock measurement of the Python implementations.

Used by benches to report the simulator's own speed alongside the
modelled hardware numbers (clearly labelled — see package docstring).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from .stages import recording_stages

if TYPE_CHECKING:  # annotation-only: the codec layer imports this package
    from ..codec.pipeline import Compressor

__all__ = ["MeasuredThroughput", "measure_compressor"]


@dataclass(frozen=True)
class MeasuredThroughput:
    """Wall-clock compress/decompress rates of a Python implementation.

    ``compress_stages`` / ``decompress_stages`` hold per-stage seconds
    (stage name → time, from the best-timed pass) when the measurement
    was taken with ``stage_timing=True`` against a pipeline compressor;
    they stay empty otherwise.
    """

    variant: str
    n_points: int
    compress_s: float
    decompress_s: float
    compress_stages: dict[str, float] = field(default_factory=dict)
    decompress_stages: dict[str, float] = field(default_factory=dict)

    @property
    def compress_mb_s(self) -> float:
        return self.n_points * 4 / (self.compress_s * 1e6)

    @property
    def decompress_mb_s(self) -> float:
        return self.n_points * 4 / (self.decompress_s * 1e6)


def measure_compressor(
    compressor: Compressor,
    data: np.ndarray,
    eb: float = 1e-3,
    mode: str = "vr_rel",
    *,
    repeats: int = 1,
    warmup: int = 0,
    stage_timing: bool = False,
) -> tuple[MeasuredThroughput, Any]:
    """Time ``repeats`` compress+decompress passes; returns (timing, last cf).

    ``warmup`` extra untimed passes run first, so one-time costs (table
    construction, ``lru_cache`` population, allocator growth) don't land
    in the timed minimum.  With ``stage_timing=True`` each timed pass
    runs under a :class:`~repro.perf.stages.StageRecorder` and the
    per-stage seconds of the best pass are attached to the result —
    letting a bench attribute time to PQD / Huffman / gzip stages
    instead of whole-pipeline wall clock.  Stages that report nested
    sub-stage keys (the entropy stage's ``codes_entropy.table`` /
    ``codes_entropy.stream`` table-build vs stream-coding split) land as
    additional flat entries next to their parent stage's total.
    """
    for _ in range(max(warmup, 0)):
        compressor.decompress(compressor.compress(data, eb, mode))

    best_c = float("inf")
    best_d = float("inf")
    stages_c: dict[str, float] = {}
    stages_d: dict[str, float] = {}
    cf = None
    for _ in range(max(repeats, 1)):
        if stage_timing:
            with recording_stages() as rec_c:
                t0 = time.perf_counter()
                cf = compressor.compress(data, eb, mode)
                t1 = time.perf_counter()
            with recording_stages() as rec_d:
                compressor.decompress(cf)
                t2 = time.perf_counter()
        else:
            t0 = time.perf_counter()
            cf = compressor.compress(data, eb, mode)
            t1 = time.perf_counter()
            compressor.decompress(cf)
            t2 = time.perf_counter()
        if t1 - t0 < best_c:
            best_c = t1 - t0
            if stage_timing:
                stages_c = rec_c.snapshot()
        if t2 - t1 < best_d:
            best_d = t2 - t1
            if stage_timing:
                stages_d = rec_d.snapshot()
    return (
        MeasuredThroughput(
            variant=compressor.name,
            n_points=int(data.size),
            compress_s=best_c,
            decompress_s=best_d,
            compress_stages=stages_c,
            decompress_stages=stages_d,
        ),
        cf,
    )

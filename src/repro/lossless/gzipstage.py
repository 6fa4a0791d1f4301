"""The lossless pipeline stage applied after quantization/encoding.

SZ-1.4 runs gzip in ``best_speed`` mode; the artifact evaluates both
``gzip --fast`` and ``gzip --best`` on the quantization-code archives.
:class:`GzipStage` wraps our from-scratch DEFLATE substrate behind those two
modes and optionally the stdlib ``zlib`` backend so tests can cross-check
ratios against a reference DEFLATE implementation.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass

from ..errors import LosslessError, raise_first
from .deflate import deflate, inflate_outcomes
from .lz77 import LZ77Encoder

__all__ = ["LosslessMode", "LosslessBackend", "GzipStage"]


class LosslessMode(enum.Enum):
    """gzip effort level (paper §4.1: SZ-1.4 uses best_speed)."""

    BEST_SPEED = "best_speed"
    BEST_COMPRESSION = "best_compression"


class LosslessBackend(enum.Enum):
    """Which DEFLATE implementation performs the stage.

    ``OURS`` is the from-scratch substrate (default); ``ZLIB`` is the
    stdlib reference used for cross-checks and for large inputs where a C
    matcher is worth it.
    """

    OURS = "ours"
    ZLIB = "zlib"


_ZLIB_LEVEL = {LosslessMode.BEST_SPEED: 1, LosslessMode.BEST_COMPRESSION: 9}
_ZLIB_MAGIC = b"ZLB1"


@dataclass(frozen=True)
class GzipStage:
    """Configurable lossless stage: ``compress``/``decompress`` byte blobs."""

    mode: LosslessMode = LosslessMode.BEST_SPEED
    backend: LosslessBackend = LosslessBackend.OURS

    def _encoder(self) -> LZ77Encoder:
        if self.mode is LosslessMode.BEST_SPEED:
            return LZ77Encoder.best_speed()
        return LZ77Encoder.best_compression()

    def compress(self, data: bytes, budget: int | None = None) -> bytes | None:
        """Compress ``data``; ``None`` when a ``budget`` is given and the
        output would not be smaller than it (see :func:`deflate`)."""
        if self.backend is LosslessBackend.ZLIB:
            out = _ZLIB_MAGIC + zlib.compress(data, _ZLIB_LEVEL[self.mode])
            return None if budget is not None and len(out) >= budget else out
        return deflate(data, self._encoder(), budget)

    def decompress(self, blob: bytes) -> bytes:
        return self.decompress_many([blob])[0]

    def decompress_many(self, blobs) -> list[bytes]:
        """Every blob of ``blobs`` decompressed, the WDF1 ones inflated as
        one batch (:func:`~repro.lossless.deflate.inflate_outcomes`); raises
        what decompressing the first blob that fails alone raises."""
        inflated = iter(inflate_outcomes([b for b in blobs if b[:4] != _ZLIB_MAGIC]))
        out: list[bytes] = []
        for blob in blobs:
            if blob[:4] != _ZLIB_MAGIC:
                out += raise_first([next(inflated)])
                continue
            try:
                out.append(zlib.decompress(blob[4:]))
            except zlib.error as exc:
                raise LosslessError(f"corrupt zlib stream: {exc}") from exc
        return out

    def ratio(self, data: bytes) -> float:
        """Convenience: size ratio achieved on ``data`` (>= small epsilon)."""
        if not data:
            return 1.0
        compressed = self.compress(data)
        if not compressed:
            raise LosslessError("compressor produced empty output")
        return len(data) / len(compressed)

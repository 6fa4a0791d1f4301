"""Online SZ/ZFP selection (paper ref [53], Tao et al., TPDS'19).

"Neither SZ nor ZFP can always lead to the best compression quality over
the other across multiple fields" — so the selector estimates, per field,
which codec wins under the user's bound and runs that one.  Estimation
compresses a strided sample of the field with every candidate (cheap,
bounded work) and picks the best sample ratio; the full field is then
compressed once with the winner.

Works with any set of this library's compressors; candidates may also be
named by any :data:`repro.codec.registry.REGISTRY` alias and are
instantiated on the fly.  Decompression dispatches on the container's
variant header, so a selected archive needs no side channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codec.pipeline import Compressor
from .codec.registry import get_codec
from .errors import ConfigError, ContainerError, DTypeError, ShapeError
from .types import CompressedField

__all__ = ["SelectionResult", "OnlineSelector"]


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one selected compression."""

    chosen: str
    compressed: CompressedField
    estimates: dict[str, float]  # candidate -> sample ratio
    #: candidates excluded up front because the field's shape/dtype does
    #: not fit them (e.g. waveSZ on 1D data) — not scored, not chosen
    skipped: tuple[str, ...] = ()


class OnlineSelector:
    """Pick the bestfit compressor per field, à la ref [53]."""

    def __init__(self, compressors: Sequence[Compressor | str]) -> None:
        """Build a selector over compressor instances and/or registry names.

        Strings are resolved through the central codec registry (any
        canonical name, alias or profile, e.g. ``"sz14"`` or
        ``"ZFP-like"``); instances are used as-is.
        """
        if not compressors:
            raise ConfigError("selector needs at least one compressor")
        resolved = [
            get_codec(c) if isinstance(c, str) else c for c in compressors
        ]
        names = [c.name for c in resolved]
        if len(set(names)) != len(names):
            raise ConfigError("compressor names must be unique")
        self._compressors = resolved

    def _sample(self, data: np.ndarray, step: int) -> np.ndarray:
        """A strided sample preserving local structure (contiguous tiles
        along the last axis, strided along the first)."""
        if step <= 1 or data.ndim == 0 or data.shape[0] < 2 * step * 2:
            return data
        return np.ascontiguousarray(data[:: step])

    def select(
        self,
        data: np.ndarray,
        eb: float = 1e-3,
        mode: str = "vr_rel",
        *,
        sample_step: int = 4,
    ) -> SelectionResult:
        """Estimate on a sample, compress the full field with the winner.

        The sample keeps full resolution along the fast axes (prediction
        and transform behaviour are local) and strides the slow axis to
        cut the work by ``sample_step``.
        """
        data = np.ascontiguousarray(data)
        sample = self._sample(data, sample_step)
        estimates: dict[str, float] = {}
        skipped: list[str] = []
        for comp in self._compressors:
            try:
                cf = comp.compress(sample, eb, mode)
                estimates[comp.name] = cf.stats.ratio
            except (ShapeError, DTypeError):
                # The field is outside this candidate's contract (e.g.
                # waveSZ on 1D data, any codec on int32): exclude it
                # instead of letting one incompatible codec kill the
                # whole estimate.
                skipped.append(comp.name)
            except Exception:
                estimates[comp.name] = 0.0  # candidate unusable on this field
        if not estimates:
            raise ConfigError("no candidate could compress this field")
        best = max(estimates, key=estimates.get)
        if estimates[best] <= 0:
            raise ConfigError("no candidate could compress this field")
        winner = next(c for c in self._compressors if c.name == best)
        return SelectionResult(
            chosen=best,
            compressed=winner.compress(data, eb, mode),
            estimates=estimates,
            skipped=tuple(skipped),
        )

    def decompress(self, payload: CompressedField | bytes) -> np.ndarray:
        """Dispatch on the container's variant header.

        The payload is parsed once, its variant checked against this
        selector's candidates, and the parsed container decoded through
        :func:`repro.streams.decompress_auto` — the library's one decode
        entry.  Candidate instances that are *not* in the central
        registry (hand-built compressors) decode through the instance.
        """
        from .codec.registry import REGISTRY
        from .streams import decompress_auto

        blob = payload.payload if isinstance(payload, CompressedField) else payload
        container, variant = REGISTRY.open(blob)
        match = next(
            (c for c in self._compressors if c.name == variant), None
        )
        if match is None:
            raise ContainerError(
                f"payload variant {variant!r} is not among this selector's "
                f"candidates {[c.name for c in self._compressors]}"
            )
        if variant in REGISTRY:
            return decompress_auto(container)
        return match.decompress(container)

"""Rate-distortion sweeps.

The standard way lossy-compression papers compare codecs (paper refs
[32, 36, 53]): sweep the error bound, record (bit rate, PSNR) pairs, and
compare curves.  ``rd_sweep`` runs any of this library's compressors over
a bound schedule and returns the curve; ``bd_rate_like`` computes a
Bjøntegaard-style average bit-rate difference between two curves (the
scalar summary "X needs N % fewer bits than Y at equal quality").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import ConfigError
from .error import psnr

if TYPE_CHECKING:  # annotation-only: the codec layer imports this package
    from ..codec.pipeline import Compressor

__all__ = ["RDPoint", "rd_sweep", "bd_rate_like"]


@dataclass(frozen=True)
class RDPoint:
    """One point on a rate-distortion curve."""

    eb: float
    bit_rate: float  # bits per point
    psnr_db: float
    ratio: float


def rd_sweep(
    compressor: Compressor,
    data: np.ndarray,
    bounds: Sequence[float],
    mode: str = "vr_rel",
) -> list[RDPoint]:
    """Compress ``data`` at each bound; returns points in bound order."""
    if not bounds:
        raise ConfigError("rd_sweep needs at least one bound")
    points = []
    for eb in bounds:
        cf = compressor.compress(data, eb, mode)
        out = compressor.decompress(cf)
        points.append(
            RDPoint(
                eb=float(eb),
                bit_rate=cf.stats.bit_rate,
                psnr_db=psnr(data, out),
                ratio=cf.stats.ratio,
            )
        )
    return points


def bd_rate_like(
    reference: Sequence[RDPoint], candidate: Sequence[RDPoint]
) -> float:
    """Average log-rate difference at equal PSNR, in percent.

    Negative = the candidate needs fewer bits than the reference for the
    same quality.  Computed by integrating log2(bit rate) over the
    overlapping PSNR range of the two (monotonized) curves — the classic
    Bjøntegaard-delta construction with piecewise-linear interpolation.
    """
    def curve(points: Sequence[RDPoint]) -> tuple[np.ndarray, np.ndarray]:
        pts = sorted(points, key=lambda p: p.psnr_db)
        q = np.array([p.psnr_db for p in pts])
        r = np.log2(np.array([p.bit_rate for p in pts]))
        keep = np.concatenate(([True], np.diff(q) > 1e-9))
        return q[keep], r[keep]

    q1, r1 = curve(reference)
    q2, r2 = curve(candidate)
    lo = max(q1.min(), q2.min())
    hi = min(q1.max(), q2.max())
    if hi <= lo:
        raise ConfigError("curves do not overlap in PSNR; widen the sweep")
    grid = np.linspace(lo, hi, 128)
    d = np.interp(grid, q2, r2) - np.interp(grid, q1, r1)
    return float((2.0 ** d.mean() - 1.0) * 100.0)

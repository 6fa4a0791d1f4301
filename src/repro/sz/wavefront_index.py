"""Per-wavefront flat-index precompute.

§3.1 of the paper: all points with equal Manhattan distance from the pivot
are mutually independent under the Lorenzo stencil, so the PQD engine can
process one wavefront at a time with vector operations and full feedback
correctness.  This module enumerates, for each Manhattan distance ``s``,
the C-order flat indices of the *interior* points (every coordinate >= 1,
since distance-1 neighbours must exist) on that wavefront.

Index sets are arithmetic progressions:

* 2D ``(n0, n1)``: on wavefront ``s``, point ``(i, s-i)`` flattens to
  ``s + i*(n1-1)``.
* 3D ``(n0, n1, n2)``: for fixed ``i``, point ``(i, j, s-i-j)`` flattens to
  ``i*n1*n2 + (s-i) + j*(n2-1)`` — one progression per ``(s, i)`` pair.

Nothing here is cached: a shape's per-point index arrays are retained
only by the byte-bounded plan cache of :mod:`repro.kernels.pqd_fast`,
which keeps what the fast sweeps need of them (on a 2D shape only the
concatenated indices — each front is a strided view of the field).
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError

__all__ = ["interior_wavefronts", "border_indices", "manhattan_grid"]


def interior_wavefronts(
    shape: tuple[int, ...], margin: int = 1
) -> tuple[np.ndarray, ...]:
    """Flat indices of interior points, grouped by Manhattan distance.

    Returns a tuple ``W`` where ``W[k]`` holds the indices on the k-th
    non-empty interior wavefront, in increasing wavefront order.  Iterating
    the groups in order and vectorizing within each group respects every
    Lorenzo dependency (each point's neighbours lie on strictly earlier
    wavefronts or on the border).

    ``margin`` is the border width a stencil needs: interior points have
    every coordinate >= margin (a k-layer Lorenzo stencil needs
    margin = k).
    """
    ndim = len(shape)
    if margin < 1:
        raise ShapeError(f"margin must be >= 1, got {margin}")
    if ndim == 1:
        (n0,) = shape
        # 1D wavefronts are single points; group them singly to preserve
        # the sequential dependency of the order-1 chain.
        return tuple(
            np.array([i], dtype=np.int64) for i in range(margin, n0)
        )
    if ndim == 2:
        n0, n1 = shape
        out: list[np.ndarray] = []
        for s in range(2 * margin, n0 + n1 - 1):
            i_lo = max(margin, s - (n1 - 1))
            i_hi = min(n0 - 1, s - margin)
            if i_lo > i_hi:
                continue
            i = np.arange(i_lo, i_hi + 1, dtype=np.int64)
            out.append(s + i * (n1 - 1))
        return tuple(out)
    if ndim == 3:
        n0, n1, n2 = shape
        plane = n1 * n2
        out = []
        for s in range(3 * margin, n0 + n1 + n2 - 2):
            segs: list[np.ndarray] = []
            i_lo = max(margin, s - (n1 - 1) - (n2 - 1))
            i_hi = min(n0 - 1, s - 2 * margin)
            for i in range(i_lo, i_hi + 1):
                rem = s - i  # j + k
                j_lo = max(margin, rem - (n2 - 1))
                j_hi = min(n1 - 1, rem - margin)
                if j_lo > j_hi:
                    continue
                j = np.arange(j_lo, j_hi + 1, dtype=np.int64)
                segs.append(i * plane + rem + j * (n2 - 1))
            if segs:
                out.append(np.concatenate(segs))
        return tuple(out)
    raise ShapeError(f"wavefront iteration supports 1-3 dimensions, got {ndim}")


def border_indices(shape: tuple[int, ...]) -> np.ndarray:
    """Flat indices of border points (any coordinate == 0), in raster order.

    These are the points the Lorenzo stencil cannot fully reach; the paper
    model marks them unpredictable (SZ: truncation analysis; waveSZ:
    verbatim to gzip).
    """
    mask = np.zeros(shape, dtype=bool)
    for axis in range(len(shape)):
        mask[(slice(None),) * axis + (0,)] = True
    return np.flatnonzero(mask.reshape(-1))


def manhattan_grid(shape: tuple[int, ...]) -> np.ndarray:
    """Manhattan distance of every point from the pivot (Figures 3b/5b)."""
    grid = np.indices(shape)
    return grid.sum(axis=0)

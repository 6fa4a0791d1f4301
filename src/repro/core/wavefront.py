"""The wavefront memory layout (paper §3.1, Figure 5).

Preprocessing on the host CPU reorganizes a 2D field so that all points
with the same Manhattan distance from the pivot ``(0,0)`` land in the same
*column* of the new layout.  Points within a column are mutually
independent under the Lorenzo stencil, so the FPGA can stream down each
column with initiation interval 1 and no stalls.

:class:`WavefrontLayout` captures the bijection; :func:`to_wavefront` /
:func:`from_wavefront` apply it.  The layout is pure index bookkeeping —
``from_wavefront(to_wavefront(x)) == x`` exactly — which is why waveSZ
keeps SZ-1.4's compression ratio (unlike GhostSZ's decorrelation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError

__all__ = ["WavefrontLayout", "to_wavefront", "from_wavefront"]


@dataclass(frozen=True)
class WavefrontLayout:
    """Index map of the wavefront transform for a ``(d0, d1)`` field.

    ``flat_order`` lists the C-order flat indices of the original array in
    wavefront order (column 0 first, each column top-to-bottom, i.e. by
    increasing row index ``i``).  ``col_starts`` marks where each of the
    ``d0 + d1 - 1`` columns begins in ``flat_order``.
    """

    shape: tuple[int, int]
    flat_order: np.ndarray  # int64, permutation of arange(d0*d1)
    col_starts: np.ndarray  # int64, length n_cols + 1

    @property
    def n_cols(self) -> int:
        return self.col_starts.size - 1

    def column(self, t: int) -> np.ndarray:
        """Flat original-array indices of wavefront column ``t``."""
        return self.flat_order[self.col_starts[t] : self.col_starts[t + 1]]

    def column_length(self, t: int) -> int:
        return int(self.col_starts[t + 1] - self.col_starts[t])

    def inverse(self) -> np.ndarray:
        """Permutation sending wavefront position -> original flat index...

        ...inverted: ``inv[flat_order] = arange(n)`` so that
        ``wavefront_values[inv]`` restores raster order.
        """
        inv = np.empty_like(self.flat_order)
        inv[self.flat_order] = np.arange(self.flat_order.size, dtype=np.int64)
        return inv


def build_layout(shape: tuple[int, int]) -> WavefrontLayout:
    """The wavefront layout for a 2D shape.

    Kept beside the sweep plans, under their byte bound
    (:func:`repro.kernels.pqd_fast.shape_constant`): building one costs
    milliseconds, and it holds 8 bytes a point.
    """
    if len(shape) != 2:
        raise ShapeError(f"wavefront layout is defined for 2D shapes, got {shape}")
    d0, d1 = shape
    if d0 < 1 or d1 < 1:
        raise ShapeError(f"degenerate shape {shape}")
    from ..kernels.pqd_fast import shape_constant  # importing the CLI loads no kernel

    return shape_constant(("layout", shape), lambda: _build_layout(d0, d1))


def _build_layout(d0: int, d1: int) -> tuple[WavefrontLayout, int]:
    n_cols = d0 + d1 - 1
    cols: list[np.ndarray] = []
    starts = np.zeros(n_cols + 1, dtype=np.int64)
    for t in range(n_cols):
        i_lo = max(0, t - (d1 - 1))
        i_hi = min(d0 - 1, t)
        i = np.arange(i_lo, i_hi + 1, dtype=np.int64)
        cols.append(i * d1 + (t - i))
        starts[t + 1] = starts[t] + i.size
    layout = WavefrontLayout(
        shape=(d0, d1),
        flat_order=np.concatenate(cols),
        col_starts=starts,
    )
    return layout, layout.flat_order.nbytes + starts.nbytes


def to_wavefront(data: np.ndarray) -> tuple[np.ndarray, WavefrontLayout]:
    """Apply the wavefront preprocessing (host-side memory copy, Figure 7).

    Returns the 1D wavefront-ordered value stream and the layout needed to
    invert it.
    """
    if data.ndim != 2:
        raise ShapeError(f"wavefront transform expects 2D data, got {data.ndim}D")
    layout = build_layout(data.shape)
    return data.reshape(-1)[layout.flat_order], layout


def from_wavefront(stream: np.ndarray, layout: WavefrontLayout) -> np.ndarray:
    """Invert :func:`to_wavefront`."""
    if stream.size != layout.flat_order.size:
        raise ShapeError(
            f"stream has {stream.size} values, layout expects {layout.flat_order.size}"
        )
    out = np.empty_like(stream)
    out[layout.flat_order] = stream
    return out.reshape(layout.shape)

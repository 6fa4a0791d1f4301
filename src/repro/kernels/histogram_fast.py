"""Fast twin of the ``histogram.counts`` kernel.

One ``np.bincount`` pass when the alphabet is dense and small (the
16-bit quant-code case — by far the common one), ``np.unique`` for
sparse/large alphabets.  Identical output contract to the scalar
reference in :mod:`repro.encoding.histogram`: increasing int64 values
with matching int64 counts.  Shared by the Huffman and rANS table
builds and the ``auto`` entropy probe.
"""

from __future__ import annotations

import numpy as np

__all__ = ["symbol_counts"]


def symbol_counts(flat: np.ndarray, lo: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """``(values, counts)`` of a validated flat non-negative int array.

    ``lo`` is a value no element is below (the caller's validation pass
    already found the minimum).  Quant codes cluster around the radius
    at 32768, so the dense path's nonzero scan starts there instead of
    walking 32 K empty slots.
    """
    hi = int(flat.max())
    if hi < 1 << 22:  # dense path: one pass, no sort
        counts = np.bincount(flat.astype(np.int64, copy=False))[lo:]
        values = np.flatnonzero(counts)
        counts = counts[values]
        values += lo
        return values.astype(np.int64, copy=False), counts.astype(np.int64, copy=False)
    values, counts = np.unique(flat, return_counts=True)
    return values.astype(np.int64), counts.astype(np.int64)

"""Symbol statistics for the entropy-coding stage.

The linear-scaling quantizer emits codes that are heavily concentrated
around the radius (accurately predicted points), which is exactly why SZ
follows it with Huffman coding (paper §2.1 step 4).  These helpers compute
the frequency table the Huffman *and* rANS builders consume and the
empirical entropy used by tests to check encode optimality.

The counting pass is a ``REPRO_KERNELS`` twin (``histogram.counts``):
the scalar dict-walk reference lives here, the ``np.bincount`` /
``np.unique`` fast path in :mod:`repro.kernels.histogram_fast`.  Both
return increasing int64 values with matching int64 counts, so table
builds are byte-identical across dispatch modes.
"""

from __future__ import annotations

import numpy as np

from ..kernels.dispatch import register_kernel, resolve

__all__ = ["symbol_histogram", "entropy_bits"]


def _counts_reference(flat: np.ndarray, lo: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Scalar counting pass over a validated flat non-negative int array
    (``lo``, a value no element is below, only speeds up the fast twin)."""
    counts: dict[int, int] = {}
    for v in flat.tolist():
        counts[v] = counts.get(v, 0) + 1
    values = sorted(counts)
    return (
        np.array(values, dtype=np.int64),
        np.array([counts[v] for v in values], dtype=np.int64),
    )


register_kernel(
    "histogram.counts",
    _counts_reference,
    fast="repro.kernels.histogram_fast:symbol_counts",
)


def symbol_histogram(symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(values, counts)`` for the distinct symbols in ``symbols``.

    Symbols must be non-negative integers.  Validation runs here (host
    level); the counting pass dispatches through the ``histogram.counts``
    kernel registry entry.
    """
    symbols = np.asarray(symbols)
    if symbols.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if not np.issubdtype(symbols.dtype, np.integer):
        raise TypeError(f"symbols must be integers, got {symbols.dtype}")
    flat = symbols.reshape(-1)
    lo = int(flat.min())
    if lo < 0:
        raise ValueError("symbols must be non-negative")
    return resolve("histogram.counts")(flat, lo)


def entropy_bits(counts: np.ndarray) -> float:
    """Shannon entropy in bits/symbol of an empirical distribution."""
    counts = np.asarray(counts, dtype=np.float64)
    counts = counts[counts > 0]
    if counts.size == 0:
        return 0.0
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())

"""Linear-scaling quantization — Algorithm 1 of the paper.

Given precision ``p`` (the absolute error bound), capacity (number of
quantization bins) and radius ``r = capacity/2``, a prediction error
``diff = d - pred`` maps to

* ``code° = floor(|diff| / p) + 1``,
* sign applied:  ``code° <- ±code°``,
* ``code• = trunc(code°/2) + r``   (C integer cast truncates toward zero),
* reconstruction ``d_re = pred + 2*(code• - r)*p``.

This integer pipeline is exactly round-to-nearest of ``diff/(2p)`` (tested
against that closed form), guaranteeing ``|d_re - d| <= p`` whenever the
point is quantizable.  Code 0 is reserved for non-quantizable points
(Algorithm 1 line 13); the final overbound check (line 10) re-verifies the
bound *after* the reconstruction is rounded to the storage dtype, which is
what makes the guarantee hold for float32 fields.

:func:`quantize_scalar` is a literal transcription of Algorithm 1 used as
the test oracle; :func:`quantize_vector` is the NumPy implementation the
engines run.
"""

from __future__ import annotations

import numpy as np

from ..config import QuantizerConfig
from ..errors import ConfigError

__all__ = ["quantize_scalar", "quantize_vector", "reconstruct"]


def quantize_scalar(
    d: float,
    pred: float,
    precision: float,
    quant: QuantizerConfig,
) -> tuple[int, float]:
    """Algorithm 1 for one point. Returns ``(code•, d_re)``.

    ``code• == 0`` marks a non-quantizable point, in which case ``d_re``
    is the original value (the caller stores it through the unpredictable
    path).
    """
    if precision <= 0:
        raise ConfigError("precision must be positive")
    capacity = quant.capacity
    r = quant.radius
    diff = d - pred
    code0 = int(abs(diff) / precision) + 1  # floor for non-negative operand
    if code0 < capacity:
        signed = code0 if diff > 0 else -code0
        code_dot = int(signed / 2) + r  # C cast: trunc toward zero
        d_re = pred + 2 * (code_dot - r) * precision
        if abs(d_re - d) <= precision and 0 < code_dot < capacity:
            return code_dot, d_re
    return 0, d


def quantize_vector(
    d: np.ndarray,
    pred: np.ndarray,
    precision: float,
    quant: QuantizerConfig,
    out_dtype: np.dtype,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Algorithm 1.

    Returns ``(codes, d_re)`` where ``codes`` is int64 (0 = unpredictable)
    and ``d_re`` is the value to write back, already rounded to
    ``out_dtype`` (the decompressor will hold exactly these values, so the
    overbound check is performed on the rounded reconstruction).
    """
    capacity = quant.capacity
    r = quant.radius
    diff = d - pred
    # A NaN/Inf/beyond-int64 quotient casts to garbage, but such a lane
    # can never pass ``in_bound`` below (its d_re is NaN or astronomically
    # far from d), so ``ok`` masks it to code 0 — the cast is unused.
    with np.errstate(invalid="ignore"):
        code0 = np.floor(np.abs(diff) / precision).astype(np.int64) + 1
    quantizable = code0 < capacity
    signed = np.where(diff > 0, code0, -code0)
    code_dot = np.sign(signed) * (np.abs(signed) // 2) + r  # trunc toward 0
    d_re = (pred + 2.0 * (code_dot - r) * precision).astype(out_dtype)
    in_bound = np.abs(d_re.astype(np.float64) - d) <= precision
    ok = quantizable & in_bound & (code_dot > 0) & (code_dot < capacity)
    codes = np.where(ok, code_dot, 0)
    d_out = np.where(ok, d_re, d.astype(out_dtype))
    return codes, d_out


def reconstruct(
    codes: np.ndarray,
    pred: np.ndarray,
    precision: float,
    quant: QuantizerConfig,
    out_dtype: np.dtype,
) -> np.ndarray:
    """Decompression side of Algorithm 1: ``d_re = pred + 2*(code - r)*p``.

    Entries with ``code == 0`` are returned as NaN; the caller overwrites
    them from the unpredictable stream.
    """
    r = quant.radius
    d_re = (pred + 2.0 * (codes - r) * precision).astype(out_dtype)
    return np.where(codes == 0, np.asarray(np.nan, dtype=out_dtype), d_re)

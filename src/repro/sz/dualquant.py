"""Dual-quant PQD: the two-phase, data-parallel form of the SZ dataflow.

The classic PQD loop (:mod:`repro.sz.pqd`) predicts every point from its
*decompressed* neighbours, which closes a feedback loop and serializes the
sweep into a wavefront recurrence.  cuSZ (Tian et al.) breaks exactly this
dependency by splitting PQD into two phases:

**Phase 1 — prequantization** (the only lossy step).  Every value is
snapped to the error-bound lattice up front::

    q = rint(d / (2 * eb))          # int64 lattice coordinate
    d~ = dtype(q * 2 * eb)          # its reconstruction

so ``|d~ - d| <= eb`` by rounding.  Points where the lattice breaks down
(non-finite quotients, |q| beyond exact float64 integers, or a dtype
rounding that lands outside the bound) become **raw points**: they carry
``q = 0`` on the lattice — both sides agree — and their original value is
stored verbatim, so they reconstruct exactly.

**Phase 2 — prediction + quantization** (lossless, data-parallel).  The
Lorenzo residual is taken over the *prequantized integers* with a zero
halo::

    delta = q - pred(q)             # exact int64 arithmetic

Because the predictor reads prequantized values — which *are* the
decompressed lattice values — there is no feedback loop: the whole field's
residuals are one vectorized mixed first-difference, and the inverse is
the matching prefix sum.  Residuals that do not fit the quantizer range
are emitted verbatim as int64 **outlier deltas** (code 0), so the inverse
prefix sum needs no patching and reconstruction of ``q`` is bit-exact.

Both phase-2 sweeps are dispatchable kernels (``dualquant.delta_encode`` /
``dualquant.delta_integrate``): the reference twins below walk the stencil
point by point in raster order; the fast twins in
:mod:`repro.kernels.dualquant_fast` are the fused ``diff``/``cumsum``
chains.  Integer arithmetic makes the two trivially bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import QuantizerConfig
from ..errors import ContainerError, DTypeError, ShapeError
from ..kernels import register_kernel, resolve

__all__ = [
    "DualQuantResult",
    "PrequantResult",
    "prequantize",
    "lattice_to_values",
    "predict_encode",
    "codes_to_deltas",
    "dq_compress",
    "dq_decompress",
]

_SUPPORTED_DTYPES = (np.float32, np.float64)

#: Largest lattice magnitude kept on the integer pipeline: float64 holds
#: every integer below 2**53 exactly, so ``rint`` results at or above it
#: cannot be trusted to round-trip and the point goes raw instead.
_Q_LIMIT = float(2**53)


def _check_input(data: np.ndarray) -> np.ndarray:
    data = np.ascontiguousarray(data)
    if data.dtype not in _SUPPORTED_DTYPES:
        raise DTypeError(
            f"dual-quant engine supports float32/float64, got {data.dtype}"
        )
    if data.ndim not in (1, 2, 3):
        raise ShapeError(
            f"dual-quant engine supports 1-3 dimensions, got {data.ndim}"
        )
    if data.size == 0:
        raise ShapeError("cannot compress an empty field")
    return data


# ---------------------------------------------------------------------------
# phase 1: prequantization (the lossy step, isolated)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrequantResult:
    """Phase-1 output: the integer lattice plus the raw-point side channel.

    ``q`` covers every point (raw positions carry 0); ``raw_idx`` are flat
    raster indices into the field and ``raw_values`` the original values
    stored verbatim for them.
    """

    q: np.ndarray  # int64, field shape
    raw_idx: np.ndarray  # int64, 1D
    raw_values: np.ndarray  # input dtype, 1D

    @property
    def n_raw(self) -> int:
        return int(self.raw_idx.size)


def prequantize(work: np.ndarray, precision: float) -> PrequantResult:
    """Snap ``work`` to the ``2 * precision`` lattice (phase 1).

    A point stays on the lattice only when its reconstruction — computed
    here exactly as the decompressor will compute it — lands within the
    bound; everything else (non-finite data, lattice overflow, dtype
    rounding past the bound) goes raw.  That check is what makes the
    error-bound guarantee a *property of the wire format* rather than of
    typical data.

    Every pass is in place or into one scratch array.  NaN and ±Inf need
    no ``isfinite`` pass: they already fail ``|q| < 2**53``, and what the
    later passes compute for them is discarded.
    """
    work = _check_input(work)
    twoeb = 2.0 * float(precision)
    d64 = work.astype(np.float64, copy=False)
    with np.errstate(invalid="ignore", over="ignore"):
        qf = d64 / twoeb
        np.rint(qf, out=qf)
        scratch = np.abs(qf)
        on_lattice = scratch < _Q_LIMIT
        np.multiply(qf, twoeb, out=scratch)
        if work.dtype != np.float64:  # the decompressor's dtype rounding
            scratch[...] = scratch.astype(work.dtype)
        scratch -= d64
        np.abs(scratch, out=scratch)
        on_lattice &= scratch <= precision
    if on_lattice.all():
        raw_idx = np.empty(0, dtype=np.int64)
    else:
        raw_idx = np.flatnonzero(~on_lattice)
        qf.reshape(-1)[raw_idx] = 0.0
    return PrequantResult(
        q=qf.astype(np.int64), raw_idx=raw_idx, raw_values=work.reshape(-1)[raw_idx]
    )


def lattice_to_values(
    q: np.ndarray, precision: float, dtype: np.dtype
) -> np.ndarray:
    """Reconstruct field values from lattice coordinates (phase-1 inverse)."""
    twoeb = 2.0 * float(precision)
    return (q.astype(np.float64) * twoeb).astype(dtype)


# ---------------------------------------------------------------------------
# phase 2: Lorenzo residuals over the integers (lossless, data-parallel)
# ---------------------------------------------------------------------------


def _pad_with_halo(q: np.ndarray) -> tuple[np.ndarray, tuple[slice, ...]]:
    """Embed ``q`` in a zero halo of one plane per leading axis edge."""
    pad = np.zeros(tuple(s + 1 for s in q.shape), dtype=np.int64)
    core = tuple(slice(1, None) for _ in q.shape)
    pad[core] = q
    return pad, core


def _lorenzo_terms(ndim: int) -> list[tuple[tuple[int, ...], int]]:
    """The 1-layer Lorenzo stencil: (offset per axis, sign) terms."""
    terms: list[tuple[tuple[int, ...], int]] = []
    for mask in range(1, 2**ndim):
        off = tuple(-1 if mask & (1 << ax) else 0 for ax in range(ndim))
        sign = -1 if bin(mask).count("1") % 2 == 0 else 1
        terms.append((off, sign))
    return terms


def _delta_encode_reference(q: np.ndarray) -> np.ndarray:
    """Point-by-point Lorenzo residual over the lattice (reference twin).

    Walks the field in raster order, gathering each point's zero-halo
    stencil explicitly — the shape an FPGA PE or a CUDA thread would
    evaluate, kept as the semantic anchor for the fused fast sweep.
    """
    pad, core = _pad_with_halo(q)
    terms = _lorenzo_terms(q.ndim)
    delta = np.zeros_like(pad)
    for idx in np.ndindex(q.shape):
        pidx = tuple(i + 1 for i in idx)
        pred = np.int64(0)
        for off, sign in terms:
            nidx = tuple(p + o for p, o in zip(pidx, off))
            pred += sign * pad[nidx]
        delta[pidx] = pad[pidx] - pred
    return delta[core]


def _delta_integrate_reference(delta: np.ndarray) -> np.ndarray:
    """Raster-order prefix reconstruction of the lattice (reference twin).

    ``q[i] = pred(q neighbours) + delta[i]`` over exact integers — the
    same recurrence the wavefront loop runs, except nothing here is
    approximate so the fast twin can replace it with per-axis prefix
    sums.
    """
    pad, core = _pad_with_halo(np.zeros_like(delta))
    terms = _lorenzo_terms(delta.ndim)
    for idx in np.ndindex(delta.shape):
        pidx = tuple(i + 1 for i in idx)
        pred = np.int64(0)
        for off, sign in terms:
            nidx = tuple(p + o for p, o in zip(pidx, off))
            pred += sign * pad[nidx]
        pad[pidx] = pred + delta[idx]
    return pad[core]


register_kernel(
    "dualquant.delta_encode",
    _delta_encode_reference,
    fast="repro.kernels.dualquant_fast:delta_encode",
)
register_kernel(
    "dualquant.delta_integrate",
    _delta_integrate_reference,
    fast="repro.kernels.dualquant_fast:delta_integrate",
)


def predict_encode(
    q: np.ndarray, quant: QuantizerConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Phase-2 forward: residuals → (codes, outlier deltas).

    ``codes`` covers every point: ``delta + radius`` where that fits in
    ``(0, capacity)``, 0 otherwise; the residuals behind the zeros are
    returned verbatim in raster order.
    """
    delta = resolve("dualquant.delta_encode")(q)
    codes = delta + quant.radius
    codable = codes > 0
    codable &= codes < quant.capacity
    if codable.all():
        return codes, np.empty(0, dtype=np.int64)
    outlier = ~codable
    codes[outlier] = 0
    return codes, delta[outlier]


def codes_to_deltas(
    codes: np.ndarray, outlier_deltas: np.ndarray, quant: QuantizerConfig
) -> np.ndarray:
    """Phase-2 inverse, step 1: merge the code and outlier streams."""
    delta = codes.astype(np.int64) - quant.radius
    flat = delta.reshape(-1)
    zero = codes.reshape(-1) == 0
    n_zero = int(np.count_nonzero(zero))
    if n_zero != outlier_deltas.size:
        raise ContainerError(
            f"code stream marks {n_zero} outliers but the delta stream "
            f"holds {outlier_deltas.size}"
        )
    flat[zero] = outlier_deltas
    return delta


# ---------------------------------------------------------------------------
# both phases end to end (the engine-level API the stages drive)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualQuantResult:
    """Everything one dual-quant compression sweep produces."""

    codes: np.ndarray  # int64, field shape; 0 = outlier residual
    outlier_deltas: np.ndarray  # int64, raster order of the zero codes
    raw_idx: np.ndarray  # int64, flat raster indices of raw points
    raw_values: np.ndarray  # input dtype, verbatim raw values

    @property
    def n_outliers(self) -> int:
        return int(self.outlier_deltas.size)

    @property
    def n_raw(self) -> int:
        return int(self.raw_idx.size)


def dq_compress(
    work: np.ndarray, precision: float, quant: QuantizerConfig
) -> DualQuantResult:
    """Run both phases over ``work`` under an absolute bound."""
    pre = prequantize(work, precision)
    codes, outlier_deltas = predict_encode(pre.q, quant)
    return DualQuantResult(
        codes=codes,
        outlier_deltas=outlier_deltas,
        raw_idx=pre.raw_idx,
        raw_values=pre.raw_values,
    )


def dq_decompress(
    codes: np.ndarray,
    outlier_deltas: np.ndarray,
    raw_idx: np.ndarray,
    raw_values: np.ndarray,
    *,
    precision: float,
    quant: QuantizerConfig,
    dtype: np.dtype,
) -> np.ndarray:
    """Invert both phases: codes → lattice → values, raw points verbatim."""
    delta = codes_to_deltas(codes, outlier_deltas, quant)
    q = resolve("dualquant.delta_integrate")(delta)
    out = lattice_to_values(q, precision, dtype)
    if raw_idx.size:
        if raw_idx.size != raw_values.size:
            raise ContainerError(
                f"{raw_idx.size} raw indices but {raw_values.size} raw values"
            )
        flat_out = out.reshape(-1)
        if int(raw_idx.min()) < 0 or int(raw_idx.max()) >= flat_out.size:
            raise ContainerError("raw-point index out of field bounds")
        flat_out[raw_idx] = raw_values
    return out

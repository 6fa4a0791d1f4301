"""Fixed-accuracy ZFP-like codec: blocks → lifting → negabinary bit planes.

Encode path per 4^d block (ZFP's architecture):

1. **block floating point** — scale the block's floats to 40-bit integers
   against the block's maximum exponent;
2. **decorrelating transform** — the separable integer lifting of
   :mod:`repro.zfp.transform`;
3. **negabinary mapping** — sign-free representation whose truncation
   error is one-sided per plane;
4. **embedded bit-plane coding** — planes are emitted MSB-first with
   ZFP's unary group testing; emission stops at the plane whose weight
   (mapped back through the block scale) falls below the tolerance, so
   the absolute error bound holds per point.

The codec is error-bounded like SZ (fixed-accuracy mode), which is what
the online-selector study (paper ref [53]) needs: both compressors honour
the same bound, only their models differ.

The whole transform chain is one ZFP-specific stage; bound resolution
and header assembly come from :mod:`repro.codec.stages`.
ZFP is outside the SZ family, so it registers without a Table 2 row and
declares no ``realizes``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..codec.pipeline import PipelineCompressor, PipelineContext, Stage
from ..codec.registry import register_codec
from ..codec.stages import HeaderStage, ResolveBoundStage
from ..encoding.bitio import BitReader, BitWriter
from ..errors import ContainerError, DTypeError
from ..streams import MAX_FIELD_POINTS, header_int
from .transform import fwd_transform, inv_transform, sequency_order

__all__ = ["ZFPCompressor"]

_INTPREC = 48  # bit planes carried per coefficient
_SCALE_BITS = 40  # block values scaled to ~2^40 before the transform


def _guard_bits(ndim: int) -> int:
    """Transform-gain + plane-truncation safety margin.

    The inverse lifting amplifies per-coefficient truncation error by up
    to ~2 per axis, and negabinary truncation contributes one more plane:
    ndim + 1 guard planes keep the worst case safely inside the bound
    (verified by the property tests with a >2x margin).
    """
    return ndim + 1


_EMAX_BITS = 12
_EMAX_BIAS = 1 << 11
_NBMASK = np.int64(0xAAAAAAAAAAAA)  # negabinary mask over _INTPREC bits


def _negabinary(q: np.ndarray) -> np.ndarray:
    """Two's complement -> negabinary (unsigned), vectorized."""
    return ((q + _NBMASK) ^ _NBMASK).astype(np.uint64)


def _inv_negabinary(u: np.ndarray) -> np.ndarray:
    x = u.astype(np.int64)
    return (x ^ _NBMASK) - _NBMASK


def _blockify(data: np.ndarray) -> np.ndarray:
    """Pad to multiples of 4 (edge replication) and stack 4^d blocks."""
    nd = data.ndim
    padded = np.pad(data, [(0, -n % 4) for n in data.shape], mode="edge")
    blocks = padded.reshape([m for n in padded.shape for m in (n // 4, 4)])
    blocks = blocks.transpose([*range(0, 2 * nd, 2), *range(1, 2 * nd, 2)])
    return np.ascontiguousarray(blocks.reshape((-1,) + (4,) * nd))


def _unblockify(blocks: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Invert :func:`_blockify` and crop the padding."""
    nd = len(shape)
    counts = [-(-n // 4) for n in shape]
    out = blocks.reshape(counts + [4] * nd)
    out = out.transpose([i for a in range(nd) for i in (a, nd + a)])
    return out.reshape([4 * c for c in counts])[tuple(slice(0, n) for n in shape)]


def _encode_block_planes(
    w: BitWriter, u_ordered: list[int], kmin: int
) -> None:
    """ZFP's embedded plane coding: verbatim prefix + unary group testing."""
    size = len(u_ordered)
    n = 0  # number of coefficients known significant (monotone)
    for k in range(_INTPREC - 1, kmin - 1, -1):
        x = 0
        for i in range(size):
            x |= ((u_ordered[i] >> k) & 1) << i
        # known-significant prefix, verbatim
        w.write(x & ((1 << n) - 1) if n else 0, n)
        x >>= n
        # unary run-length for newly significant coefficients
        while n < size:
            has_more = 1 if x != 0 else 0
            w.write(has_more, 1)
            if not has_more:
                break
            while n < size - 1:
                bit = x & 1
                w.write(bit, 1)
                x >>= 1
                n += 1
                if bit:
                    break
            else:
                x >>= 1
                n += 1
                break  # n == size

def _decode_block_planes(r: BitReader, size: int, kmin: int) -> list[int]:
    u = [0] * size
    n = 0
    for k in range(_INTPREC - 1, kmin - 1, -1):
        x = r.read(n) if n else 0
        shift = n
        while n < size:
            if not r.read(1):
                break
            while n < size - 1:
                bit = r.read(1)
                x |= bit << shift
                shift += 1
                n += 1
                if bit:
                    break
            else:
                x |= 1 << shift
                shift += 1
                n += 1
                break
        for i in range(size):
            if (x >> i) & 1:
                u[i] |= 1 << k
    return u


class _ZFPBlocksStage:
    """Block float → lifting → negabinary → embedded bit-plane coding.

    The 2D / 3D lifting transform fixes the dimensionalities; block
    floating point needs every value finite.
    """

    name = "zfp_blocks"
    dims = (2, 3)

    def forward(self, ctx: PipelineContext) -> None:
        data = ctx.data
        tol = ctx.bound.absolute
        ndim = data.ndim
        if not np.isfinite(data).all():
            raise DTypeError("ZFP-like cannot code non-finite values")

        blocks = _blockify(data.astype(np.float64))
        n_blocks = blocks.shape[0]
        order = sequency_order(ndim)
        log2_tol = math.floor(math.log2(tol))

        # Block floating point: common exponent per block.
        absmax = np.abs(blocks).reshape(n_blocks, -1).max(axis=1)
        emax = np.zeros(n_blocks, dtype=np.int64)
        nz = absmax > 0
        emax[nz] = np.ceil(np.log2(absmax[nz])).astype(np.int64)
        scale = np.ldexp(1.0, (_SCALE_BITS - emax).astype(np.int64))
        q = np.rint(blocks * scale.reshape((-1,) + (1,) * ndim)).astype(np.int64)
        fwd_transform(q)
        u = _negabinary(q).reshape(n_blocks, -1)[:, order]

        w = BitWriter()
        u_list = u.tolist()
        emax_list = emax.tolist()
        for b in range(n_blocks):
            if not nz[b]:
                w.write(0, 1)  # all-zero block
                continue
            w.write(1, 1)
            e = emax_list[b]
            w.write(e + _EMAX_BIAS, _EMAX_BITS)
            # Planes below kmin carry error < tol after unscaling.
            kmin = max(0, log2_tol + _SCALE_BITS - e - _guard_bits(ndim))
            _encode_block_planes(w, u_list[b], kmin)
        ctx.artifacts["planes_payload"] = w.getvalue()
        ctx.artifacts["n_blocks"] = n_blocks

    def inverse(self, ctx: PipelineContext) -> None:
        shape = ctx.shape
        dtype = ctx.dtype
        tol = ctx.bound.absolute
        ndim = len(shape)
        n_blocks = header_int(ctx.header, "n_blocks", hi=MAX_FIELD_POINTS)
        size = 4**ndim
        order = sequency_order(ndim)
        inv_order = np.empty_like(order)
        inv_order[order] = np.arange(size)
        log2_tol = math.floor(math.log2(tol))

        r = BitReader(ctx.container.get("planes"))
        u = np.zeros((n_blocks, size), dtype=np.uint64)
        emax = np.zeros(n_blocks, dtype=np.int64)
        nonzero = np.zeros(n_blocks, dtype=bool)
        for b in range(n_blocks):
            if not r.read(1):
                continue
            nonzero[b] = True
            e = r.read(_EMAX_BITS) - _EMAX_BIAS
            emax[b] = e
            kmin = max(0, log2_tol + _SCALE_BITS - e - _guard_bits(ndim))
            u[b] = _decode_block_planes(r, size, kmin)

        q = _inv_negabinary(u[:, inv_order]).reshape((n_blocks,) + (4,) * ndim)
        inv_transform(q)
        scale = np.ldexp(1.0, (emax - _SCALE_BITS).astype(np.int64))
        blocks = q.astype(np.float64) * scale.reshape((-1,) + (1,) * ndim)
        blocks[~nonzero] = 0.0
        ctx.out = _unblockify(blocks, shape).astype(dtype)


class _ZFPHeaderStage(HeaderStage):
    """ZFP header: block count only (no quantizer in this model)."""

    def __init__(self) -> None:
        super().__init__(with_quant=False)

    def write_extra(self, ctx: PipelineContext) -> None:
        n_blocks = ctx.require("n_blocks")
        ctx.header["n_blocks"] = n_blocks
        ctx.meta["blocks"] = n_blocks
        ctx.meta["block_size"] = 4

    def read_extra(self, ctx: PipelineContext) -> None:
        n_blocks = header_int(ctx.header, "n_blocks", hi=MAX_FIELD_POINTS)
        expected_blocks = 1
        for s in ctx.shape:
            expected_blocks *= -(-s // 4)
        if n_blocks != expected_blocks:
            raise ContainerError(
                f"header declares {n_blocks} blocks, shape implies "
                f"{expected_blocks}"
            )


class _PlanesStage:
    """Emit the embedded bit-plane stream as the payload's single section."""

    name = "planes"

    def forward(self, ctx: PipelineContext) -> None:
        payload = ctx.require("planes_payload")
        ctx.container.add("planes", payload)
        ctx.encoded_code_bytes = len(payload)

    def inverse(self, ctx: PipelineContext) -> None:
        pass


@register_codec(aliases=("zfp-like",))
@dataclass(frozen=True)
class ZFPCompressor(PipelineCompressor):
    """Fixed-accuracy transform-based compressor (the SZ comparator)."""

    name = "ZFP-like"

    def build_stages(self) -> tuple[Stage, ...]:
        return (
            ResolveBoundStage(),
            _ZFPBlocksStage(),
            _ZFPHeaderStage(),
            _PlanesStage(),
        )

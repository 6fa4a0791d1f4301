"""Fused wavefront sweeps — the ``pqd.*_sweep`` fast kernels.

The reference sweep spends ~40 small-array NumPy calls per wavefront
(stencil gather, ``quantize_vector``, masking, scatters).  Wavefronts
are short — a few hundred points on 2D fields, a single point per
wavefront on 1D chains — so per-call dispatch overhead dominates the
arithmetic.  This kernel keeps the arithmetic identical but
restructures the loop around it:

* a cached per-shape *plan* (concatenated wavefront indices, the
  ``(N, m)`` neighbour-gather matrix, segment bounds) hoists every
  shape-derived computation out of the loop;
* scratch lives in preallocated buffers reused across wavefronts
  (``out=`` everywhere; no ``np.where`` / ``.all()``, which cost ~3x a
  basic ufunc call at wavefront sizes);
* the quantizer's integer pipeline is evaluated in the float domain:
  ``floor((floor(q) + 1) / 2)`` over floats equals the reference
  ``code0 // 2`` exactly for every quantizable point (``code0 <
  capacity <= 2**32`` keeps all intermediates exact), and every point
  the float-domain capacity test rejects is one the reference also
  codes 0 — including NaN and the ``>= 2**63`` int64-overflow inputs,
  which the reference's post-reconstruction bound / code-range checks
  reject after the fact;
* fields whose wavefronts are all single points (1D chains) switch to
  a pure-scalar Python loop carrying the feedback value in a local —
  a Python float op costs ~20ns where a 1-element ufunc costs ~400.

Bit-exactness notes (mirroring ``stencil_predict``): accumulation
stays in stencil order, with the ``±1`` one-layer coefficients folded
into add/subtract (``x + 1.0*g == x + g`` and ``x + (-1.0*g) == x - g``
bitwise); float32 rounding uses the same C double→float conversion as
``astype`` (``struct.pack`` on the scalar path).  Inputs outside the
fast path's preconditions (multi-layer stencils, quantizers with
``capacity != 2 * radius``) delegate to the reference sweep unchanged.
"""

from __future__ import annotations

from functools import lru_cache
from struct import pack, unpack

import numpy as np

from ..sz.lorenzo import neighbor_offsets
from ..sz.wavefront_index import interior_wavefronts

__all__ = ["compress_sweep", "decompress_sweep"]


@lru_cache(maxsize=8)
def _sweep_plan(eff_shape: tuple[int, ...], margin: int, layers: int):
    """Shape-derived constants of a sweep, cached like the wavefront index.

    Returns ``(offsets, signs, fronts, all_idx, bounds, gidx, max_n)``
    where ``gidx[a:b]`` is the ``(n, m)`` neighbour-gather index block
    of the wavefront spanning ``all_idx[a:b]``.
    """
    offsets, signs = neighbor_offsets(eff_shape, layers)
    fronts = interior_wavefronts(eff_shape, margin)
    sizes = [f.size for f in fronts]
    bounds = [0]
    for s in sizes:
        bounds.append(bounds[-1] + s)
    all_idx = (
        np.concatenate(fronts) if fronts else np.empty(0, dtype=np.int64)
    )
    gidx = all_idx[:, None] - offsets
    # Per-front views of the gather matrix, so the loop never re-slices.
    gblocks = [gidx[a:b] for a, b in zip(bounds, bounds[1:])]
    return offsets, signs, fronts, all_idx, bounds, gblocks, max(sizes, default=0)


def _round_scalar(dtype: np.dtype):
    """Scalar equivalent of ``.astype(dtype)`` for one Python float."""
    if dtype == np.float32:

        def f32(v: float) -> float:
            try:
                return unpack("f", pack("f", v))[0]
            except OverflowError:  # astype overflows to inf silently
                return float("inf") if v > 0 else float("-inf")

        return f32
    return lambda v: v


def _fast_path_ok(signs: np.ndarray, quant) -> bool:
    """Preconditions of the fused arithmetic (see module docstring)."""
    return (
        quant.capacity == 2 * quant.radius
        and signs[0] == 1.0
        and (signs.size < 2 or signs[1] == 1.0)  # loop seeds with g0 + g1
        and bool(np.all(np.abs(signs) == 1.0))
    )


def compress_sweep(
    work_flat: np.ndarray,
    orig_flat: np.ndarray,
    codes_flat: np.ndarray,
    *,
    eff_shape: tuple[int, ...],
    margin: int,
    layers: int,
    precision: float,
    quant,
    dtype: np.dtype,
    transform,
    skip_first: bool,
) -> None:
    """Fused closed-loop PQD sweep; mutates ``work_flat``/``codes_flat``."""
    offsets, signs, fronts, all_idx, bounds, gblocks, max_n = _sweep_plan(
        eff_shape, margin, layers
    )
    if not _fast_path_ok(signs, quant):
        from ..sz.pqd import _compress_sweep_reference

        _compress_sweep_reference(
            work_flat,
            orig_flat,
            codes_flat,
            eff_shape=eff_shape,
            margin=margin,
            layers=layers,
            precision=precision,
            quant=quant,
            dtype=dtype,
            transform=transform,
            skip_first=skip_first,
        )
        return
    if max_n == 0:
        return
    if len(eff_shape) == 1:
        # The all-scalar chain needs the 1D layout (contiguous interior,
        # single previous-point neighbor); a multi-D field whose fronts
        # happen to be single points must still use the scatter path.
        _compress_scalar_chain(
            work_flat,
            orig_flat,
            codes_flat,
            margin=margin,
            precision=precision,
            quant=quant,
            dtype=dtype,
            transform=transform,
            skip_first=skip_first,
        )
        return

    capm1 = float(quant.capacity - 1)
    r = quant.radius
    twop = 2.0 * precision
    d_all = orig_flat[all_idx]

    pred = np.empty(max_n)
    diff = np.empty(max_n)
    qbuf = np.empty(max_n)
    hs = np.empty(max_n)
    e64 = np.empty(max_n)
    w64 = np.empty(max_n)
    r32 = np.empty(max_n, dtype=dtype)
    ci = np.empty(max_n, dtype=np.int64)
    qm = np.empty(max_n, dtype=bool)
    ib = np.empty(max_n, dtype=bool)
    ok = np.empty(max_n, dtype=bool)

    n_off = offsets.size
    a = 0
    for k, idx in enumerate(fronts):
        n = idx.size
        b = a + n
        if skip_first and k == 0:
            work_flat[idx] = transform(orig_flat[idx]).astype(np.float64)
            a = b
            continue
        db = d_all[a:b]
        g = work_flat[gblocks[k]]
        p_ = pred[:n]
        if n_off == 1:
            np.copyto(p_, g[:, 0])  # signs[0] == +1 checked above
        else:
            np.add(g[:, 0], g[:, 1], out=p_)
            for m in range(2, n_off):
                if signs[m] > 0:
                    np.add(p_, g[:, m], out=p_)
                else:
                    np.subtract(p_, g[:, m], out=p_)
        df = diff[:n]
        np.subtract(db, p_, out=df)
        q_ = qbuf[:n]
        np.abs(df, out=q_)
        np.divide(q_, precision, out=q_)
        np.floor(q_, out=q_)  # fq = floor(|diff| / p)
        qm_ = qm[:n]
        np.less(q_, capm1, out=qm_)  # quantizable: code0 = fq+1 < capacity
        np.multiply(q_, 0.5, out=q_)
        np.ceil(q_, out=q_)  # h = ceil(fq/2) == (fq+1) // 2, exact in float
        hs_ = hs[:n]
        np.copysign(q_, df, out=hs_)  # signed half = code_dot - r
        e_ = e64[:n]
        np.multiply(hs_, twop, out=e_)
        # The reference derives this term from *integers*, so a zero is
        # always +0.0; copysign can make hs a -0.0.  x + 0.0 normalizes
        # the sign of zero and is the identity on every other float.
        np.add(e_, 0.0, out=e_)
        np.add(e_, p_, out=e_)  # d_re = pred + 2*(code_dot - r)*p
        r32_ = r32[:n]
        r32_[...] = e_  # round to storage dtype, like astype
        w_ = w64[:n]
        w_[...] = r32_  # widen back: the feedback / overbound value
        np.subtract(w_, db, out=e_)
        np.abs(e_, out=e_)
        ib_ = ib[:n]
        np.less_equal(e_, precision, out=ib_)
        ok_ = ok[:n]
        np.logical_and(qm_, ib_, out=ok_)
        ci_ = ci[:n]
        # trunc-toward-zero cast: exact on ±half.  Only the ok_ lanes are
        # cast — NaN/Inf/huge halves live on lanes qm_ (hence ok_)
        # rejects, and every lane outside ok_ is zeroed below.
        np.copyto(ci_, hs_, casting="unsafe", where=ok_)
        np.add(ci_, r, out=ci_)  # code_dot
        if np.count_nonzero(ok_) == n:
            codes_flat[idx] = ci_
            work_flat[idx] = w_
        else:
            np.logical_not(ok_, out=ok_)  # ok_ is now the fail mask
            ci_[ok_] = 0
            w_[ok_] = transform(db[ok_])
            codes_flat[idx] = ci_
            work_flat[idx] = w_
        a = b


def _compress_scalar_chain(
    work_flat: np.ndarray,
    orig_flat: np.ndarray,
    codes_flat: np.ndarray,
    *,
    margin: int,
    precision: float,
    quant,
    dtype: np.dtype,
    transform,
    skip_first: bool,
) -> None:
    """All-scalar sweep for 1D chains (every wavefront a single point)."""
    n0 = work_flat.size
    if n0 <= margin:
        return
    rnd = _round_scalar(dtype)
    capm1 = float(quant.capacity - 1)
    r = quant.radius
    twop = 2.0 * precision
    d_list = orig_flat.tolist()
    prev = float(work_flat[margin - 1])
    codes_out = [0] * (n0 - margin)
    work_out = [0.0] * (n0 - margin)
    first = margin if skip_first else -1
    for i in range(margin, n0):
        d = d_list[i]
        if i != first:
            diff = d - prev
            q = abs(diff) / precision
            if q < capm1:  # NaN/overflow fail here, as in the reference
                half = (int(q) + 1) >> 1
                t = half if diff > 0.0 else -half
                v = rnd(prev + t * twop)
                if abs(v - d) <= precision:
                    codes_out[i - margin] = t + r
                    work_out[i - margin] = v
                    prev = v
                    continue
        fb = float(transform(np.array([d]))[0])
        work_out[i - margin] = fb
        prev = fb
    codes_flat[margin:] = codes_out
    work_flat[margin:] = work_out


def decompress_sweep(
    work_flat: np.ndarray,
    codes_flat: np.ndarray,
    *,
    eff_shape: tuple[int, ...],
    margin: int,
    layers: int,
    precision: float,
    quant,
    dtype: np.dtype,
) -> None:
    """Fused reconstruction sweep; mutates ``work_flat`` in place."""
    offsets, signs, fronts, all_idx, bounds, gblocks, max_n = _sweep_plan(
        eff_shape, margin, layers
    )
    if not _fast_path_ok(signs, quant):
        from ..sz.pqd import _decompress_sweep_reference

        _decompress_sweep_reference(
            work_flat,
            codes_flat,
            eff_shape=eff_shape,
            margin=margin,
            layers=layers,
            precision=precision,
            quant=quant,
            dtype=dtype,
        )
        return
    if max_n == 0:
        return

    r = quant.radius
    c_all = codes_flat[all_idx]
    # Elementwise identical to the reference's per-wavefront
    # (2.0 * (c - r) * precision), just computed for all fronts at once.
    scaled = (2.0 * (c_all - r)) * precision

    if len(eff_shape) == 1:
        # Same 1D-layout requirement as the compress-side scalar chain.
        _decompress_scalar_chain(
            work_flat, c_all, scaled, margin=margin, dtype=dtype
        )
        return

    # Points with code 0 keep their preset (border/outlier) values: the
    # sweep scatters whole wavefronts, then restores the presets saved
    # before the loop — cheaper than masking every front.
    zrel = np.flatnonzero(c_all == 0)
    zpos = all_idx[zrel]
    zvals = work_flat[zpos]
    zbounds = np.searchsorted(zrel, bounds).tolist()

    pred = np.empty(max_n)
    r32 = np.empty(max_n, dtype=dtype)
    w64 = np.empty(max_n)
    n_off = offsets.size
    a = 0
    for k, idx in enumerate(fronts):
        n = idx.size
        b = a + n
        g = work_flat[gblocks[k]]
        p_ = pred[:n]
        if n_off == 1:
            np.copyto(p_, g[:, 0])
        else:
            np.add(g[:, 0], g[:, 1], out=p_)
            for m in range(2, n_off):
                if signs[m] > 0:
                    np.add(p_, g[:, m], out=p_)
                else:
                    np.subtract(p_, g[:, m], out=p_)
        np.add(p_, scaled[a:b], out=p_)
        r32_ = r32[:n]
        r32_[...] = p_  # round to storage dtype
        w_ = w64[:n]
        w_[...] = r32_  # widen: casting scatters cost ~4x plain ones
        work_flat[idx] = w_
        za = zbounds[k]
        zb = zbounds[k + 1]
        if zb > za:
            work_flat[zpos[za:zb]] = zvals[za:zb]
        a = b


def _decompress_scalar_chain(
    work_flat: np.ndarray,
    c_all: np.ndarray,
    scaled: np.ndarray,
    *,
    margin: int,
    dtype: np.dtype,
) -> None:
    """All-scalar reconstruction for 1D chains."""
    n0 = work_flat.size
    rnd = _round_scalar(dtype)
    wl = work_flat.tolist()
    cl = c_all.tolist()
    sl = scaled.tolist()
    prev = wl[margin - 1]
    for j in range(n0 - margin):
        i = j + margin
        if cl[j]:
            v = rnd(prev + sl[j])
            wl[i] = v
            prev = v
        else:
            prev = wl[i]  # preset border/outlier value feeds back
    work_flat[:] = wl

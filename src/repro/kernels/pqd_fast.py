"""Fused wavefront sweeps — the ``pqd.*_sweep`` fast kernels.

The reference sweep spends ~40 small-array NumPy calls per wavefront
(stencil gather, ``quantize_vector``, masking, scatters).  Wavefronts
are short — a few hundred points on 2D fields, a single point per
wavefront on 1D chains — so per-call dispatch overhead dominates the
arithmetic.  This kernel keeps the arithmetic identical but
restructures the loop around it:

* a cached per-shape *plan* hoists every shape-derived computation out
  of the loop.  On a 2D field a front is an arithmetic progression of
  flat indices with stride ``n1 - 1`` (§3.1), and so is each of its
  stencil neighbours, shifted by the neighbour's offset: the sweep reads
  them and writes the front through strided views of the field, and the
  plan keeps only the concatenated front indices (the codes' gather and
  scatter) and the front bounds, 8 bytes a point.  A 3D front is a union
  of progressions, so a 3D plan also keeps the ``(N, m)``
  neighbour-gather matrix.  A 1D chain needs no plan at all;
* scratch lives in preallocated buffers reused across wavefronts
  (``out=`` everywhere; no ``np.where`` / ``.all()``, which cost ~3x a
  basic ufunc call at wavefront sizes);
* the quantizer's integer pipeline is evaluated in the float domain:
  with ``t = trunc(diff / p)`` (``±fq``, where ``code0 = fq + 1``),
  ``t - trunc(t / 2) = ±ceil(fq / 2)`` over floats is the reference's
  ``trunc(±code0 / 2)`` exactly for every quantizable point (``code0 <
  capacity <= 2**32`` keeps all intermediates exact), and ``|half| <
  radius`` is its capacity test and its code-range test in one
  (``capacity == 2 * radius``) — every point that fails
  it is one the reference also codes 0, including NaN and the ``>=
  2**63`` int64-overflow inputs, which the reference's
  post-reconstruction bound / code-range checks reject after the fact;
* the compress sweep *speculates*: the paper's pipeline never stalls on
  the over-bound check (§3.2 — an unpredictable point just leaves the
  pipe verbatim), and on real fields the check almost never fires, so
  fronts are issued without it (14 dispatches instead of ~25), their
  signed halves and widened reconstructions land in front-order scratch
  sized by the chunk, and a whole chunk of fronts is verified with the
  reference's two comparisons in one pass.  Codes are committed up to the
  first failing front, that front is finished with the masked path (its
  inputs were final, so only its failing lanes change), and the sweep
  resumes behind it.  The chunk length follows what the data shows:
  ``_SPEC_START`` fronts at first, doubling up to ``_SPEC_FRONTS`` while
  chunks verify clean; a failure drops to the checked per-front path
  (a chunk of one: nothing is ever issued past a failure), which re-arms
  speculation only after ``_SPEC_REARM`` clean fronts in a row — a field
  with an outlier in most fronts pays for one short chunk and no more;
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

from bisect import bisect_right
from struct import pack, unpack
from typing import Callable, Hashable, NamedTuple, TypeVar

import numpy as np

from ..lru import BoundedLRU
from ..sz.lorenzo import neighbor_offsets
from ..sz.wavefront_index import interior_wavefronts

__all__ = ["compress_sweep", "decompress_sweep", "shape_constant"]

# Speculation policy of the multi-D compress sweep (module docstring).
# Fixed by the cost model, not knobs: verifying a chunk costs about one
# front, a failure wastes half a chunk on average, so chunks past ~32
# fronts gain nothing and a clean run shorter than ~16 does not pay.
_SPEC_START = 8  # fronts in the first chunk after (re-)arming
_SPEC_FRONTS = 32  # longest chunk; 1 turns speculation off (bench, tests)
_SPEC_REARM = 16  # clean checked fronts in a row before speculating again
_SPEC_POINTS = 1 << 15  # scratch bound: points per chunk


_PLAN_BYTES = 128 << 20  # bound on the bytes the cached plans hold
# Python objects of one plan besides its arrays' data: the tuple, four
# or five array headers, the key (measured with tracemalloc: < 1 KB).
_PLAN_OBJECT_BYTES = 1024

T = TypeVar("T")

#: Every shape-derived per-point constant the codecs keep — the sweep
#: plans and the wavefront layouts of :mod:`repro.core.wavefront` —
#: bounded by the bytes it holds.  A bound on entries thrashes on a mix
#: of many small shapes (the small-job workload cycles 16 through the
#: sweep) while letting a few large ones pin hundreds of MB; a bound on
#: bytes keeps every small plan and no more large ones than fit.  A value
#: larger than the whole bound is built and not kept.
_plans = BoundedLRU(max_cost=_PLAN_BYTES)


def shape_constant(key: Hashable, build: Callable[[], tuple[T, int]]) -> T:
    """The value ``build()`` returns with its byte count, from
    :data:`_plans` or built outside its lock (a racing build of the same
    key is harmless)."""
    value = _plans.get(key)
    if value is None:
        value, size = build()
        _plans.put(key, value, size + _PLAN_OBJECT_BYTES)
    return value


class _Plan(NamedTuple):
    """Shape-derived constants of a multi-D sweep.

    Front ``k`` is ``all_idx[bounds[k]:bounds[k + 1]]``.  On a 2D shape
    its points are ``step`` apart in the flat field and ``gidx`` is
    ``None``; on a 3D shape ``gidx`` is the ``(N, m)`` neighbour-gather
    matrix, ``gidx[j, m] = all_idx[j] - offsets[m]``.
    """

    offsets: np.ndarray
    signs: np.ndarray
    all_idx: np.ndarray
    bounds: np.ndarray
    max_n: int
    step: int
    gidx: np.ndarray | None

    @property
    def n_fronts(self) -> int:
        return self.bounds.size - 1


def _build_plan(
    eff_shape: tuple[int, ...], margin: int, layers: int
) -> tuple[_Plan, int]:
    """The plan of a 2D or 3D sweep and the bytes its arrays hold."""
    offsets, signs = neighbor_offsets(eff_shape, layers)
    fronts = interior_wavefronts(eff_shape, margin)
    sizes = np.array([f.size for f in fronts], dtype=np.int64)
    bounds = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    all_idx = (
        np.concatenate(fronts) if fronts else np.empty(0, dtype=np.int64)
    )
    del fronts  # the per-front arrays are not kept; free them before gidx
    gidx = None
    if len(eff_shape) == 3:
        gidx = all_idx[:, None] - offsets
    plan = _Plan(
        offsets, signs, all_idx, bounds, int(sizes.max(initial=0)),
        eff_shape[-1] - 1, gidx,
    )
    held = sum(a.nbytes for a in (offsets, signs, all_idx, bounds))
    return plan, held + (0 if gidx is None else gidx.nbytes)


def _sweep_plan(eff_shape: tuple[int, ...], margin: int, layers: int) -> _Plan:
    """The plan of a multi-D sweep, kept in :data:`_plans`."""
    return shape_constant(
        (eff_shape, margin, layers),
        lambda: _build_plan(eff_shape, margin, layers),
    )


def _front_predictor(plan: _Plan, work_flat: np.ndarray, bounds: list[int]):
    """``predict(k, p_) -> index``: writes front ``k``'s Lorenzo
    prediction from ``work_flat`` to ``p_`` and returns the index the
    front is written through.

    Accumulation is in stencil order with the ``±1`` coefficients folded
    into add/subtract (module docstring); the fast path's stencils are
    the 1-layer ones, so ``signs[0] == signs[1] == +1``.
    """
    if plan.gidx is None:
        # The 2D stencil W + N - NW.  Base m at ``f - far`` is
        # ``work_flat[f - offsets[m]]``, so one strided slice of each
        # base is a front's m-th operand.
        st = plan.step
        starts = plan.all_idx[plan.bounds[:-1]]
        spans = ((np.diff(plan.bounds) - 1) * st + 1).tolist()
        far = int(plan.offsets.max())
        w, n, nw = (work_flat[far - o :] for o in plan.offsets.tolist())
        at_far = (starts - far).tolist()
        starts = starts.tolist()

        def strided(k: int, p_: np.ndarray) -> slice:
            span = spans[k]
            a = at_far[k]
            at = slice(a, a + span, st)
            np.add(w[at], n[at], out=p_)
            np.subtract(p_, nw[at], out=p_)
            lo = starts[k]
            return slice(lo, lo + span, st)

        return strided
    all_idx, gidx = plan.all_idx, plan.gidx
    signs = plan.signs.tolist()
    rest = range(2, len(signs))

    def gathered(k: int, p_: np.ndarray) -> np.ndarray:
        a, b = bounds[k], bounds[k + 1]
        g = work_flat[gidx[a:b]]
        np.add(g[:, 0], g[:, 1], out=p_)
        for m in rest:
            if signs[m] > 0:
                np.add(p_, g[:, m], out=p_)
            else:
                np.subtract(p_, g[:, m], out=p_)
        return all_idx[a:b]

    return gathered


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
    if not _fast_path_ok(neighbor_offsets(eff_shape, layers)[1], quant):
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
    if len(eff_shape) == 1:
        # The all-scalar chain needs the 1D layout (contiguous interior,
        # single previous-point neighbor) and no plan; a multi-D field
        # whose fronts happen to be single points still sweeps by front.
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
    plan = _sweep_plan(eff_shape, margin, layers)
    if plan.max_n == 0:
        return
    _speculative_sweep(
        work_flat,
        orig_flat,
        codes_flat,
        plan=plan,
        precision=precision,
        quant=quant,
        dtype=dtype,
        transform=transform,
        skip_first=skip_first,
    )


def _speculative_sweep(
    work_flat: np.ndarray,
    orig_flat: np.ndarray,
    codes_flat: np.ndarray,
    *,
    plan: _Plan,
    precision: float,
    quant,
    dtype: np.dtype,
    transform,
    skip_first: bool,
) -> int:
    """The multi-D sweep: issue a chunk of fronts, verify it in one pass.

    Returns the number of front evaluations issued: the number of fronts
    plus whatever failed chunks had issued past their failing front.
    """
    all_idx, max_n = plan.all_idx, plan.max_n
    bounds = plan.bounds.tolist()
    predict = _front_predictor(plan, work_flat, bounds)
    r = quant.radius
    rf = float(r)
    twop = 2.0 * precision
    d_all = orig_flat[all_idx]
    nf = plan.n_fronts
    # Scratch holds one chunk: never less than the widest front, never
    # more than the field (a 33 x 64 job must not map megabytes).
    room = max(max_n, min(_SPEC_POINTS, bounds[-1]))

    pred = np.empty(max_n)
    tq = np.empty(max_n)
    th = np.empty(max_n)
    r32 = np.empty(max_n, dtype=dtype)
    # Front-order scratch of one chunk: signed halves and widened
    # reconstructions, plus the verification temporaries.
    hs_c = np.empty(room)
    w_c = np.empty(room)
    tmp = np.empty(room)
    ok_c = np.empty(room, dtype=bool)
    ib_c = np.empty(room, dtype=bool)
    ci_c = np.empty(room, dtype=np.int64)

    # Views are made once per length: slicing ten arrays per front costs
    # more than two of its ufuncs.
    front_views: dict[int, tuple] = {}
    chunk_views: dict[int, tuple] = {}

    def scratch(m: int) -> tuple:
        """The first ``m`` points of the chunk scratch."""
        v = chunk_views.get(m)
        if v is None:
            v = chunk_views[m] = (
                hs_c[:m], w_c[:m], tmp[:m], ok_c[:m], ib_c[:m], ci_c[:m]
            )
        return v

    def issue(j: int, a: int, b: int, hs_: np.ndarray, w_: np.ndarray):
        """Front ``j`` without any check: halves -> hs_, feedback -> w_.
        Returns the index the front is written through."""
        n = b - a
        v = front_views.get(n)
        if v is None:
            v = front_views[n] = (pred[:n], tq[:n], th[:n], r32[:n])
        p_, t_, h_, r32_ = v
        idx = predict(j, p_)
        np.subtract(d_all[a:b], p_, out=t_)
        np.divide(t_, precision, out=t_)
        np.trunc(t_, out=t_)  # t = ±fq, fq = floor(|diff| / p)
        np.multiply(t_, 0.5, out=h_)
        np.trunc(h_, out=h_)
        # signed half = ±ceil(fq/2) = code_dot - r, exact in float; a
        # zero comes out +0.0 (x - x), like the reference's integer zero.
        np.subtract(t_, h_, out=hs_)
        np.multiply(hs_, twop, out=t_)
        np.add(t_, p_, out=t_)  # d_re = pred + 2*(code_dot - r)*p
        r32_[...] = t_  # round to storage dtype, like astype
        w_[...] = r32_  # widen back: the feedback / overbound value
        return idx

    def verify(m: int, at: int) -> bool:
        """The reference's two comparisons over ``m`` issued points.

        ``|half| < r`` is ``code0 < capacity`` and ``0 < code_dot <
        capacity`` in one (capacity == 2r); NaN, Inf and >= 2**63
        quotients fail it, as they fail the reference's checks.
        """
        hs_m, w_m, t_m, ok_m, ib_m, _ = scratch(m)
        np.abs(hs_m, out=t_m)
        np.less(t_m, rf, out=ok_m)
        np.subtract(w_m, d_all[at : at + m], out=t_m)
        np.abs(t_m, out=t_m)
        np.less_equal(t_m, precision, out=ib_m)
        np.logical_and(ok_m, ib_m, out=ok_m)
        return np.count_nonzero(ok_m) == m

    def patch(j: int, o: int) -> np.ndarray:
        """Masked path for front ``j`` (scratch offset ``o``): failing
        lanes get code 0 and feed their stored value back.  The front's
        inputs were final, so its other lanes stand."""
        at = bounds[j]
        e = o + bounds[j + 1] - at
        fail = np.logical_not(ok_c[o:e])
        hs_c[o:e][fail] = -rf  # code_dot 0; also clears NaN/Inf halves
        w_ = w_c[o:e]
        w_[fail] = transform(d_all[at : at + e - o][fail])
        return w_

    def commit(m: int, idx) -> None:
        """Codes of the first ``m`` scratch points, all settled, to ``idx``."""
        hs_m, _, _, _, _, ci = scratch(m)
        np.copyto(ci, hs_m, casting="unsafe")  # exact on ±half
        np.add(ci, r, out=ci)  # code_dot
        codes_flat[idx] = ci

    k = 0
    if skip_first:
        idx = all_idx[: bounds[1]]
        work_flat[idx] = transform(orig_flat[idx]).astype(np.float64)
        k = 1
    chunk = min(_SPEC_START, _SPEC_FRONTS)
    streak = 0  # clean fronts in a row on the checked path
    issued = nf - k
    # The index each issued front of the chunk was written through, so a
    # failing front is rewritten without rebuilding it.
    written: list = []
    while k < nf:
        a = bounds[k]
        if chunk == 1:
            # Checked per-front path: nothing is issued past a failure.
            n = bounds[k + 1] - a
            hs_, w_ = scratch(n)[:2]
            idx = issue(k, a, a + n, hs_, w_)
            if verify(n, a):
                streak += 1
                if streak >= _SPEC_REARM:
                    chunk = min(_SPEC_START, _SPEC_FRONTS)
            else:
                patch(k, 0)
                streak = 0
            work_flat[idx] = w_
            commit(n, idx)
            k += 1
            continue
        k1 = min(k + chunk, nf)
        while bounds[k1] - a > room:
            k1 -= 1
        written.clear()
        for j in range(k, k1):
            o = bounds[j] - a
            e = bounds[j + 1] - a
            w_ = w_c[o:e]
            idx = issue(j, a + o, a + e, hs_c[o:e], w_)
            work_flat[idx] = w_
            written.append(idx)
        m = bounds[k1] - a
        if verify(m, a):
            chunk = min(2 * chunk, _SPEC_FRONTS)
        else:
            # Fronts before the first failing one are final; the ones
            # after it were issued on feedback that is about to change.
            f = bisect_right(bounds, a + int(np.argmin(ok_c[:m]))) - 1
            work_flat[written[f - k]] = patch(f, bounds[f] - a)
            issued += k1 - f - 1
            k1 = f + 1
            m = bounds[k1] - a
            chunk = 1
            streak = 0
        commit(m, all_idx[a : a + m])
        k = k1
    return issued


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
    if not _fast_path_ok(neighbor_offsets(eff_shape, layers)[1], quant):
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

    r = quant.radius
    if len(eff_shape) == 1:
        # Same 1D-layout requirement as the compress-side scalar chain;
        # the interior is the contiguous tail, so no plan either.
        c_all = codes_flat[margin:]
        if c_all.size:
            scaled = (2.0 * (c_all - r)) * precision
            _decompress_scalar_chain(
                work_flat, c_all, scaled, margin=margin, dtype=dtype
            )
        return
    plan = _sweep_plan(eff_shape, margin, layers)
    if plan.max_n == 0:
        return
    all_idx, max_n = plan.all_idx, plan.max_n
    bounds = plan.bounds.tolist()
    predict = _front_predictor(plan, work_flat, bounds)
    c_all = codes_flat[all_idx]
    # Elementwise identical to the reference's per-wavefront
    # (2.0 * (c - r) * precision), just computed for all fronts at once.
    scaled = (2.0 * (c_all - r)) * precision

    # Points with code 0 keep their preset (border/outlier) values: the
    # sweep writes whole wavefronts, then restores the presets saved
    # before the loop — cheaper than masking every front.
    zrel = np.flatnonzero(c_all == 0)
    zpos = all_idx[zrel]
    zvals = work_flat[zpos]
    zbounds = np.searchsorted(zrel, plan.bounds).tolist()

    pred = np.empty(max_n)
    r32 = np.empty(max_n, dtype=dtype)
    w64 = np.empty(max_n)
    for k in range(plan.n_fronts):
        a = bounds[k]
        b = bounds[k + 1]
        n = b - a
        p_ = pred[:n]
        idx = predict(k, p_)
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

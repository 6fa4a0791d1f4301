"""1-layer Lorenzo predictors (paper Figure 2).

The Lorenzo predictor estimates a point from its already-processed
neighbours; the signum of each neighbour's contribution is ``(-1)**(L+1)``
where ``L`` is its Manhattan distance from the predicted point:

* 1D: ``P(x) = d[x-1]``
* 2D: ``P(x,y) = d[x-1,y] + d[x,y-1] - d[x-1,y-1]``
* 3D: ``P(x,y,z) = d[x-1,y,z] + d[x,y-1,z] + d[x,y,z-1]
  - d[x-1,y-1,z] - d[x-1,y,z-1] - d[x,y-1,z-1] + d[x-1,y-1,z-1]``

Two forms are provided: :func:`lorenzo_predict` computes predictions from a
*given* neighbour field in one vectorized pass (used for the open-loop
prediction-error study of Figure 1), while :func:`neighbor_offsets` exposes
the flat-index offsets and signs that the closed-loop PQD engine gathers
through during wavefront iteration.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import ShapeError

__all__ = [
    "lorenzo_predict",
    "neighbor_offsets",
    "stencil_predict",
    "LORENZO_FLOPS",
]

#: Floating-point adds per prediction, by dimensionality (used by the
#: CPU/FPGA performance models): 2D = N + W - NW (2 ops), 3D = 6 ops.
LORENZO_FLOPS = {1: 0, 2: 2, 3: 6}


@lru_cache(maxsize=64)
def neighbor_offsets(
    shape: tuple[int, ...], layers: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Flat-index offsets and coefficients of the Lorenzo stencil.

    For a C-contiguous array of the given shape, a point at flat index
    ``f`` is predicted by ``sum(sign[k] * work[f - offset[k]])``.  Offsets
    are positive (they reach backwards).

    The k-layer Lorenzo predictor uses every neighbour in the
    ``[0..k]^ndim`` box except the point itself, with coefficient
    ``(-1)**(sum(d)+1) * prod(C(k, d_i))`` — its residual is the mixed
    k-th finite difference, so k = 2 is exact on per-axis-quadratic
    surfaces (SZ-1.4's multi-layer option).

    Cached per ``(shape, layers)`` (a few bytes an entry): the PQD loop
    asks for the same stencil once per wavefront sweep, and blockwise
    codecs once per block.  The returned arrays are read-only.
    """
    ndim = len(shape)
    if ndim not in (1, 2, 3):
        raise ShapeError(f"Lorenzo predictor supports 1-3 dimensions, got {ndim}")
    if not 1 <= layers <= 3:
        raise ShapeError(f"Lorenzo layers must be in [1, 3], got {layers}")
    strides = [1]
    for n in reversed(shape[1:]):
        strides.insert(0, strides[0] * n)
    from itertools import product
    from math import comb

    offsets = []
    signs = []
    for deltas in product(range(layers + 1), repeat=ndim):
        if all(d == 0 for d in deltas):
            continue
        off = sum(d * s for d, s in zip(deltas, strides))
        coeff = (-1.0) ** (sum(deltas) + 1)
        for d in deltas:
            coeff *= comb(layers, d)
        offsets.append(off)
        signs.append(coeff)
    offset_arr = np.array(offsets, dtype=np.int64)
    sign_arr = np.array(signs)
    offset_arr.setflags(write=False)
    sign_arr.setflags(write=False)
    return offset_arr, sign_arr


def stencil_predict(
    work_flat: np.ndarray,
    idx: np.ndarray,
    offsets: np.ndarray,
    signs: np.ndarray,
) -> np.ndarray:
    """Lorenzo prediction at flat indices ``idx`` via one fancy gather.

    Gathers the whole ``(len(idx), len(offsets))`` neighbour block at
    once, then accumulates the columns *in offset order*.  The in-order
    accumulation is deliberate: it reproduces the reference per-offset
    sum term by term, so reconstructions stay bit-identical — a BLAS
    ``@ signs`` contraction would reassociate the floating-point sum and
    drift in the last ulp, which the closed PQD loop then amplifies into
    different quantization codes.
    """
    gathered = work_flat[idx[:, None] - offsets]
    pred = signs[0] * gathered[:, 0]
    for m in range(1, offsets.size):
        pred += signs[m] * gathered[:, m]
    return pred


def lorenzo_predict(data: np.ndarray, layers: int = 1) -> np.ndarray:
    """Open-loop Lorenzo prediction of every interior point from ``data``.

    Border points (any index < ``layers``) are returned as NaN so callers
    can mask them out.  This is the predictor quality view used by
    Figure 1: it feeds *original* values in, so it isolates predictor
    accuracy from quantization feedback.
    """
    data = np.asarray(data, dtype=np.float64)
    if layers != 1:
        return _lorenzo_predict_generic(data, layers)
    pred = np.full(data.shape, np.nan)
    if data.ndim == 1:
        pred[1:] = data[:-1]
    elif data.ndim == 2:
        pred[1:, 1:] = data[:-1, 1:] + data[1:, :-1] - data[:-1, :-1]
    elif data.ndim == 3:
        pred[1:, 1:, 1:] = (
            data[:-1, 1:, 1:]
            + data[1:, :-1, 1:]
            + data[1:, 1:, :-1]
            - data[:-1, :-1, 1:]
            - data[:-1, 1:, :-1]
            - data[1:, :-1, :-1]
            + data[:-1, :-1, :-1]
        )
    else:
        raise ShapeError(f"Lorenzo predictor supports 1-3 dimensions, got {data.ndim}")
    return pred


def _lorenzo_predict_generic(data: np.ndarray, layers: int) -> np.ndarray:
    """Slicing-based k-layer open-loop prediction (any ndim in 1-3)."""
    from itertools import product
    from math import comb

    ndim = data.ndim
    if ndim not in (1, 2, 3):
        raise ShapeError(f"Lorenzo predictor supports 1-3 dimensions, got {ndim}")
    if not 1 <= layers <= 3:
        raise ShapeError(f"Lorenzo layers must be in [1, 3], got {layers}")
    if any(n <= layers for n in data.shape):
        raise ShapeError(
            f"field {data.shape} too small for a {layers}-layer stencil"
        )
    pred = np.full(data.shape, np.nan)
    core = tuple(slice(layers, None) for _ in range(ndim))
    acc = np.zeros(tuple(n - layers for n in data.shape))
    for deltas in product(range(layers + 1), repeat=ndim):
        if all(d == 0 for d in deltas):
            continue
        coeff = (-1.0) ** (sum(deltas) + 1)
        for d in deltas:
            coeff *= comb(layers, d)
        src = tuple(
            slice(layers - d, n - d) for d, n in zip(deltas, data.shape)
        )
        acc += coeff * data[src]
    pred[core] = acc
    return pred

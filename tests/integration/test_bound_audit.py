"""The bound audit: every codec holds its bound on hostile fields, or refuses.

The grid is every canonical codec × abs / vr_rel / pw_rel × float32 /
float64 × 1D / 2D / 3D × seven fields of 960 points: a random walk, a
constant, one NaN, one +Inf and one -Inf, an all-subnormal walk, two
±1e30 outliers and a walk scaled by 1e35.  Each cell either decodes
through ``decompress_auto`` within its bound on every finite point, or
raises a typed ``ReproError`` at ``compress``.  A ``ShapeError`` is the
refusal of a cell outside the codec's ``dims`` / ``modes`` and of no
other cell, so the registry's derived matrix is what ``compress`` does.

The cells in :data:`OPEN` still miss their bound; each is a strict xfail
at its fixed seed, so closing one (ROADMAP bound item (c)) turns it into
a failure here until it leaves the set.  Hostile fields provoke NumPy's
overflow / invalid-cast warnings inside some stages; the audit judges the
bound and the error type, not those warnings.
"""

import numpy as np
import pytest

from repro.codec.registry import REGISTRY, get_codec
from repro.errors import ReproError, ShapeError
from repro.streams import decompress_auto

EB = 1e-3
SEED = 14
SHAPES = {1: (960,), 2: (24, 40), 3: (6, 8, 20)}
KINDS = ("walk", "constant", "nan", "inf", "subnormal", "outliers", "huge")

#: (codec, mode, dtype, ndim, field) cells that decode out of bound.
OPEN = {
    *{("ZFP-like", "abs", dt, nd, "outliers")
      for dt in ("float32", "float64") for nd in (2, 3)},
    *{("ZFP-like", "abs", "float64", nd, "huge") for nd in (2, 3)},
    *{("ZFP-like", "vr_rel", "float64", nd, "subnormal") for nd in (2, 3)},
    *{("SZ-1.4", "pw_rel", "float32", nd, "subnormal") for nd in (1, 2, 3)},
}


def hostile(kind: str, dtype: str, shape: tuple[int, ...], seed: int = SEED) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = int(np.prod(shape))
    x = np.cumsum(rng.normal(0.0, 1.0, n))
    if kind == "constant":
        x = np.full(n, 3.25)
    elif kind == "nan":
        x[rng.integers(n)] = np.nan
    elif kind == "inf":
        a, b = rng.choice(n, 2, replace=False)
        x[a], x[b] = np.inf, -np.inf
    elif kind == "subnormal":
        x = x * float(np.finfo(dtype).tiny) * 1e-3
    elif kind == "outliers":
        a, b = rng.choice(n, 2, replace=False)
        x[a], x[b] = 1e30, -1e30
    elif kind == "huge":
        x = x * 1e35
    return x.reshape(shape).astype(dtype)


def _cells():
    for name in REGISTRY.names():
        for mode in ("abs", "vr_rel", "pw_rel"):
            for dtype in ("float32", "float64"):
                for nd in SHAPES:
                    for kind in KINDS:
                        cell = (name, mode, dtype, nd, kind)
                        marks = (
                            pytest.mark.xfail(
                                strict=True, raises=AssertionError,
                                reason="decodes out of bound (bound item (c))",
                            ) if cell in OPEN else ()
                        )
                        yield pytest.param(
                            *cell, marks=marks, id=f"{name}-{mode}-{dtype}-{nd}D-{kind}"
                        )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name, mode, dtype, nd, kind", list(_cells()))
def test_bound_held_or_refused(name, mode, dtype, nd, kind):
    entry = REGISTRY.entry(name)
    admitted = nd in entry.dims and mode in entry.modes
    x = hostile(kind, dtype, SHAPES[nd])
    try:
        cf = get_codec(name).compress(x, EB, mode)
    except ShapeError:
        assert not admitted, "a shape refusal where dims / modes admit the cell"
        return
    except ReproError:
        assert admitted, "dims / modes refuse this cell, with a ShapeError"
        return
    assert admitted, "compressed a cell dims / modes refuse"
    out = decompress_auto(cf.payload)
    assert out.shape == x.shape and out.dtype == x.dtype
    finite = np.isfinite(x)
    want = x[finite].astype(np.float64)
    err = np.abs(out[finite].astype(np.float64) - want)
    bound = EB * np.abs(want) if mode == "pw_rel" else cf.bound.absolute
    over = ~(err <= bound)
    assert not over.any(), f"{int(over.sum())} of {x.size} points out of bound"

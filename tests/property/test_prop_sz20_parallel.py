"""Property tests: SZ-2.0 hybrid and tiled compression invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SZ14Compressor, SZ20Compressor
from repro.parallel import tile_compress, tile_decompress

sz20 = SZ20Compressor()


def _field(seed: int, d0: int, d1: int, smooth: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(d0, d1))
    if smooth:
        x = np.cumsum(x, axis=1) / d1**0.5
    return x.astype(np.float32)


params = st.tuples(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=4, max_value=30),
    st.integers(min_value=4, max_value=30),
    st.booleans(),
)
bounds = st.sampled_from([1e-1, 1e-2, 1e-3])


@given(params, bounds)
@settings(max_examples=25, deadline=None)
def test_sz20_bound_any_shape(p, eb):
    """Ragged block grids, rough or smooth data: the bound always holds."""
    x = _field(*p)
    cf = sz20.compress(x, eb, "vr_rel")
    out = sz20.decompress(cf)
    assert np.abs(out.astype(np.float64) - x).max() <= cf.bound.absolute


@given(params, st.integers(min_value=1, max_value=4))
@settings(max_examples=20, deadline=None)
def test_tiling_matches_monolithic_bound(p, n_tiles):
    seed, d0, d1, smooth = p
    d0 = max(d0, 2 * n_tiles * 2)  # bands must stay >= 2 points thick
    x = _field(seed, d0, d1, smooth)
    comp = SZ14Compressor()
    res = tile_compress(comp, x, 1e-3, "vr_rel", n_tiles=n_tiles)
    out = tile_decompress(comp, res.payload)
    vr = float(x.max() - x.min()) or 1.0
    assert np.abs(out.astype(np.float64) - x).max() <= 1e-3 * vr
    # Tile count and per-tile ratios are recorded faithfully.
    assert res.meta["n_tiles"] == n_tiles
    assert len(res.meta["tile_ratios"]) == n_tiles

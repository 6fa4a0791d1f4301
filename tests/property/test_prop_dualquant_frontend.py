"""Property tests: the dual-quant front end against its pre-rewrite form.

``prequantize`` and ``predict_encode`` now reach their outputs in fewer
full-array passes (in-place divide and ``rint``, one scratch array, no
``isfinite`` pass, no ``where`` over a field that is nearly all codable).
:func:`_prequantize_oracle` and :func:`_predict_encode_oracle` are the
versions they replaced, kept here verbatim as the oracles: on every
dtype, rank, hostile value and bound the outputs must be identical, bit
for bit, and neither side may warn.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import QuantizerConfig
from repro.kernels import forced, resolve
from repro.sz.dualquant import (
    _Q_LIMIT,
    PrequantResult,
    _check_input,
    predict_encode,
    prequantize,
)

pytestmark = pytest.mark.filterwarnings("error")


def _prequantize_oracle(work: np.ndarray, precision: float) -> PrequantResult:
    work = _check_input(work)
    twoeb = 2.0 * float(precision)
    d64 = work.astype(np.float64, copy=False)
    with np.errstate(invalid="ignore", over="ignore"):
        qf = np.rint(d64 / twoeb)
        on_lattice = np.isfinite(qf) & (np.abs(qf) < _Q_LIMIT)
        recon = np.where(on_lattice, qf, 0.0) * twoeb
        recon = recon.astype(work.dtype).astype(np.float64)
        on_lattice &= np.abs(recon - d64) <= precision
    q = np.where(on_lattice, qf, 0.0).astype(np.int64)
    raw_idx = np.flatnonzero(~on_lattice).astype(np.int64)
    raw_values = work.reshape(-1)[raw_idx].copy()
    return PrequantResult(q=q, raw_idx=raw_idx, raw_values=raw_values)


def _predict_encode_oracle(
    q: np.ndarray, quant: QuantizerConfig
) -> tuple[np.ndarray, np.ndarray]:
    delta = resolve("dualquant.delta_encode")(q)
    r = quant.radius
    shifted = delta + r
    codable = (shifted > 0) & (shifted < quant.capacity)
    codes = np.where(codable, shifted, 0)
    outlier_deltas = delta.reshape(-1)[~codable.reshape(-1)].copy()
    return codes, outlier_deltas


def _same(got: np.ndarray, want: np.ndarray) -> None:
    """Same dtype, shape and bytes (NaN payloads and signed zeros too)."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


SPECIALS = {
    "nan": np.nan,
    "+inf": np.inf,
    "-inf": -np.inf,
    "denormal32": 1e-40,
    "-denormal32": -3e-42,
    "denormal64": 5e-320,
    "+1e30": 1e30,
    "-1e30": -1e30,
    "+1e38": 1e38,
    "-1e38": -1e38,
    "-0": -0.0,
}

shapes = st.one_of(
    st.tuples(st.integers(1, 300)),
    st.tuples(st.integers(1, 20), st.integers(1, 20)),
    st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)),
)
dtypes = st.sampled_from([np.float32, np.float64])
bounds = st.sampled_from([10.0**k for k in range(-30, 31, 3)] + [0.37, 1e-3])
scales = st.sampled_from([1e-38, 1e-20, 1e-3, 1.0, 1e4, 1e30])


@st.composite
def fields(draw):
    """A seeded smooth or noisy field at some scale, with a drawn share
    of its points replaced by hostile values."""
    shape, dtype = draw(shapes), draw(dtypes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=shape)
    if draw(st.booleans()):
        for axis in range(x.ndim):
            x = np.cumsum(x, axis=axis)
    x *= draw(scales)
    kinds = draw(st.lists(st.sampled_from(sorted(SPECIALS)), max_size=4, unique=True))
    share = draw(st.sampled_from([0.01, 0.2, 1.0]))
    flat = x.reshape(-1)
    for kind in kinds:
        hit = rng.random(flat.size) < share
        flat[hit] = SPECIALS[kind]
    with np.errstate(over="ignore"):  # a 1e30-scale walk overflows float32
        return x.astype(dtype)


@given(fields(), bounds)
@settings(max_examples=300, deadline=None)
def test_prequantize_matches_the_oracle(x, eb):
    got, want = prequantize(x, eb), _prequantize_oracle(x, eb)
    _same(got.q, want.q)
    _same(got.raw_idx, want.raw_idx)
    _same(got.raw_values, want.raw_values)


@pytest.mark.parametrize("kind", sorted(SPECIALS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_an_all_hostile_field_matches_the_oracle(kind, dtype):
    with np.errstate(over="ignore"):
        x = np.full((5, 7), SPECIALS[kind]).astype(dtype)
    for eb in (1e-30, 1e-3, 1e30):
        got, want = prequantize(x, eb), _prequantize_oracle(x, eb)
        _same(got.q, want.q)
        _same(got.raw_idx, want.raw_idx)
        _same(got.raw_values, want.raw_values)


def _lattice(shape, seed, reach, jumps) -> np.ndarray:
    """Integer lattices with ``|q| < 2**53``: a smooth walk, with a share
    of points thrown anywhere in ``[-reach, reach]`` (outlier deltas)."""
    rng = np.random.default_rng(seed)
    q = np.cumsum(rng.integers(-3, 4, size=shape), axis=-1)
    hit = rng.random(shape) < jumps
    q[hit] = rng.integers(-reach, reach + 1, size=int(hit.sum()))
    return q.astype(np.int64)


lattices = st.builds(
    _lattice,
    shapes,
    st.integers(0, 2**32 - 1),
    st.sampled_from([3, 1000, 2**20, 2**52]),
    st.sampled_from([0.0, 0.01, 0.5]),
)


@given(lattices, st.sampled_from(["fast", "reference"]))
@settings(max_examples=200, deadline=None)
def test_predict_encode_matches_the_oracle(q, kmode):
    quant = QuantizerConfig()
    with forced(kmode):
        got, want = predict_encode(q, quant), _predict_encode_oracle(q, quant)
    _same(got[0], want[0])
    _same(got[1], want[1])


@given(fields(), bounds, st.sampled_from([8, 16]))
@settings(max_examples=120, deadline=None)
def test_the_front_end_end_to_end_matches_the_oracle(x, eb, bits):
    quant = QuantizerConfig(bits=bits)
    q = prequantize(x, eb).q
    _same(q, _prequantize_oracle(x, eb).q)
    got, want = predict_encode(q, quant), _predict_encode_oracle(q, quant)
    _same(got[0], want[0])
    _same(got[1], want[1])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_lattice_limit_edge_matches_the_oracle(dtype):
    # |q| == 2**53 goes raw, 2**53 - 2 stays (eb 0.5: q == d exactly)
    edge = [2.0**53, -(2.0**53), 2.0**53 - 2, 2.0**54, 2.0**52 + 2, 0.0]
    x = np.array(edge * 4, dtype=dtype).reshape(4, len(edge))
    got, want = prequantize(x, 0.5), _prequantize_oracle(x, 0.5)
    _same(got.q, want.q)
    _same(got.raw_idx, want.raw_idx)
    assert got.n_raw >= 4


@pytest.mark.parametrize("kmode", ["fast", "reference"])
@pytest.mark.parametrize("bits", [8, 16])
def test_predict_encode_at_the_code_range_edges(bits, kmode):
    quant = QuantizerConfig(bits=bits)
    r, cap = quant.radius, quant.capacity
    # a 1D lattice's residuals are its first differences
    delta = np.array([0, -r - 1, -r, -r + 1, cap - r - 1, cap - r, cap - r + 1, 3] * 3)
    q = np.cumsum(delta).astype(np.int64)
    with forced(kmode):
        got, want = predict_encode(q, quant), _predict_encode_oracle(q, quant)
    _same(got[0], want[0])
    _same(got[1], want[1])
    # codable is -r < delta < cap - r
    assert got[1].tolist() == [-r - 1, -r, cap - r, cap - r + 1] * 3

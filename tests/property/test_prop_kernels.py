"""Differential property tests: fast kernels are bit-exact vs reference.

The dispatch registry's contract (see ``repro/kernels/dispatch.py``) is
that every ``REPRO_KERNELS=fast`` kernel returns values identical to the
reference implementation for every accepted input, and raises the same
exception class for every rejected one.  These tests drive each
registered kernel pair with hypothesis-generated inputs — including
adversarial payloads — and compare bytes, arrays, and failure classes
across ``forced("reference")`` / ``forced("fast")``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.codec.registry import get_codec
from repro.config import QuantizerConfig
from repro.encoding.bitio import pack_codes, unpack_codes
from repro.encoding.huffman import HuffmanCodec, HuffmanTable
from repro.errors import ReproError
from repro.kernels import forced, huffman_fast
from repro.lossless.deflate import deflate, inflate
from repro.lossless.lz77 import LZ77Encoder
from repro.sz.pqd import pqd_compress, pqd_decompress
from tests.lanes import (
    CHAIN_WALK_ONLY,
    TINY_LANES,
    lane_constants,
    matches_reference,
    outcome,
)

Q = QuantizerConfig()

symbol_arrays = hnp.arrays(
    dtype=np.int64,
    shape=st.integers(min_value=1, max_value=3000),
    elements=st.integers(min_value=0, max_value=600),
)


def _outcome(fn):
    """Run ``fn``; normalize to ('ok', value) or the ReproError class name."""
    try:
        return ("ok", fn())
    except ReproError as err:
        return type(err).__name__


def _same_outcome(fn, compare=lambda a, b: a == b):
    ref = _outcome(lambda: fn())
    with forced("fast"):
        fast = _outcome(lambda: fn())
    if isinstance(ref, tuple) and isinstance(fast, tuple):
        assert compare(ref[1], fast[1]), "fast kernel diverged on value"
    else:
        assert ref == fast, f"failure taxonomy diverged: {ref} vs {fast}"
    return ref


@given(symbol_arrays)
@settings(max_examples=50, deadline=None)
def test_huffman_encode_decode_identical(symbols):
    codec = HuffmanCodec(HuffmanTable.from_symbols(symbols))
    with forced("reference"):
        payload_ref, nbits_ref = codec.encode(symbols)
    with forced("fast"):
        payload_fast, nbits_fast = codec.encode(symbols)
    assert payload_ref == payload_fast and nbits_ref == nbits_fast
    with forced("reference"):
        dec_ref = codec.decode(payload_ref, symbols.size)
    with forced("fast"):
        dec_fast = codec.decode(payload_ref, symbols.size)
    assert np.array_equal(dec_ref, dec_fast)
    assert np.array_equal(dec_ref, symbols)


@given(symbol_arrays, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_huffman_decode_corrupt_same_taxonomy(symbols, seed):
    """Bit-flipped / truncated payloads fail (or decode) identically."""
    codec = HuffmanCodec(HuffmanTable.from_symbols(symbols))
    payload, _ = codec.encode(symbols)
    rng = np.random.default_rng(seed)
    corrupt = bytearray(payload)
    for _ in range(min(3, len(corrupt))):
        corrupt[rng.integers(len(corrupt))] ^= 1 << rng.integers(8)
    for bad in (bytes(corrupt), payload[: max(1, len(payload) - 1)]):
        with forced("reference"):
            ref = _outcome(lambda: codec.decode(bad, symbols.size).tolist())
        with forced("fast"):
            fast = _outcome(lambda: codec.decode(bad, symbols.size).tolist())
        assert ref == fast


@given(
    symbol_arrays,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["clean", "flip", "truncate", "append", "lower"]),
)
@settings(max_examples=120, deadline=None)
def test_huffman_lanes_same_outcome_as_chain_walk(symbols, seed, damage):
    """With the lane constants shrunk, every example crosses many lanes:
    value, exception class and message equal the chain walk's, value and
    class the reference twin's."""
    codec = HuffmanCodec(HuffmanTable.from_symbols(symbols))
    payload, _ = codec.encode(symbols)
    rng = np.random.default_rng(seed)
    n = symbols.size
    bad = bytearray(payload)
    if damage == "flip":
        for _ in range(min(3, len(bad))):
            bad[rng.integers(len(bad))] ^= 1 << rng.integers(8)
    elif damage == "truncate":
        bad = bad[: max(1, len(bad) - int(rng.integers(1, 6)))]
    elif damage == "append":
        bad += rng.integers(0, 256, 5, dtype=np.uint8).tobytes()
        n += int(rng.integers(0, 12))
    elif damage == "lower":
        n = max(1, n - int(rng.integers(1, n + 1)))
    bad = bytes(bad)
    with forced("fast"):
        with lane_constants(**TINY_LANES):
            lanes = outcome(lambda: codec.decode(bad, n))
        with lane_constants(**CHAIN_WALK_ONLY):
            chain = outcome(lambda: codec.decode(bad, n))
    assert lanes == chain
    matches_reference(codec, bad, n, lanes)


@given(
    hnp.arrays(
        dtype=np.int64,
        shape=st.integers(min_value=1, max_value=500),
        elements=st.integers(min_value=1, max_value=57),
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_pack_unpack_codes_identical(lengths, seed):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 1 << 57, lengths.size).astype(np.uint64) & (
        (np.uint64(1) << lengths.astype(np.uint64)) - np.uint64(1)
    )
    with forced("reference"):
        ref = pack_codes(codes, lengths)
    with forced("fast"):
        fast = pack_codes(codes, lengths)
    assert ref == fast
    payload, _ = ref
    with forced("reference"):
        vals_ref = unpack_codes(payload, lengths)
    with forced("fast"):
        vals_fast = unpack_codes(payload, lengths)
    assert np.array_equal(vals_ref, vals_fast)
    assert np.array_equal(vals_ref.astype(np.uint64), codes)


@given(st.binary(min_size=0, max_size=6000))
@settings(max_examples=40, deadline=None)
def test_lz77_deflate_inflate_identical(data):
    for encoder in (LZ77Encoder.best_speed(), LZ77Encoder.best_compression()):
        with forced("reference"):
            tok_ref = encoder.parse(data)
            blob_ref = deflate(data, encoder)
        with forced("fast"):
            tok_fast = encoder.parse(data)
            blob_fast = deflate(data, encoder)
        assert np.array_equal(tok_ref.kinds, tok_fast.kinds)
        assert np.array_equal(tok_ref.values, tok_fast.values)
        assert np.array_equal(tok_ref.dists, tok_fast.dists)
        assert blob_ref == blob_fast
        with forced("reference"):
            body_ref = inflate(blob_ref)
        with forced("fast"):
            body_fast = inflate(blob_ref)
        assert body_ref == body_fast == data


@given(
    st.binary(min_size=8, max_size=2000),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_inflate_corrupt_same_taxonomy(data, seed):
    blob = bytearray(deflate(data))
    rng = np.random.default_rng(seed)
    for _ in range(3):
        blob[rng.integers(len(blob))] ^= 1 << rng.integers(8)
    bad = bytes(blob)
    with forced("reference"):
        ref = _outcome(lambda: inflate(bad))
    with forced("fast"):
        fast = _outcome(lambda: inflate(bad))
    assert ref == fast


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["text", "bytes", "runs"]),
)
@settings(max_examples=9, deadline=None)
def test_inflate_corrupt_same_taxonomy_large(seed, flavor):
    """>= 64 KB inputs whose litlen section is long enough for the lane
    decode, so damage lands in lanes, not only in the chain walk."""
    rng = np.random.default_rng(seed)
    if flavor == "text":
        n = 131072 + int(rng.integers(0, 4096))
        words = [
            bytes(rng.integers(97, 123, int(k), dtype=np.uint8))
            for k in rng.integers(2, 9, 200)
        ]
        data = b" ".join(words[i] for i in rng.integers(0, 200, n // 5))[:n]
    elif flavor == "bytes":
        n = 65536 + int(rng.integers(0, 4096))
        data = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
    else:
        n = 196608 + int(rng.integers(0, 4096))
        data = np.repeat(
            rng.integers(0, 8, n // 3, dtype=np.uint8), rng.integers(1, 6, n // 3)
        )[:n].tobytes()
    blob = deflate(data)
    with forced("reference"):
        assert inflate(blob) == data
    lane_decodes = []
    lane_decode = huffman_fast._lane_decode

    def spy(*args):
        lane_decodes.append(args[-1].size)
        return lane_decode(*args)

    huffman_fast._lane_decode = spy
    try:
        with forced("fast"):
            assert inflate(blob) == data
    finally:
        huffman_fast._lane_decode = lane_decode
    assert lane_decodes, "input too small to reach the lane decode"
    for _ in range(4):
        bad = bytearray(blob)
        for _ in range(3):
            bad[rng.integers(len(bad))] ^= 1 << rng.integers(8)
        bad = bytes(bad)
        with forced("reference"):
            ref = _outcome(lambda: inflate(bad))
        with forced("fast"):
            fast = _outcome(lambda: inflate(bad))
        assert ref == fast


pqd_fields = st.tuples(
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from([(40,), (2, 24), (2, 2), (9, 11), (3, 4, 6)]),
    st.sampled_from([np.float32, np.float64]),
    st.sampled_from(["truncate", "verbatim", "padded"]),
    st.sampled_from([1e-1, 1e-3, 1e-6, 1e-45]),
    st.sampled_from(["smooth", "spiky", "signed_zero", "nan"]),
)


@given(pqd_fields)
@settings(max_examples=60, deadline=None)
def test_pqd_sweeps_identical(params):
    seed, shape, dtype, border, precision, flavor = params
    rng = np.random.default_rng(seed)
    field = rng.normal(size=shape)
    if flavor == "spiky":
        mask = rng.random(shape) < 0.2
        field[mask] *= 1e12
    elif flavor == "signed_zero":
        field[rng.random(shape) < 0.4] = -0.0
        field[rng.random(shape) < 0.2] = 0.0
    elif flavor == "nan":
        if border == "truncate":
            return  # non-finite values are rejected before the kernel
        field[rng.random(shape) < 0.1] = np.nan
    field = field.astype(dtype)

    def run_compress():
        res = pqd_compress(field, precision, Q, border=border)
        return (
            res.codes.tobytes(),
            res.decompressed.tobytes(),
            res.border_values.tobytes(),
            res.outlier_values.tobytes(),
        )

    ref = _same_outcome(run_compress)
    if not isinstance(ref, tuple):
        return
    res = pqd_compress(field, precision, Q, border=border)

    def run_decompress():
        return pqd_decompress(
            res.codes,
            res.border_values,
            res.outlier_values,
            precision=precision,
            quant=Q,
            dtype=field.dtype,
            border=border,
        ).tobytes()

    _same_outcome(run_decompress)


@given(
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(["sz10", "sz14", "wavesz"]),
    st.sampled_from([1e-2, 1e-4]),
)
@settings(max_examples=15, deadline=None)
def test_registry_codecs_byte_identical(seed, name, eb):
    """End to end: every registry codec's payload is mode-independent."""
    rng = np.random.default_rng(seed)
    field = np.cumsum(rng.normal(size=(12, 26)), axis=1).astype(np.float32)
    codec = get_codec(name)
    with forced("reference"):
        cf_ref = codec.compress(field, eb, "vr_rel")
        out_ref = codec.decompress(cf_ref)
    with forced("fast"):
        cf_fast = codec.compress(field, eb, "vr_rel")
        out_fast = codec.decompress(cf_fast)
    assert cf_ref.payload == cf_fast.payload
    assert out_ref.tobytes() == out_fast.tobytes()

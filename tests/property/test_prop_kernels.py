"""Differential property tests: fast kernels are bit-exact vs reference.

The dispatch registry's contract (see ``repro/kernels/dispatch.py``) is
that every ``REPRO_KERNELS=fast`` kernel returns values identical to the
reference implementation for every accepted input, and raises the same
exception class for every rejected one.  These tests drive each
registered kernel pair with hypothesis-generated inputs — including
adversarial payloads — and compare bytes, arrays, and failure classes
across ``forced("reference")`` / ``forced("fast")``.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.codec.registry import get_codec
from repro.codec.stages import take_section
from repro.config import QuantizerConfig
from repro.data import load_field
from repro.encoding.bitio import pack_codes, unpack_codes
from repro.encoding.huffman import HuffmanCodec, HuffmanTable, decode_many
from repro.errors import BitstreamError, ReproError
from repro.io.container import Container
from repro.kernels import bitpack_fast, forced, huffman_fast, lz77_fast, pqd_fast
from repro.lossless.deflate import deflate, inflate
from repro.lossless.lz77 import LZ77Encoder
from repro.sz.pqd import pqd_compress, pqd_decompress
from repro.sz.wavefront_index import interior_wavefronts
from tests.lanes import (
    CHAIN_WALK_ONLY,
    GROUPS,
    TINY_LANES,
    group_steps_match,
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
    with forced("reference"):  # the ambient mode defaults to fast
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


def _batch_item(kind, symbols, damage, rng):
    """One ``(codec, payload, n)`` item of a drawn batch."""
    if kind == "single":  # one-symbol table: no kernel at all
        symbols = np.full(symbols.size, int(symbols[0]))
    elif kind == "short":  # under the shrunk floor: chain walk only
        symbols = symbols[:40]
    elif kind == "whole":  # one segment: shares a lock-step set
        symbols = symbols[:200]
    codec = HuffmanCodec(HuffmanTable.from_symbols(symbols))
    payload, _ = codec.encode(symbols)
    n = symbols.size
    bad = bytearray(payload)
    if damage == "flip" and bad:
        bad[rng.integers(len(bad))] ^= 1 << rng.integers(8)
    elif damage == "truncate":
        bad = bad[: max(1, len(bad) - int(rng.integers(1, 6)))]
    elif damage == "append":
        bad += rng.integers(0, 256, 5, dtype=np.uint8).tobytes()
        n += int(rng.integers(0, 12))
    elif damage == "count":
        n = int(rng.choice([0, -1, 8 * len(bad) + 1]))
    return codec, bytes(bad), n


@given(
    st.lists(
        st.tuples(
            symbol_arrays,
            st.sampled_from(["lanes", "whole", "whole", "short", "single"]),
            st.sampled_from(["clean", "clean", "flip", "truncate", "append", "count"]),
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
    st.sampled_from(["fast", "reference"]),
)
@settings(max_examples=150, deadline=None)
def test_huffman_batch_equals_the_per_item_loop(draws, seed, share, mode):
    """A batch decodes to exactly ``[decode(item) for item in items]`` or
    raises what its first failing item alone raises, class and message.
    Lanes are shrunk so long streams cross many segments and short ones
    share lock-step sets; a shared codec gives a set one table."""
    rng = np.random.default_rng(seed)
    items = [_batch_item(kind, syms, damage, rng) for syms, kind, damage in draws]
    if share and len(items) > 1 and items[0][0].table.symbols.size > 1:
        codec, payload, n = items[0]
        items.insert(1, (codec, payload, n))  # the same codec twice
    shrunk = {
        **TINY_LANES, "_SHARED_MIN_SYMBOLS": 48, "_LANE_MIN_SYMBOLS": 96,
        "_LANES": 64, "_SEGMENT_BITS": 1024,
    }
    with forced(mode), lane_constants(**shrunk):
        alone = [outcome(lambda c=c, p=p, n=n: c.decode(p, n)) for c, p, n in items]
        batch = outcome(
            lambda: np.concatenate([np.empty(0, np.int64), *decode_many(items)])
        )
        sizes = [len(o[1]) // 8 for o in alone if o[0] == "ok"]
    failed = [o for o in alone if o[0] != "ok"]
    if failed:
        assert batch == failed[0]
    else:
        assert batch == ("ok", b"".join(o[1] for o in alone))
        assert sum(sizes) * 8 == len(batch[1])


def _skewed(n, p, seed):
    """``n`` geometric symbols: short codes, one bit for the top symbol
    at high ``p`` -- streams whose lanes take group steps."""
    return np.random.default_rng(seed).geometric(p, n).astype(np.int64)


@given(
    st.integers(min_value=2, max_value=3000),
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["clean", "flip", "truncate", "append", "lower"]),
    st.sampled_from([3, 6, 10, 12]),
)
@settings(max_examples=120, deadline=None)
def test_huffman_group_steps_same_outcome(n, p, seed, damage, width):
    """Group steps forced on at several window widths, lane constants
    shrunk: value, exception class and message equal the single-code
    steps' and the chain walk's, value and class the reference twin's."""
    symbols = _skewed(n, p, seed)
    codec = HuffmanCodec(HuffmanTable.from_symbols(symbols))
    payload, _ = codec.encode(symbols)
    rng = np.random.default_rng(seed)
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
    with lane_constants(**TINY_LANES, _GROUP_BITS=width):
        group_steps_match(codec, bytes(bad), n)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=40, max_value=400),
            st.sampled_from([0.1, 0.5, 0.9, None]),  # None: a flat alphabet
            st.sampled_from(["clean", "clean", "flip", "truncate"]),
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["fast", "reference"]),
)
@settings(max_examples=80, deadline=None)
def test_huffman_group_batches_equal_the_per_item_loop(draws, seed, mode):
    """Lock-step sets mixing group-step and single-code streams decode to
    exactly the per-item loop, or raise what the first failing item
    alone raises, class and message."""
    rng = np.random.default_rng(seed)
    items = []
    for n, p, damage in draws:
        symbols = rng.integers(0, 200, n) if p is None else _skewed(n, p, seed + n)
        items.append(_batch_item("whole", symbols, damage, rng))
    shrunk = {
        **TINY_LANES, "_SHARED_MIN_SYMBOLS": 32, "_LANE_MIN_SYMBOLS": 64,
        "_LANES": 64, "_SEGMENT_BITS": 1024, **GROUPS,
    }
    with forced(mode), lane_constants(**shrunk):
        alone = [outcome(lambda c=c, p=p, n=n: c.decode(p, n)) for c, p, n in items]
        batch = outcome(
            lambda: np.concatenate([np.empty(0, np.int64), *decode_many(items)])
        )
    failed = [o for o in alone if o[0] != "ok"]
    if failed:
        assert batch == failed[0]
    else:
        assert batch == ("ok", b"".join(o[1] for o in alone))


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


@contextmanager
def _block_codes(n):
    """Scoped override of the fast packer's block length."""
    saved = bitpack_fast._BLOCK_CODES
    bitpack_fast._BLOCK_CODES = n
    try:
        yield
    finally:
        bitpack_fast._BLOCK_CODES = saved


def _fitting_codes(lengths, rng):
    """Random codes of exactly the given widths, top bit set half the time."""
    widths = lengths.astype(np.uint64)
    codes = rng.integers(0, 1 << 57, lengths.size).astype(np.uint64)
    codes &= (np.uint64(1) << widths) - np.uint64(1)
    top = rng.random(lengths.size) < 0.5
    codes[top] |= np.uint64(1) << (widths[top] - np.uint64(1))
    return codes


def _same_packing(codes, lengths):
    with forced("reference"):
        ref = pack_codes(codes, lengths)
    with forced("fast"):
        fast = pack_codes(codes, lengths)
    assert ref == fast
    assert np.array_equal(unpack_codes(ref[0], lengths).astype(np.uint64), codes)


BLOCKS = [1, 3, 7, 64]


def _edge_lengths(kind, n, rng):
    if kind == "ones":
        return np.ones(n, dtype=np.int64)
    if kind == "max":
        return np.full(n, 57, dtype=np.int64)
    if kind == "straddle":
        # 57-bit codes between short ones: offsets wander through every
        # value mod 64, so wide codes cross word edges inside and at the
        # ends of blocks
        return np.where(rng.random(n) < 0.5, 57, rng.integers(1, 12, n))
    return rng.integers(1, 58, n)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("kind", ["ones", "max", "straddle", "mixed"])
def test_pack_codes_block_edges(block, kind):
    """Streams of one code and of block - 1, block and block + 1 codes
    (and a few blocks more), the block length shrunk so every stream
    crosses its edges."""
    rng = np.random.default_rng(block * 31 + len(kind))
    with _block_codes(block):
        for n in sorted({1, max(1, block - 1), block, block + 1, 5 * block + 2}):
            lengths = _edge_lengths(kind, n, rng)
            _same_packing(_fitting_codes(lengths, rng), lengths)


@pytest.mark.parametrize("block", BLOCKS)
def test_pack_codes_straddles_at_block_edges(block):
    """57-bit codes that cross a word edge as the last code of a block and
    as the first code of the next; the first code's width moves where
    they start across 57 offsets in their word."""
    rng = np.random.default_rng(block)
    with _block_codes(block):
        for first in range(1, 58):
            lengths = np.full(2 * block + 1, 57, dtype=np.int64)
            lengths[0] = first
            lengths[1 : block - 1] = 1
            _same_packing(_fitting_codes(lengths, rng), lengths)


@given(
    st.sampled_from(BLOCKS),
    hnp.arrays(
        dtype=np.int64,
        shape=st.integers(min_value=1, max_value=300),
        elements=st.integers(min_value=1, max_value=57),
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_pack_codes_small_blocks_identical(block, lengths, seed):
    with _block_codes(block):
        _same_packing(_fitting_codes(lengths, np.random.default_rng(seed)), lengths)


@pytest.mark.parametrize("name", ["wavesz", "sz14", "wavesz-dp"])
def test_pack_codes_real_code_streams_at_shipped_block(name):
    """A codec's quant codes, long enough to cross several blocks of the
    shipped length, re-encode to the bytes it stored in both modes."""
    payload = get_codec(name).compress(load_field("CESM-ATM", "CLDLOW"), 1e-3, "vr_rel")
    container = Container.from_bytes(payload.payload)
    section = ("codes", None) if name == "wavesz" else ("huffman_codes", "huffman_codes_gz")
    stored = take_section(
        container, section[0], "codes_gzipped", gz_name=section[1]
    )
    codec = HuffmanCodec(HuffmanTable.from_bytes(container.get("huffman_table"))[0])
    syms = codec.decode(stored, container.header["n_codes"])
    assert syms.size > 3 * bitpack_fast._BLOCK_CODES
    for mode in ("reference", "fast"):
        with forced(mode):
            assert codec.encode(syms)[0] == stored


@pytest.mark.parametrize("mode", ["reference", "fast"])
def test_pack_codes_refuses_a_code_wider_than_its_length(mode):
    with forced(mode):
        with pytest.raises(BitstreamError, match="value 3 does not fit in 1 bits"):
            pack_codes([1, 3], [1, 1])


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
    lane_set = huffman_fast._lane_set

    def spy(lanes, pieces):
        lane_decodes.append(len(pieces))
        return lane_set(lanes, pieces)

    huffman_fast._lane_set = spy
    try:
        with forced("fast"):
            assert inflate(blob) == data
    finally:
        huffman_fast._lane_set = lane_set
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


def _colliding_trigrams(rng, k):
    """``k`` distinct 3-byte strings with one 18-bit reference hash
    ``(b0 << 10) ^ (b1 << 5) ^ b2``: flipping ``x`` into the low bits of
    ``b1`` and ``x << 5`` into ``b2`` cancels, as does ``y`` into ``b0``
    against ``y << 5`` into ``b1``."""
    b0, b1, b2 = (int(v) for v in rng.integers(0, 256, 3))
    out = {
        bytes([b0 ^ y, b1 ^ x ^ ((y << 5) & 0xFF), b2 ^ ((x << 5) & 0xFF)])
        for x in range(8)
        for y in range(8)
    }
    hashes = {(t[0] << 10) ^ (t[1] << 5) ^ t[2] for t in out}
    assert len(out) == 64 and len(hashes) == 1
    return [out.pop() for _ in range(k)]


def _structured_bytes(flavor, rng):
    """Inputs with the structure ``st.binary`` never has: a full window,
    maximal matches, long swallowed chains, colliding chains."""
    def noise(n):
        return rng.integers(0, 256, n, dtype=np.uint8).tobytes()

    if flavor == "zero_runs":
        parts = []
        for _ in range(int(rng.integers(2, 5))):
            parts += [noise(int(rng.integers(1, 40))),
                      bytes(int(rng.integers(3 * 258 + 1, 6 * 258)))]
        return b"".join(parts) + noise(int(rng.integers(0, 4)))
    if flavor == "periodic":
        parts = []
        for period in (2, 3, 300):
            unit = noise(period)
            parts += [unit * (int(rng.integers(900, 2400)) // period + 2),
                      noise(int(rng.integers(0, 9)))]
        return b"".join(parts)
    if flavor == "far_copy":
        # a block again at distance 32767 / 32768 / 32769: just inside,
        # exactly at and just outside the window
        parts = []
        for dist in (32767, 32768, 32769):
            block = noise(int(rng.integers(12, 60)))
            parts += [block, noise(dist - len(block)), block]
        return b"".join(parts)
    if flavor == "collisions":
        grams = _colliding_trigrams(rng, int(rng.integers(2, 7)))
        picks = rng.integers(0, len(grams), int(rng.integers(300, 900)))
        return b"".join(grams[i] for i in picks)
    if flavor == "tail_match":
        block = noise(int(rng.integers(260, 700)))
        tail = noise(int(rng.integers(0, 3)))  # the match ends 1-3 from the end
        return block + noise(int(rng.integers(5, 50))) + block + tail
    assert flavor == "huffman"
    # quant codes of a smooth field: geometric around the radius, with the
    # runs of the dominant code that make the coded stream run-heavy
    n = int(rng.integers(20_000, 260_000))
    steps = rng.geometric(float(rng.uniform(0.2, 0.9)), n) - 1
    syms = 32768 + steps * rng.choice([-1, 1], n)
    syms[rng.random(n) < 0.3] = 32768
    payload, _ = HuffmanCodec(HuffmanTable.from_symbols(syms)).encode(syms)
    return payload[:100_000]


def _exact_starts(data, window):
    """Positions with an equal trigram at most ``window`` back (brute force)."""
    last = {}
    count = 0
    for p in range(len(data) - 2):
        gram = data[p : p + 3]
        if p - last.get(gram, -window - 1) <= window:
            count += 1
        last[gram] = p
    return count


@pytest.mark.parametrize(
    "flavor",
    ["zero_runs", "periodic", "far_copy", "collisions", "tail_match", "huffman"],
)
@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=3, deadline=None)
def test_lz77_structured_identical_and_work_bounded(flavor, seed):
    data = _structured_bytes(flavor, np.random.default_rng(seed))
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
        for mode in ("reference", "fast"):
            with forced(mode):
                assert inflate(blob_ref) == data
        # Work, as counts that repeat exactly: the loop visits exactly the
        # positions where a match can start, walks a chain at most once
        # per visit, and steps over a swallowed entry at most once ever.
        counts = lz77_fast._parse(encoder, data)[1]
        matches = tok_ref.kinds == 1
        if flavor == "zero_runs":
            assert tok_ref.values[matches].max() == 258
        if flavor == "far_copy":
            far = np.isin([32767, 32768, 32769], tok_ref.dists[matches])
            assert far.tolist() == [True, True, False]
        assert counts["starts"] == _exact_starts(data, encoder.window)
        assert counts["walks"] <= counts["starts"]
        assert counts["walks"] >= int(matches.sum())
        assert counts["skipped"] <= int((tok_ref.values[matches] - 1).sum())
        if encoder.insert_all:
            assert counts["skipped"] == 0


def _sweep_outcome(field, precision, border):
    def run():
        res = pqd_compress(field, precision, Q, border=border)
        return (
            res.codes.tobytes(),
            res.decompressed.tobytes(),
            res.border_values.tobytes(),
            res.outlier_values.tobytes(),
        )

    return _same_outcome(run)


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

    ref = _sweep_outcome(field, precision, border)
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


# Shapes with more fronts than any speculative chunk of the fast compress
# sweep (702, 127 and 49 interior fronts; the longest chunk is 32).
LONG_SWEEPS = [(6, 700), (40, 90), (5, 9, 40)]


def _front_corners(shape, border):
    """Field coordinates of the first point of each interior front."""
    if border == "padded":
        ext = tuple(n + 1 for n in shape)
        first = np.array([f[0] for f in interior_wavefronts(ext, 1)])
        return np.array(np.unravel_index(first, ext)).T - 1
    first = np.array([f[0] for f in interior_wavefronts(shape, 1)])
    return np.array(np.unravel_index(first, shape)).T


def _smooth(shape, dtype, rng):
    axes = np.meshgrid(*(np.linspace(0, 3, n) for n in shape), indexing="ij")
    waves = sum(np.sin(a + i) for i, a in enumerate(axes))
    return (waves + 1e-3 * rng.normal(size=shape)).astype(dtype)


def _step(field, corner, height):
    """Raise the orthant behind ``corner``.  The Lorenzo stencil predicts
    a separable step exactly everywhere but at its corner, so exactly
    that point fails — and its *stored* value feeds predictable
    neighbours, which a spike (whose neighbours all fail too) never
    tests."""
    field[tuple(slice(int(c), None) for c in corner)] += height


def _counting_sweep(monkeypatch):
    """Record ``(fronts issued, fronts)`` of every speculative sweep."""
    issued = []
    sweep = pqd_fast._speculative_sweep

    def spy(*args, **kwargs):
        out = sweep(*args, **kwargs)
        issued.append((out, kwargs["plan"].n_fronts - kwargs["skip_first"]))
        return out

    monkeypatch.setattr(pqd_fast, "_speculative_sweep", spy)
    return issued


@pytest.mark.parametrize("border", ["truncate", "verbatim", "padded"])
@pytest.mark.parametrize("shape", LONG_SWEEPS)
def test_pqd_long_sweep_failures_by_construction(shape, border, monkeypatch):
    """One failing point per placement: first front, last front, and the
    fronts on both sides of every chunk boundary — of the clean schedule
    (8, 24, 56, 88, ...) and, with an earlier failure in front 3, of the
    schedule after the re-arm."""
    issued = _counting_sweep(monkeypatch)
    rng = np.random.default_rng(7)
    corners = _front_corners(shape, border)
    nf = len(corners)

    def around_boundaries(start):
        # fronts next to each boundary of an all-clean run from ``start``
        # (+-1 more: a padded sweep skips its first front)
        k, chunk, out = start, pqd_fast._SPEC_START, {start - 1, start, start + 1}
        while k < min(nf, start + 130):
            k += chunk
            chunk = min(2 * chunk, pqd_fast._SPEC_FRONTS)
            out |= {k - 2, k - 1, k, k + 1}
        return sorted(j for j in out if 0 <= j < nf)

    singles = [(j,) for j in sorted({*around_boundaries(0), nf - 1})]
    rearmed = 3 + 1 + pqd_fast._SPEC_REARM
    doubles = [(3, j) for j in around_boundaries(rearmed) if j > 3]
    for dtype, placements in (
        (np.float32, singles + doubles),
        (np.float64, singles[::3] + doubles[::3]),
    ):
        base = _smooth(shape, dtype, rng)
        assert isinstance(_sweep_outcome(base, 1e-3, border), tuple)
        assert issued[-1][0] == issued[-1][1], "clean: each front issued once"
        for fronts in placements:
            field = base.copy()
            for j in fronts:
                _step(field, corners[j], 1e4)
            _sweep_outcome(field, 1e-3, border)
            assert issued[-1][0] >= issued[-1][1]


@pytest.mark.parametrize("border", ["truncate", "verbatim", "padded"])
@pytest.mark.parametrize("shape", LONG_SWEEPS)
def test_pqd_every_front_outlier_work_bound(shape, border, monkeypatch):
    """An outlier in every front: one short chunk is all speculation costs."""
    issued = _counting_sweep(monkeypatch)
    field = _smooth(shape, np.float32, np.random.default_rng(9))
    for corner in _front_corners(shape, border):
        _step(field, corner, 100.0)
    ref = _sweep_outcome(field, 1e-3, border)
    n_outliers = len(ref[1][3]) // field.itemsize
    got, fronts = issued[-1]
    assert n_outliers >= fronts
    assert fronts <= got <= 1.25 * fronts


@given(
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(LONG_SWEEPS),
    st.sampled_from([np.float32, np.float64]),
    st.sampled_from(["truncate", "verbatim", "padded"]),
    st.sampled_from(["nan", "inf", "huge", "capacity", "mixed"]),
    st.sampled_from([0.0005, 0.005, 0.05]),
)
@settings(max_examples=40, deadline=None)
@pytest.mark.filterwarnings(  # Inf - Inf in both twins' stencil sums
    "ignore:invalid value encountered in (add|subtract):RuntimeWarning"
)
def test_pqd_long_sweep_hostile_lanes(seed, shape, dtype, border, flavor, density):
    """NaN / Inf / >= 2**63 quotient lanes and steps that land on both
    sides of the capacity limit, scattered over sweeps long enough to be
    speculated: same bytes as the reference (and no invalid cast —
    pyproject.toml makes that warning an error)."""
    rng = np.random.default_rng(seed)
    field = _smooth(shape, dtype, rng)
    precision = 1e-3
    where = np.argwhere(rng.random(shape) < density)
    if flavor in ("capacity", "mixed"):
        # |diff| / p within a few bins of capacity - 1 at each corner
        for corner in where[: len(where) // (1 if flavor == "capacity" else 2)]:
            height = (Q.capacity + rng.uniform(-3, 3)) * precision
            _step(field, corner, height * rng.choice([-1, 1]))
    if flavor != "capacity":
        values = {
            "nan": [np.nan],
            "inf": [np.inf, -np.inf],
            "huge": [1e30, -1e30],  # |diff| / p >= 2**63
            "mixed": [np.nan, np.inf, -np.inf, 1e30, -1e30],
        }[flavor]
        if border == "truncate":  # non-finite input never reaches the kernel
            values = [v for v in values if np.isfinite(v)]
        for point in where[len(where) // 2 :] if values else ():
            field[tuple(point)] = rng.choice(values)
    _sweep_outcome(field, precision, border)


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

"""Property tests: Huffman codec correctness and optimality bounds."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.encoding import HuffmanCodec, HuffmanTable, entropy_bits, symbol_histogram
from repro.encoding.huffman import _code_lengths

symbol_arrays = hnp.arrays(
    dtype=np.int64,
    shape=st.integers(min_value=1, max_value=2000),
    elements=st.integers(min_value=0, max_value=500),
)


@given(symbol_arrays)
@settings(max_examples=60, deadline=None)
def test_roundtrip(symbols):
    codec = HuffmanCodec(HuffmanTable.from_symbols(symbols))
    payload, nbits = codec.encode(symbols)
    assert (codec.decode(payload, symbols.size) == symbols).all()
    assert len(payload) == (nbits + 7) // 8


@given(symbol_arrays)
@settings(max_examples=60, deadline=None)
def test_prefix_free_and_complete(symbols):
    table = HuffmanTable.from_symbols(symbols)
    assert table.is_prefix_free_and_complete()


@given(symbol_arrays)
@settings(max_examples=60, deadline=None)
def test_entropy_bound(symbols):
    """Expected code length in [H, H+1) — Huffman's optimality window."""
    vals, cnts = symbol_histogram(symbols)
    if vals.size < 2:
        return
    codec = HuffmanCodec(HuffmanTable.from_frequencies(vals, cnts))
    avg = codec.encoded_size_bits(symbols) / symbols.size
    H = entropy_bits(cnts)
    assert H - 1e-9 <= avg < H + 1.0


@given(symbol_arrays)
@settings(max_examples=40, deadline=None)
def test_table_serialization_roundtrip(symbols):
    t = HuffmanTable.from_symbols(symbols)
    t2, _ = HuffmanTable.from_bytes(t.to_bytes())
    assert (t2.symbols == t.symbols).all()
    assert (t2.lengths == t.lengths).all()


# -- table construction vs the retired heap builder ----------------------
#
# ``_code_lengths`` is a two-queue merge; the binary-heap builder it
# replaced and the per-entry ``assign_codes`` loop stay here as oracles.
# Huffman trees are not unique under ties, and the wire format stores
# lengths, so "same lengths as the heap" is the byte-identity contract.


def _heap_code_lengths(counts):
    n = counts.size
    if n == 1:
        return np.array([1], dtype=np.int64)
    parent = [-1] * (2 * n - 1)
    heap = [(int(c), i) for i, c in enumerate(counts)]
    heapq.heapify(heap)
    for next_id in range(n, 2 * n - 1):
        w1, a = heapq.heappop(heap)
        w2, b = heapq.heappop(heap)
        parent[a] = parent[b] = next_id
        heapq.heappush(heap, (w1 + w2, next_id))
    depths = np.zeros(n, dtype=np.int64)
    for leaf in range(n):
        node = leaf
        while parent[node] != -1:
            node = parent[node]
            depths[leaf] += 1
    return depths


def _loop_assign_codes(table):
    codes = np.zeros(table.symbols.size, dtype=np.uint64)
    code = 0
    prev_len = int(table.lengths[0]) if table.symbols.size else 0
    for i, li in enumerate(table.lengths.tolist()):
        code <<= li - prev_len
        codes[i] = code
        code += 1
        prev_len = li
    return codes


def _check_against_oracles(counts):
    counts = np.asarray(counts, dtype=np.int64)
    lengths = _code_lengths(counts)
    assert lengths.dtype == np.int64
    assert np.array_equal(lengths, _heap_code_lengths(counts))
    if counts.size > 1:  # Kraft sum exactly 1, in integers
        deepest = int(lengths.max())
        assert sum(1 << (deepest - l) for l in lengths.tolist()) == 1 << deepest
    table = HuffmanTable.from_frequencies(np.arange(counts.size), counts)
    codes = table.assign_codes()
    assert codes.dtype == np.uint64
    assert np.array_equal(codes, _loop_assign_codes(table))


_sizes = st.integers(min_value=1, max_value=400)
tied_counts = st.one_of(
    # all equal
    st.builds(lambda n, c: np.full(n, c), _sizes, st.integers(1, 1000)),
    # powers of two: every merge weight collides with a leaf weight
    hnp.arrays(np.int64, _sizes, elements=st.integers(0, 20)).map(
        lambda e: 1 << e
    ),
    # 1-heavy: the tail of a quantization-code histogram
    hnp.arrays(np.int64, _sizes, elements=st.sampled_from([1, 1, 1, 1, 2, 3])),
    # one dominant symbol over a tied tail
    st.builds(
        lambda tail, at, big: np.insert(tail, at % (tail.size + 1), big),
        hnp.arrays(np.int64, _sizes, elements=st.integers(1, 4)),
        st.integers(0, 400),
        st.integers(10**4, 10**9),
    ),
    # few distinct weights, no structure
    hnp.arrays(np.int64, _sizes, elements=st.integers(1, 12)),
)


@given(tied_counts)
@settings(max_examples=300, deadline=None)
def test_code_lengths_match_heap_builder_under_ties(counts):
    _check_against_oracles(counts)


@pytest.mark.parametrize(
    "counts",
    [
        [7],
        [5, 5],
        [1, 10**12],
        # Fibonacci weights: every merge is leaf + running total, one level each
        [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377],
    ],
    ids=["one", "two-tied", "two-skewed", "fibonacci"],
)
def test_code_lengths_small_tables(counts):
    _check_against_oracles(counts)


def test_code_lengths_full_16bit_alphabet():
    rng = np.random.default_rng(7)
    counts = rng.geometric(0.3, 65_536)  # heavy ties at 1, 2, 3
    _check_against_oracles(counts)
    _check_against_oracles(np.ones(65_536, dtype=np.int64))

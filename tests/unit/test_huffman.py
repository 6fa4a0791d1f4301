"""Unit tests for the customized canonical Huffman codec."""

import numpy as np
import pytest

from repro.encoding import HuffmanCodec, HuffmanTable, entropy_bits, symbol_histogram
from repro.errors import HuffmanError


def _codec_for(symbols):
    table = HuffmanTable.from_symbols(np.asarray(symbols))
    return HuffmanCodec(table)


class TestTableConstruction:
    def test_two_symbols_get_one_bit_each(self):
        t = HuffmanTable.from_frequencies(np.array([7, 9]), np.array([100, 50]))
        assert list(t.lengths) == [1, 1]

    def test_skewed_distribution_orders_lengths(self):
        t = HuffmanTable.from_frequencies(
            np.array([1, 2, 3, 4]), np.array([100, 30, 10, 1])
        )
        # Most frequent symbol gets the shortest code.
        by_symbol = dict(zip(t.symbols.tolist(), t.lengths.tolist()))
        assert by_symbol[1] <= by_symbol[2] <= by_symbol[3]

    def test_single_symbol_length_one(self):
        t = HuffmanTable.from_symbols(np.full(5, 42))
        assert list(t.symbols) == [42]
        assert list(t.lengths) == [1]

    def test_kraft_equality(self):
        rng = np.random.default_rng(0)
        syms = rng.geometric(0.2, 5000)
        t = HuffmanTable.from_symbols(syms)
        assert t.is_prefix_free_and_complete()

    def test_canonical_codes_are_prefix_free(self):
        rng = np.random.default_rng(1)
        t = HuffmanTable.from_symbols(rng.integers(0, 40, 3000))
        codes = t.assign_codes()
        entries = list(zip(codes.tolist(), t.lengths.tolist()))
        for i, (ci, li) in enumerate(entries):
            for j, (cj, lj) in enumerate(entries):
                if i == j:
                    continue
                if li <= lj:
                    assert (cj >> (lj - li)) != ci, "prefix violation"

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(HuffmanError):
            HuffmanTable.from_frequencies(np.array([1]), np.array([0]))

    def test_optimality_vs_entropy(self):
        """Huffman expected length within 1 bit of entropy (classic bound)."""
        rng = np.random.default_rng(2)
        syms = rng.geometric(0.35, 20000)
        vals, cnts = symbol_histogram(syms)
        t = HuffmanTable.from_frequencies(vals, cnts)
        codec = HuffmanCodec(t)
        avg_len = codec.encoded_size_bits(syms) / syms.size
        H = entropy_bits(cnts)
        assert H <= avg_len < H + 1.0


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        t = HuffmanTable.from_symbols(rng.integers(0, 500, 4000))
        t2, consumed = HuffmanTable.from_bytes(t.to_bytes())
        assert consumed == len(t.to_bytes())
        assert (t2.symbols == t.symbols).all()
        assert (t2.lengths == t.lengths).all()

    def test_empty_table_roundtrip(self):
        t = HuffmanTable(np.empty(0, np.int64), np.empty(0, np.int64))
        t2, _ = HuffmanTable.from_bytes(t.to_bytes())
        assert t2.symbols.size == 0

    def test_bad_magic_rejected(self):
        with pytest.raises(HuffmanError):
            HuffmanTable.from_bytes(b"XXXX" + b"\x00" * 8)

    def test_corrupt_count_rejected(self):
        t = HuffmanTable.from_symbols(np.array([1, 1, 2, 3]))
        blob = bytearray(t.to_bytes())
        blob[9] ^= 0xFF  # clobber a per-length count
        with pytest.raises(HuffmanError):
            HuffmanTable.from_bytes(bytes(blob))


class TestCodec:
    def test_roundtrip_geometric(self):
        rng = np.random.default_rng(4)
        syms = rng.geometric(0.3, 50000) + 32760  # quant-code-like alphabet
        c = _codec_for(syms)
        payload, bits = c.encode(syms)
        assert (c.decode(payload, syms.size) == syms).all()
        assert len(payload) == (bits + 7) // 8

    def test_roundtrip_uniform(self):
        rng = np.random.default_rng(5)
        syms = rng.integers(0, 256, 10000)
        c = _codec_for(syms)
        payload, _ = c.encode(syms)
        assert (c.decode(payload, syms.size) == syms).all()

    def test_roundtrip_with_deep_codes(self):
        # Exponential frequency fall-off forces codes deeper than the
        # 12-bit fast decode table.
        syms = np.concatenate(
            [np.full(1 << i, i) for i in range(18)]
        )
        c = _codec_for(syms)
        assert c.table.max_length > 12
        payload, _ = c.encode(syms)
        assert (c.decode(payload, syms.size) == syms).all()

    def test_single_symbol_stream(self):
        syms = np.full(17, 9)
        c = _codec_for(syms)
        payload, bits = c.encode(syms)
        assert bits == 17
        assert (c.decode(payload, 17) == 9).all()

    def test_empty_stream(self):
        c = _codec_for(np.array([1, 2]))
        payload, bits = c.encode(np.empty(0, np.int64))
        assert payload == b"" and bits == 0
        assert c.decode(b"", 0).size == 0

    def test_unknown_symbol_rejected(self):
        c = _codec_for(np.array([1, 1, 2]))
        with pytest.raises(HuffmanError):
            c.encode(np.array([3]))
        with pytest.raises(HuffmanError):
            c.encode(np.array([10**6]))

    def test_corrupt_bitstream_detected_or_wrong(self):
        syms = np.array([1, 2, 3, 3, 3, 2, 1, 3] * 10)
        c = _codec_for(syms)
        payload, _ = c.encode(syms)
        # Decoding more symbols than encoded must fail (stream exhausted)
        # rather than loop forever.
        with pytest.raises(Exception):
            c.decode(payload, syms.size * 10)

    def test_symbol_outside_or_missing_names_which(self):
        # a short stream indexes the dense encode table from its lowest symbol
        c = _codec_for(np.array([32760, 32761, 32761, 32763, 32770]))
        for syms, msg in (
            ([32761, 32771], "symbol outside table alphabet"),
            ([-1, 32761], "symbol outside table alphabet"),
            ([-(2**63), 32761], "symbol outside table alphabet"),
            ([32761, 2**62], "symbol outside table alphabet"),
            ([5, 32761], "symbol with zero frequency in table"),
            ([32761, 32762], "symbol with zero frequency in table"),
        ):
            for call in (c.encode, c.encoded_size_bits):
                with pytest.raises(HuffmanError, match=msg):
                    call(np.array(syms, dtype=np.int64))

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.uint64, np.int8])
    def test_narrow_and_unsigned_symbols_encode_alike(self, dtype):
        syms = np.random.default_rng(7).integers(0, 100, 3000)
        c = _codec_for(syms)
        assert c.encode(syms.astype(dtype)) == c.encode(syms)
        with pytest.raises(HuffmanError, match="symbol outside table alphabet"):
            c.encode(np.array([0, 100], dtype=dtype))

    def test_non_integer_symbols_rejected(self):
        c = _codec_for(np.array([1, 2]))
        with pytest.raises(HuffmanError, match="must be integers"):
            c.encode(np.array([1.0, 2.0]))

    def test_hand_built_bad_tables_refused_before_packing(self):
        # Lengths outside the bit-IO range, and an over-subscribed table
        # whose third code does not fit its length: the encoder checks the
        # table once, so even a stream of only its good symbols is refused.
        zero = HuffmanCodec(HuffmanTable(np.array([0]), np.array([0])))
        deep = HuffmanCodec(HuffmanTable(np.array([0, 1]), np.array([1, 58])))
        over = HuffmanCodec(HuffmanTable(np.array([0, 1, 2]), np.array([1, 1, 1])))
        for codec in (zero, deep):
            for call in (codec.encode, codec.encoded_size_bits):
                with pytest.raises(
                    HuffmanError, match=r"code lengths must be in \[1, 57\]"
                ):
                    call(np.array([0, 0, 0]))
        with pytest.raises(
            HuffmanError,
            match="over-subscribed Huffman table: code 2 does not fit in 1 bits",
        ):
            over.encode(np.array([1, 0, 1]))

    def test_encoded_size_bits_matches_encode(self):
        rng = np.random.default_rng(6)
        syms = rng.integers(0, 64, 5000)
        c = _codec_for(syms)
        _, bits = c.encode(syms)
        assert bits == c.encoded_size_bits(syms)

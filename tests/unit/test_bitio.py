"""Unit tests for the MSB-first bit IO layer."""

import numpy as np
import pytest

from repro.encoding.bitio import BitReader, BitWriter, pack_codes
from repro.errors import BitstreamError
from repro.kernels import forced


class TestBitWriter:
    def test_single_bits(self):
        w = BitWriter()
        for bit in (1, 0, 1, 1, 0, 0, 1, 0):
            w.write(bit, 1)
        assert w.getvalue() == bytes([0b10110010])

    def test_msb_first_multibit(self):
        w = BitWriter()
        w.write(0b101, 3)
        w.write(0b10010, 5)
        assert w.getvalue() == bytes([0b10110010])

    def test_partial_byte_padded_with_zeros(self):
        w = BitWriter()
        w.write(0b11, 2)
        assert w.getvalue() == bytes([0b11000000])

    def test_len_counts_bits(self):
        w = BitWriter()
        w.write(0, 3)
        assert len(w) == 3
        w.write(0, 13)
        assert len(w) == 16

    def test_zero_width_write_is_noop(self):
        w = BitWriter()
        w.write(0, 0)
        assert len(w) == 0

    def test_value_overflow_rejected(self):
        w = BitWriter()
        with pytest.raises(BitstreamError):
            w.write(4, 2)
        with pytest.raises(BitstreamError):
            w.write(-1, 2)

    def test_write_bytes_requires_alignment(self):
        w = BitWriter()
        w.write(1, 1)
        with pytest.raises(BitstreamError):
            w.write_bytes(b"ab")
        w.align()
        w.write_bytes(b"ab")
        assert w.getvalue()[1:] == b"ab"

    def test_long_values(self):
        w = BitWriter()
        w.write((1 << 48) - 3, 48)
        r = BitReader(w.getvalue())
        assert r.read(48) == (1 << 48) - 3


class TestBitReader:
    def test_read_roundtrip(self):
        w = BitWriter()
        vals = [(5, 3), (1, 1), (300, 9), (0, 4), (65535, 16)]
        for v, n in vals:
            w.write(v, n)
        r = BitReader(w.getvalue())
        for v, n in vals:
            assert r.read(n) == v

    def test_exhaustion_raises(self):
        r = BitReader(b"\xff")
        r.read(8)
        with pytest.raises(BitstreamError):
            r.read(1)

    def test_peek_does_not_consume(self):
        r = BitReader(bytes([0b10110010]))
        assert r.peek(3) == 0b101
        assert r.peek(3) == 0b101
        assert r.read(3) == 0b101

    def test_peek_past_end_zero_pads(self):
        r = BitReader(bytes([0b10000000]))
        r.read(7)
        assert r.peek(4) == 0b0000  # 1 real bit (0) + 3 padding

    def test_skip_after_peek(self):
        r = BitReader(bytes([0b10110010]))
        r.peek(8)
        r.skip(3)
        assert r.read(5) == 0b10010

    def test_bits_accounting(self):
        r = BitReader(b"\x00\x00\x00")
        assert r.bits_remaining == 24
        r.read(5)
        assert r.bits_consumed == 5
        assert r.bits_remaining == 19

    def test_read_bytes_aligned(self):
        r = BitReader(b"abcd")
        r.read(8)
        assert r.read_bytes(2) == b"bc"

    def test_read_bytes_unaligned_raises(self):
        r = BitReader(b"abcd")
        r.read(3)
        with pytest.raises(BitstreamError):
            r.read_bytes(1)

    def test_align_discards_to_boundary(self):
        r = BitReader(bytes([0b10110010, 0xAB]))
        r.read(3)
        r.align()
        assert r.read(8) == 0xAB

    def test_read_more_than_57_bits_split(self):
        w = BitWriter()
        w.write(123, 30)
        w.write(456, 34)
        r = BitReader(w.getvalue())
        assert r.read(64) == (123 << 34) | 456


class TestPackCodes:
    def test_matches_scalar_writer(self):
        rng = np.random.default_rng(1)
        lengths = rng.integers(1, 24, size=500)
        codes = np.array([rng.integers(0, 1 << l) for l in lengths], dtype=np.uint64)
        payload, nbits = pack_codes(codes, lengths)
        w = BitWriter()
        for c, l in zip(codes, lengths):
            w.write(int(c), int(l))
        assert payload == w.getvalue()
        assert nbits == int(lengths.sum())

    def test_empty(self):
        payload, nbits = pack_codes(np.empty(0, np.uint64), np.empty(0, np.int64))
        assert payload == b"" and nbits == 0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(BitstreamError):
            pack_codes(np.zeros(2, np.uint64), np.ones(3, np.int64))

    def test_rejects_zero_length_codes(self):
        with pytest.raises(BitstreamError):
            pack_codes(np.zeros(2, np.uint64), np.array([1, 0]))

    def test_rejects_over_wide_codes(self):
        with pytest.raises(BitstreamError):
            pack_codes(np.zeros(1, np.uint64), np.array([58]))

    @pytest.mark.parametrize("mode", ["reference", "fast"])
    def test_rejects_a_code_wider_than_its_length(self, mode):
        # once packed as b'\xc0' by the reference and b'@' by the fast kernel
        with forced(mode):
            with pytest.raises(BitstreamError, match="value 3 does not fit in 1 bits"):
                pack_codes([1, 3], [1, 1])
            with pytest.raises(BitstreamError, match="value 8 does not fit in 3 bits"):
                pack_codes(np.array([0, 8], dtype=np.uint64), np.array([57, 3]))
            assert pack_codes([1, 1], [1, 1]) == (b"\xc0", 2)

    @pytest.mark.parametrize("mode", ["reference", "fast"])
    def test_matches_scalar_writer_in_both_modes(self, mode):
        rng = np.random.default_rng(2)
        lengths = rng.integers(1, 58, size=3000)
        codes = np.array([rng.integers(0, 1 << n) for n in lengths], dtype=np.uint64)
        w = BitWriter()
        for c, n in zip(codes, lengths):
            w.write(int(c), int(n))
        with forced(mode):
            assert pack_codes(codes, lengths) == (w.getvalue(), int(lengths.sum()))

    def test_bit_exact_known_vector(self):
        payload, nbits = pack_codes(
            np.array([0b1, 0b01, 0b111], dtype=np.uint64), np.array([1, 2, 3])
        )
        assert nbits == 6
        assert payload == bytes([0b10111100])

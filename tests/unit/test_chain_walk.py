"""The Huffman chain walk against a scalar code-by-code walk.

The chain walk (``kernels/huffman_fast.py``) reads one step per payload
bit from a per-chunk entry table and jumps from code to code.  Here it
must agree with :func:`_walk_oracle`, which reads the payload one bit at
a time against the table's canonical codes, on the symbols and on every
error: the exception class and its text, bit position included.  The
cases are the ones the walk's bookkeeping can get wrong: a truncation at
and across a ``CHUNK_BITS`` boundary, a code longer than the lanes'
16-bit window (an escape) cut by the end of the payload, a hostile table
that is not a complete prefix code, and the ``svc_small_jobs`` streams.
The file runs under both ``REPRO_KERNELS`` modes in CI; each case forces
the mode it compares.
"""

import numpy as np
import pytest

from repro.encoding.huffman import HuffmanCodec, HuffmanTable
from repro.errors import BitstreamError, HuffmanError
from repro.kernels import huffman_fast
from tests.lanes import CHAIN_WALK_ONLY, lane_constants, matches_reference, outcome
from tests.small_jobs import captured_calls


def _walk_oracle(table: HuffmanTable, payload: bytes, n: int) -> np.ndarray:
    """Decode ``n`` symbols bit by bit, zero-filling past the payload,
    raising the chain walk's errors at the code they belong to."""
    total = 8 * len(payload)
    bits = np.unpackbits(np.frombuffer(payload + bytes(8), dtype=np.uint8)).tolist()
    codes = {
        (int(length), int(code)): int(sym)
        for sym, length, code in zip(table.symbols, table.lengths, table.assign_codes())
    }
    maxlen = table.max_length
    out = np.empty(n, dtype=np.int64)
    pos = 0
    for k in range(n):
        if pos >= total:
            raise BitstreamError(
                f"bitstream exhausted: {n - k} of {n} symbols undecoded at "
                f"the end of the {total}-bit payload"
            )
        code = 0
        for length in range(1, maxlen + 1):
            code = code << 1 | bits[pos + length - 1]
            if (length, code) in codes:
                break
        else:
            raise HuffmanError("invalid code in bitstream")
        if pos + length > total:
            raise BitstreamError(
                f"bitstream exhausted: code at bit {pos} runs past the "
                f"{total}-bit payload"
            )
        out[k] = codes[length, code]
        pos += length
    return out


def _walk_matches_oracle(codec, payload, n, **constants):
    """The fast kernel on its chain walk equals the oracle on value, class
    and text; the reference twin equals both on value and class.  The
    host only hands a kernel a payload that can hold ``n`` shortest codes,
    so every case keeps to that."""
    assert _reaches_kernel(codec, payload, n)

    def walk():
        (got,) = huffman_fast.decode_symbols([(HuffmanCodec(codec.table), payload, n)])
        if isinstance(got, Exception):
            raise got
        return got

    with lane_constants(**CHAIN_WALK_ONLY, **constants):
        got = outcome(walk)
    assert got == outcome(lambda: _walk_oracle(codec.table, payload, n))
    matches_reference(codec, payload, n, got)
    return got


def _reaches_kernel(codec, payload, n):
    return n * int(codec.table.lengths[0]) <= 8 * len(payload)


def _stream(syms):
    syms = np.asarray(syms, dtype=np.int64)
    codec = HuffmanCodec(HuffmanTable.from_symbols(syms))
    return codec, syms, codec.encode(syms)[0]


def _peaked(seed=7):
    """Fibonacci counts (75 024 symbols): a 22-level tree whose rare
    symbols have codes past 16 bits."""
    fib = [1, 1]
    while len(fib) < 23:
        fib.append(fib[-1] + fib[-2])
    return np.random.default_rng(seed).permutation(np.repeat(np.arange(23), fib))


def _code_starts(codec, syms):
    """Bit position of every code of a clean stream, plus the end."""
    lengths = dict(zip(codec.table.symbols.tolist(), codec.table.lengths.tolist()))
    return np.concatenate(([0], np.cumsum([lengths[s] for s in syms.tolist()])))


class TestChunkBoundary:
    def test_truncation_at_and_across_a_chunk_boundary(self):
        # ~70 KB: the walk crosses one CHUNK_BITS boundary.  Half the
        # codes are one bit long, so the host passes every cut below.
        rng = np.random.default_rng(3)
        wide = rng.integers(1, 256, 110_000)
        codec, syms, payload = _stream(np.where(rng.random(wide.size) < 0.5, 0, wide))
        chunk_bytes = huffman_fast.CHUNK_BITS // 8
        assert len(payload) > chunk_bytes + 64
        starts = _code_starts(codec, syms)
        # the code that straddles the boundary, and the byte it ends in
        k = int(np.searchsorted(starts, huffman_fast.CHUNK_BITS, side="right")) - 1
        crossing = int(starts[k + 1] - 1) // 8 + 1
        cuts = {chunk_bytes - 1, chunk_bytes, chunk_bytes + 1, crossing, crossing - 1}
        for cut in sorted(cuts):
            got = _walk_matches_oracle(codec, payload[:cut], syms.size)
            assert got[0] == "BitstreamError", cut
        assert _walk_matches_oracle(codec, payload, syms.size) == ("ok", syms.tobytes())

    @pytest.mark.parametrize("chunk_bits", [64, 72, 512])
    def test_every_truncation_with_small_chunks(self, chunk_bits):
        # Shrunk chunks put a boundary every few codes, so each cut lands
        # at, just before or just after one.
        rng = np.random.default_rng(chunk_bits)
        codec, syms, payload = _stream(rng.geometric(0.3, 400).clip(0, 30))
        kinds = set()
        for cut in range(len(payload) + 1):
            if not _reaches_kernel(codec, payload[:cut], syms.size):
                continue
            got = _walk_matches_oracle(codec, payload[:cut], syms.size, CHUNK_BITS=chunk_bits)
            if got[0] != "ok":
                kinds.add(got[1])
        assert any("runs past" in k for k in kinds)
        assert any("undecoded" in k for k in kinds)


class TestEscapes:
    def test_escape_past_16_bits_cut_by_the_end(self):
        codec, syms, payload = _stream(_peaked())
        assert codec.table.max_length > 16
        starts = _code_starts(codec, syms)
        long = np.flatnonzero(np.diff(starts) > 16)
        assert long.size
        for k in long[-3:].tolist():
            # cut inside the long code, and right behind it
            for end_bit in (int(starts[k]) + 9, int(starts[k + 1])):
                cut = -(-end_bit // 8)
                got = _walk_matches_oracle(codec, payload[:cut], syms.size)
                assert got[0] in ("BitstreamError", "ok")

    def test_flipped_bits_in_a_deep_tree(self):
        codec, syms, payload = _stream(_peaked())
        rng = np.random.default_rng(29)
        for _ in range(4):
            bad = bytearray(payload)
            bad[rng.integers(len(bad))] ^= 1 << rng.integers(8)
            _walk_matches_oracle(codec, bytes(bad), syms.size)


class TestHostileTable:
    def test_incomplete_code(self):
        # Codes 0, 10, 110: "111" is no code.
        codec = HuffmanCodec(HuffmanTable(np.array([5, 6, 7]), np.array([1, 2, 3])))
        rng = np.random.default_rng(19)
        payload = bytes(rng.integers(0, 256, 400, dtype=np.uint8))
        assert _walk_matches_oracle(codec, payload, 2000) == (
            "HuffmanError",
            "invalid code in bitstream",
        )
        # "10 110 0 10" a byte, then "10 110 0 11": the last "110" runs past
        cut = bytes([0b10110010] * 49 + [0b10110011])
        assert _walk_matches_oracle(codec, cut, 200) == (
            "BitstreamError",
            "bitstream exhausted: code at bit 398 runs past the 400-bit payload",
        )


class TestSmallJobStreams:
    def test_the_small_job_huffman_streams(self):
        calls = captured_calls("huffman.decode", ("wavesz-dp", "sz14"))
        items = [item for (batch,) in calls for item in batch]
        assert len(items) == 32
        for codec, payload, n in items:
            got = _walk_matches_oracle(codec, payload, n)
            assert got[0] == "ok"
            shortest = -(-n * int(codec.table.lengths[0]) // 8)
            for cut in {shortest, len(payload) - 2, len(payload) - 1}:
                if shortest <= cut < len(payload):
                    _walk_matches_oracle(codec, payload[:cut], n)

"""Multi-symbol lane steps: the own-region group decode against the reference.

In its own region a lane of a stream whose codes are short takes every
whole code its group window holds in one step (``kernels/huffman_fast.py``,
"Groups").  Every case decodes a stream with group steps, with single-code
steps and on the chain walk, and all three must agree on value, exception
class and message (bit position included), and with the reference
decoder on value and class.  The file runs under both ``REPRO_KERNELS``
modes in CI; each case forces the modes it compares.
"""

import numpy as np
import pytest

from repro.encoding.huffman import (
    HuffmanCodec,
    HuffmanTable,
    decode_outcomes,
)
from repro.errors import BitstreamError, HuffmanError
from repro.kernels import forced, huffman_fast
from tests.lanes import (
    GROUPS,
    SINGLE_STEPS,
    TINY_LANES,
    group_steps_match,
    lane_constants,
    outcome,
    own_region_steps,
)


def _stream(syms):
    syms = np.asarray(syms, dtype=np.int64)
    codec = HuffmanCodec(HuffmanTable.from_symbols(syms))
    return codec, syms, codec.encode(syms)[0]


def _one_bit_dominant(n=60_000, seed=5):
    """Zeros 9 times in 10 (a 1-bit code), the rest geometric."""
    rng = np.random.default_rng(seed)
    rest = rng.geometric(0.3, n)
    return np.where(rng.random(n) < 0.9, 0, rest)


def _peaked(n=None, seed=7):
    """Fibonacci counts (75 024 symbols): a 22-level tree whose rare
    symbols have codes past 16 bits, the wide table's escapes."""
    fib = [1, 1]
    while len(fib) < 23:
        fib.append(fib[-1] + fib[-2])
    syms = np.random.default_rng(seed).permutation(np.repeat(np.arange(23), fib))
    return syms if n is None else syms[:n]


def _byte_like(n=6_000, seed=11):
    """A flat-ish 200-symbol alphabet: 7-9-bit codes, single-code steps."""
    return np.random.default_rng(seed).integers(0, 200, n)


def _fresh(codec):
    return HuffmanCodec(codec.table)


class TestGroupTable:
    @pytest.mark.parametrize("make", [_one_bit_dominant, _peaked, _byte_like])
    @pytest.mark.parametrize("width", [4, 8, 10, 12])
    def test_rows_match_a_code_by_code_walk(self, make, width):
        codec, _, _ = _stream(make(8000))
        stream = huffman_fast._Stream(codec, bytes(1024), 1 << 12)
        lut, bits = stream.lut, stream.bits
        with lane_constants(_GROUP_BITS=width, **GROUPS):
            huffman_fast._build_groups([stream])
        steps, rows = codec._lane_groups
        assert steps.size == 1 << width
        assert rows.shape == (steps.size + 1, max(1, width // stream.min_len))
        assert rows[-1].tolist() == [0] + [-1] * (rows.shape[1] - 1)
        for v in range(1 << width):
            taken, used = [], 0
            while True:  # the next code of window v, read as a bits-wide window
                rest = (v << used) & ((1 << width) - 1)
                e = int(lut[(rest << bits) >> width])
                if e < 0 or used + (e & 63) > width:
                    break
                taken.append(e)
                used += e & 63
            row = rows[v].tolist()
            assert row == taken + [-1] * (len(row) - len(taken))
            if taken:
                assert steps[v] == huffman_fast._GROUP_FLAG | v << 6 | used
            else:
                assert steps[v] == -1

    @pytest.mark.parametrize("make", [_one_bit_dominant, _peaked, _byte_like])
    def test_predicted_codes_per_window_is_the_window_mean(self, make):
        # Windows weighted uniformly weigh a code of length l by 2^-l.
        codec, _, _ = _stream(make(8000))
        stream = huffman_fast._Stream(codec, bytes(1024), 1 << 12)
        with lane_constants(**GROUPS):
            huffman_fast._build_groups([stream])
        rows = codec._lane_groups[1][:-1]
        (predicted,) = huffman_fast._codes_per_window([codec.table.lengths])
        assert predicted == pytest.approx((rows >= 0).sum() / rows.shape[0], rel=1e-12)

    def test_the_rule_keeps_long_codes_on_single_steps(self):
        short, _, _ = _stream(_one_bit_dominant(8000))
        long, _, _ = _stream(_byte_like(8000))
        streams = [huffman_fast._Stream(c, bytes(1024), 1 << 12) for c in (short, long)]
        huffman_fast._build_groups(streams)
        assert short._lane_groups[0].size == 1 << huffman_fast._GROUP_BITS
        assert long._lane_groups[0].size == 0


class TestGroupDecode:
    def test_one_bit_dominant_stream_takes_few_steps(self):
        codec, syms, payload = _stream(_one_bit_dominant())
        with own_region_steps() as steps:
            assert group_steps_match(codec, payload, syms.size) == ("ok", syms.tobytes())
        with forced("fast"), own_region_steps() as shipped:
            assert np.array_equal(_fresh(codec).decode(payload, syms.size), syms)
        assert shipped["single"] == 0
        assert shipped["group"] <= 0.5 * syms.size
        assert steps["single"] > 2 * shipped["group"]  # the SINGLE_STEPS decode

    def test_every_code_longer_than_the_group_window(self):
        # 5-8-bit codes against a 4-bit window: every group step falls
        # back to the single-code entry.
        codec, syms, payload = _stream(np.random.default_rng(13).geometric(0.03, 30_000))
        assert int(codec.table.lengths[0]) > 4
        with lane_constants(_GROUP_BITS=4), own_region_steps() as steps:
            assert group_steps_match(codec, payload, syms.size) == ("ok", syms.tobytes())
            fresh = _fresh(codec)
            with forced("fast"), lane_constants(**GROUPS):
                fresh.decode(payload, syms.size)
        assert (fresh._lane_groups[0] == -1).all()
        assert steps["group"]

    def test_codes_over_16_bits_escape(self):
        codec, syms, payload = _stream(_peaked())
        assert codec.table.max_length > huffman_fast._LUT_BITS
        with own_region_steps() as steps:
            assert group_steps_match(codec, payload, syms.size) == ("ok", syms.tobytes())
        assert steps["group"]
        rng = np.random.default_rng(17)
        for _ in range(6):
            bad = bytearray(payload)
            bad[rng.integers(len(bad))] ^= 1 << rng.integers(8)
            group_steps_match(codec, bytes(bad), syms.size)

    def test_incomplete_code_stays_on_the_chain_walk(self):
        # Codes 0, 10, 110: "111" is no code, so the lanes leave it alone
        # and the chain walk raises what the reference raises.
        table = HuffmanTable(np.array([5, 6, 7]), np.array([1, 2, 3]))
        codec = HuffmanCodec(table)
        payload = bytes(np.random.default_rng(19).integers(0, 256, 4000, dtype=np.uint8))
        got = group_steps_match(codec, payload, 20_000)
        assert got[0] == "HuffmanError"
        with forced("fast"), lane_constants(**GROUPS):
            fresh = _fresh(codec)
            with pytest.raises(HuffmanError):
                fresh.decode(payload, 20_000)
        assert fresh._lane_groups is None

    @pytest.mark.parametrize("cut", [1, 2, 3, 7, 16, 40])
    def test_truncated_payload_same_error_and_bit_position(self, cut):
        codec, syms, payload = _stream(_one_bit_dominant(30_000))
        got = group_steps_match(codec, payload[:-cut], syms.size)
        assert got[0] == "BitstreamError" and "bit" in got[1]

    def test_appended_garbage_and_lowered_counts(self):
        codec, syms, payload = _stream(_one_bit_dominant(30_000))
        tail = bytes(np.random.default_rng(23).integers(0, 256, 40, dtype=np.uint8))
        for extra in (1, 12, 300):
            got = group_steps_match(codec, payload + tail, syms.size + extra)
            if got[0] == "ok":
                assert np.frombuffer(got[1], np.int64)[: syms.size].tobytes() == syms.tobytes()
        for n in (20_000, syms.size - 1):
            assert group_steps_match(codec, payload, n) == ("ok", syms[:n].tobytes())

    def test_stream_longer_than_a_segment(self, monkeypatch):
        codec, syms, payload = _stream(_one_bit_dominant(40_000))
        sets = []
        lane_set = huffman_fast._lane_set
        monkeypatch.setattr(
            huffman_fast, "_lane_set",
            lambda lanes, pieces: sets.append(len(pieces)) or lane_set(lanes, pieces),
        )
        with lane_constants(_SEGMENT_BITS=1 << 13):
            assert group_steps_match(codec, payload, syms.size) == ("ok", syms.tobytes())
            for cut in (1, 9):
                group_steps_match(codec, payload[:-cut], syms.size)
            sets.clear()
            with forced("fast"), own_region_steps() as steps:
                assert np.array_equal(_fresh(codec).decode(payload, syms.size), syms)
        assert sets == [1] * (-(-8 * len(payload) // (1 << 13)))
        assert steps["group"] and not steps["single"]

    def test_tiny_lanes_with_damage(self):
        # Regions of a few codes and 16-lane segments: links cross group
        # starts everywhere, and some lanes give up on the chain walk.
        codec, syms, payload = _stream(_one_bit_dominant(3000, seed=29))
        rng = np.random.default_rng(31)
        with lane_constants(**TINY_LANES):
            assert group_steps_match(codec, payload, syms.size) == ("ok", syms.tobytes())
            for _ in range(30):
                bad = bytearray(payload)
                bad[rng.integers(len(bad))] ^= 1 << rng.integers(8)
                bad = bytes(bad[: len(bad) - int(rng.integers(0, 4))])
                group_steps_match(codec, bad, syms.size)


class TestMixedSets:
    def _items(self):
        streams = [_one_bit_dominant(5000, seed=37), _byte_like(5000), _peaked(5000, seed=41),
                   _one_bit_dominant(5000, seed=43), _byte_like(5000, seed=47)]
        items = []
        for syms in streams:
            codec, syms, payload = _stream(syms)
            items.append((codec, payload, syms.size))
        return items, streams

    def test_one_set_mixes_group_and_single_code_streams(self, monkeypatch):
        items, streams = self._items()
        seen = []
        set_tables = huffman_fast._set_tables

        def spy(pieces, counts):
            out = set_tables(pieces, counts)
            seen.append([rows is not None for rows in out[3]])
            return out

        monkeypatch.setattr(huffman_fast, "_set_tables", spy)
        with forced("fast"):
            got = decode_outcomes(items)
        assert [g.tobytes() for g in got] == [s.tobytes() for s in streams]
        assert seen == [[True, False, True, True, False]]
        with forced("reference"):
            ref = decode_outcomes(items)
        assert [g.tobytes() for g in got] == [r.tobytes() for r in ref]

    def test_a_wide_symbol_table_keeps_its_set_on_single_steps(self, monkeypatch):
        # Symbols past 2^24 need int64 entries, which leave no room for
        # the group flag: the whole set steps one code at a time.
        items, streams = self._items()
        wide = _one_bit_dominant(5000, seed=53) + (1 << 30)
        codec, wide, payload = _stream(wide)
        items.insert(1, (codec, payload, wide.size))
        streams.insert(1, wide)
        owns = []
        set_tables = huffman_fast._set_tables

        def spy(pieces, counts):
            out = set_tables(pieces, counts)
            owns.append(out[2])
            return out

        monkeypatch.setattr(huffman_fast, "_set_tables", spy)
        with forced("fast"), own_region_steps() as steps:
            got = decode_outcomes(items)
        assert [g.tobytes() for g in got] == [s.tobytes() for s in streams]
        assert owns == [None] and steps["group"] == 0 and steps["single"]

    def test_each_item_of_a_damaged_mixed_batch_is_its_own(self):
        items, streams = self._items()
        codec, payload, n = items[0]
        items[0] = (codec, payload[:-2], n)
        codec, payload, n = items[3]
        bad = bytearray(payload)
        bad[len(bad) // 2] ^= 0x10
        items[3] = (codec, bytes(bad), n)
        for constants in (GROUPS, SINGLE_STEPS):
            fresh = [(_fresh(c), p, n) for c, p, n in items]
            with forced("fast"), lane_constants(**constants):
                got = decode_outcomes(fresh)
            alone = [
                group_steps_match(c, p, n) for c, p, n in items
            ]
            for g, a in zip(got, alone):
                if isinstance(g, np.ndarray):
                    assert a == ("ok", g.tobytes())
                else:
                    assert (type(g).__name__, str(g)) == a
        assert isinstance(got[0], BitstreamError)
        for k in (1, 2, 4):
            assert got[k].tobytes() == streams[k].tobytes()


class TestWindowArray:
    @pytest.mark.parametrize("size", [4, 5, 11, 4096, 100_003])
    def test_one_pass_equals_the_shift_or_passes(self, size):
        buf = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8)
        want = buf[:-3].astype(np.int64)
        for k in (1, 2, 3):
            want <<= 8
            want |= buf[k : buf.size - 3 + k]
        got = huffman_fast._windows32(buf)
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert np.array_equal(got, want)


def test_group_tables_are_cached_on_the_codec():
    # A codec decoded once with groups keeps its tables; a fresh one
    # over the same table starts empty.
    codec, syms, payload = _stream(_one_bit_dominant(20_000))
    with forced("fast"):
        assert outcome(lambda: codec.decode(payload, syms.size)) == ("ok", syms.tobytes())
    assert codec._lane_groups[0].size and _fresh(codec)._lane_groups is None

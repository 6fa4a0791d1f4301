"""Unit tests for the kernel dispatch registry and its satellites.

Covers the mode-selection contract (env var / set_mode / forced
priority), the registry's failure modes, the ``encoded_size_bits``
bounds checks, the cached Lorenzo stencil helpers,
``measure_compressor``'s warmup / per-stage timing, the lazy Huffman
tables, what ``import repro.cli`` may load, and the lane-parallel
Huffman decode on streams long enough to cross many lanes (values,
exception class and message against the chain-walk fallback and the
reference twin), and the lane decoder's pointer-doubling chase over
links that skip lanes.  The bit-exactness of the other fast kernels is
enforced by the differential suite in
``tests/property/test_prop_kernels.py``.
"""

import subprocess
import sys

import numpy as np
import pytest

from repro.codec.registry import get_codec
from repro.config import QuantizerConfig
from repro.encoding.huffman import HuffmanCodec, HuffmanTable, decode_many, decode_outcomes
from repro.errors import BitstreamError, ConfigError, HuffmanError
from repro.kernels import huffman_fast
from repro.kernels import (
    ENV_VAR,
    active_mode,
    forced,
    kernel_table,
    resolve,
    set_mode,
)
from repro.perf import measure_compressor
from repro.sz.lorenzo import neighbor_offsets, stencil_predict
from repro.sz.pqd import pqd_compress, pqd_decompress
from tests.lanes import (
    TINY_LANES,
    lane_constants,
    lanes_match_chain_walk,
    matches_reference,
)

Q = QuantizerConfig()


@pytest.fixture(autouse=True)
def _clean_mode(monkeypatch):
    """Each test starts from the env-driven default and leaves no override."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    set_mode(None)
    yield
    set_mode(None)


class TestModeSelection:
    def test_default_is_fast(self):
        assert active_mode() == "fast"

    def test_env_var_selects_reference(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "reference")
        assert active_mode() == "reference"

    def test_empty_env_var_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "")
        assert active_mode() == "fast"

    def test_invalid_env_var_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "turbo")
        with pytest.raises(ConfigError, match="turbo"):
            active_mode()

    def test_set_mode_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "reference")
        set_mode("fast")
        assert active_mode() == "fast"
        set_mode(None)
        assert active_mode() == "reference"

    def test_set_mode_rejects_unknown(self):
        with pytest.raises(ConfigError):
            set_mode("warp")

    def test_forced_wins_and_restores(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "fast")
        set_mode("fast")
        with forced("reference"):
            assert active_mode() == "reference"
            with forced("fast"):
                assert active_mode() == "fast"
            assert active_mode() == "reference"
        assert active_mode() == "fast"

    def test_forced_rejects_unknown(self):
        with pytest.raises(ConfigError):
            with forced("sloth"):
                pass  # pragma: no cover


class TestRegistry:
    def test_expected_kernels_registered(self):
        table = kernel_table()
        for name in (
            "huffman.decode",
            "lz77.parse",
            "bitio.pack_codes",
            "bitio.unpack_codes",
            "pqd.compress_sweep",
            "pqd.decompress_sweep",
        ):
            assert name in table
            mod, _, attr = table[name].partition(":")
            assert mod.startswith("repro.kernels.") and attr

    def test_resolve_returns_mode_specific_callable(self):
        with forced("reference"):
            ref = resolve("bitio.pack_codes")
        with forced("fast"):
            fast = resolve("bitio.pack_codes")
        assert ref is not fast

    def test_resolve_unknown_kernel(self):
        with pytest.raises(ConfigError, match="unknown kernel"):
            resolve("fft.butterfly")


class TestEncodedSizeBits:
    def _codec(self):
        syms = np.array([0, 0, 0, 1, 1, 2], dtype=np.int64)
        return HuffmanCodec(HuffmanTable.from_symbols(syms)), syms

    def test_matches_encode(self):
        codec, syms = self._codec()
        _, nbits = codec.encode(syms)
        assert codec.encoded_size_bits(syms) == nbits

    def test_rejects_symbol_above_alphabet(self):
        codec, _ = self._codec()
        with pytest.raises(HuffmanError, match="outside table alphabet"):
            codec.encoded_size_bits(np.array([10_000], dtype=np.int64))

    def test_rejects_negative_symbol(self):
        codec, _ = self._codec()
        with pytest.raises(HuffmanError, match="outside table alphabet"):
            codec.encoded_size_bits(np.array([-1], dtype=np.int64))

    def test_rejects_zero_frequency_symbol(self):
        syms = np.array([0, 0, 5, 5, 5], dtype=np.int64)
        codec = HuffmanCodec(HuffmanTable.from_symbols(syms))
        with pytest.raises(HuffmanError, match="zero frequency"):
            codec.encoded_size_bits(np.array([3], dtype=np.int64))


class TestEncodeLookupSpan:
    """The dense encode lookups span the alphabet, not ``[0, max]``, for a
    stream shorter than that — with the errors of the dense layout."""

    def _codec(self):
        syms = np.array([32760, 32768, 32768, 32770], dtype=np.int64)
        return HuffmanCodec(HuffmanTable.from_symbols(syms)), syms

    def test_short_stream_indexes_from_the_smallest_symbol(self):
        codec, syms = self._codec()
        payload, nbits = codec.encode(syms)
        assert codec._enc_base == 32760 and codec._enc_len.size == 11
        assert codec.encoded_size_bits(syms) == nbits
        assert np.array_equal(codec.decode(payload, syms.size), syms)

    def test_long_stream_keeps_indexing_from_zero_and_the_same_bytes(self):
        codec, syms = self._codec()
        long = np.tile(syms, 10_000)
        codec.encode(syms)  # builds the offset layout, which then stays
        dense = HuffmanCodec(codec.table)
        assert dense.encode(long) == codec.encode(long)
        assert codec._enc_base == 32760
        assert dense._enc_base == 0 and dense._enc_len.size == 32771

    @pytest.mark.parametrize(
        "symbol, message",
        [
            (-1, "outside table alphabet"),
            (32771, "outside table alphabet"),
            (0, "zero frequency"),  # inside [0, max], below the span
            (32759, "zero frequency"),
            (32761, "zero frequency"),  # inside the span, not coded
        ],
    )
    def test_rejections_do_not_depend_on_the_layout(self, symbol, message):
        bad = np.array([symbol], dtype=np.int64)
        for n in (1, 40_000):  # offset layout, dense layout
            codec, syms = self._codec()
            codec.encode(np.tile(syms, n))
            with pytest.raises(HuffmanError, match=message):
                codec.encode(bad)
            with pytest.raises(HuffmanError, match=message):
                codec.encoded_size_bits(bad)


class TestLorenzoHelpers:
    def test_neighbor_offsets_cached_and_readonly(self):
        a = neighbor_offsets((7, 9), 1)
        b = neighbor_offsets((7, 9), 1)
        assert a[0] is b[0] and a[1] is b[1]
        assert not a[0].flags.writeable and not a[1].flags.writeable

    def test_stencil_predict_matches_per_offset_loop(self):
        rng = np.random.default_rng(11)
        work = rng.normal(size=8 * 9)
        offsets, signs = neighbor_offsets((8, 9), 2)
        idx = np.arange(3 * 9 + 3, 3 * 9 + 7, dtype=np.int64)
        got = stencil_predict(work, idx, offsets, signs)
        want = np.zeros(idx.size)
        for m in range(offsets.size):
            want += signs[m] * work[idx - offsets[m]]
        # In-order accumulation must be reproduced exactly, not just
        # approximately — the closed PQD loop amplifies ulp drift.
        assert np.array_equal(got, want)


class TestMeasureCompressor:
    def test_stage_timing_and_warmup(self):
        rng = np.random.default_rng(3)
        field = np.cumsum(rng.normal(size=(20, 30)), axis=1).astype(
            np.float32
        )
        codec = get_codec("sz14")
        mt, cf = measure_compressor(
            codec, field, 1e-3, "vr_rel", repeats=1, warmup=1,
            stage_timing=True,
        )
        assert cf.payload
        assert mt.compress_s > 0 and mt.decompress_s > 0
        assert "pqd" in mt.compress_stages
        assert "codes_entropy" in mt.compress_stages
        assert all(v >= 0 for v in mt.compress_stages.values())
        assert "pqd" in mt.decompress_stages

    def test_stage_timing_off_keeps_dicts_empty(self):
        rng = np.random.default_rng(4)
        field = rng.normal(size=(8, 24)).astype(np.float32)
        mt, _ = measure_compressor(get_codec("sz14"), field, 1e-2, "vr_rel")
        assert mt.compress_stages == {} and mt.decompress_stages == {}


class TestPQDSweepDispatch:
    """Regression shapes for the fused sweep's dispatch conditions."""

    # (2, 24) has single-point wavefronts but a non-contiguous 2D
    # interior — it must sweep front by front, not take the 1D scalar chain.
    SHAPES = [(2, 24), (2, 2), (40,), (6, 7), (3, 4, 5)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("border", ["truncate", "verbatim", "padded"])
    def test_fast_matches_reference(self, shape, border):
        rng = np.random.default_rng(hash((shape, border)) % 2**32)
        field = (rng.normal(size=shape) * 5).astype(np.float32)
        with forced("reference"):
            ref = pqd_compress(field, 1e-2, Q, border=border)
        with forced("fast"):
            fast = pqd_compress(field, 1e-2, Q, border=border)
        assert np.array_equal(ref.codes, fast.codes)
        assert ref.decompressed.tobytes() == fast.decompressed.tobytes()
        kw = dict(
            precision=1e-2, quant=Q, dtype=np.dtype(np.float32),
            border=border,
        )
        with forced("reference"):
            dref = pqd_decompress(
                ref.codes, ref.border_values, ref.outlier_values, **kw
            )
        with forced("fast"):
            dfast = pqd_decompress(
                fast.codes, fast.border_values, fast.outlier_values, **kw
            )
        assert dref.tobytes() == dfast.tobytes()


class TestHuffmanLazyEscapes:
    def _deep_codec(self):
        # Geometric frequencies force code lengths past the fast window,
        # so decode hits the lazy escape resolver.
        rng = np.random.default_rng(19)
        syms = rng.geometric(0.05, 60_000).clip(0, 400).astype(np.int64)
        return HuffmanCodec(HuffmanTable.from_symbols(syms)), syms

    def test_deep_tree_decode_identical(self):
        codec, syms = self._deep_codec()
        payload, _ = codec.encode(syms)
        with forced("reference"):
            ref = codec.decode(payload, syms.size)
        with forced("fast"):
            fast = codec.decode(payload, syms.size)
        assert np.array_equal(ref, fast)

    def test_truncated_payload_same_error_class(self):
        codec, syms = self._deep_codec()
        payload, _ = codec.encode(syms)
        # One byte short: passes the host's min-length validation, so
        # the exhaustion must surface from the kernel walk itself.
        bad = payload[:-1]
        with forced("reference"):
            with pytest.raises(BitstreamError):
                codec.decode(bad, syms.size)
        with forced("fast"):
            with pytest.raises(BitstreamError):
                codec.decode(bad, syms.size)


class TestHuffmanLazyTables:
    def test_encode_only_codec_never_builds_decode_tables(self):
        syms = np.random.default_rng(5).geometric(0.2, 4000).astype(np.int64)
        codec = HuffmanCodec(HuffmanTable.from_symbols(syms))
        payload, nbits = codec.encode(syms)
        assert codec.encoded_size_bits(syms) == nbits
        assert codec._dec is None and codec._lane_lut is None
        # ... and a decode builds them on demand, on either kernel.
        for mode in ("reference", "fast"):
            fresh = HuffmanCodec(codec.table)
            with forced(mode):
                assert np.array_equal(fresh.decode(payload, syms.size), syms)
            assert fresh._dec is not None

    def test_decode_only_codec_over_hostile_table_never_builds_encode_tables(
        self,
    ):
        # A corrupt table may claim symbol 2**32-1; its dense encode
        # lookup would be 32 GiB.
        table = HuffmanTable(
            np.array([3, 2**32 - 1, 7], dtype=np.int64),
            np.array([1, 2, 2], dtype=np.int64),
        )
        for mode in ("reference", "fast"):
            codec = HuffmanCodec(table)
            with forced(mode):
                out = codec.decode(bytes([0b01011000]), 4)
            assert out.tolist() == [3, 2**32 - 1, 7, 3]
            assert codec._enc_len is None and codec._enc_code is None
        with pytest.raises(HuffmanError, match="alphabet too large"):
            HuffmanCodec(table).encode(np.array([3]))


class TestImportFootprint:
    def test_import_cli_loads_no_kernel_module_and_no_scipy(self):
        # What sank the first lane decoder was start-up cost: nothing
        # under repro.kernels but the dispatch registry may load before
        # the first decode, and scipy never.
        code = (
            "import sys, repro.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m.startswith('repro.kernels')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, timeout=120,
        )
        assert out.stdout.strip() == str(
            ["repro.kernels", "repro.kernels.dispatch"]
        )


def _long_streams():
    """>= 50 K-symbol streams, one per way the lanes can be stressed."""
    rng = np.random.default_rng(23)
    n = 60_000
    uniform = np.tile(np.arange(256), n // 256 + 1)[:n]
    rng.shuffle(uniform)
    half = rng.geometric(0.2, n).clip(0, 100)
    half[: n // 2] = 0
    fib = [1, 1]
    while len(fib) < 23:
        fib.append(fib[-1] + fib[-2])
    return {
        "geometric": rng.geometric(0.05, n).clip(0, 400),
        # Fibonacci counts (75 024 symbols): a 22-level tree whose rare
        # symbols have codes beyond the lanes' 16-bit table -> escapes
        "peaked": rng.permutation(np.repeat(np.arange(23), fib)),
        # equal counts, power-of-two alphabet: a fixed-length code, which
        # never synchronizes -> chain walk
        "uniform": uniform,
        # 30 K one-bit codes, then ordinary ones: the first regions hold
        # several times the mean symbol count
        "half_constant": half,
    }


LONG_STREAMS = {k: v.astype(np.int64) for k, v in _long_streams().items()}


def _encoded(name):
    syms = LONG_STREAMS[name]
    codec = HuffmanCodec(HuffmanTable.from_symbols(syms))
    payload, _ = codec.encode(syms)
    return codec, syms, payload


class TestHuffmanLaneDecode:
    @pytest.mark.parametrize("name", sorted(LONG_STREAMS))
    def test_clean_stream_matches_chain_walk_and_reference(self, name):
        codec, syms, payload = _encoded(name)
        got = lanes_match_chain_walk(codec, payload, syms.size)
        assert got == ("ok", syms.tobytes())
        matches_reference(codec, payload, syms.size, got)

    def test_premises_of_the_stream_mix(self):
        # Each stream must still stress what it was built to stress.
        assert _encoded("peaked")[0].table.max_length > huffman_fast._LUT_BITS
        fixed = _encoded("uniform")[0]
        assert huffman_fast._lane_lut(fixed).size == 0
        assert huffman_fast._lane_lut(_encoded("geometric")[0]).size

    @pytest.mark.parametrize("name", ["geometric", "peaked", "half_constant"])
    def test_lanes_decode_the_whole_stream(self, name, monkeypatch):
        codec, syms, payload = _encoded(name)
        handed_over = []
        chain_walk = huffman_fast._chain_walk

        def spy(codec, buf, pb, total_bits, out, pos, i):
            handed_over.append(i)
            return chain_walk(codec, buf, pb, total_bits, out, pos, i)

        monkeypatch.setattr(huffman_fast, "_chain_walk", spy)
        with forced("fast"):
            assert np.array_equal(codec.decode(payload, syms.size), syms)
        assert handed_over == [syms.size]

    @pytest.mark.parametrize("name", ["geometric", "peaked", "half_constant"])
    def test_bit_flips_around_region_boundaries(self, name):
        codec, syms, payload = _encoded(name)
        total_bits = 8 * len(payload)
        region = max(
            huffman_fast._MIN_REGION_BITS,
            huffman_fast._LANE_SYMBOLS * total_bits // syms.size,
        )
        outcomes = set()
        for k in (1, 2, 57, 400, total_bits // region - 1):
            edge = (k * region) >> 3  # first byte of region k
            for at in (edge - 1, edge):
                for bit in (0, 3, 7):
                    bad = bytearray(payload)
                    bad[at] ^= 1 << bit
                    got = lanes_match_chain_walk(codec, bytes(bad), syms.size)
                    outcomes.add(got[0])
                    if bit == 0:
                        matches_reference(codec, bytes(bad), syms.size, got)
        assert outcomes <= {"ok", "BitstreamError", "HuffmanError"}

    @pytest.mark.parametrize("name", ["geometric", "peaked", "half_constant"])
    def test_truncation_by_1_to_50_bytes(self, name):
        codec, syms, payload = _encoded(name)
        for cut in range(1, 51):
            got = lanes_match_chain_walk(codec, payload[:-cut], syms.size)
            assert got[0] == "BitstreamError"
            if cut in (1, 17, 50):
                matches_reference(codec, payload[:-cut], syms.size, got)

    @pytest.mark.parametrize("name", ["geometric", "peaked", "half_constant"])
    def test_appended_garbage_with_count_raised(self, name):
        codec, syms, payload = _encoded(name)
        rng = np.random.default_rng(31)
        for extra_bytes, extra_syms in ((1, 1), (9, 4), (40, 12), (40, 400)):
            tail = rng.integers(0, 256, extra_bytes, dtype=np.uint8).tobytes()
            got = lanes_match_chain_walk(
                codec, payload + tail, syms.size + extra_syms
            )
            matches_reference(
                codec, payload + tail, syms.size + extra_syms, got
            )
            if got[0] == "ok":
                decoded = np.frombuffer(got[1], dtype=np.int64)
                assert np.array_equal(decoded[: syms.size], syms)

    @pytest.mark.parametrize("name", ["geometric", "peaked", "half_constant"])
    def test_count_lowered_below_the_stream_content(self, name):
        codec, syms, payload = _encoded(name)
        floor = huffman_fast._LANE_MIN_SYMBOLS
        for n in (floor, floor + 1, syms.size // 2, syms.size - 1):
            got = lanes_match_chain_walk(codec, payload, n)
            assert got == ("ok", syms[:n].tobytes())

    @pytest.mark.parametrize("name", sorted(LONG_STREAMS))
    def test_tiny_lanes_cross_many_segments(self, name):
        # The same streams cut to 2000 symbols, decoded with the lane
        # constants shrunk so even these cross hundreds of lanes.
        syms = LONG_STREAMS[name][29_000:31_000]
        codec = HuffmanCodec(HuffmanTable.from_symbols(syms))
        payload, _ = codec.encode(syms)
        rng = np.random.default_rng(41)
        with lane_constants(**TINY_LANES):
            got = lanes_match_chain_walk(codec, payload, syms.size)
            assert got == ("ok", syms.tobytes())
            for _ in range(40):
                bad = bytearray(payload)
                bad[rng.integers(len(bad))] ^= 1 << rng.integers(8)
                cut = int(rng.integers(0, 4))
                bad = bytes(bad[: len(bad) - cut])
                got = lanes_match_chain_walk(codec, bad, syms.size)
                matches_reference(codec, bad, syms.size, got)


def _long_code_stream():
    """2000 symbols with 7-11-bit codes: several codes per 8-bit region."""
    syms = np.random.default_rng(43).geometric(0.003, 2000).astype(np.int64)
    codec = HuffmanCodec(HuffmanTable.from_symbols(syms))
    return codec, syms, codec.encode(syms)[0]


class TestLaneChase:
    def test_path_follows_links_in_any_direction(self):
        # 0 -> 3 -> 1 -> 5 -> out of the segment: a link may point left.
        n = 6
        nxt = np.array([3, 5, n + 1, 1, n + 1, n])
        assert huffman_fast._true_path(nxt).tolist() == [0, 3, 1, 5]
        nxt[5] = 4  # ... -> 5 -> 4, which never linked
        assert huffman_fast._true_path(nxt) is None
        assert huffman_fast._true_path(np.array([2, 2])).tolist() == [0]

    def test_long_path_in_shuffled_lane_order(self):
        # A path through every lane, visiting them in a shuffled order.
        order = np.random.default_rng(5).permutation(np.arange(1, 3000))
        path = np.concatenate(([0], order))
        nxt = np.empty(path.size, dtype=np.int64)
        nxt[path[:-1]] = path[1:]
        nxt[path[-1]] = path.size
        assert np.array_equal(huffman_fast._true_path(nxt), path)

    def test_lanes_linking_past_their_right_hand_neighbour(self, monkeypatch):
        # 8-bit regions, codes of 7-11 bits: a lane steps over several
        # regions between looks and links to whichever lane marked last.
        codec, syms, payload = _long_code_stream()
        hops = []  # per segment: steps of the true path that skip a lane
        true_path = huffman_fast._true_path

        def spy(nxt):
            path = true_path(nxt)
            if path is not None:
                hops.append(int((np.diff(path) != 1).sum()))
            return path

        monkeypatch.setattr(huffman_fast, "_true_path", spy)
        with lane_constants(**{**TINY_LANES, "_LANE_SYMBOLS": 0}):
            got = lanes_match_chain_walk(codec, payload, syms.size)
            assert got == ("ok", syms.tobytes())
            for cut in (1, 2, 5):
                got = lanes_match_chain_walk(codec, payload[:-cut], syms.size)
                assert got[0] == "BitstreamError"
        assert len(hops) >= 24 and sum(hops) > 0

    def test_mark_generations_restart_below_the_limit(self, monkeypatch):
        codec, syms, payload = _long_code_stream()
        gens = []
        segment = huffman_fast._Lanes.segment

        def spy(self, *args):
            segment(self, *args)
            gens.append(self.gen)

        monkeypatch.setattr(huffman_fast._Lanes, "segment", spy)
        with lane_constants(**TINY_LANES, _MARK_LIMIT=1 << 12):
            got = lanes_match_chain_walk(codec, payload, syms.size)
        assert got == ("ok", syms.tobytes())
        assert gens.count(1) > 2 and max(gens) > 1


def _batch_streams(n_streams=8, n=5000, share=False):
    """Geometric code streams, one table each (or one shared table)."""
    rng = np.random.default_rng(47)
    streams = [rng.geometric(0.1 + 0.05 * k, n).astype(np.int64) for k in range(n_streams)]
    shared = HuffmanCodec(HuffmanTable.from_symbols(np.concatenate(streams)))
    items = []
    for syms in streams:
        codec = shared if share else HuffmanCodec(HuffmanTable.from_symbols(syms))
        items.append((codec, codec.encode(syms)[0], syms.size))
    return items, streams


class TestHuffmanBatch:
    @pytest.mark.parametrize("share", [False, True])
    def test_whole_streams_share_one_lock_step_set(self, share, monkeypatch):
        items, streams = _batch_streams(share=share)
        sets = []
        lane_set = huffman_fast._lane_set

        def spy(lanes, pieces):
            decoded = lane_set(lanes, pieces)
            sets.append((len(pieces), lanes.lut.size))
            return decoded

        handed_over = []
        chain_walk = huffman_fast._chain_walk

        def walk(codec, buf, pb, total_bits, out, pos, i):
            handed_over.append(out.size - i)
            return chain_walk(codec, buf, pb, total_bits, out, pos, i)

        monkeypatch.setattr(huffman_fast, "_lane_set", spy)
        monkeypatch.setattr(huffman_fast, "_chain_walk", walk)
        with forced("fast"):
            got = decode_many(items)
        assert [g.tobytes() for g in got] == [s.tobytes() for s in streams]
        assert handed_over == [0] * 8  # the lanes decoded every stream whole
        # one set of all eight, decoding against their tables concatenated:
        # the wide ones and the group tables of those that take groups
        tables = {
            id(c): huffman_fast._lane_lut(c).size + c._lane_groups[0].size
            for c, _, _ in items
        }
        assert len(tables) == (1 if share else 8)
        assert sets == [(8, sum(tables.values()))]

    def test_a_failing_stream_is_its_own_entry(self):
        items, streams = _batch_streams()
        codec, payload, n = items[3]
        items[3] = (codec, payload[:-3], n)  # passes the host checks
        with forced("fast"):
            got = decode_outcomes(items)
            alone = [decode_outcomes([item])[0] for item in items]
            with pytest.raises(BitstreamError) as info:
                decode_many(items)
        assert isinstance(got[3], BitstreamError) and str(info.value) == str(got[3])
        assert str(got[3]) == str(alone[3])
        for k in (0, 1, 2, 4, 5, 6, 7):
            assert got[k].tobytes() == streams[k].tobytes() == alone[k].tobytes()

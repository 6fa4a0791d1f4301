"""Unit tests for the rANS entropy subsystem (table, coder, RLE, stage).

The vectorized fast kernels are held bit-identical to their scalar
references by the differential property suite in
``tests/property/test_prop_rans.py``; this module covers the host-level
wire format, the validation taxonomy (:class:`repro.errors.RansError`),
the ``auto`` probe, and the ``codes_entropy`` stage integration —
including the backward-compat guarantee that Huffman payloads are
byte-identical to the pre-rANS stage and carry no ``entropy`` header
key.
"""

import importlib.util
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.codec.registry import REGISTRY, get_codec
from repro.codec.spec import ENTROPY_BACKENDS
from repro.codec.stages import EntropyCodesStage
from repro.errors import ConfigError, ContainerError, RansError
from repro.io.container import Container
from repro.kernels import forced, rans_fast
from repro.rans import coder
from repro.rans import (
    MAX_SYMBOLS,
    PROB_SCALE,
    RUN_MAX,
    RansTable,
    decode_tokens,
    encode_tokens,
    normalize_freqs,
    pick_lanes,
    probe_codes,
    rle_collapse,
    rle_expand,
    run_stats,
    should_rle,
)
from repro.streams import decompress_auto
from tests.small_jobs import captured_calls, small_jobs

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def _table_for(tokens: np.ndarray) -> RansTable:
    values, counts = np.unique(tokens, return_counts=True)
    return RansTable.from_counts(values.astype(np.int64), counts.astype(np.int64))


class TestNormalizeFreqs:
    def test_sums_to_prob_scale(self):
        counts = np.array([1, 10, 100, 1000, 10000], dtype=np.int64)
        freqs = normalize_freqs(counts)
        assert int(freqs.sum()) == PROB_SCALE
        assert (freqs >= 1).all()

    def test_extreme_skew_keeps_rare_symbols_alive(self):
        counts = np.array([10**9] + [1] * 50, dtype=np.int64)
        freqs = normalize_freqs(counts)
        assert int(freqs.sum()) == PROB_SCALE
        assert (freqs[1:] == 1).all()

    def test_single_symbol_takes_whole_scale(self):
        freqs = normalize_freqs(np.array([7], dtype=np.int64))
        assert freqs.tolist() == [PROB_SCALE]

    def test_deterministic(self):
        counts = np.array([3, 3, 3, 5, 5], dtype=np.int64)
        assert (normalize_freqs(counts) == normalize_freqs(counts)).all()


class TestRansTable:
    def test_serialization_roundtrip(self):
        t = _table_for(np.array([0, 0, 1, 1, 1, 7, 512, 512]))
        t2 = RansTable.from_bytes(t.to_bytes())
        assert (t2.symbols == t.symbols).all()
        assert (t2.freqs == t.freqs).all()

    def test_rejects_unsorted_symbols(self):
        with pytest.raises(RansError):
            RansTable.from_counts(
                np.array([5, 3], dtype=np.int64), np.array([1, 1], dtype=np.int64)
            )

    def test_rejects_negative_symbols(self):
        with pytest.raises(RansError):
            RansTable.from_counts(
                np.array([-1, 3], dtype=np.int64), np.array([1, 1], dtype=np.int64)
            )

    def test_rejects_oversized_alphabet(self):
        values = np.arange(MAX_SYMBOLS + 1, dtype=np.int64)
        counts = np.ones(MAX_SYMBOLS + 1, dtype=np.int64)
        with pytest.raises(RansError):
            RansTable.from_counts(values, counts)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda b: b"XXXX" + b[4:],  # bad magic
            lambda b: b[:-1],  # truncated
            lambda b: b + b"\x00",  # trailing garbage
        ],
    )
    def test_corrupt_blob_raises(self, mutate):
        blob = _table_for(np.array([0, 1, 1, 2, 2, 2])).to_bytes()
        with pytest.raises(RansError):
            RansTable.from_bytes(mutate(blob))

    def test_freq_sum_mismatch_raises(self):
        t = _table_for(np.array([0, 1, 1, 2]))
        blob = bytearray(t.to_bytes())
        blob[-2:] = (int.from_bytes(blob[-2:], "little") - 1).to_bytes(2, "little")
        with pytest.raises(RansError):
            RansTable.from_bytes(bytes(blob))


class TestCoder:
    def test_roundtrip_and_mode_byte_equality(self):
        rng = np.random.default_rng(0)
        tokens = rng.choice(
            [3, 7, 7, 7, 40, 41], size=5000, p=[0.1, 0.3, 0.3, 0.1, 0.1, 0.1]
        ).astype(np.int64)
        table = _table_for(tokens)
        with forced("reference"):
            blob_ref = encode_tokens(tokens, table)
            back_ref = decode_tokens(blob_ref, table, tokens.size)
        with forced("fast"):
            blob_fast = encode_tokens(tokens, table)
            back_fast = decode_tokens(blob_fast, table, tokens.size)
        assert blob_ref == blob_fast
        assert (back_ref == tokens).all()
        assert (back_fast == tokens).all()

    @pytest.mark.parametrize(
        "n_lanes,m",
        [
            (lanes, m)
            for lanes in (1, 5, 64)
            for m in sorted({1, 63, 64, 65, 2 * lanes - 1})
        ],
    )
    def test_small_stream_kernel_parity(self, n_lanes, m):
        # Short streams leave lanes of the last step idle (at one token,
        # every lane but one): the fast kernel pads them, the reference
        # skips them.
        rng = np.random.default_rng(m * 131 + n_lanes)
        table = RansTable.from_counts(
            np.arange(6), np.array([4000, 600, 90, 9, 2, 1])
        )
        idx = rng.choice(6, size=m, p=[0.5, 0.2, 0.1, 0.1, 0.05, 0.05])
        args = (idx, table.freqs, table.cum(), n_lanes)
        states_ref, stream_ref = coder._encode_reference(*args)
        states, stream = rans_fast.encode_stream(*args)
        assert stream == stream_ref
        assert states.dtype == states_ref.dtype
        assert (states == states_ref).all()
        back = rans_fast.decode_stream(
            stream, states.astype(np.int64), m,
            table.freqs, table.cum(), table.slot_map(),
        )
        assert (back == idx).all()

    def test_step_where_every_lane_emits_two_bytes(self):
        # A frequency-1 symbol shifts 12 bits into the state per token;
        # back to back it alternates one- and two-byte renorms, so on a
        # stream of nothing else every other step moves 2 * lanes bytes.
        n_lanes, n_steps = 8, 4
        table = RansTable(
            symbols=np.arange(2), freqs=np.array([PROB_SCALE - 1, 1])
        )
        idx = np.ones(n_lanes * n_steps, dtype=np.int64)
        args = (idx, table.freqs, table.cum(), n_lanes)
        states_ref, stream_ref = coder._encode_reference(*args)
        states, stream = rans_fast.encode_stream(*args)
        assert len(stream_ref) == n_lanes * (1 + 2 + 1 + 2)
        assert stream == stream_ref
        assert (states == states_ref).all()

    def test_empty_stream(self):
        table = _table_for(np.array([5]))
        blob = encode_tokens(np.empty(0, dtype=np.int64), table)
        assert decode_tokens(blob, table, 0).size == 0

    def test_out_of_alphabet_symbol_raises(self):
        table = _table_for(np.array([1, 2, 2]))
        with pytest.raises(RansError):
            encode_tokens(np.array([1, 99], dtype=np.int64), table)

    def test_huge_and_negative_tokens_raise(self):
        table = _table_for(np.array([1, 2, 2]))
        for bad in (-1, -(2**63), 2**63 - 1):
            with pytest.raises(RansError, match="outside the table"):
                encode_tokens(np.array([1, bad], dtype=np.int64), table)

    def test_truncated_blob_raises(self):
        tokens = np.arange(300, dtype=np.int64) % 5
        table = _table_for(tokens)
        blob = encode_tokens(tokens, table)
        with pytest.raises(RansError):
            decode_tokens(blob[: len(blob) // 2], table, tokens.size)

    def test_trailing_bytes_raise(self):
        tokens = np.arange(300, dtype=np.int64) % 5
        table = _table_for(tokens)
        blob = encode_tokens(tokens, table)
        with pytest.raises(RansError):
            decode_tokens(blob + b"\x00\x01", table, tokens.size)

    def test_bad_lane_state_raises(self):
        tokens = np.zeros(10, dtype=np.int64)
        table = _table_for(tokens)
        blob = bytearray(encode_tokens(tokens, table))
        blob[4:8] = (0).to_bytes(4, "little")  # state below the coder bound
        with pytest.raises(RansError):
            decode_tokens(bytes(blob), table, tokens.size)

    def test_lane_count_scales_with_stream(self):
        assert pick_lanes(0) == 1
        assert pick_lanes(1) == 1
        assert pick_lanes(64 * 8) == 8
        assert pick_lanes(10**9) == 2048  # capped


def _encode_by_search(tokens: np.ndarray, table: RansTable) -> bytes:
    """``encode_tokens`` as it was: table indices by binary search."""
    tokens = np.asarray(tokens, dtype=np.int64).reshape(-1)
    if tokens.size == 0:
        return struct.pack("<I", 0)
    idx = np.minimum(np.searchsorted(table.symbols, tokens), table.symbols.size - 1)
    if (table.symbols[idx] != tokens).any():
        raise RansError("token stream carries a symbol outside the table")
    n_lanes = pick_lanes(tokens.size)
    states, stream = coder.resolve("rans.encode")(idx, table.freqs, table.cum(), n_lanes)
    return struct.pack("<I", n_lanes) + np.asarray(states, dtype="<u4").tobytes() + stream


class TestTableIndices:
    """``encode_tokens`` indexes its table through a dense rank table over
    the symbols' span; the binary search it replaced is the oracle."""

    TABLES = {
        "radius": np.arange(32768 - 91, 32768 + 92, dtype=np.int64),
        "holes": np.array([3, 5, 6, 40, 41, 900], dtype=np.int64),
        "from_zero": np.arange(0, 7, dtype=np.int64),
        "single": np.array([12345], dtype=np.int64),
        "sparse": np.array([0, 2**31], dtype=np.int64),
        "wide": np.array([0, 5, 1 << 20, (1 << 32) - 1], dtype=np.int64),
    }

    @pytest.mark.parametrize("mode", ["reference", "fast"])
    @pytest.mark.parametrize("name", list(TABLES))
    @pytest.mark.parametrize("m", [1, 63, 700, 3900])
    def test_bytes_equal_the_search_oracle(self, mode, name, m):
        symbols = self.TABLES[name]
        rng = np.random.default_rng(m + symbols.size)
        counts = rng.integers(1, 50, symbols.size)
        table = RansTable.from_counts(symbols, counts)
        tokens = rng.choice(symbols, size=m, p=counts / counts.sum())
        with forced(mode):
            got = encode_tokens(tokens, table)
            assert got == _encode_by_search(tokens, table)
            assert (decode_tokens(got, table, m) == tokens).all()

    @pytest.mark.parametrize("mode", ["reference", "fast"])
    @pytest.mark.parametrize("name", ["radius", "holes", "sparse"])
    def test_refusals_equal_the_search_oracle(self, mode, name):
        symbols = self.TABLES[name]
        table = RansTable.from_counts(symbols, np.ones(symbols.size, dtype=np.int64))
        lo, hi = int(symbols[0]), int(symbols[-1])
        absent = [v for v in range(lo, min(hi, lo + 1000)) if v not in set(symbols.tolist())]
        bad = [lo - 1, hi + 1, -1, -(2**63), 2**63 - 1] + absent[:1]
        for value in bad:
            tokens = np.array([lo, value, hi], dtype=np.int64)
            with forced(mode):
                with pytest.raises(RansError) as want:
                    _encode_by_search(tokens, table)
                with pytest.raises(RansError) as got:
                    encode_tokens(tokens, table)
            assert str(got.value) == str(want.value), value


def _decode_outcome(mode, blob, table, m):
    """``("ok", bytes)`` or ``(class name, message)`` under ``mode``."""
    try:
        with forced(mode):
            return ("ok", decode_tokens(blob, table, m).tobytes())
    except RansError as err:
        return (type(err).__name__, str(err))


def _damage_blob(m):
    """A skewed m-token blob: one- and two-byte renorms in most steps."""
    rng = np.random.default_rng(m)
    table = RansTable.from_counts(np.arange(6), np.array([4000, 600, 90, 9, 2, 1]))
    tokens = rng.choice(6, size=m, p=[0.4, 0.2, 0.1, 0.1, 0.1, 0.1])
    return encode_tokens(tokens, table), table


class TestDecodeDamageParity:
    """Fast and reference decode agree on class *and* message."""

    @staticmethod
    def same(blob, table, m):
        got = _decode_outcome("fast", blob, table, m)
        assert got == _decode_outcome("reference", blob, table, m)
        return got

    # 300 tokens fill 4 lanes evenly; 301 leave 3 of them idle in the
    # last step.
    @pytest.mark.parametrize("m", [300, 301])
    def test_every_truncation_length(self, m):
        blob, table = _damage_blob(m)
        kinds = set()
        for cut in range(len(blob)):
            kinds.add(self.same(blob[:cut], table, m)[1])
        assert "rANS byte stream exhausted mid-decode" in kinds
        assert self.same(blob, table, m)[0] == "ok"

    @pytest.mark.parametrize("m", [300, 301])
    def test_trailing_bytes(self, m):
        blob, table = _damage_blob(m)
        for tail in (b"\x00", b"\x00\x01"):
            got = self.same(blob + tail, table, m)
            assert got == ("RansError", f"rANS stream carries {len(tail)} trailing bytes")

    @pytest.mark.parametrize(
        "state", [coder.RANS_L - 1, 2**31, coder.RANS_L, coder.RANS_L + 1, 2**31 - 1]
    )
    def test_lane_state_at_and_past_the_interval_edges(self, state):
        blob, table = _damage_blob(301)
        bad = bytearray(blob)
        bad[8:12] = state.to_bytes(4, "little")  # the second lane
        got = self.same(bytes(bad), table, 301)
        assert got[0] == "RansError"
        if not coder.RANS_L <= state < 2**31:
            assert got[1] == "rANS lane state outside the coder interval"

    def test_idle_lanes_with_flipped_bytes(self):
        blob, table = _damage_blob(301)
        outcomes = set()
        for at in range(4 + 4 * 4, len(blob), 3):
            bad = bytearray(blob)
            bad[at] ^= 0x5A
            outcomes.add(self.same(bytes(bad), table, 301)[0])
        assert outcomes <= {"ok", "RansError"} and "RansError" in outcomes


def _twins(stream, states, m, table):
    """``rans_fast.decode_stream`` and the scalar ``_decode_reference``,
    called directly: the same symbol indices or the same RansError text."""
    args = (
        stream, np.asarray(states, dtype=np.int64), m,
        table.freqs, table.cum(), table.slot_map(),
    )

    def run(decode):
        try:
            return ("ok", decode(*args).tobytes())
        except RansError as err:
            return ("RansError", str(err))

    got = run(rans_fast.decode_stream)
    assert got == run(coder._decode_reference)
    return got


def _damage_matches(stream, states, m, table, cuts=None):
    """Truncations, one extra byte and a lane state off ``RANS_L`` raise
    the reference's text in the fast step too."""
    for cut in range(len(stream)) if cuts is None else cuts:
        got = _twins(stream[:cut], states, m, table)
        assert got[0] == "RansError"
    assert _twins(stream + b"\x00", states, m, table)[0] == "RansError"
    off = np.array(states, dtype=np.int64)
    off[-1] += 1  # still inside the coder interval
    assert _twins(stream, off, m, table)[0] == "RansError"


def _encoded(idx, table, n_lanes):
    return coder._encode_reference(
        np.asarray(idx, dtype=np.int64), table.freqs, table.cum(), n_lanes
    )


_SKEWED = RansTable.from_counts(np.arange(6), np.array([4000, 600, 90, 9, 2, 1]))
_SKEWED_P = [0.4, 0.2, 0.1, 0.1, 0.1, 0.1]


class TestFastDecodeStep:
    """The fast decode step against the scalar reference twin, called
    directly (so every case holds under either ``REPRO_KERNELS`` mode):
    same symbols on clean streams, same ``RansError`` text on damaged
    ones."""

    @pytest.mark.parametrize("n_lanes", [1, 2, 24, 37, 60, 1271, 2048])
    def test_lane_counts_with_a_ragged_last_step(self, n_lanes):
        m = 3 * n_lanes + max(1, n_lanes // 2)  # the last step leaves lanes idle
        assert n_lanes == 1 or m % n_lanes
        idx = np.random.default_rng(n_lanes).choice(6, size=m, p=_SKEWED_P)
        states, stream = _encoded(idx, _SKEWED, n_lanes)
        assert _twins(stream, states, m, _SKEWED) == ("ok", idx.tobytes())
        cuts = None if n_lanes <= 60 else range(0, len(stream), len(stream) // 16)
        _damage_matches(stream, states, m, _SKEWED, cuts)

    def test_forged_header_with_more_lanes_than_tokens(self):
        m, n_lanes = 7, 40
        idx = np.random.default_rng(5).choice(6, size=m, p=_SKEWED_P)
        states, stream = _encoded(idx, _SKEWED, n_lanes)
        assert (states[m:] == coder.RANS_L).all()
        assert _twins(stream, states, m, _SKEWED) == ("ok", idx.tobytes())
        _damage_matches(stream, states, m, _SKEWED)
        blob = struct.pack("<I", n_lanes) + states.astype("<u4").tobytes() + stream
        assert _decode_outcome("fast", blob, _SKEWED, m) == _decode_outcome(
            "reference", blob, _SKEWED, m
        ) == ("ok", _SKEWED.symbols[idx].tobytes())

    def test_every_lane_needs_two_bytes_every_other_step(self):
        # Nothing but a frequency-1 symbol: each token shifts 12 bits into
        # a lane, so the steps alternate one- and two-byte renorms on
        # every lane at once.
        n_lanes, n_steps = 24, 10
        table = RansTable(symbols=np.arange(2), freqs=np.array([PROB_SCALE - 1, 1]))
        idx = np.ones(n_lanes * n_steps - 5, dtype=np.int64)
        states, stream = _encoded(idx, table, n_lanes)
        assert len(stream) > 1.4 * idx.size
        assert _twins(stream, states, idx.size, table) == ("ok", idx.tobytes())
        _damage_matches(stream, states, idx.size, table)

    def test_steps_where_no_lane_needs_a_byte(self):
        # A 4095/4096 symbol barely moves a state: whole streams of it
        # carry no byte at all, and one rare symbol in one lane makes the
        # only steps that read.
        n_lanes = 37
        table = RansTable(symbols=np.arange(2), freqs=np.array([PROB_SCALE - 1, 1]))
        quiet = np.zeros(n_lanes * 12 + 3, dtype=np.int64)
        states, stream = _encoded(quiet, table, n_lanes)
        assert stream == b""
        assert _twins(stream, states, quiet.size, table) == ("ok", quiet.tobytes())
        rare = quiet.copy()
        rare[[5, 5 + 4 * n_lanes, 5 + 9 * n_lanes]] = 1
        states, stream = _encoded(rare, table, n_lanes)
        assert 0 < len(stream) <= 6
        assert _twins(stream, states, rare.size, table) == ("ok", rare.tobytes())
        _damage_matches(stream, states, rare.size, table)

    def test_the_small_job_rans_streams(self):
        calls = captured_calls("rans.decode", ("wavesz-dp-rans",))
        assert len(calls) == 32
        assert {args[1].size for args in calls} <= set(range(24, 61))
        for k, (stream, states, m, freqs, cum, slot_map) in enumerate(calls):
            table = RansTable(symbols=np.arange(freqs.size), freqs=freqs)
            assert (table.slot_map() == slot_map).all()
            assert _twins(stream, states, m, table)[0] == "ok"
            if k % 8 == 0:
                cuts = range(0, len(stream), 97)
                _damage_matches(stream, states, m, table, cuts)

    def test_small_job_payloads_decode_identically_in_both_modes(self):
        for codec, _, payload in small_jobs():
            if codec != "wavesz-dp-rans":
                continue
            with forced("fast"):
                fast = decompress_auto(payload)
            with forced("reference"):
                ref = decompress_auto(payload)
            assert fast.tobytes() == ref.tobytes()


class TestRle:
    def test_collapse_expand_roundtrip(self):
        codes = np.array([5, 5, 5, 1, 5, 5, 2, 2, 5], dtype=np.int64)
        tokens, runs = rle_collapse(codes, 5)
        assert (rle_expand(tokens, runs, 5) == codes).all()

    def test_long_run_splits_at_255(self):
        codes = np.full(RUN_MAX * 2 + 10, 9, dtype=np.int64)
        tokens, runs = rle_collapse(codes, 9)
        assert runs.tolist() == [RUN_MAX, RUN_MAX, 10]
        assert (rle_expand(tokens, runs, 9) == codes).all()

    def test_run_stats_counts_chunks(self):
        codes = np.full(RUN_MAX + 1, 4, dtype=np.int64)
        n_r, k = run_stats(codes, 4)
        assert n_r == RUN_MAX + 1
        assert k == 2

    def test_should_rle_activation(self):
        assert should_rle(100, 80, 10)
        assert not should_rle(100, 30, 10)  # runs don't dominate
        assert not should_rle(100, 80, 50)  # runs too fragmented
        assert not should_rle(100, 0, 0)

    def test_expand_rejects_mismatched_runs(self):
        with pytest.raises(RansError):
            rle_expand(np.array([5, 5], dtype=np.int64), np.array([3], np.uint8), 5)

    def test_expand_rejects_zero_length_run(self):
        with pytest.raises(RansError):
            rle_expand(np.array([5], dtype=np.int64), np.array([0], np.uint8), 5)

    def test_mode_equality(self):
        rng = np.random.default_rng(1)
        codes = np.where(rng.random(4000) < 0.7, 11, rng.integers(0, 40, 4000))
        codes = codes.astype(np.int64)
        with forced("reference"):
            t_ref, r_ref = rle_collapse(codes, 11)
        with forced("fast"):
            t_fast, r_fast = rle_collapse(codes, 11)
        assert (t_ref == t_fast).all()
        assert (r_ref == r_fast).all()


class TestProbe:
    def test_run_dominated_stream_picks_rans(self):
        """Long radius runs + high-entropy literals: the rANS sweet spot.

        (On degenerate near-constant streams Huffman + gzip wins — the
        gzip pass crushes the repetitive bitstream — and the probe
        correctly keeps picking it there.)
        """
        rng = np.random.default_rng(2)
        parts = []
        for _ in range(400):
            parts.append(np.full(40, 512, dtype=np.int64))
            parts.append(rng.integers(300, 800, 40).astype(np.int64))
        codes = np.concatenate(parts)
        probe = probe_codes(codes)
        assert probe.use_rle
        assert probe.pick == "rans"
        assert probe.n_tokens < codes.size

    def test_oversized_alphabet_falls_back_to_huffman(self):
        codes = np.arange(MAX_SYMBOLS + 10, dtype=np.int64)
        probe = probe_codes(codes)
        assert not probe.rans_ok
        assert probe.pick == "huffman"

    def test_probe_is_the_rans_plan(self):
        codes = np.array([7, 7, 7, 7, 1, 2], dtype=np.int64)
        probe = probe_codes(codes)
        table = RansTable.from_counts(probe.values, probe.token_counts)
        assert int(table.freqs.sum()) == PROB_SCALE


class TestEntropyCodesStage:
    def test_unknown_backend_raises_config_error(self):
        with pytest.raises(ConfigError):
            EntropyCodesStage(backend="lz77")

    def test_backends_constant(self):
        assert ENTROPY_BACKENDS == ("huffman", "rans", "auto")

    @pytest.mark.parametrize("profile", ["sz14-rans", "wavesz-dp-rans"])
    def test_rans_profile_roundtrip(self, profile):
        rng = np.random.default_rng(3)
        f = np.cumsum(rng.standard_normal((40, 50)).astype(np.float32), axis=0) / 10
        comp = get_codec(profile)
        cf = comp.compress(f, 1e-3, "vr_rel")
        assert cf.meta["entropy"] == "rans"
        header = Container.from_bytes(cf.payload).header
        assert header["entropy"] == "rans"
        out = decompress_auto(cf.payload)
        assert np.abs(out.astype(np.float64) - f.astype(np.float64)).max() <= 1.0

    def test_huffman_payload_has_no_entropy_key(self):
        rng = np.random.default_rng(4)
        f = np.cumsum(rng.standard_normal((30, 30)).astype(np.float32), axis=0) / 10
        cf = get_codec("wavesz-dp").compress(f, 1e-3, "vr_rel")
        assert cf.meta["entropy"] == "huffman"
        assert "entropy" not in Container.from_bytes(cf.payload).header

    def test_auto_records_its_resolution(self):
        rng = np.random.default_rng(5)
        f = np.cumsum(rng.standard_normal((40, 40)).astype(np.float32), axis=0) / 10
        cf = get_codec("wavesz-dp-auto").compress(f, 1e-3, "vr_rel")
        assert cf.meta["entropy"] in ("huffman", "rans")
        out = decompress_auto(cf.payload)
        assert out.shape == f.shape

    def test_pinned_huffman_stage_decodes_rans_payloads(self):
        """Default decode factories read rANS streams: dispatch is by header."""
        rng = np.random.default_rng(6)
        f = np.cumsum(rng.standard_normal((30, 40)).astype(np.float32), axis=0) / 10
        payload = get_codec("wavesz-dp-rans").compress(f, 1e-3, "vr_rel").payload
        out = get_codec("wavesz-dp").decompress(payload)
        assert out.shape == f.shape

    def test_default_backend_is_huffman(self):
        """The pre-rANS construction — no arguments at all — still
        builds the Huffman + gzip tail."""
        assert EntropyCodesStage().backend == "huffman"

    def test_unknown_header_backend_raises(self):
        rng = np.random.default_rng(7)
        f = np.cumsum(rng.standard_normal((20, 20)).astype(np.float32), axis=0) / 10
        comp = get_codec("wavesz-dp-rans")
        payload = comp.compress(f, 1e-3, "vr_rel").payload
        c = Container.from_bytes(payload)
        c.header["entropy"] = "arith"
        with pytest.raises(ContainerError):
            comp.decompress(c.to_bytes())

    def test_token_count_mismatch_raises(self):
        """An RLE-free rANS header must declare exactly n tokens."""
        rng = np.random.default_rng(8)
        f = np.cumsum(rng.standard_normal((20, 20)).astype(np.float32), axis=0) / 10
        comp = get_codec("wavesz-dp-rans")
        payload = comp.compress(f, 1e-3, "vr_rel").payload
        c = Container.from_bytes(payload)
        c.header["n_codes"] = int(c.header["n_codes"]) + 1
        with pytest.raises(ContainerError):
            comp.decompress(c.to_bytes())


class TestRegistrySurfacing:
    def test_describe_lists_entropy_backends(self):
        rows = {e["name"]: e["entropy_backends"] for e in REGISTRY.describe()}
        assert rows["waveSZ-dp"] == ["huffman", "rans", "auto"]
        assert rows["SZ-1.4"] == ["huffman", "rans", "auto"]
        assert rows["waveSZ"] == []

    def test_profiles_resolve_to_canonical_names(self):
        assert REGISTRY.canonical("wavesz-dp-rans") == "waveSZ-dp"
        assert REGISTRY.canonical("sz14-rans") == "SZ-1.4"
        assert get_codec("wavesz-dp-rans").entropy == "rans"
        assert get_codec("wavesz-dp-auto").entropy == "auto"


class TestStoreSurfacing:
    def test_manifest_records_tile_entropy(self, tmp_path):
        from repro.store.store import ArrayStore, compress_field_tiles

        rng = np.random.default_rng(9)
        f = np.cumsum(rng.standard_normal((60, 64)).astype(np.float32), axis=0) / 10
        m, _ = compress_field_tiles(f, codec="wavesz-dp-rans", n_tiles=3)
        assert m["tile_entropy"] == ["rans", "rans", "rans"]
        m2, _ = compress_field_tiles(f, codec="wavesz", n_tiles=2)
        assert m2["tile_entropy"] == [None, None]

        store = ArrayStore(tmp_path / "store")
        store.put("demo", f, codec="wavesz-dp-rans", n_tiles=3)
        (row,) = store.ls()
        assert row["entropy"] == "rans"

    def test_summarize_entropy(self):
        from repro.store.store import summarize_entropy

        assert summarize_entropy(None) == "-"
        assert summarize_entropy([None, None]) == "-"
        assert summarize_entropy(["rans", "rans"]) == "rans"
        assert summarize_entropy(["huffman", "rans", None]) == "huffman+rans"


class TestHistogramKernel:
    def test_modes_agree(self):
        rng = np.random.default_rng(10)
        flat = rng.integers(0, 3000, size=5000).astype(np.int64)
        from repro.encoding.histogram import symbol_histogram

        with forced("reference"):
            v_ref, c_ref = symbol_histogram(flat)
        with forced("fast"):
            v_fast, c_fast = symbol_histogram(flat)
        assert (v_ref == v_fast).all()
        assert (c_ref == c_fast).all()

    def test_sparse_alphabet_agrees(self):
        flat = np.array([0, 1 << 23, 1 << 23, 5], dtype=np.int64)
        from repro.encoding.histogram import symbol_histogram

        with forced("reference"):
            ref = symbol_histogram(flat)
        with forced("fast"):
            fast = symbol_histogram(flat)
        assert (ref[0] == fast[0]).all()
        assert (ref[1] == fast[1]).all()

    @staticmethod
    def _both_twins(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        from repro.encoding.histogram import symbol_histogram

        with forced("reference"):
            v_ref, c_ref = symbol_histogram(flat)
        with forced("fast"):
            v_fast, c_fast = symbol_histogram(flat)
        assert v_fast.dtype == c_fast.dtype == np.int64
        assert v_fast.tolist() == v_ref.tolist()
        assert c_fast.tolist() == c_ref.tolist()
        return v_fast, c_fast

    def test_codes_clustered_at_the_radius(self):
        # the dense scan starts at the smallest code, far above zero
        rng = np.random.default_rng(11)
        flat = 32768 + np.round(rng.laplace(0, 4, 3000)).astype(np.int64)
        values, counts = self._both_twins(flat)
        assert values[0] == flat.min() > 0 and counts.sum() == flat.size

    def test_a_single_repeated_value(self):
        for value in (0, 1, 32768, (1 << 22) - 1, 1 << 22):
            values, counts = self._both_twins(np.full(37, value, dtype=np.int64))
            assert values.tolist() == [value] and counts.tolist() == [37]

    def test_values_either_side_of_the_dense_limit(self):
        edge = 1 << 22
        for flat in (
            [edge - 1, edge - 1, edge - 3],  # dense, lo far above zero
            [edge, edge - 1, edge],  # sparse
            [edge - 1, 0, edge - 1, 7],
        ):
            self._both_twins(np.array(flat, dtype=np.int64))

    def test_validation_unchanged(self):
        from repro.encoding.histogram import symbol_histogram

        with pytest.raises(TypeError):
            symbol_histogram(np.array([0.5]))
        with pytest.raises(ValueError):
            symbol_histogram(np.array([-1]))
        v, c = symbol_histogram(np.empty(0, dtype=np.int64))
        assert v.size == 0 and c.size == 0


class TestGoldenBackwardCompat:
    """Pre-rANS goldens must stay Huffman-coded with no ``entropy`` key."""

    @staticmethod
    def _load_goldens():
        spec = importlib.util.spec_from_file_location(
            "generate_goldens", DATA_DIR / "generate_goldens.py"
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        manifest = json.loads((DATA_DIR / "manifest.json").read_text())
        return mod, manifest

    def test_pre_rans_goldens_carry_no_entropy_key(self):
        mod, manifest = self._load_goldens()
        pre_rans = [k for k in manifest if "rans" not in k and "auto" not in k]
        assert len(pre_rans) >= 10
        for key in pre_rans:
            payload = (DATA_DIR / f"golden_{key}.bin").read_bytes()
            assert "entropy" not in Container.from_bytes(payload).header, key

    def test_rans_goldens_decode_in_both_kernel_modes(self):
        mod, manifest = self._load_goldens()
        rans_keys = [k for k in manifest if k.endswith(("_rans", "_rans_3d", "_rans_1d"))]
        assert rans_keys
        for key in rans_keys:
            payload = (DATA_DIR / f"golden_{key}.bin").read_bytes()
            assert Container.from_bytes(payload).header["entropy"] == "rans"
            want = manifest[key]["output_sha256"]
            for mode in ("fast", "reference"):
                with forced(mode):
                    out = decompress_auto(payload)
                got = __import__("hashlib").sha256(
                    np.ascontiguousarray(out).tobytes()
                ).hexdigest()
                assert got == want, (key, mode)

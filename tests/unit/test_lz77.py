"""Unit tests for the hash-chain LZ77 matcher."""

import numpy as np
import pytest

from repro.errors import LosslessError
from repro.lossless.lz77 import LZ77Encoder, TokenStream, MAX_MATCH, MIN_MATCH


def roundtrip(data: bytes, enc: LZ77Encoder | None = None) -> TokenStream:
    enc = enc or LZ77Encoder()
    ts = enc.parse(data)
    assert ts.reconstruct() == data
    return ts


class TestParse:
    def test_empty(self):
        ts = LZ77Encoder().parse(b"")
        assert ts.n_tokens == 0
        assert ts.reconstruct() == b""

    def test_tiny_inputs_all_literals(self):
        for data in (b"a", b"ab", b"abc"):
            ts = roundtrip(data)
            assert (ts.kinds == 0).all()

    def test_repetition_found(self):
        data = b"abcabcabcabcabc"
        ts = roundtrip(data)
        assert (ts.kinds == 1).any(), "repeating input must produce matches"

    def test_overlapping_match_rle(self):
        # Run-length via dist < len (dist=1 copy).
        data = b"x" + b"a" * 100
        ts = roundtrip(data)
        matches = ts.kinds == 1
        assert matches.any()
        assert (ts.dists[matches] == 1).any()

    def test_incompressible_random(self):
        r = np.random.default_rng(0)
        data = r.integers(0, 256, 2000, dtype=np.uint8).tobytes()
        roundtrip(data)

    def test_match_length_capped(self):
        data = b"ab" + b"c" * 5000
        ts = roundtrip(data)
        assert ts.values[ts.kinds == 1].max() <= MAX_MATCH

    def test_min_match_respected(self):
        ts = roundtrip(b"abxaby")  # "ab" repeats but is below MIN_MATCH
        assert (ts.values[ts.kinds == 1] >= MIN_MATCH).all()

    def test_window_limits_distance(self):
        enc = LZ77Encoder(window=64)
        data = b"HELLO-WORLD!" + bytes(range(200)) + b"HELLO-WORLD!"
        ts = enc.parse(data)
        assert ts.reconstruct() == data
        m = ts.kinds == 1
        if m.any():
            assert (ts.dists[m] <= 64).all()

    def test_effort_levels_both_roundtrip(self):
        data = (b"the quick brown fox " * 50) + bytes(range(256))
        fast = LZ77Encoder.best_speed().parse(data)
        best = LZ77Encoder.best_compression().parse(data)
        assert fast.reconstruct() == data
        assert best.reconstruct() == data

    def test_best_compression_at_least_as_good(self):
        r = np.random.default_rng(1)
        # Structured data with long-range repeats.
        chunk = r.integers(0, 16, 300, dtype=np.uint8).tobytes()
        data = chunk * 10
        fast = LZ77Encoder.best_speed().parse(data)
        best = LZ77Encoder.best_compression().parse(data)
        assert best.n_tokens <= fast.n_tokens

    def test_bad_params_rejected(self):
        with pytest.raises(LosslessError):
            LZ77Encoder(window=0)
        with pytest.raises(LosslessError):
            LZ77Encoder(window=1 << 20)
        with pytest.raises(LosslessError):
            LZ77Encoder(max_chain=0)


class TestTokenStream:
    def test_expanded_size(self):
        ts = LZ77Encoder().parse(b"abcabcabc")
        assert ts.expanded_size() == 9

    def test_invalid_distance_rejected_on_reconstruct(self):
        ts = TokenStream(
            kinds=np.array([0, 1], dtype=np.uint8),
            values=np.array([65, 5], dtype=np.int32),
            dists=np.array([0, 99], dtype=np.int32),  # distance beyond output
        )
        with pytest.raises(LosslessError):
            ts.reconstruct()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(LosslessError):
            TokenStream(
                kinds=np.zeros(2, np.uint8),
                values=np.zeros(3, np.int32),
                dists=np.zeros(2, np.int32),
            )

    def test_invalid_distance_message_names_the_first_bad_match(self):
        ts = TokenStream(
            kinds=np.array([0, 0, 1, 1, 1], dtype=np.uint8),
            values=np.array([65, 66, 4, 3, 5], dtype=np.int32),
            dists=np.array([0, 0, 2, 7, 9], dtype=np.int32),
        )
        with pytest.raises(LosslessError, match=r"^invalid match distance 7 at offset 6$"):
            ts.reconstruct()

    @pytest.mark.parametrize(
        "kinds,values,match",
        [
            # kind 2 would expand as a literal expanded_size() does not count
            ([0, 2, 0], [65, 66, 67], "token kinds"),
            ([0, 255, 0], [65, 66, 67], "token kinds"),
            # literals that would wrap to b"," and b"\xff"
            ([0, 0], [65, 300], "literal values"),
            ([0, 0], [-1, 65], "literal values"),
            ([0, 1], [65, -3], "match lengths"),
        ],
    )
    def test_tokens_outside_the_contract_are_rejected(self, kinds, values, match):
        with pytest.raises(LosslessError, match=match):
            TokenStream(
                kinds=np.array(kinds, dtype=np.int64),
                values=np.array(values, dtype=np.int32),
                dists=np.array([0, 1, 0][: len(kinds)], dtype=np.int32),
            )

    def test_accepted_streams_expand_to_their_size(self):
        ts = TokenStream(
            kinds=np.array([0, 0, 1, 0, 1, 1], dtype=np.uint8),
            values=np.array([0, 255, 7, 9, 3, 0], dtype=np.int32),
            dists=np.array([0, 0, 1, 0, 4, 2], dtype=np.int32),
        )
        out = ts.reconstruct()
        assert out == b"\x00" + b"\xff" * 8 + b"\x09" + b"\xff" * 3
        assert len(out) == ts.expanded_size() == 13

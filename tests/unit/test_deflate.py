"""Unit tests for the DEFLATE-style container."""

import zlib

import numpy as np
import pytest

from repro.errors import LosslessError
from repro.lossless import LZ77Encoder, deflate, inflate
from repro.lossless.deflate import DIST_BASE, DIST_EXTRA, LENGTH_BASE, LENGTH_EXTRA


class TestBucketTables:
    def test_length_buckets_cover_3_to_258(self):
        # Every legal match length maps into exactly one bucket whose
        # base + extra-bit span contains it.
        for length in range(3, 259):
            idx = int(np.searchsorted(LENGTH_BASE, length, side="right")) - 1
            base = int(LENGTH_BASE[idx])
            span = 1 << int(LENGTH_EXTRA[idx])
            assert base <= length < base + span or length == 258

    def test_distance_buckets_cover_1_to_32768(self):
        for dist in (1, 2, 3, 4, 5, 100, 1024, 5000, 32768):
            idx = int(np.searchsorted(DIST_BASE, dist, side="right")) - 1
            base = int(DIST_BASE[idx])
            span = 1 << int(DIST_EXTRA[idx])
            assert base <= dist < base + span


class TestRoundtrip:
    CASES = [
        b"",
        b"a",
        b"ab" * 3,
        b"hello world, hello world, hello world",
        bytes(range(256)) * 4,
        b"\x00" * 10000,
        b"a" * 3 + b"b" * 258 + b"a" * 3,
    ]

    @pytest.mark.parametrize("data", CASES, ids=range(len(CASES)))
    def test_cases(self, data):
        assert inflate(deflate(data)) == data

    def test_random_bytes(self):
        r = np.random.default_rng(0)
        data = r.integers(0, 256, 5000, dtype=np.uint8).tobytes()
        assert inflate(deflate(data)) == data

    def test_quant_code_stream(self):
        r = np.random.default_rng(1)
        codes = (32768 + r.geometric(0.4, 20000) * r.choice([-1, 1], 20000)).astype(
            "<u2"
        )
        data = codes.tobytes()
        blob = deflate(data)
        assert inflate(blob) == data
        assert len(blob) < len(data)  # must actually compress this

    def test_fast_encoder_roundtrip(self):
        data = b"abcdefgh" * 500
        blob = deflate(data, LZ77Encoder.best_speed())
        assert inflate(blob) == data

    @pytest.mark.parametrize("preset", ["best_speed", "best_compression"])
    def test_preset_roundtrip(self, preset, quant_codes):
        blob = deflate(quant_codes, getattr(LZ77Encoder, preset)())
        assert inflate(blob) == quant_codes

    def test_long_distance_matches(self):
        data = b"MARKER" + bytes(20000) + b"MARKER"
        assert inflate(deflate(data)) == data


@pytest.fixture(scope="module")
def quant_codes():
    r = np.random.default_rng(0)
    codes = (32768 + r.geometric(0.5, 30000) * r.choice([-1, 1], 30000)).astype("<u2")
    return codes.tobytes()


class TestZlibOracle:
    def test_best_speed_within_35_percent_of_zlib(self, quant_codes):
        """The stage the codecs run is gzip-class: at best_speed its ratio
        stays within 35 % of the stdlib's level-1 DEFLATE."""
        ours = len(quant_codes) / len(deflate(quant_codes, LZ77Encoder.best_speed()))
        ref = len(quant_codes) / len(zlib.compress(quant_codes, 1))
        assert ours > 0.65 * ref


class TestCorruption:
    def test_bad_magic(self):
        with pytest.raises(LosslessError):
            inflate(b"NOPE" + b"\x00" * 30)

    def test_truncated_body(self):
        blob = deflate(b"hello world hello world hello")
        with pytest.raises(Exception):
            inflate(blob[: len(blob) // 2])

    def test_wrong_original_length_detected(self):
        blob = bytearray(deflate(b"abcdabcdabcd"))
        blob[4] ^= 0x01  # original_len low byte
        with pytest.raises(LosslessError):
            inflate(bytes(blob))

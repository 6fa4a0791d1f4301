"""Unit tests for the compressed container and SDRB raw IO."""

import json
import struct

import numpy as np
import pytest

from repro.errors import ChecksumError, ContainerError, ReproError, ShapeError
from repro.io import Container, read_raw_field, write_raw_field


def _sample() -> Container:
    c = Container(header={"variant": "x", "shape": [2, 3], "n": 7})
    c.add("alpha", b"123")
    c.add("beta", b"")
    c.add("gamma", bytes(range(64)))
    return c


def _v1_bytes(header: dict, sections: list[tuple[bytes, bytes]]) -> bytes:
    """Hand-built v1 stream — frozen wire layout, independent of to_bytes."""
    hj = json.dumps(header, sort_keys=True).encode()
    out = bytearray(b"WSZC")
    out += struct.pack("<HI", 1, len(hj))
    out += hj
    out += struct.pack("<H", len(sections))
    for name, payload in sections:
        out += struct.pack("<B", len(name)) + name
        out += struct.pack("<Q", len(payload)) + payload
    return bytes(out)


class TestContainer:
    def test_roundtrip(self):
        c = Container(header={"variant": "x", "shape": [2, 3]})
        c.add("alpha", b"123")
        c.add("beta", b"")
        c.add("gamma", bytes(range(256)))
        c2 = Container.from_bytes(c.to_bytes())
        assert c2.header == c.header
        assert c2.get("alpha") == b"123"
        assert c2.get("beta") == b""
        assert c2.get("gamma") == bytes(range(256))

    def test_duplicate_section_rejected(self):
        c = Container(header={})
        c.add("a", b"x")
        with pytest.raises(ContainerError):
            c.add("a", b"y")

    def test_missing_section(self):
        c = Container(header={})
        with pytest.raises(ContainerError):
            c.get("nope")
        assert not c.has("nope")

    def test_payload_bytes(self):
        c = Container(header={})
        c.add("a", b"12345")
        c.add("b", b"67")
        assert c.payload_bytes == 7

    def test_bad_magic(self):
        with pytest.raises(ContainerError):
            Container.from_bytes(b"XXXX" + b"\x00" * 16)

    def test_truncated_section(self):
        c = Container(header={})
        c.add("a", b"0123456789")
        blob = c.to_bytes()
        with pytest.raises(ContainerError):
            Container.from_bytes(blob[:-4])

    def test_corrupt_header_json(self):
        c = Container(header={"k": 1})
        blob = bytearray(c.to_bytes())
        blob[10] = 0xFF  # clobber JSON
        with pytest.raises(ContainerError):
            Container.from_bytes(bytes(blob))

    def test_bad_section_name(self):
        with pytest.raises(ContainerError):
            Container(header={}).add("", b"")

    def test_unsupported_version(self):
        c = Container(header={})
        blob = bytearray(c.to_bytes())
        blob[4] = 99
        with pytest.raises(ContainerError):
            Container.from_bytes(bytes(blob))


class TestContainerV2Integrity:
    def test_writes_v2_by_default(self):
        blob = _sample().to_bytes()
        assert blob[4:6] == struct.pack("<H", 2)
        assert Container.from_bytes(blob).version == 2

    def test_every_single_bit_flip_detected(self):
        blob = _sample().to_bytes()
        for pos in range(len(blob)):
            for bit in range(8):
                bad = bytearray(blob)
                bad[pos] ^= 1 << bit
                with pytest.raises(ContainerError):
                    Container.from_bytes(bytes(bad))

    def test_every_truncation_detected(self):
        blob = _sample().to_bytes()
        for cut in range(len(blob)):
            with pytest.raises(ContainerError):
                Container.from_bytes(blob[:cut])

    def test_trailing_garbage_rejected(self):
        blob = _sample().to_bytes()
        with pytest.raises(ContainerError):
            Container.from_bytes(blob + b"\x00")
        with pytest.raises(ContainerError):
            Container.from_bytes(blob + blob)

    def test_section_payload_flip_is_checksum_error(self):
        c = Container(header={})
        c.add("data", b"\x00" * 64)
        blob = bytearray(c.to_bytes())
        # flip a bit well inside the zero-run payload: framing stays intact
        blob[-40] ^= 0x01
        with pytest.raises(ChecksumError):
            Container.from_bytes(bytes(blob))

    def test_non_dict_header_rejected(self):
        blob = _v1_bytes({}, [])
        bad = bytearray(blob)
        hj = json.dumps([1, 2]).encode()
        bad[6:10] = struct.pack("<I", len(hj))
        bad[10:12] = hj  # old header was b"{}"
        with pytest.raises(ContainerError):
            Container.from_bytes(bytes(bad))

    def test_duplicate_section_in_stream_rejected(self):
        blob = _v1_bytes({}, [(b"a", b"x"), (b"a", b"y")])
        with pytest.raises(ContainerError):
            Container.from_bytes(blob)

    def test_scan_clean(self):
        report = Container.scan(_sample().to_bytes())
        assert report.ok
        assert report.version == 2
        assert report.n_sections == 3
        assert all(s.ok for s in report.sections)
        assert report.problems == ()

    def test_scan_and_salvage_damaged_section(self):
        c = Container(header={"k": 1})
        c.add("good", b"A" * 32)
        c.add("bad", b"B" * 32)
        c.add("tail", b"C" * 32)
        blob = bytearray(c.to_bytes())
        idx = bytes(blob).index(b"B" * 32)
        blob[idx] ^= 0xFF
        report = Container.scan(bytes(blob))
        assert not report.ok
        verdicts = {s.name: s.ok for s in report.sections}
        assert verdicts == {"good": True, "bad": False, "tail": True}
        assert {s.name: s.length for s in report.sections} == {
            "good": 32, "bad": 32, "tail": 32,
        }  # the lenient parse walked past the damage to the last section

    def test_scan_never_raises_on_garbage(self):
        for blob in (b"", b"WSZ", b"WSZC", b"\xff" * 40, _sample().to_bytes()[:11]):
            report = Container.scan(blob)
            assert not report.ok
            assert report.problems


class TestContainerV1Compat:
    def test_golden_v1_bytes_parse(self):
        blob = _v1_bytes({"variant": "x", "n": 3}, [(b"alpha", b"123"), (b"b", b"")])
        c = Container.from_bytes(blob)
        assert c.version == 1
        assert c.header == {"variant": "x", "n": 3}
        assert c.get("alpha") == b"123"
        assert c.get("b") == b""

    def test_v1_trailing_garbage_still_rejected(self):
        blob = _v1_bytes({}, [(b"a", b"x")])
        with pytest.raises(ContainerError):
            Container.from_bytes(blob + b"junk")

    def test_a_v1_stream_rewrites_as_v2(self):
        """There is one writer: it upgrades, it never writes v1 back."""
        c = Container.from_bytes(_v1_bytes({"n": 3}, [(b"alpha", b"123")]))
        again = Container.from_bytes(c.to_bytes())
        assert again.version == 2
        assert again.header == {"n": 3} and again.get("alpha") == b"123"

    def test_v1_payload_decompresses_bit_exactly(self, smooth2d):
        """Streams written before the integrity layer still decode."""
        from repro import SZ14Compressor

        comp = SZ14Compressor()
        cf = comp.compress(smooth2d, 1e-3, "vr_rel")
        v2 = Container.from_bytes(cf.payload)
        v1_blob = _v1_bytes(
            v2.header, [(s.name.encode(), s.payload) for s in v2.sections]
        )
        assert v1_blob != cf.payload  # genuinely the old format
        ref = comp.decompress(cf.payload)
        out = comp.decompress(v1_blob)
        assert out.dtype == ref.dtype and out.shape == ref.shape
        assert (out == ref).all()


class TestMalformedOffsets:
    """Regressions: every truncation/garbage class raises ContainerError,
    never a raw struct.error / UnicodeDecodeError / IndexError."""

    CASES = {
        "mid-magic": b"WS",
        "mid-version": b"WSZC\x02",
        "mid-header-len": b"WSZC\x02\x00\x10",
        "huge-header-len": b"WSZC\x02\x00\xff\xff\xff\xff{}",
        "non-utf8-header": b"WSZC\x02\x00\x02\x00\x00\x00\xff\xfe",
        "bad-json-header": b"WSZC\x02\x00\x02\x00\x00\x00{[",
        "mid-section-count": _v1_bytes({}, [])[:-1],
        "mid-section-name": _v1_bytes({}, [(b"abc", b"")])[:16],
        "mid-payload-len": _v1_bytes({}, [(b"a", b"xyz")])[:20],
        "huge-payload-len": _v1_bytes({}, [])[:10]
        + struct.pack("<H", 1)
        + b"\x01a"
        + struct.pack("<Q", 2**60),
        "non-utf8-name": _v1_bytes({}, [])[:10]
        + struct.pack("<H", 1)
        + b"\x02\xff\xfe"
        + struct.pack("<Q", 0),
    }

    @pytest.mark.parametrize("label", sorted(CASES))
    def test_raises_only_container_error(self, label):
        blob = self.CASES[label]
        with pytest.raises(ContainerError):
            Container.from_bytes(blob)

    def test_nothing_but_repro_errors_on_random_prefixes(self):
        blob = _sample().to_bytes()
        for cut in range(0, len(blob), 3):
            try:
                Container.from_bytes(blob[:cut] + b"\xa5" * 7)
            except ReproError:
                pass


class TestSDRBIO:
    def test_roundtrip_2d(self, tmp_path, smooth2d):
        path = tmp_path / "f.dat"
        write_raw_field(path, smooth2d)
        back = read_raw_field(path, smooth2d.shape, np.float32)
        assert (back == smooth2d).all()

    def test_headerless_size(self, tmp_path, smooth2d):
        path = tmp_path / "f.f32"
        write_raw_field(path, smooth2d)
        assert path.stat().st_size == smooth2d.size * 4

    def test_shape_mismatch_detected(self, tmp_path, smooth2d):
        path = tmp_path / "f.dat"
        write_raw_field(path, smooth2d)
        with pytest.raises(ShapeError):
            read_raw_field(path, (3, 3), np.float32)

    def test_float64(self, tmp_path):
        x = np.linspace(0, 1, 20).reshape(4, 5)
        path = tmp_path / "f64.dat"
        write_raw_field(path, x)
        assert (read_raw_field(path, (4, 5), np.float64) == x).all()

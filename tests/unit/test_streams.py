"""Unit tests for the shared stream serialization helpers and the
section-level wire idioms of :mod:`repro.codec.stages`."""

import zlib

import numpy as np
import pytest

from repro.codec.pipeline import PipelineContext
from repro.codec.registry import get_codec
from repro.codec.stages import EntropyCodesStage, put_section, take_section
from repro.config import ErrorBoundMode, resolve_error_bound
from repro.errors import ContainerError, LosslessError
from repro.io.container import Container
from repro.streams import (
    bound_from_header,
    bound_to_header,
    decompress_auto,
    values_from_bytes,
    values_to_bytes,
)


def _entropy_roundtrip(codes, backend):
    """Drive both directions of the ``codes_entropy`` stage directly."""
    stage = EntropyCodesStage(backend=backend)
    fwd = PipelineContext(container=Container(header={}), codes=codes)
    stage.forward(fwd)
    parsed = Container.from_bytes(fwd.container.to_bytes())
    inv = PipelineContext(container=parsed)
    stage.inverse(inv)
    return fwd, parsed, inv.codes


class TestCodeStreams:
    def test_huffman_roundtrip(self):
        """Both stored forms: a noisy stream stays ``huffman_codes``, a
        repetitive one gzips smaller and is renamed ``huffman_codes_gz``."""
        noisy = np.random.default_rng(0).integers(32700, 32800, 5000)
        repetitive = np.tile(np.arange(32760, 32776), 400)
        for codes, gzipped in ((noisy, False), (repetitive, True)):
            fwd, parsed, out = _entropy_roundtrip(codes, "huffman")
            assert fwd.encoded_code_bytes > 0
            assert (out == codes).all()
            assert parsed.header["codes_gzipped"] is gzipped
            assert parsed.has("huffman_codes_gz") is gzipped
            assert parsed.has("huffman_codes") is not gzipped
            assert "entropy" not in parsed.header  # pre-rANS streams stay as they were

    def test_raw16_roundtrip(self, smooth2d):
        """The FPGA wire format — raw little-endian 16-bit codes straight
        into gzip — lives on in waveSZ's G* profile: two bytes a code."""
        comp = get_codec("wavesz-g")
        cf = comp.compress(smooth2d, 1e-3, "vr_rel")
        c = Container.from_bytes(cf.payload)
        raw = take_section(c, "codes", "codes_gzipped", required=True)
        assert len(raw) == 2 * c.header["n_codes"] == 2 * smooth2d.size
        codes = np.frombuffer(raw, dtype="<u2")
        assert codes.max() < 1 << comp.quant.bits and not c.has("huffman_table")
        out = comp.decompress(c)
        assert np.abs(out.astype(np.float64) - smooth2d).max() <= cf.bound.absolute

    def test_rans_roundtrip_with_runs(self):
        codes = np.full(6000, 32768)
        codes[::97] = 32770
        fwd, parsed, out = _entropy_roundtrip(codes, "rans")
        assert parsed.header["entropy"] == "rans" and parsed.has("rle_runs")
        assert (out == codes).all()


class TestSectionHelpers:
    """put_section / take_section: the one gzip-if-smaller section idiom."""

    CASES = {
        "empty": b"",
        "gzip_wins": b"\x00" * 4096,
        "gzip_loses": bytes(np.random.default_rng(5).integers(0, 256, 64, dtype=np.uint8)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("gz_name", [None, "blob_gz"])
    def test_roundtrip(self, case, gz_name):
        raw = self.CASES[case]
        c = Container(header={})
        stored = put_section(c, "blob", raw, "blob_gzipped", gz_name=gz_name)
        wins = case == "gzip_wins"
        assert c.header["blob_gzipped"] is wins
        section = "blob_gz" if wins and gz_name else "blob"
        assert [s.name for s in c.sections] == [section]
        assert stored == len(c.get(section))
        assert (stored < len(raw)) is wins
        parsed = Container.from_bytes(c.to_bytes())
        for _ in range(2):  # reading never changes what is read
            assert take_section(
                parsed, "blob", "blob_gzipped", gz_name=gz_name
            ) == raw
        assert [s.name for s in parsed.sections] == [section]

    def test_missing_flag_means_raw_unless_required(self):
        c = Container(header={})
        put_section(c, "blob", b"abc", "blob_gzipped")
        del c.header["blob_gzipped"]
        assert take_section(c, "blob", "blob_gzipped") == b"abc"
        with pytest.raises(KeyError):
            take_section(c, "blob", "blob_gzipped", required=True)

    def test_a_zlib_section_is_refused_as_lossless_damage(self, smooth2d):
        """A gzip-flagged section holds a WDF1 stream; the stdlib-zlib
        ``ZLB1`` form an older writer could emit is no longer read."""
        c = Container.from_bytes(get_codec("wavesz-g").compress(smooth2d, 1e-3).payload)
        assert c.header["codes_gzipped"] is True
        raw = take_section(c, "codes", "codes_gzipped", required=True)
        forged = Container(header=dict(c.header))
        for s in c.sections:
            blob = b"ZLB1" + zlib.compress(raw, 1) if s.name == "codes" else s.payload
            forged.add(s.name, blob)
        with pytest.raises(LosslessError, match="WDF1"):
            decompress_auto(forged.to_bytes())

    #: codec -> (flag keys its header carries, sections they govern, the
    #: flags whose absence is damage rather than age)
    WIRE = {
        "sz10": ({"types_gzipped"}, {"fit_types"}, {"types_gzipped"}),
        "sz14": ({"codes_gzipped"}, {"huffman_codes", "huffman_codes_gz"}, set()),
        "sz14-rans": (set(), {"rans_codes", "rans_table"}, set()),
        "sz20": ({"codes_gzipped", "coeffs_gz"}, {"coeffs"}, {"coeffs_gz"}),
        "ghostsz": ({"codes_gzipped"}, {"ghost_words"}, {"codes_gzipped"}),
        "wavesz": (
            {"codes_gzipped", "border_gzipped", "outliers_gzipped"},
            {"codes", "border", "outliers"},
            {"codes_gzipped"},
        ),
        "wavesz-dp": (
            {"codes_gzipped", "outliers_gzipped", "raw_gzipped"},
            {"outliers", "raw_points"},
            set(),
        ),
    }

    @pytest.mark.parametrize("name", sorted(WIRE))
    def test_wire_flags_sections_and_missing_flag_behaviour(
        self, name, smooth2d, ramp1d
    ):
        """The flag keys and section names each writer emitted before the
        helper pair existed, and what a header lacking one of them does:
        a required flag raises, an optional one reads the section raw."""
        flags, sections, required = self.WIRE[name]
        comp = get_codec(name)
        data = ramp1d if name == "sz10" else smooth2d
        payload = comp.compress(data, 1e-3, "vr_rel").payload
        c = Container.from_bytes(payload)
        assert {k for k in c.header if k.endswith(("_gz", "_gzipped"))} == flags
        names = {s.name for s in c.sections}
        if name == "sz14":
            assert len(names & sections) == 1  # renamed when gzipped
        else:
            assert sections <= names
        want = comp.decompress(payload)
        for flag in sorted(flags):
            damaged = Container.from_bytes(payload)
            was_gz = damaged.header.pop(flag)
            blob = damaged.to_bytes()
            if flag in required:
                with pytest.raises(ContainerError, match="KeyError"):
                    comp.decompress(blob)
            elif not was_gz:
                np.testing.assert_array_equal(comp.decompress(blob), want)

    def test_pw_rel_and_rle_flags(self):
        f = np.abs(np.random.default_rng(2).standard_normal((30, 40))) + 0.5
        c = Container.from_bytes(
            get_codec("sz14").compress(f.astype(np.float32), 1e-2, "pw_rel").payload
        )
        assert {"pw_neg_gz", "pw_zero_gz"} <= set(c.header)
        assert c.has("pw_negative") and c.has("pw_zero")
        flat = np.zeros((40, 50), dtype=np.float32)
        flat[::7, ::11] = 1.0
        c = Container.from_bytes(
            get_codec("wavesz-dp-rans").compress(flat, 1e-3, "abs").payload
        )
        assert c.has("rle_runs") and "rle_runs_gz" in c.header


class TestValueStreams:
    def test_float32_roundtrip(self):
        vals = np.array([1.5, -2.25, 3e-7], dtype=np.float32)
        blob = values_to_bytes(vals)
        assert len(blob) == 12
        assert (values_from_bytes(blob, 3, np.float32) == vals).all()

    def test_float64_roundtrip(self):
        vals = np.array([1.5, -2.25], dtype=np.float64)
        assert (values_from_bytes(values_to_bytes(vals), 2, np.float64) == vals).all()


class TestBoundHeaders:
    def test_roundtrip_plain(self):
        b = resolve_error_bound(np.array([0.0, 1.0]), 1e-3, ErrorBoundMode.VR_REL)
        b2 = bound_from_header(bound_to_header(b))
        assert b2 == b

    def test_roundtrip_base2(self):
        b = resolve_error_bound(np.array([0.0, 1.0]), 1e-3, "vr_rel", base2=True)
        b2 = bound_from_header(bound_to_header(b))
        assert b2 == b
        assert b2.exponent == -10

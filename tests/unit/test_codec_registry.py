"""Unit tests for the central codec registry and pipeline-spec validation."""

import numpy as np
import pytest

from repro.codec.registry import (
    REGISTRY,
    CodecEntry,
    CodecRegistry,
    available_codecs,
    decode_payload,
    get_codec,
    peek_variant,
)
from repro.codec.spec import PipelineSpec, StageSpec, validate_spec
from repro.errors import ConfigError, ContainerError
from repro.io.container import Container
from repro.variants import VARIANTS, Feature


class TestNameResolution:
    def test_every_variants_row_resolves_to_a_compressor(self):
        """Satellite: each Table 2 key (incl. "SZ-2.0+") finds a codec."""
        for key in VARIANTS:
            comp = get_codec(key)
            assert hasattr(comp, "compress") and hasattr(comp, "decompress")

    def test_every_sz_family_codec_maps_back_to_a_variants_row(self):
        """...and vice versa: each registered codec names its Table 2 row."""
        rows = set()
        for entry in REGISTRY:
            if entry.name in ("ZFP-like", "waveSZ-dp"):
                # outside the SZ family / beyond the Table 2 design space
                assert entry.table2 is None
                continue
            assert entry.table2 in VARIANTS, entry.name
            rows.add(entry.table2)
        assert rows == set(VARIANTS)

    def test_sz20_alias_bridges_the_historic_name_mismatch(self):
        """"SZ-2.0+" (Table 2) and "SZ-2.0" (wire name) are one codec."""
        assert REGISTRY.canonical("SZ-2.0+") == "SZ-2.0"
        assert get_codec("SZ-2.0+").name == "SZ-2.0"
        assert get_codec("SZ-2.0").name == "SZ-2.0"

    def test_cli_short_names(self):
        assert REGISTRY.short_names() == (
            "ghostsz", "sz10", "sz14", "sz14-rans", "sz20", "wavesz",
            "wavesz-dp", "wavesz-dp-auto", "wavesz-dp-rans", "wavesz-g",
            "zfp-like",
        )

    def test_short_aliases_resolve(self):
        assert get_codec("sz14").name == "SZ-1.4"
        assert get_codec("sz10").name == "SZ-1.0"
        assert get_codec("ghostsz").name == "GhostSZ"
        assert get_codec("wavesz").name == "waveSZ"
        assert get_codec("zfp-like").name == "ZFP-like"

    def test_profile_builds_its_own_configuration(self):
        g = get_codec("wavesz-g")
        assert g.name == "waveSZ"  # payloads carry the canonical wire name
        assert g.use_huffman is False
        assert get_codec("wavesz").use_huffman is True

    def test_unknown_name_rejected(self):
        with pytest.raises(ContainerError, match="no compressor registered"):
            get_codec("sz3000")
        assert "sz3000" not in REGISTRY
        assert "waveSZ" in REGISTRY

    def test_all_names_is_sorted_superset_of_canonical(self):
        names = available_codecs()
        assert list(names) == sorted(names)
        assert set(REGISTRY.names()) <= set(names)
        assert "SZ-0.1-1.0" in names  # Table 2 alias for SZ-1.0


class TestRegistration:
    def test_duplicate_name_rejected(self):
        reg = CodecRegistry()
        entry = CodecEntry(name="X", factory=object, aliases=("x",))
        reg.register(entry)
        with pytest.raises(ContainerError, match="registered twice"):
            reg.register(CodecEntry(name="Y", factory=object, aliases=("x",)))

    def test_spec_validated_at_registration(self):
        reg = CodecRegistry()
        bad = PipelineSpec(
            variant="waveSZ",
            table2="waveSZ",
            stages=(StageSpec("only", frozenset({Feature.ZSTD})),),
        )
        with pytest.raises(ConfigError):
            reg.register(CodecEntry(name="W", factory=object, spec=bad))


class TestSpecValidation:
    def test_registered_specs_pass_and_cover_all_variants(self):
        specs = REGISTRY.specs()
        for spec in specs:
            validate_spec(spec)  # idempotent re-check
        assert {s.table2 for s in specs if s.table2} == set(VARIANTS)

    def test_duplicate_stage_names_rejected(self):
        spec = PipelineSpec(
            variant="V", stages=(StageSpec("a"), StageSpec("a"))
        )
        with pytest.raises(ConfigError, match="duplicate stage names"):
            validate_spec(spec)

    def test_rogue_feature_rejected(self):
        spec = PipelineSpec(
            variant="waveSZ",
            table2="waveSZ",
            stages=(StageSpec("s", frozenset({Feature.ZSTD})),),
        )
        with pytest.raises(ConfigError, match="outside"):
            validate_spec(spec)

    def test_missing_required_feature_rejected(self):
        spec = PipelineSpec(
            variant="waveSZ", table2="waveSZ", stages=(StageSpec("s"),)
        )
        with pytest.raises(ConfigError, match="realizes no stage"):
            validate_spec(spec)

    def test_pointless_unmodeled_rejected(self):
        row = VARIANTS["waveSZ"]
        spec = PipelineSpec(
            variant="waveSZ",
            table2="waveSZ",
            stages=(StageSpec("s", row.required),),
            unmodeled=frozenset({Feature.LORENZO}),
        )
        with pytest.raises(ConfigError, match="unmodeled"):
            validate_spec(spec)

    def test_unknown_table2_row_rejected(self):
        spec = PipelineSpec(variant="V", table2="SZ-99", stages=())
        with pytest.raises(ConfigError, match="unknown Table 2 row"):
            validate_spec(spec)

    def test_none_table2_skips_feature_checks(self):
        validate_spec(
            PipelineSpec(
                variant="V",
                stages=(StageSpec("s", frozenset({Feature.ZSTD})),),
            )
        )


class TestPayloadDispatch:
    @pytest.mark.parametrize(
        "name", ["sz10", "sz14", "sz20", "ghostsz", "wavesz", "wavesz-g",
                 "zfp-like"],
    )
    def test_roundtrip_through_registry(self, name, smooth2d, ramp1d):
        comp = get_codec(name)
        data = ramp1d if name == "sz10" else smooth2d
        cf = comp.compress(data, 1e-3, "vr_rel")
        assert peek_variant(cf.payload) == cf.variant
        out = decode_payload(cf.payload)
        assert out.shape == data.shape and out.dtype == data.dtype
        assert np.abs(out.astype(np.float64) - data).max() <= (
            cf.bound.absolute * (1.0 + 1e-12)
        )

    def test_peek_variant_rejects_nameless_container(self):
        blob = Container(header={"shape": [4, 4]}).to_bytes()
        with pytest.raises(ContainerError, match="no variant name"):
            peek_variant(blob)

    def test_decode_rejects_unregistered_variant(self):
        blob = Container(header={"variant": "sz3000"}).to_bytes()
        with pytest.raises(ContainerError, match="no compressor registered"):
            decode_payload(blob)

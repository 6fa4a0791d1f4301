"""Unit tests for the central codec registry and pipeline-spec validation."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.codec.pipeline import PipelineCompressor
from repro.codec.registry import (
    REGISTRY,
    CodecEntry,
    CodecRegistry,
    available_codecs,
    get_codec,
    register_codec,
)
from repro.codec.spec import PipelineSpec, StageSpec, validate_spec
from repro.codec.stages import (
    EntropyCodesStage,
    HeaderStage,
    PQDStage,
    ResolveBoundStage,
    VerbatimValuesStage,
)
from repro.config import QuantizerConfig
from repro.errors import ConfigError, ContainerError
from repro.io.container import Container
from repro.lossless import GzipStage
from repro.streams import decompress_auto
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


class TestSingleDeclaration:
    """The stage list is the spec: drift fails inside ``register``."""

    def _declare(self, stages, realizes, **decorator):
        reg = CodecRegistry()

        @dataclass(frozen=True)
        class Scratch(PipelineCompressor):
            name = "Scratch"

            def build_stages(self):
                return tuple(stage() for stage in stages)

        Scratch.realizes = realizes
        register_codec(registry=reg, **decorator)(Scratch)
        return reg

    def test_adding_a_codec_is_one_declaration(self, smooth2d):
        """The docs/API.md example: class, ``realizes``, ``build_stages``,
        decorator — spec, backends and shared instances all follow."""
        reg = CodecRegistry()

        class _CountsHeader(HeaderStage):
            def write_extra(self, ctx):
                res = ctx.require("pqd")
                ctx.header.update(n_border=res.n_border, n_outliers=res.n_outliers)

        @register_codec(
            aliases=("lorenzo",),
            profiles={"lorenzo-rans": {"entropy": "rans"}},
            registry=reg,
        )
        @dataclass(frozen=True)
        class LorenzoCompressor(PipelineCompressor):
            entropy: str = "huffman"

            name = "Lorenzo"
            realizes = {
                "pqd": {Feature.LORENZO, Feature.QUANTIZATION},
                "codes_entropy": {Feature.CUSTOM_HUFFMAN, Feature.GZIP},
            }

            def build_stages(self):
                gzip = GzipStage()
                return (
                    ResolveBoundStage(quant=QuantizerConfig()),
                    PQDStage(border="verbatim"), _CountsHeader(),
                    EntropyCodesStage(gzip, backend=self.entropy),
                    VerbatimValuesStage(gzip),
                )

        (spec,) = reg.specs()
        assert spec == PipelineSpec(
            variant="Lorenzo",
            stages=(
                StageSpec("bound"),
                StageSpec("pqd", frozenset({Feature.LORENZO, Feature.QUANTIZATION})),
                StageSpec("header"),
                StageSpec(
                    "codes_entropy", frozenset({Feature.CUSTOM_HUFFMAN, Feature.GZIP})
                ),
                StageSpec("values"),
            ),
        )
        assert reg.describe() == [{
            "name": "Lorenzo", "aliases": ["lorenzo"],
            "profiles": ["lorenzo-rans"], "table2": None,
            "data_parallel": False,
            "entropy_backends": ["huffman", "rans", "auto"],
            "modes": ["abs", "vr_rel"],  # no pw_rel_log stage declared
            "dims": [1, 2, 3],  # what the pqd stage declares
        }]
        assert reg.create("lorenzo") is reg.create("Lorenzo")
        rans = reg.create("lorenzo-rans")
        assert rans.entropy == "rans" and rans is not reg.create("lorenzo")
        cf = rans.compress(smooth2d, 1e-3, "vr_rel")
        assert cf.meta["entropy"] == "rans"
        out = reg.create("lorenzo").decompress(cf.payload)
        assert np.abs(out.astype(np.float64) - smooth2d).max() <= cf.bound.absolute

    def test_realizes_naming_an_unbuilt_stage_fails_registration(self):
        with pytest.raises(ConfigError, match="does not build"):
            self._declare(
                (ResolveBoundStage, HeaderStage), {"pqd": {Feature.LORENZO}}
            )

    def test_duplicate_stage_name_fails_registration(self):
        with pytest.raises(ConfigError, match="duplicate stage names"):
            self._declare((ResolveBoundStage, ResolveBoundStage), {})

    def test_table2_drift_fails_registration(self):
        with pytest.raises(ConfigError, match="realizes no stage"):
            self._declare(
                (ResolveBoundStage, HeaderStage),
                {"bound": {Feature.BASE2_MAPPING}},
                table2="waveSZ",
            )

    def test_profile_building_other_stages_fails_registration(self):
        reg = CodecRegistry()

        @dataclass(frozen=True)
        class Scratch(PipelineCompressor):
            with_header: bool = True
            name = "Scratch"

            def build_stages(self):
                stages = (ResolveBoundStage(), HeaderStage())
                return stages if self.with_header else stages[:1]

        with pytest.raises(ConfigError, match="different stages"):
            register_codec(
                registry=reg, profiles={"scratch-bare": {"with_header": False}}
            )(Scratch)
        assert "Scratch" not in reg and "scratch-bare" not in reg

    def test_stages_are_built_once_per_instance(self, smooth2d, monkeypatch):
        """No stage construction and no spec comparison after the first
        call: compress and decompress reuse the instance's pipeline."""
        from repro.sz import SZ14Compressor

        calls = []
        real = SZ14Compressor.build_stages

        def counting(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(SZ14Compressor, "build_stages", counting)
        comp = SZ14Compressor()
        for _ in range(3):
            comp.decompress(comp.compress(smooth2d, 1e-3, "vr_rel"))
        assert calls == [comp]
        # the registry's shared instance was built at registration
        shared = get_codec("sz14")
        shared.decompress(shared.compress(smooth2d, 1e-3, "vr_rel"))
        assert calls == [comp]

    def test_registry_hands_out_one_shared_instance_per_name(self):
        for name in REGISTRY.all_names():
            assert get_codec(name) is get_codec(name), name
        assert get_codec("sz14") is get_codec("SZ-1.4")
        assert get_codec("sz14-rans") is not get_codec("sz14")

    #: The hand-written ``*_SPEC`` literals as they stood before the spec
    #: was derived: (wire name, Table 2 row, ((stage, features), ...),
    #: unmodeled, extra), features by ``Feature`` member name — less the
    #: ``checks`` stages, which the field contract replaced.
    FROZEN = (
        ("SZ-1.0", "SZ-0.1-1.0", (
            ("bound", ()),
            ("curvefit", ("DECOMPRESSION_WRITEBACK", "ORDER012", "OVERBOUND_CHECK_SW")),
            ("header", ()),
            ("type_entropy", ("CUSTOM_HUFFMAN", "GZIP")),
            ("unpredictable", ()),
        ), (), ("CUSTOM_HUFFMAN",)),
        ("SZ-1.4", "SZ-1.4", (
            ("bound", ()),
            ("pw_rel_log", ("LOG_TRANSFORM",)),
            ("pqd", ("DECOMPRESSION_WRITEBACK", "LORENZO", "OVERBOUND_CHECK_SW", "QUANTIZATION")),
            ("header", ()),
            ("codes_entropy", ("CUSTOM_HUFFMAN", "GZIP")),
            ("values", ()),
            ("pw_rel_masks", ()),
        ), ("BLOCKING",), ("LOG_TRANSFORM",)),
        ("SZ-2.0", "SZ-2.0+", (
            ("bound", ()),
            ("block_hybrid", ("BLOCKING", "DECOMPRESSION_WRITEBACK", "LINEAR_REGRESSION",
                              "LORENZO", "OVERBOUND_CHECK_SW", "QUANTIZATION")),
            ("header", ()),
            ("codes_entropy", ("CUSTOM_HUFFMAN", "GZIP")),
            ("block_types", ()),
            ("coeffs", ("GZIP",)),
            ("outliers", ()),
        ), ("LOG_TRANSFORM", "ZSTD"), ()),
        ("waveSZ", "waveSZ", (
            ("view2d", ()),
            ("bound", ("BASE2_MAPPING",)),
            ("pqd", ("DECOMPRESSION_WRITEBACK", "LORENZO", "OVERFLOW_CHECK_HW", "QUANTIZATION")),
            ("wavefront_order", ("MEMORY_LAYOUT_TRANSFORM",)),
            ("header", ()),
            ("codes", ("CUSTOM_HUFFMAN", "GZIP")),
            ("values", ("GZIP",)),
        ), ("EXPLICIT_PIPELINING", "LINE_BUFFER"), ()),
        ("waveSZ-dp", None, (
            ("bound", ("BASE2_MAPPING",)),
            ("pw_rel_log", ("LOG_TRANSFORM",)),
            ("prequant", ("QUANTIZATION",)),
            ("predict_quant", ("LORENZO",)),
            ("header", ()),
            ("codes_entropy", ("CUSTOM_HUFFMAN", "GZIP")),
            ("values", ("GZIP",)),
            ("pw_rel_masks", ()),
        ), (), ()),
        ("GhostSZ", "GhostSZ", (
            ("bound", ()),
            ("rows", ()),
            ("ghost_predict", ("ORDER012", "OVERFLOW_CHECK_HW", "PREDICTION_WRITEBACK",
                               "QUANTIZATION")),
            ("header", ()),
            ("ghost_words", ("GZIP",)),
            ("verbatim", ()),
        ), ("EXPLICIT_PIPELINING", "LINE_BUFFER"), ()),
        ("ZFP-like", None, (
            ("bound", ()),
            ("zfp_blocks", ()),
            ("header", ()),
            ("planes", ()),
        ), (), ()),
    )

    def test_derived_specs_equal_the_retired_literals(self):
        def features(names):
            return frozenset(Feature[n] for n in names)

        frozen = tuple(
            PipelineSpec(
                variant=variant,
                table2=table2,
                stages=tuple(StageSpec(n, features(f)) for n, f in stages),
                unmodeled=features(unmodeled),
                extra=features(extra),
            )
            for variant, table2, stages, unmodeled, extra in self.FROZEN
        )
        assert REGISTRY.specs() == frozen
        # every registered name, profiles included, builds its entry's stages
        for name in REGISTRY.all_names():
            entry = REGISTRY.entry(name)
            assert get_codec(name).pipeline_spec(entry.table2) == entry.spec, name

    def test_describe_is_the_codecs_wire_op_unchanged(self):
        backends = ["huffman", "rans", "auto"]

        def row(name, aliases, profiles, table2, dims, dp=False, entropy=(),
                pw_rel=False):
            return {
                "name": name, "aliases": aliases, "profiles": profiles,
                "table2": table2, "data_parallel": dp,
                "entropy_backends": list(entropy),
                "modes": ["abs", "vr_rel"] + ["pw_rel"] * pw_rel,
                "dims": list(dims),
            }

        assert REGISTRY.describe() == [
            row("SZ-1.0", ["SZ-0.1-1.0", "sz10"], [], "SZ-0.1-1.0", (1, 2, 3, 4)),
            row("SZ-1.4", ["sz14"], ["sz14-rans"], "SZ-1.4", (1, 2, 3),
                entropy=backends, pw_rel=True),
            row("SZ-2.0", ["SZ-2.0+", "sz20"], [], "SZ-2.0+", (2, 3),
                entropy=backends),
            row("waveSZ", ["wavesz"], ["wavesz-g"], "waveSZ", (2, 3)),
            row("waveSZ-dp", ["wavesz-dp"], ["wavesz-dp-auto", "wavesz-dp-rans"],
                None, (1, 2, 3), dp=True, entropy=backends, pw_rel=True),
            row("GhostSZ", ["ghostsz"], [], "GhostSZ", (1, 2, 3)),
            row("ZFP-like", ["zfp-like"], [], None, (2, 3)),
        ]


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
    """``REGISTRY.open`` reads the wire variant; ``decompress_auto`` is the
    one decode entry behind it."""

    @pytest.mark.parametrize(
        "name", ["sz10", "sz14", "sz20", "ghostsz", "wavesz", "wavesz-g",
                 "zfp-like"],
    )
    def test_roundtrip_through_registry(self, name, smooth2d, ramp1d):
        comp = get_codec(name)
        data = ramp1d if name == "sz10" else smooth2d
        cf = comp.compress(data, 1e-3, "vr_rel")
        container, variant = REGISTRY.open(cf.payload)
        assert variant == cf.variant
        out = decompress_auto(container)
        assert out.shape == data.shape and out.dtype == data.dtype
        assert np.abs(out.astype(np.float64) - data).max() <= (
            cf.bound.absolute * (1.0 + 1e-12)
        )

    def test_open_takes_a_parsed_container_as_is(self):
        container = Container(header={"variant": "SZ-1.4"})
        assert REGISTRY.open(container) == (container, "SZ-1.4")

    def test_open_rejects_nameless_container(self):
        blob = Container(header={"shape": [4, 4]}).to_bytes()
        with pytest.raises(ContainerError, match="no variant name"):
            REGISTRY.open(blob)

    def test_decode_rejects_unregistered_variant(self):
        blob = Container(header={"variant": "sz3000"}).to_bytes()
        with pytest.raises(ContainerError, match="no compressor registered"):
            decompress_auto(blob)

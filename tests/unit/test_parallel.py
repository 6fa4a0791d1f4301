"""Unit tests for tiled (block-parallel) compression."""

import numpy as np
import pytest

from repro import GhostSZCompressor, SZ14Compressor, WaveSZCompressor
from repro.codec.registry import get_codec
from repro.errors import ContainerError, ShapeError
from repro.io.container import Container, ContainerSection
from repro.parallel import decompress_tile, tile_compress, tile_decompress
from repro.streams import decompress_auto
from repro.types import CompressedField


class TestTiling:
    @pytest.mark.parametrize(
        "comp", [SZ14Compressor(), GhostSZCompressor()],
        ids=lambda c: c.name,
    )
    def test_roundtrip_and_bound(self, smooth2d, comp):
        res = tile_compress(comp, smooth2d, 1e-3, "vr_rel", n_tiles=4)
        out = tile_decompress(comp, res.payload)
        vr = float(smooth2d.max() - smooth2d.min())
        assert out.shape == smooth2d.shape
        assert np.abs(out.astype(np.float64) - smooth2d).max() <= 1e-3 * vr

    def test_wavesz_tiles(self, smooth2d):
        comp = WaveSZCompressor(use_huffman=True)
        res = tile_compress(comp, smooth2d, 1e-3, n_tiles=3)
        out = tile_decompress(comp, res.payload)
        vr = float(smooth2d.max() - smooth2d.min())
        assert np.abs(out.astype(np.float64) - smooth2d).max() <= 1e-3 * vr

    def test_3d(self, smooth3d):
        comp = SZ14Compressor()
        res = tile_compress(comp, smooth3d, 1e-3, n_tiles=4)
        out = tile_decompress(comp, res.payload)
        vr = float(smooth3d.max() - smooth3d.min())
        assert np.abs(out.astype(np.float64) - smooth3d).max() <= 1e-3 * vr

    def test_global_bound_resolution(self, smooth2d):
        """VR-REL must resolve against the *global* range, not per band —
        otherwise a band with a narrow local range would get a tighter
        bound than requested (and a different guarantee than monolithic)."""
        comp = SZ14Compressor()
        res = tile_compress(comp, smooth2d, 1e-3, "vr_rel", n_tiles=4)
        from repro.io.container import Container

        h = Container.from_bytes(res.payload).header
        vr = float(smooth2d.max() - smooth2d.min())
        assert h["eb_abs"] == pytest.approx(1e-3 * vr)

    def test_random_access(self, smooth2d):
        comp = SZ14Compressor()
        res = tile_compress(comp, smooth2d, 1e-3, n_tiles=4)
        band1 = decompress_tile(comp, res.payload, 1)
        full = tile_decompress(comp, res.payload)
        h = smooth2d.shape[0]
        edges = np.linspace(0, h, 5, dtype=int)
        assert (band1 == full[edges[1] : edges[2]]).all()

    def test_tile_index_validated(self, smooth2d):
        comp = SZ14Compressor()
        res = tile_compress(comp, smooth2d, 1e-3, n_tiles=2)
        with pytest.raises(ShapeError, match=r"valid: -2\.\.1"):
            decompress_tile(comp, res.payload, 2)
        with pytest.raises(ShapeError, match="-3"):
            decompress_tile(comp, res.payload, -3)

    def test_negative_tile_index(self, smooth2d):
        """Python convention: -1 is the last band, -n the first."""
        comp = SZ14Compressor()
        res = tile_compress(comp, smooth2d, 1e-3, n_tiles=3)
        for neg, pos in ((-1, 2), (-3, 0)):
            np.testing.assert_array_equal(
                decompress_tile(comp, res.payload, neg),
                decompress_tile(comp, res.payload, pos),
            )

    def test_ratio_overhead_is_modest(self, smooth2d):
        """Seam losses exist but stay small for reasonable tile counts."""
        comp = SZ14Compressor()
        mono = comp.compress(smooth2d, 1e-3, "vr_rel").stats.ratio
        tiled = tile_compress(comp, smooth2d, 1e-3, n_tiles=4).stats.ratio
        assert tiled > 0.6 * mono
        assert tiled <= mono * 1.05

    def test_more_tiles_more_overhead(self, smooth2d):
        comp = SZ14Compressor()
        r2 = tile_compress(comp, smooth2d, 1e-3, n_tiles=2).stats.ratio
        r8 = tile_compress(comp, smooth2d, 1e-3, n_tiles=8).stats.ratio
        assert r8 <= r2 * 1.02

    def test_result_is_a_compressed_field(self, smooth2d):
        """A tiled compression returns what every codec returns."""
        comp = SZ14Compressor()
        res = tile_compress(comp, smooth2d, 1e-3, "vr_rel", n_tiles=4)
        assert isinstance(res, CompressedField)
        assert res.variant == "tiled[SZ-1.4]"
        assert (res.shape, res.dtype) == (smooth2d.shape, "float32")
        vr = float(smooth2d.max() - smooth2d.min())
        assert res.bound.absolute == pytest.approx(1e-3 * vr)
        assert res.meta["n_tiles"] == len(res.meta["tile_ratios"]) == 4
        assert res.stats.compressed_bytes < len(res.payload)

    def test_wrong_inner_compressor_rejected(self, smooth2d):
        res = tile_compress(SZ14Compressor(), smooth2d, 1e-3, n_tiles=2)
        with pytest.raises(ContainerError):
            tile_decompress(GhostSZCompressor(), res.payload)

    def test_too_many_tiles_rejected(self, smooth2d):
        with pytest.raises(ShapeError):
            tile_compress(SZ14Compressor(), smooth2d, 1e-3,
                          n_tiles=smooth2d.shape[0])

    def test_rejects_1d(self, ramp1d):
        with pytest.raises(ShapeError):
            tile_compress(SZ14Compressor(), ramp1d, 1e-3, n_tiles=2)


class TestPlanBands:
    def test_too_many_tiles_names_feasible_max(self, smooth2d):
        from repro.parallel import plan_bands

        n0 = smooth2d.shape[0]
        with pytest.raises(ShapeError, match=f"at most {n0 // 2} tiles"):
            plan_bands(smooth2d, 1e-3, "vr_rel", n0)

    def test_clamp_reduces_to_feasible_max(self, smooth2d):
        from repro.parallel import plan_bands

        n0 = smooth2d.shape[0]
        slices = plan_bands(smooth2d, 1e-3, "vr_rel", n0, clamp=True).slices
        assert len(slices) == n0 // 2
        assert all(s.stop - s.start >= 2 for s in slices)
        assert slices[0].start == 0 and slices[-1].stop == n0

    def test_field_smaller_than_one_band_raises_even_clamped(self):
        from repro.parallel import plan_bands

        sliver = np.zeros((1, 8), dtype=np.float32)
        for clamp in (False, True):
            with pytest.raises(ShapeError, match="smaller than one"):
                plan_bands(sliver, 1e-3, "vr_rel", 1, clamp=clamp)

    def test_clamped_plan_round_trips(self):
        rng = np.random.default_rng(7)
        small = np.cumsum(
            rng.normal(size=(5, 12)), axis=1
        ).astype(np.float32)
        comp = SZ14Compressor()
        res = tile_compress(comp, small, 1e-3, n_tiles=2)
        out = tile_decompress(comp, res.payload)
        vr = float(small.max() - small.min())
        assert np.abs(out.astype(np.float64) - small).max() <= 1e-3 * vr


class TestForgedBands:
    """A valid band payload in the wrong slot is refused, never broadcast
    into the band's rows or cast to the field's dtype."""

    @pytest.fixture
    def forge(self, smooth2d):
        comp = get_codec("wavesz-dp")
        tiled = tile_compress(comp, smooth2d, 1e-3, "abs", n_tiles=2)
        container = Container.from_bytes(tiled.payload)
        start = container.header["band_starts"][1]

        def with_band1(rows: np.ndarray) -> bytes:
            band = comp.compress(np.ascontiguousarray(rows), 1e-3, "abs")
            return Container(
                header=container.header,
                sections=[
                    ContainerSection(s.name, band.payload)
                    if s.name == "tile1" else s
                    for s in container.sections
                ],
            ).to_bytes()

        return {
            "one-row": with_band1(smooth2d[start : start + 1]),
            "float64": with_band1(smooth2d[start:].astype(np.float64)),
        }

    @pytest.mark.parametrize("kind", ["one-row", "float64"])
    @pytest.mark.parametrize(
        "decode",
        [
            decompress_auto,
            lambda p: tile_decompress(None, p),
            lambda p: decompress_tile(None, p, 1),
        ],
        ids=["decompress_auto", "tile_decompress", "decompress_tile"],
    )
    def test_wrong_band_refused_naming_the_tile(self, forge, kind, decode):
        with pytest.raises(ContainerError, match="tile 1 decoded to"):
            decode(forge[kind])

    def test_other_band_still_decodes(self, forge, smooth2d):
        band0 = decompress_tile(None, forge["one-row"], 0)
        assert band0.shape == (smooth2d.shape[0] // 2, smooth2d.shape[1])

"""Round-trip matrix for ``streams.decompress_auto`` — the one decode path.

Every name the registry resolves (canonical wire names, aliases like
``"SZ-2.0+"``, profiles like ``"wavesz-g"``) must produce a payload that
``decompress_auto`` decodes without being told the codec, and the result
must be bit-identical to the producing compressor's own ``decompress``.
Tiled containers dispatch through the same entry point.
"""

import numpy as np
import pytest

from repro.codec.registry import REGISTRY, get_codec
from repro.errors import ContainerError, ShapeError
from repro.parallel import tile_compress
from repro.streams import decompress_auto


@pytest.mark.parametrize("name", REGISTRY.all_names())
class TestRegistryMatrix:
    def test_roundtrip_every_registered_name(self, name, smooth2d):
        comp = get_codec(name)
        try:
            cf = comp.compress(smooth2d, 1e-3, "vr_rel")
        except ShapeError:
            pytest.skip(f"{name} does not take 2D fields")
        auto = decompress_auto(cf.payload)
        own = comp.decompress(cf.payload)
        np.testing.assert_array_equal(auto, own)
        assert auto.dtype == smooth2d.dtype
        vr = float(smooth2d.max() - smooth2d.min())
        assert np.abs(auto.astype(np.float64) - smooth2d).max() <= 1e-3 * vr

    def test_one_parsed_container_decodes_twice(self, name):
        """Decode must not mutate its input: ``decompress`` takes a parsed
        ``Container``, and a store or selector may hand the same one over
        again.  The spike makes the Huffman stream gzip smaller
        (``codes_gzipped``), the case that used to add a section."""
        from repro.io.container import Container

        x = np.tile(np.linspace(0, 1, 96), (64, 1)).astype(np.float32)
        x[10, 10] = 5
        comp = get_codec(name)
        try:
            cf = comp.compress(x, 1e-2, "abs")
        except ShapeError:
            pytest.skip(f"{name} does not take 2D fields")
        container = Container.from_bytes(cf.payload)
        sections = [(s.name, s.payload) for s in container.sections]
        header = dict(container.header)
        first = comp.decompress(container)
        np.testing.assert_array_equal(comp.decompress(container), first)
        np.testing.assert_array_equal(decompress_auto(cf.payload), first)
        assert [(s.name, s.payload) for s in container.sections] == sections
        assert container.header == header


class TestProfiles:
    def test_profile_payload_differs_but_decodes(self, smooth2d):
        """wavesz-g (no Huffman pass) is its own configuration, yet its
        payload carries the canonical wire name and auto-decodes."""
        plain = get_codec("wavesz").compress(smooth2d, 1e-3, "vr_rel")
        g = get_codec("wavesz-g").compress(smooth2d, 1e-3, "vr_rel")
        assert plain.payload != g.payload
        np.testing.assert_array_equal(
            decompress_auto(g.payload), get_codec("wavesz").decompress(g.payload)
        )


class TestTiledDispatch:
    def test_tiled_payload_auto_decodes(self, smooth2d):
        comp = get_codec("sz14")
        tiled = tile_compress(comp, smooth2d, 1e-3, n_tiles=3)
        from repro.parallel import tile_decompress

        np.testing.assert_array_equal(
            decompress_auto(tiled.payload),
            tile_decompress(comp, tiled.payload),
        )

    def test_selector_payload_auto_decodes(self, smooth2d):
        from repro.selector import OnlineSelector

        sel = OnlineSelector(["sz14", "zfp-like"])
        res = sel.select(smooth2d, 1e-3, "vr_rel")
        np.testing.assert_array_equal(
            decompress_auto(res.compressed.payload),
            sel.decompress(res.compressed),
        )


class TestParsedOnce:
    """Each container is parsed and CRC-checked once per decode.

    The count is of ``Container._parse``, which ``from_bytes`` and
    ``scan`` both run, so a lenient scan is counted too."""

    @pytest.fixture
    def parses(self, monkeypatch):
        from repro.io.container import Container

        seen = []
        real = Container._parse.__func__

        def counting(cls, blob, *, strict):
            seen.append(len(blob))
            return real(cls, blob, strict=strict)

        monkeypatch.setattr(Container, "_parse", classmethod(counting))
        return seen

    def test_plain_payload(self, smooth2d, parses):
        cf = get_codec("wavesz-dp-rans").compress(smooth2d, 1e-3, "vr_rel")
        decompress_auto(cf.payload)
        assert parses == [len(cf.payload)]

    def test_tiled_payload(self, smooth2d, parses):
        tiled = tile_compress(get_codec("sz14"), smooth2d, 1e-3, n_tiles=3)
        decompress_auto(tiled.payload)
        # the outer container once, then each band's own
        assert len(parses) == 1 + 3 and parses[0] == len(tiled.payload)

    def test_cold_store_read_parses_each_tile_once(self, tmp_path, smooth2d,
                                                    parses):
        from repro.store import ArrayStore

        ArrayStore(tmp_path / "s").put("f", smooth2d, "sz14", n_tiles=4)
        cold = ArrayStore(tmp_path / "s")
        parses.clear()
        cold.read("f")
        assert len(parses) == 4

    def test_cli_decompress_parses_once(self, tmp_path, smooth2d, parses):
        from repro.cli import main

        wsz = tmp_path / "f.wsz"
        wsz.write_bytes(get_codec("sz14").compress(smooth2d, 1e-3).payload)
        parses.clear()
        assert main(["decompress", str(wsz), "-o", str(tmp_path / "f.raw")]) == 0
        assert parses == [wsz.stat().st_size]

    def test_cli_verify_scans_then_parses_once(self, tmp_path, smooth2d,
                                               parses):
        from repro.cli import main

        wsz = tmp_path / "f.wsz"
        wsz.write_bytes(get_codec("sz14").compress(smooth2d, 1e-3).payload)
        parses.clear()
        assert main(["verify", str(wsz)]) == 0
        assert parses == [wsz.stat().st_size] * 2


class TestRejection:
    def test_garbage_rejected(self):
        with pytest.raises(ContainerError):
            decompress_auto(b"not a container at all")

    def test_unknown_variant_rejected(self, smooth2d):
        from repro.io.container import Container

        cf = get_codec("sz14").compress(smooth2d, 1e-3, "vr_rel")
        c = Container.from_bytes(cf.payload)
        c.header["variant"] = "SZ-99"
        with pytest.raises(ContainerError, match="SZ-99"):
            decompress_auto(c.to_bytes())

"""Unit tests for the wavesz command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.io import read_raw_field, write_raw_field


@pytest.fixture()
def raw_field(tmp_path, smooth2d):
    path = tmp_path / "field.f32"
    write_raw_field(path, smooth2d)
    return path, smooth2d


class TestCompressDecompress:
    @pytest.mark.parametrize("variant", ["wavesz", "wavesz-g", "sz14", "sz20",
                                         "ghostsz"])
    def test_roundtrip(self, tmp_path, raw_field, variant, capsys):
        path, data = raw_field
        wsz = tmp_path / "out.wsz"
        restored = tmp_path / "restored.f32"
        d0, d1 = data.shape
        assert main(["compress", str(path), "--dims", str(d0), str(d1),
                     "--variant", variant, "--eb", "1e-3",
                     "-o", str(wsz), "--verify"]) == 0
        assert main(["decompress", str(wsz), "-o", str(restored)]) == 0
        out = read_raw_field(restored, data.shape, np.float32)
        vr = float(data.max() - data.min())
        assert np.abs(out.astype(np.float64) - data).max() <= 1e-3 * vr
        captured = capsys.readouterr()
        assert "ratio" in captured.out
        assert "verified" in captured.out

    def test_abs_mode(self, tmp_path, raw_field):
        path, data = raw_field
        wsz = tmp_path / "o.wsz"
        assert main(["compress", str(path), "--dims", "48", "80",
                     "--mode", "abs", "--eb", "0.002",
                     "-o", str(wsz), "--verify"]) == 0

    def test_missing_input(self, tmp_path):
        assert main(["compress", str(tmp_path / "nope.f32"),
                     "--dims", "4", "4", "-o", str(tmp_path / "x.wsz")]) == 1

    def test_wrong_dims(self, tmp_path, raw_field):
        path, _ = raw_field
        assert main(["compress", str(path), "--dims", "7", "7",
                     "-o", str(tmp_path / "x.wsz")]) == 1


class TestOtherCommands:
    def test_info(self, tmp_path, raw_field, capsys):
        path, _ = raw_field
        wsz = tmp_path / "o.wsz"
        main(["compress", str(path), "--dims", "48", "80", "-o", str(wsz)])
        assert main(["info", str(wsz)]) == 0
        out = capsys.readouterr().out
        assert '"variant"' in out and "section" in out

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("CESM-ATM", "Hurricane", "NYX"):
            assert name in out

    def test_generate(self, tmp_path, capsys):
        out_path = tmp_path / "g.f32"
        assert main(["generate", "NYX", "velocity_x", "-o", str(out_path)]) == 0
        assert out_path.stat().st_size == 64 * 64 * 64 * 4

    def test_generate_unknown_field(self, tmp_path):
        assert main(["generate", "NYX", "bogus",
                     "-o", str(tmp_path / "g.f32")]) == 1

    def test_parser_rejects_unknown_variant(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compress", "x", "--dims", "2", "2", "--variant", "zfp",
                 "-o", "y"]
            )


class TestArchiveCommands:
    def test_archive_extract_roundtrip(self, tmp_path, capsys):
        ar = tmp_path / "nyx.wszar"
        assert main(["archive", "NYX", "--variant", "sz14",
                     "-o", str(ar)]) == 0
        out = capsys.readouterr().out
        assert "velocity_x" in out and "ratio" in out
        raw = tmp_path / "v.f32"
        assert main(["extract", str(ar), "velocity_x", "-o", str(raw)]) == 0
        assert raw.stat().st_size == 64 * 64 * 64 * 4

    def test_extract_unknown_field(self, tmp_path):
        ar = tmp_path / "nyx.wszar"
        main(["archive", "NYX", "--variant", "sz14", "-o", str(ar)])
        assert main(["extract", str(ar), "bogus",
                     "-o", str(tmp_path / "x.f32")]) == 1

    def test_archive_is_a_store_directory(self, tmp_path, capsys):
        """What `archive` wrote, every `store` subcommand operates on."""
        ar = tmp_path / "nyx.wszar"
        assert main(["archive", "NYX", "--variant", "sz14",
                     "-o", str(ar)]) == 0
        raw, part = tmp_path / "v.f32", tmp_path / "part.f32"
        assert main(["extract", str(ar), "velocity_x", "-o", str(raw)]) == 0
        assert main(["store", "--root", str(ar), "slice", "velocity_x",
                     "--window", "20:40,0:8", "-o", str(part)]) == 0
        assert "2 tile(s) touched" in capsys.readouterr().out
        whole = read_raw_field(raw, (64, 64, 64), np.float32)
        window = read_raw_field(part, (20, 8, 64), np.float32)
        np.testing.assert_array_equal(window, whole[20:40, 0:8])
        assert main(["store", "--root", str(ar), "fsck", "--deep"]) == 0
        assert "6 manifest(s)" in capsys.readouterr().out


class TestVerifyCommand:
    @pytest.fixture()
    def compressed(self, tmp_path, raw_field):
        path, data = raw_field
        wsz = tmp_path / "o.wsz"
        d0, d1 = data.shape
        assert main(["compress", str(path), "--dims", str(d0), str(d1),
                     "--eb", "1e-3", "-o", str(wsz)]) == 0
        return path, wsz, data

    def test_verify_clean_payload(self, compressed, capsys):
        _, wsz, _ = compressed
        assert main(["verify", str(wsz)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_compress_verify_decompress_roundtrip(self, compressed, tmp_path,
                                                  capsys):
        path, wsz, data = compressed
        d0, d1 = data.shape
        assert main(["verify", str(wsz), "--original", str(path),
                     "--dims", str(d0), str(d1)]) == 0
        out = capsys.readouterr().out
        assert "max error" in out and "OK" in out
        restored = tmp_path / "r.f32"
        assert main(["decompress", str(wsz), "-o", str(restored)]) == 0

    def test_verify_detects_bit_flip(self, compressed, tmp_path, capsys):
        _, wsz, _ = compressed
        blob = bytearray(wsz.read_bytes())
        blob[len(blob) // 2] ^= 0x04
        bad = tmp_path / "bad.wsz"
        bad.write_bytes(bytes(blob))
        assert main(["verify", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "FAILED" in err and "checksum" in err

    def test_verify_detects_truncation(self, compressed, tmp_path, capsys):
        _, wsz, _ = compressed
        bad = tmp_path / "cut.wsz"
        bad.write_bytes(wsz.read_bytes()[:-9])
        assert main(["verify", str(bad)]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_verify_missing_file(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "nope.wsz")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_verify_original_requires_dims(self, compressed, capsys):
        path, wsz, _ = compressed
        assert main(["verify", str(wsz), "--original", str(path)]) == 2

    @pytest.mark.parametrize("variant", ["SZ-99", "tiled[SZ-99]"])
    def test_unknown_variant_is_the_registry_error(self, compressed, tmp_path,
                                                   capsys, variant):
        """No CLI-local variant check: the payload decodes through
        decompress_auto, whose typed ContainerError names the variant."""
        from repro.io import Container

        _, wsz, _ = compressed
        c = Container.from_bytes(wsz.read_bytes())
        c.header.update(variant=variant, inner_variant="SZ-99")
        bad = tmp_path / "unknown.wsz"
        bad.write_bytes(c.to_bytes())
        for argv in (["decompress", str(bad), "-o", str(tmp_path / "r.f32")],
                     ["verify", str(bad)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "'SZ-99'" in err


class TestReportCommand:
    def test_report_prints_hls_summary(self, capsys):
        assert main(["report", "--dims", "100", "250000"]) == 0
        out = capsys.readouterr().out
        assert "synthesis report" in out
        assert "BodyV" in out

    def test_report_base10(self, capsys):
        assert main(["report", "--dims", "64", "128", "--base10"]) == 0
        assert "fdiv" in capsys.readouterr().out


class TestServiceCommands:
    def test_codecs_lists_registry(self, capsys):
        assert main(["codecs"]) == 0
        out = capsys.readouterr().out
        assert "waveSZ" in out and "wavesz-g" in out and "Table 2" in out

    def test_batch_manifest(self, tmp_path, raw_field, capsys):
        import json

        path, data = raw_field
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "defaults": {"eb": 1e-3, "mode": "vr_rel"},
            "jobs": [
                {"input": path.name, "dims": list(data.shape),
                 "codec": "sz14"},
                {"input": path.name, "dims": list(data.shape),
                 "codec": "zfp-like", "output": "zfp.wsz"},
            ],
        }))
        # manifest-relative inputs: point the manifest at the field's dir
        manifest = manifest.rename(path.parent / "manifest.json")
        outdir = tmp_path / "out"
        report = tmp_path / "report.json"
        assert main(["batch", str(manifest), "-o", str(outdir),
                     "--workers", "0", "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "2/2 jobs ok" in out
        from repro.codec.registry import get_codec

        direct = get_codec("sz14").compress(data, 1e-3, "vr_rel")
        assert (outdir / "field.wsz").read_bytes() == direct.payload
        rep = json.loads(report.read_text())
        assert rep["stats"]["totals"]["completed"] == 2
        assert {j["codec"] for j in rep["jobs"]} == {"sz14", "zfp-like"}

    def test_batch_tiled_dp_job_roundtrips_through_cli(self, tmp_path,
                                                       raw_field, capsys):
        import json

        path, data = raw_field
        manifest = path.parent / "m.json"
        manifest.write_text(json.dumps({"jobs": [
            {"input": path.name, "dims": list(data.shape),
             "codec": "wavesz-dp", "tiles": 3, "output": "dp.wsz"},
        ]}))
        outdir = tmp_path / "out"
        assert main(["batch", str(manifest), "-o", str(outdir),
                     "--workers", "0"]) == 0
        from repro.codec.registry import get_codec
        from repro.parallel import tile_compress

        direct = tile_compress(
            get_codec("wavesz-dp"), data, 1e-3, "vr_rel", n_tiles=3
        )
        wsz = outdir / "dp.wsz"
        assert wsz.read_bytes() == direct.payload
        # tiled payloads decompress and verify through the plain CLI
        restored = tmp_path / "dp.f32"
        assert main(["decompress", str(wsz), "-o", str(restored)]) == 0
        assert "tiled[waveSZ-dp]" in capsys.readouterr().out
        d0, d1 = data.shape
        assert main(["verify", str(wsz), "--original", str(path),
                     "--dims", str(d0), str(d1)]) == 0
        from repro.io import Container

        out = read_raw_field(restored, data.shape, np.float32)
        err = np.abs(out.astype(np.float64) - data.astype(np.float64))
        eb_abs = Container.from_bytes(direct.payload).header["eb_abs"]
        assert float(err.max()) <= float(eb_abs)

    def test_batch_duplicate_outputs_disambiguated(self, tmp_path, capsys):
        import json

        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"jobs": [
            {"dataset": "CESM-ATM", "field": "CLDLOW", "codec": "sz14"},
            {"dataset": "CESM-ATM", "field": "CLDLOW", "codec": "sz10"},
        ]}))
        outdir = tmp_path / "out"
        assert main(["batch", str(manifest), "-o", str(outdir),
                     "--workers", "0"]) == 0
        names = sorted(p.name for p in outdir.iterdir())
        assert names == ["CESM-ATM_CLDLOW.wsz", "CESM-ATM_CLDLOW_1.wsz"]

    def test_batch_empty_manifest_errors(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text('{"jobs": []}')
        assert main(["batch", str(manifest), "-o", str(tmp_path / "o")]) == 1
        assert "no jobs" in capsys.readouterr().err


class TestStoreCommands:
    @pytest.fixture()
    def stored(self, tmp_path, raw_field):
        path, data = raw_field
        root = tmp_path / "store"
        d0, d1 = data.shape
        assert main(["store", "--root", str(root), "put", str(path), "ts",
                     "--dims", str(d0), str(d1), "--variant", "sz14",
                     "--eb", "1e-3", "--tiles", "4"]) == 0
        return root, data

    def test_put_reports_objects(self, tmp_path, raw_field, capsys):
        path, data = raw_field
        root = tmp_path / "s"
        d0, d1 = data.shape
        args = ["store", "--root", str(root), "put", str(path), "a",
                "--dims", str(d0), str(d1), "--variant", "sz14"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "4 new object(s)" in out and "ratio" in out
        # byte-identical second dataset deduplicates completely
        args[5] = "b"
        assert main(args) == 0
        assert "0 new object(s)" in capsys.readouterr().out

    def test_put_refused_mode_writes_nothing(self, tmp_path, raw_field, capsys):
        path, data = raw_field
        root = tmp_path / "s"
        d0, d1 = data.shape
        assert main(["store", "--root", str(root), "put", str(path), "a",
                     "--dims", str(d0), str(d1), "--mode", "pw_rel",
                     "--eb", "1e-2"]) == 1  # the default codec: waveSZ
        err = capsys.readouterr().err
        assert "waveSZ" in err and "pw_rel" in err and "abs, vr_rel" in err
        assert not [p for p in root.rglob("*") if p.is_file()]

    def test_get_round_trips(self, stored, tmp_path, capsys):
        root, data = stored
        out_path = tmp_path / "back.f32"
        assert main(["store", "--root", str(root), "get", "ts",
                     "-o", str(out_path)]) == 0
        out = read_raw_field(out_path, data.shape, np.float32)
        vr = float(data.max() - data.min())
        assert np.abs(out.astype(np.float64) - data).max() <= 1e-3 * vr

    def test_slice_window(self, stored, tmp_path, capsys):
        root, data = stored
        full = tmp_path / "full.f32"
        part = tmp_path / "part.f32"
        assert main(["store", "--root", str(root), "get", "ts",
                     "-o", str(full)]) == 0
        assert main(["store", "--root", str(root), "slice", "ts",
                     "--window", "8:24,0:40", "-o", str(part)]) == 0
        assert "tile(s) touched" in capsys.readouterr().out
        whole = read_raw_field(full, data.shape, np.float32)
        window = read_raw_field(part, (16, 40), np.float32)
        np.testing.assert_array_equal(window, whole[8:24, 0:40])

    def test_bad_window_is_an_error(self, stored, tmp_path, capsys):
        root, _ = stored
        assert main(["store", "--root", str(root), "slice", "ts",
                     "--window", "banana", "-o", str(tmp_path / "x")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_ls_and_gc(self, stored, capsys):
        root, _ = stored
        assert main(["store", "--root", str(root), "ls"]) == 0
        assert "ts" in capsys.readouterr().out
        assert main(["store", "--root", str(root), "gc"]) == 0
        assert "removed 0 object(s)" in capsys.readouterr().out

    def test_damaged_tile_exits_3_without_strict(self, stored, tmp_path,
                                                 capsys):
        import json

        root, data = stored
        manifest = json.loads((root / "manifests" / "ts.json").read_text())
        victim = root / "objects" / manifest["tiles"][1]
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0x10
        victim.write_bytes(bytes(blob))
        out_path = tmp_path / "back.f32"
        # strict (default) fails outright
        assert main(["store", "--root", str(root), "get", "ts",
                     "-o", str(out_path)]) == 1
        assert "error:" in capsys.readouterr().err
        # lenient salvages the rest and signals partial loss via exit 3
        assert main(["store", "--root", str(root), "get", "ts",
                     "-o", str(out_path), "--no-strict"]) == 3
        captured = capsys.readouterr()
        assert "tile 1 lost" in captured.err
        out = read_raw_field(out_path, data.shape, np.float32)
        assert (out[:12] != 0).any()  # intact band survived

"""A tiled read decodes its bands as one batch — and means the same.

Every batched decode (the Huffman kernel, inflate, the stage pipeline,
the band decoder, the store read, ``fsck --deep``) must equal the
per-item loop it replaces bit for bit, and raise or report what that
loop raised or reported: class, message and tile.
"""

import hashlib
import json
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.codec.pipeline import StagePipeline
from repro.codec.registry import get_codec
from repro.data import load_field
from repro.encoding import huffman
from repro.errors import ReproError, StoreError
from repro.io.container import Container
from repro.kernels import forced
from repro.lossless.deflate import deflate, inflate, inflate_outcomes
from repro.parallel import band_outcomes, decode_band, tile_compress, tile_decompress
from repro.store import ArrayStore, TileDamage, decode_tile_blob
from repro.tiling import TileGrid

MODES = ["fast", "reference"]
TILES = 8


@pytest.fixture(scope="module")
def field():
    return load_field("CESM-ATM", "CLDLOW")  # (180, 360): 8 100-point bands


@pytest.fixture()
def store(tmp_path, field):
    s = ArrayStore(tmp_path / "store")
    s.put("f", field, "wavesz-dp", 1e-3, n_tiles=TILES)
    return s


@contextmanager
def _kernel_calls():
    """Records every ``huffman.decode`` dispatch inside the block."""
    calls: list[str] = []
    resolve = huffman.resolve

    def counting(name: str):
        if name == "huffman.decode":
            calls.append(name)
        return resolve(name)

    with mock.patch.object(huffman, "resolve", counting):
        yield calls


def _norm(result):
    """An array as ``("ok", bytes)``, an error as ``(class, message)``."""
    if isinstance(result, ReproError):
        return (type(result).__name__, str(result))
    return ("ok", result.tobytes() if isinstance(result, np.ndarray) else result)


def _outcome(fn):
    try:
        return _norm(fn())
    except ReproError as exc:
        return _norm(exc)


def _forged(blob: bytes) -> bytes:
    """A payload whose digest and container checksums are sound but whose
    Huffman code stream is cut in half: it fails only when decoded."""
    c = Container.from_bytes(blob)
    out = Container(header=dict(c.header))
    for s in c.sections:
        cut = s.name.startswith("huffman_codes")
        out.add(s.name, s.payload[: len(s.payload) // 2] if cut else s.payload)
    return out.to_bytes()


def _swap_in(store, index: int, blob: bytes) -> None:
    """Point tile ``index`` of ``f`` at a new object holding ``blob``."""
    digest = hashlib.sha256(blob).hexdigest()
    store._object_path(digest).write_bytes(blob)
    m = json.loads(store._manifest_path("f").read_text())
    m["tiles"][index] = digest
    store._manifest_path("f").write_text(json.dumps(m, sort_keys=True))


def _blobs(store):
    m = store.manifest("f")
    return m, TileGrid.from_starts(m["shape"], m["band_starts"]), [
        store._object_path(d).read_bytes() if store._object_path(d).exists() else None
        for d in m["tiles"]
    ]


def _per_tile_rows(store):
    """What the per-tile read path reports: ``TileDamage`` per tile."""
    m, grid, blobs = _blobs(store)
    rows = []
    for t, blob in enumerate(blobs):
        if blob is None:
            err = StoreError(f"object {m['tiles'][t]} is missing from {store.root}")
            rows.append(TileDamage(t, m["tiles"][t], "missing", str(err)))
            continue
        got = _outcome(lambda: decode_tile_blob(m, grid, t, blob))
        if got[0] != "ok":
            stage = "checksum" if got[0] == "ChecksumError" else "decode"
            rows.append(TileDamage(t, m["tiles"][t], stage, got[1]))
    return tuple(rows)


@pytest.mark.parametrize("mode", MODES)
def test_cold_read_equals_per_tile_decode(store, mode):
    m, grid, blobs = _blobs(store)
    with forced(mode):
        expected = [decode_tile_blob(m, grid, t, b) for t, b in enumerate(blobs)]
        cold = ArrayStore(store.root)
        got = cold.read("f").data
    assert got.tobytes() == np.concatenate(expected).tobytes()
    assert cold.decode_calls == TILES  # still counts tiles, not batches


@pytest.mark.parametrize("mode", MODES)
def test_cold_read_makes_at_most_two_kernel_calls(store, mode):
    m, _, blobs = _blobs(store)
    gzipped = sum(Container.from_bytes(b).header["codes_gzipped"] for b in blobs)
    with forced(mode), _kernel_calls() as calls:
        ArrayStore(store.root).read("f")
    # one for inflate's streams (when a tile's codes were gzipped), one
    # for the quant codes; the per-band loop made TILES + 2 * gzipped
    assert len(calls) == 1 + (gzipped > 0)
    with forced(mode), _kernel_calls() as calls:
        for t, b in enumerate(blobs):
            decode_tile_blob(m, TileGrid.from_starts(m["shape"], m["band_starts"]), t, b)
    assert len(calls) >= TILES


@pytest.mark.parametrize("mode", MODES)
def test_salvage_reports_the_per_tile_damage_rows(store, field, mode):
    m, _, blobs = _blobs(store)
    _swap_in(store, 2, _forged(blobs[2]))  # decodes wrong: stage decode
    path = store._object_path(m["tiles"][5])
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x10
    path.write_bytes(bytes(raw))  # digest mismatch: stage checksum
    store._object_path(m["tiles"][7]).unlink()  # stage missing
    with forced(mode):
        expected = _per_tile_rows(store)
        res = ArrayStore(store.root).read("f", strict=False)
    assert [r.index for r in expected] == [2, 5, 7]
    assert [r.stage for r in expected] == ["decode", "checksum", "missing"]
    assert res.damaged == expected
    clean = get_codec("wavesz-dp")
    grid = TileGrid.from_starts(m["shape"], m["band_starts"])
    for t in (0, 1, 3, 4, 6):
        band = decode_band(clean, grid, t, blobs[t], m["dtype"])
        assert res.data[grid.band_slice(t)].tobytes() == band.tobytes()
    # strict: the first damaged tile's own error, class and message
    m, grid, blobs = _blobs(store)
    with forced(mode):
        first = _outcome(lambda: decode_tile_blob(m, grid, 2, blobs[2]))
        assert _outcome(lambda: ArrayStore(store.root).read("f")) == first


def test_fsck_deep_names_the_one_damaged_tile(store):
    m, _, blobs = _blobs(store)
    _swap_in(store, 4, _forged(blobs[4]))
    report = ArrayStore(store.root).fsck(deep=True)
    # the replaced object is an orphan now: a warning, not an error
    assert [f.kind for f in report.errors] == ["decode-damage"]
    finding = report.errors[0]
    assert finding.subject == store.manifest("f")["tiles"][4]
    assert finding.detail.endswith("(manifest 'f' tile 4)")


@pytest.mark.parametrize("mode", MODES)
def test_decompress_many_equals_the_per_payload_loop(field, mode):
    codec = get_codec("wavesz-dp")
    bands = [codec.compress(np.ascontiguousarray(field[r::4]), 1e-3, "abs").payload
             for r in range(4)]
    with forced(mode):
        many = codec.decompress_many(bands)
        assert [b.tobytes() for b in many] == [
            codec.decompress(b).tobytes() for b in bands
        ]
        broken = [bands[0], _forged(bands[1]), b"junk", bands[3]]
        alone = _outcome(lambda: codec.decompress(broken[1]))
        assert alone[0] != "ok"
        assert _outcome(lambda: codec.decompress_many(broken)) == alone


@pytest.mark.parametrize("mode", MODES)
def test_band_outcomes_equal_decode_band_per_band(field, mode):
    codec = get_codec("wavesz-dp")
    tiled = tile_compress(codec, field, 1e-3, "vr_rel", n_tiles=4)
    c = Container.from_bytes(tiled.payload)
    grid = TileGrid.from_starts(c.header["shape"], c.header["band_starts"])
    payloads = [c.get(f"tile{t}") for t in range(4)]
    payloads[1] = _forged(payloads[1])
    # a valid band of another shape in slot 3
    payloads[3] = codec.compress(np.ascontiguousarray(field[:44]), 1e-3, "abs").payload
    with forced(mode):
        got = band_outcomes(codec, grid, range(4), payloads, "float32")
        want = [_outcome(lambda t=t: decode_band(codec, grid, t, payloads[t], "float32"))
                for t in range(4)]
    assert [_norm(g) for g in got] == want
    assert want[0][0] == want[2][0] == "ok" != want[1][0]
    assert want[3][0] == "ContainerError"  # refused for its shape


def test_a_failing_batch_decodes_each_band_alone_once(field):
    codec = get_codec("wavesz-dp")
    tiled = tile_compress(codec, field, 1e-3, "vr_rel", n_tiles=TILES)
    c = Container.from_bytes(tiled.payload)
    grid = TileGrid.from_starts(c.header["shape"], c.header["band_starts"])
    payloads = [c.get(f"tile{t}") for t in range(TILES)]
    # a sound payload of another codec in slot 3: the batch refuses it
    band3 = np.ascontiguousarray(field[grid.band_slice(3)])
    payloads[3] = get_codec("sz14").compress(band3, 1e-3, "abs").payload
    calls: list[int] = []
    run = StagePipeline.run_inverse_many

    def counting(self, batch):
        calls.append(len(batch))
        return run(self, batch)

    with mock.patch.object(StagePipeline, "run_inverse_many", counting):
        got = band_outcomes(codec, grid, range(TILES), payloads, "float32")
    # the batch, then every band alone: no second fallback on top
    assert calls == [TILES] + [1] * TILES
    want = [_outcome(lambda t=t: decode_band(codec, grid, t, payloads[t], "float32"))
            for t in range(TILES)]
    assert [_norm(g) for g in got] == want
    assert [w[0] for w in want] == ["ok"] * 3 + ["ContainerError"] + ["ok"] * 4


@pytest.mark.parametrize("mode", MODES)
def test_tile_decompress_raises_the_per_band_error(field, mode):
    codec = get_codec("wavesz-dp")
    tiled = tile_compress(codec, field, 1e-3, "vr_rel", n_tiles=4)
    c = Container.from_bytes(tiled.payload)
    out = Container(header=dict(c.header))
    for s in c.sections:
        out.add(s.name, _forged(s.payload) if s.name == "tile2" else s.payload)
    grid = TileGrid.from_starts(c.header["shape"], c.header["band_starts"])
    with forced(mode):
        alone = _outcome(lambda: decode_band(
            codec, grid, 2, _forged(c.get("tile2")), "float32"))
        got = _outcome(lambda: tile_decompress(None, out.to_bytes()))
        assert tile_decompress(None, tiled.payload).tobytes() == np.concatenate(
            [decode_band(codec, grid, t, c.get(f"tile{t}"), "float32")
             for t in range(4)]
        ).tobytes()
    assert alone[0] != "ok"
    assert got[0] == alone[0] and alone[1] in got[1]


@pytest.mark.parametrize("mode", MODES)
def test_inflate_outcomes_equal_inflate_per_blob(mode):
    rng = np.random.default_rng(11)
    datas = [
        bytes(rng.integers(0, 4, 20000, dtype=np.uint8)),
        b"",
        bytes(rng.integers(0, 256, 3000, dtype=np.uint8)),
        b"abcabcabd" * 900,
    ]
    blobs = [deflate(d) for d in datas]
    bad = bytearray(blobs[2])
    bad[len(bad) // 2] ^= 0x40
    blobs.append(bytes(bad))
    blobs.append(b"WDF1" + blobs[0][4:20])
    with forced(mode), _kernel_calls() as calls:
        got = inflate_outcomes(blobs)
    assert len(calls) == 1
    for blob, data, result in zip(blobs, datas + [None, None], got):
        with forced(mode):
            alone = _outcome(lambda: inflate(blob))
        assert _norm(result) == alone
        assert data is None or result == data

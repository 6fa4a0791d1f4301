"""Golden-stream guard: the stage-pipeline refactor must not move a byte.

The fixtures in ``tests/data/`` were captured before the compressors were
migrated onto the :mod:`repro.codec` stage pipeline.  Two invariants are
asserted per golden:

* **decode stability** — the post-refactor decoder reproduces the
  originally decoded field bit-for-bit from the stored payload;
* **encode stability** — re-compressing the identical input reproduces
  the stored payload bit-for-bit (no on-wire drift).

Plus a registry-dispatch pass: every golden, tiled included, decodes
through :func:`repro.streams.decompress_auto` with no compressor in hand.

The ``tiled[...]`` container is a wire format of its own (the service
answers ``tiles=`` requests with it); its golden pins the serial
:func:`repro.parallel.tile_compress` and both scheduler fan-outs to the
same bytes.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.codec.registry import REGISTRY, get_codec
from repro.parallel import tile_compress
from repro.service import make_job, run_batch
from repro.streams import decompress_auto

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

_spec = importlib.util.spec_from_file_location(
    "generate_goldens", DATA_DIR / "generate_goldens.py"
)
goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(goldens)

MANIFEST = json.loads((DATA_DIR / "manifest.json").read_text())
KEYS = sorted(goldens.GOLDEN_PARAMS)
TILED_KEYS = sorted(goldens.TILED_PARAMS)


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _payload(key: str) -> bytes:
    return (DATA_DIR / f"golden_{key}.bin").read_bytes()


def test_manifest_covers_every_variant():
    assert set(MANIFEST) == set(KEYS) | set(TILED_KEYS)
    variants = {MANIFEST[k]["variant"] for k in KEYS}
    assert variants == {
        "SZ-1.0", "SZ-1.4", "SZ-2.0", "GhostSZ", "waveSZ", "waveSZ-dp",
        "ZFP-like",
    }


@pytest.mark.parametrize("key", KEYS + TILED_KEYS)
def test_stored_payload_matches_manifest(key):
    entry = MANIFEST[key]
    blob = _payload(key)
    assert len(blob) == entry["payload_bytes"]
    assert _sha(blob) == entry["payload_sha256"]


@pytest.mark.parametrize("key", KEYS)
def test_decode_is_bit_exact(key):
    entry = MANIFEST[key]
    out = goldens.make_compressor(key).decompress(_payload(key))
    assert list(out.shape) == entry["shape"]
    assert str(out.dtype) == entry["dtype"]
    assert _sha(np.ascontiguousarray(out).tobytes()) == entry["output_sha256"]


@pytest.mark.parametrize("key", KEYS)
def test_recompression_is_bit_exact(key):
    entry = MANIFEST[key]
    eb, mode = goldens.GOLDEN_PARAMS[key]
    cf = goldens.make_compressor(key).compress(goldens.make_input(key), eb, mode)
    assert cf.variant == entry["variant"]
    assert _sha(cf.payload) == entry["payload_sha256"]


@pytest.mark.parametrize("key", KEYS + TILED_KEYS)
def test_registry_dispatch_decodes_golden(key):
    """decompress_auto picks the decoder from the wire header alone."""
    entry = MANIFEST[key]
    container, variant = REGISTRY.open(_payload(key))
    assert variant == entry["variant"]
    out = decompress_auto(container)
    assert _sha(np.ascontiguousarray(out).tobytes()) == entry["output_sha256"]


#: The registry name whose *shared* instance is configured like the
#: compressor each golden was captured with.
REGISTRY_NAMES = {
    "sz10": "sz10", "sz14": "sz14", "sz14_pwrel": "sz14", "sz20": "sz20",
    "ghostsz": "ghostsz", "wavesz": "wavesz", "wavesz_g": "wavesz-g",
    "wavesz_dp": "wavesz-dp", "wavesz_dp_3d": "wavesz-dp", "zfp": "zfp-like",
    "sz14_rans": "sz14-rans", "wavesz_dp_rans": "wavesz-dp-rans",
    "wavesz_dp_rans_3d": "wavesz-dp-rans",
    "wavesz_dp_rans_1d": "wavesz-dp-rans",
    "wavesz_dp_auto": "wavesz-dp-auto",
}


def test_shared_instances_reproduce_goldens_from_four_threads():
    """``get_codec`` hands every caller the same compressor, pipeline
    built once: four threads through it, interleaved, both directions,
    must still produce the stored bytes."""
    assert set(REGISTRY_NAMES) == set(KEYS)
    inputs = {k: goldens.make_input(k) for k in KEYS}

    def sweep(offset: int) -> int:
        done = 0
        for key in KEYS[offset:] + KEYS[:offset]:
            comp = get_codec(REGISTRY_NAMES[key])
            eb, mode = goldens.GOLDEN_PARAMS[key]
            entry = MANIFEST[key]
            assert _sha(comp.compress(inputs[key], eb, mode).payload) == (
                entry["payload_sha256"]
            ), key
            out = comp.decompress(_payload(key))
            assert _sha(np.ascontiguousarray(out).tobytes()) == (
                entry["output_sha256"]
            ), key
            done += 1
        return done

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(sweep, 4 * t) for t in range(4)]
            assert [f.result(timeout=120) for f in futures] == [len(KEYS)] * 4
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("key", TILED_KEYS)
def test_tiled_golden_decodes_bit_exactly(key):
    out = decompress_auto(_payload(key))
    assert _sha(np.ascontiguousarray(out).tobytes()) == (
        MANIFEST[key]["output_sha256"]
    )


@pytest.mark.parametrize("key", TILED_KEYS)
def test_every_tiled_writer_reproduces_the_golden(key):
    """Serial tiling, the inline fan-out and a process-pool fan-out."""
    base, codec, n_tiles = goldens.TILED_PARAMS[key]
    eb, mode = goldens.GOLDEN_PARAMS[base]
    data = goldens.make_input(base)
    golden = _payload(key)
    serial = tile_compress(
        goldens.make_compressor(base), data, eb, mode, n_tiles=n_tiles
    )
    assert serial.payload == golden
    for pool_kind in ("inline", "process"):
        (result,), stats = run_batch(
            [make_job(codec, data, eb=eb, mode=mode, n_tiles=n_tiles)],
            workers=2, pool_kind=pool_kind,
        )
        assert result.output == golden, pool_kind
        assert stats.events["scheduler.tile_fanouts"] == 1

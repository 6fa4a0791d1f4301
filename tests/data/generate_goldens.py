"""Golden-stream fixture generator for the codec-pipeline refactor.

Each golden is one container payload produced by a compressor variant on a
deterministic synthetic field.  The fixtures were captured *before* the
``repro.codec`` stage-pipeline migration; the post-refactor test suite
asserts that

* re-compressing the same input reproduces the stored payload bit-exactly
  (the on-wire format did not drift), and
* decoding the stored payload reproduces the originally decoded field
  bit-exactly (the decoders still read the pre-refactor format).

Run as a script to (re)generate ``golden_*.bin`` and ``manifest.json``::

    PYTHONPATH=src python tests/data/generate_goldens.py

Regeneration is only legitimate when the wire format changes *on purpose*
(a container version bump); the whole point of the fixtures is that casual
refactors must not need it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).resolve().parent


def _smooth2d(shape: tuple[int, int], seed: int) -> np.ndarray:
    """A smooth-but-not-trivial 2D field with a few rough outlier points."""
    rng = np.random.default_rng(seed)
    i = np.arange(shape[0], dtype=np.float64)[:, None]
    j = np.arange(shape[1], dtype=np.float64)[None, :]
    base = np.sin(i / 6.0) * np.cos(j / 9.0) + 0.05 * np.sin(i * j / 40.0)
    noise = 0.01 * rng.standard_normal(shape)
    field = base + noise
    # a handful of spikes so every variant exercises its outlier stream
    n_spikes = max(2, field.size // 200)
    pos = rng.integers(0, field.size, size=n_spikes)
    field.reshape(-1)[pos] += rng.standard_normal(n_spikes) * 3.0
    return field.astype(np.float32)


def _smooth3d(shape: tuple[int, int, int], seed: int) -> np.ndarray:
    """A smooth 3D field (stacked modulated planes) with a few spikes."""
    rng = np.random.default_rng(seed)
    k = np.arange(shape[0], dtype=np.float64)[:, None, None]
    i = np.arange(shape[1], dtype=np.float64)[None, :, None]
    j = np.arange(shape[2], dtype=np.float64)[None, None, :]
    field = np.cos(k / 4.0) * np.sin(i / 5.0) * np.cos(j / 7.0)
    field = field + 0.01 * rng.standard_normal(shape)
    n_spikes = max(2, field.size // 200)
    pos = rng.integers(0, field.size, size=n_spikes)
    field.reshape(-1)[pos] += rng.standard_normal(n_spikes) * 3.0
    return field.astype(np.float32)


def _smooth1d(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 6.0, n)
    field = np.sin(x) + 0.2 * np.cos(5.0 * x) + 0.01 * rng.standard_normal(n)
    return field.astype(np.float32)


def make_input(key: str) -> np.ndarray:
    """Deterministic input field for one golden key."""
    if key == "sz10":
        return _smooth1d(240, seed=1010)
    if key == "sz14":
        return _smooth2d((24, 32), seed=1414)
    if key == "sz14_pwrel":
        data = _smooth2d((24, 32), seed=1415)
        return (np.abs(data) + 0.25).astype(np.float32)  # positive-dominated
    if key == "sz20":
        return _smooth2d((24, 32), seed=2020)
    if key == "ghostsz":
        return _smooth2d((16, 48), seed=4242)
    if key in ("wavesz", "wavesz_g", "wavesz_dp"):
        return _smooth2d((16, 48), seed=3131)
    if key == "wavesz_dp_3d":
        return _smooth3d((8, 12, 16), seed=7878)
    if key == "zfp":
        return _smooth2d((24, 32), seed=9999)
    if key == "sz14_rans":
        return _smooth2d((24, 32), seed=1414)
    if key in ("wavesz_dp_rans", "wavesz_dp_auto"):
        return _smooth2d((16, 48), seed=3131)
    if key == "wavesz_dp_rans_3d":
        return _smooth3d((8, 12, 16), seed=7878)
    if key == "wavesz_dp_rans_1d":
        return _smooth1d(2000, seed=6060)
    raise KeyError(f"unknown golden key {key!r}")


def make_compressor(key: str):
    """The compressor instance each golden was captured with."""
    from repro.ghostsz import GhostSZCompressor
    from repro.core import WaveSZCompressor, WaveSZDPCompressor
    from repro.sz import SZ10Compressor, SZ14Compressor, SZ20Compressor
    from repro.zfp import ZFPCompressor

    factories = {
        "sz10": SZ10Compressor,
        "sz14": SZ14Compressor,
        "sz14_pwrel": SZ14Compressor,
        "sz20": SZ20Compressor,
        "ghostsz": GhostSZCompressor,
        "wavesz": lambda: WaveSZCompressor(use_huffman=True),
        "wavesz_g": lambda: WaveSZCompressor(use_huffman=False),
        "wavesz_dp": WaveSZDPCompressor,
        "wavesz_dp_3d": WaveSZDPCompressor,
        "zfp": ZFPCompressor,
        # rANS-backend goldens (PR 9): same variants, entropy knob flipped
        "sz14_rans": lambda: SZ14Compressor(entropy="rans"),
        "wavesz_dp_rans": lambda: WaveSZDPCompressor(entropy="rans"),
        "wavesz_dp_rans_3d": lambda: WaveSZDPCompressor(entropy="rans"),
        "wavesz_dp_rans_1d": lambda: WaveSZDPCompressor(entropy="rans"),
        "wavesz_dp_auto": lambda: WaveSZDPCompressor(entropy="auto"),
    }
    return factories[key]()


#: key -> (eb, mode)
GOLDEN_PARAMS: dict[str, tuple[float, str]] = {
    "sz10": (1e-3, "vr_rel"),
    "sz14": (1e-3, "vr_rel"),
    "sz14_pwrel": (1e-2, "pw_rel"),
    "sz20": (1e-3, "vr_rel"),
    "ghostsz": (1e-3, "vr_rel"),
    "wavesz": (1e-3, "vr_rel"),
    "wavesz_g": (1e-3, "vr_rel"),
    "wavesz_dp": (1e-3, "vr_rel"),
    "wavesz_dp_3d": (1e-3, "abs"),
    "zfp": (1e-3, "vr_rel"),
    "sz14_rans": (1e-3, "vr_rel"),
    "wavesz_dp_rans": (1e-3, "vr_rel"),
    "wavesz_dp_rans_3d": (1e-3, "abs"),
    "wavesz_dp_rans_1d": (1e-3, "vr_rel"),
    "wavesz_dp_auto": (1e-3, "vr_rel"),
}

#: tiled golden -> (codec golden whose input, compressor and bound it
#: reuses, registry name a service job reaches that compressor by, band
#: count).  ``tiled[...]`` is a wire and at-rest format of its own: the
#: service answers ``tiles=`` requests with it.
TILED_PARAMS: dict[str, tuple[str, str, int]] = {
    "tiled_wavesz_dp": ("wavesz_dp", "wavesz-dp", 3),
}


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def main() -> None:
    from repro.parallel import tile_compress, tile_decompress

    manifest: dict[str, dict] = {}

    def record(key, variant, eb, mode, data, payload, out, ratio, **extra):
        (DATA_DIR / f"golden_{key}.bin").write_bytes(payload)
        manifest[key] = {
            "variant": variant,
            "eb": eb,
            "mode": mode,
            "shape": list(data.shape),
            "dtype": str(data.dtype),
            "payload_bytes": len(payload),
            "payload_sha256": sha256(payload),
            "output_sha256": sha256(np.ascontiguousarray(out).tobytes()),
            **extra,
        }
        print(f"{key:<16} {variant:<16} {len(payload):>7} B  "
              f"ratio {ratio:.2f}x")

    for key, (eb, mode) in GOLDEN_PARAMS.items():
        data = make_input(key)
        comp = make_compressor(key)
        cf = comp.compress(data, eb, mode)
        record(key, cf.variant, eb, mode, data, cf.payload,
               comp.decompress(cf.payload), cf.stats.ratio)
    for key, (base, _, n_tiles) in TILED_PARAMS.items():
        data = make_input(base)
        comp = make_compressor(base)
        eb, mode = GOLDEN_PARAMS[base]
        tiled = tile_compress(comp, data, eb, mode, n_tiles=n_tiles)
        record(key, f"tiled[{comp.name}]", eb, mode, data, tiled.payload,
               tile_decompress(comp, tiled.payload), tiled.ratio,
               n_tiles=n_tiles)
    (DATA_DIR / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    main()

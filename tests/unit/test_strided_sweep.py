"""Kernel twins for the strided 2D sweep: fast ≡ reference, bit for bit.

On a 2D shape the fast ``pqd.*_sweep`` kernels read each front's
stencil neighbours and write the front through strided views of the
field (stride ``n1 - 1``) instead of gathering them through an index
matrix.  These cases pin that path on the shapes where a stride or a
front length is at an extreme — 2 x N (single-point fronts, stride
N - 1), N x 2 (stride 1), the 20 x 10 000 view with ten thousand short
fronts, a square — padded (``sz14``) and verbatim-border (``wavesz``),
float32 and float64, with outliers in an early and a late front so a
speculative chunk fails and falls back.  CI runs the file under both
``REPRO_KERNELS`` modes; every case forces each kernel itself.
"""

import numpy as np
import pytest

from repro.codec.registry import get_codec
from repro.config import QuantizerConfig
from repro.kernels import forced, pqd_fast
from repro.sz.pqd import pqd_compress, pqd_decompress
from repro.sz.wavefront_index import interior_wavefronts

Q = QuantizerConfig()
EB = 1e-3
SHAPES = [(2, 300), (300, 2), (20, 10000), (64, 64)]


def _field(shape, dtype, border, seed=5):
    """A smooth field with a one-point step in an early front and a
    spike in a late one (each fails its front's check)."""
    rng = np.random.default_rng(seed)
    axes = np.meshgrid(*(np.linspace(0, 3, n) for n in shape), indexing="ij")
    field = np.sin(axes[0]) + np.cos(axes[1] + 1) + 1e-3 * rng.normal(size=shape)
    pad = 1 if border == "padded" else 0
    eff = tuple(n + pad for n in shape)
    fronts = interior_wavefronts(eff, 1)
    early, late = fronts[min(3, len(fronts) - 1)], fronts[-2]
    i, j = np.unravel_index(int(early[len(early) // 2]), eff)
    field[i - pad :, j - pad :] += 50.0  # a step: only its corner fails
    i, j = np.unravel_index(int(late[len(late) // 2]), eff)
    field[i - pad, j - pad] += 1e4  # a spike: it and its successors fail
    return field.astype(dtype)


def _sweep(field, border):
    res = pqd_compress(field, EB, Q, border=border)
    out = pqd_decompress(
        res.codes, res.border_values, res.outlier_values,
        precision=EB, quant=Q, dtype=field.dtype, border=border,
    )
    return (
        res.codes.tobytes(), res.decompressed.tobytes(),
        res.outlier_values.tobytes(), out.tobytes(), res.n_outliers,
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("border", ["padded", "verbatim"])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_strided_sweep_matches_reference(shape, border, dtype):
    eff = tuple(n + 1 for n in shape) if border == "padded" else shape
    plan = pqd_fast._build_plan(eff, 1, 1)[0]
    assert plan.gidx is None and plan.step == eff[1] - 1
    field = _field(shape, dtype, border)
    with forced("reference"):
        ref = _sweep(field, border)
    with forced("fast"):
        fast = _sweep(field, border)
    assert ref == fast
    assert ref[-1] >= 2, "both planted outliers must fail their fronts"


@pytest.mark.parametrize("border", ["padded", "verbatim"])
def test_checked_path_matches_reference(border, monkeypatch):
    """Speculation off: every front takes the checked path, whose front
    and codes are written through the strided views directly."""
    field = _field((40, 90), np.float32, border)
    with forced("reference"):
        ref = _sweep(field, border)
    monkeypatch.setattr(pqd_fast, "_SPEC_FRONTS", 1)
    with forced("fast"):
        assert _sweep(field, border) == ref


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "name,shape",
    [("sz14", s) for s in SHAPES] + [("wavesz", s) for s in SHAPES if s[1] >= s[0]],
    ids=str,
)
def test_codec_payloads_match_across_modes(name, shape, dtype):
    field = _field(shape, dtype, "padded" if name == "sz14" else "verbatim")
    codec = get_codec(name)
    out = {}
    for mode in ("reference", "fast"):
        with forced(mode):
            payload = codec.compress(field, EB, "abs").payload
            out[mode] = payload, codec.decompress(payload).tobytes()
    assert out["reference"] == out["fast"]

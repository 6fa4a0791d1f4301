"""Differential corruption sweep: the integrity contract, end to end.

Every compressor variant, and the 4-tile container of each tiled band
codec (decoded by its header alone, as the store and CLI decode it), is
run through a seeded sweep of injected
faults — bit flips, truncations, garbage runs, splices, and structural
mutations that carry *valid* checksums — and every decode of damaged
input must either raise a ``ReproError`` subtype or produce output that
fails error-bound verification.  A silent wrong answer or a non-ReproError
crash fails the sweep with the offending :class:`FaultSpec` printed, which
reproduces the failure exactly.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.codec.registry import get_codec
from repro.data.fields import gaussian_random_field
from repro.faults import FaultOutcome, corruption_sweep
from repro.parallel import tile_compress
from repro.streams import decompress_auto

VARIANTS = [
    "SZ-1.4", "SZ-1.0", "GhostSZ", "waveSZ", "ZFP-like",
    "waveSZ-dp", "wavesz-dp-rans", "wavesz-dp-auto", "sz14-rans", "SZ-2.0",
    "wavesz-g",
]
#: band codecs of the 4-tile containers, decoded by their header alone
TILED = ["wavesz-dp", "wavesz-dp-rans", "sz14", "wavesz"]

N_FAULTS = 200
EB = 1e-3


@pytest.fixture(scope="module")
def field() -> np.ndarray:
    g = gaussian_random_field((20, 32), beta=3.5, seed=99)
    return (g / np.abs(g).max()).astype(np.float32)


def _assert_sweep(comp, cf, field) -> None:
    result = corruption_sweep(
        comp, cf.payload, field, cf.bound.absolute, n=N_FAULTS, seed=1234
    )
    assert len(result.records) == N_FAULTS
    result.assert_contract()
    # the sweep must actually exercise the decode path, not just bounce
    # everything off the checksum layer: structural faults re-serialize
    # with valid CRCs, so at least some damage reaches the decoder
    kinds = {r.spec.kind for r in result.records}
    assert len(kinds) >= 6, f"sweep drew too few fault kinds: {kinds}"


@pytest.mark.parametrize("variant", VARIANTS)
def test_corruption_sweep_contract(field, variant):
    comp = get_codec(variant)
    _assert_sweep(comp, comp.compress(field, EB, "vr_rel"), field)


@pytest.mark.parametrize("band_codec", TILED)
def test_corruption_sweep_contract_tiled(field, band_codec):
    cf = tile_compress(get_codec(band_codec), field, EB, "vr_rel", n_tiles=4)
    auto = SimpleNamespace(name=cf.variant, decompress=decompress_auto)
    _assert_sweep(auto, cf, field)


def test_sweep_result_bookkeeping(field):
    comp = get_codec("SZ-1.4")
    cf = comp.compress(field, EB, "vr_rel")
    result = corruption_sweep(
        comp, cf.payload, field, cf.bound.absolute, n=40, seed=7
    )
    assert result.ok
    assert result.violations == ()
    assert sum(result.count(o) for o in FaultOutcome) == 40
    assert result.summary().startswith("SZ-1.4: 40 faults")


def test_sweep_rejects_broken_baseline(field):
    """A payload that cannot decode pristinely aborts the sweep upfront."""
    comp = get_codec("SZ-1.4")
    cf = comp.compress(field, EB, "vr_rel")
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        corruption_sweep(
            comp, cf.payload[:-3], field, cf.bound.absolute, n=5, seed=0
        )

"""Differential corruption sweep: the integrity contract, end to end.

Every compressor variant is run through a seeded sweep of injected
faults — bit flips, truncations, garbage runs, splices, and structural
mutations that carry *valid* checksums — and every decode of damaged
input must either raise a ``ReproError`` subtype or produce output that
fails error-bound verification.  A silent wrong answer or a non-ReproError
crash fails the sweep with the offending :class:`FaultSpec` printed, which
reproduces the failure exactly.
"""

import numpy as np
import pytest

from repro.codec.registry import get_codec
from repro.data.fields import gaussian_random_field
from repro.faults import FaultOutcome, corruption_sweep

VARIANTS = ["SZ-1.4", "SZ-1.0", "GhostSZ", "waveSZ", "ZFP-like"]

N_FAULTS = 200
EB = 1e-3


@pytest.fixture(scope="module")
def field() -> np.ndarray:
    g = gaussian_random_field((20, 32), beta=3.5, seed=99)
    return (g / np.abs(g).max()).astype(np.float32)


@pytest.mark.parametrize("variant", VARIANTS)
def test_corruption_sweep_contract(field, variant):
    comp = get_codec(variant)
    cf = comp.compress(field, EB, "vr_rel")
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

"""Property tests: corrupted payloads never cause silent wrong output.

A downstream archive must be able to trust that a damaged payload either
decodes to exactly what was stored or raises — and that what it raises is
always a :class:`ReproError` subtype, never a raw ``struct.error`` /
``IndexError`` / ``UnicodeDecodeError`` leaking from a decode loop.  With
container format v2 every byte of the stream is covered by a CRC32, so
byte-level damage is rejected at the checksum layer; these properties pin
both the detection and the exception-type contract across every
compressor variant.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.registry import get_codec
from repro.data.fields import gaussian_random_field
from repro.errors import ReproError

VARIANTS = ["SZ-1.4", "SZ-1.0", "GhostSZ", "waveSZ", "ZFP-like"]


@pytest.fixture(scope="module", params=VARIANTS)
def payload_and_field(request):
    g = gaussian_random_field((24, 40), beta=3.5, seed=77)
    x = (g / np.abs(g).max()).astype(np.float32)
    comp = get_codec(request.param)
    cf = comp.compress(x, 1e-3, "vr_rel")
    return comp, cf.payload, x


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_truncation_always_raises_repro_error(payload_and_field, data):
    comp, payload, _ = payload_and_field
    cut = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
    with pytest.raises(ReproError):
        comp.decompress(payload[:cut])


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_bitflip_always_raises_repro_error(payload_and_field, data):
    """v2 streams are fully checksummed: any single flipped bit raises."""
    comp, payload, _ = payload_and_field
    pos = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
    bit = data.draw(st.integers(min_value=0, max_value=7))
    blob = bytearray(payload)
    blob[pos] ^= 1 << bit
    with pytest.raises(ReproError):
        comp.decompress(bytes(blob))


@given(st.binary(min_size=0, max_size=400))
@settings(max_examples=60, deadline=None)
def test_garbage_raises_repro_error(payload_and_field, blob):
    comp, _, _ = payload_and_field
    with pytest.raises(ReproError):
        comp.decompress(blob)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_garbage_splice_raises_repro_error(payload_and_field, data):
    """Inserted bytes shift the framing: must be detected, not mis-decoded."""
    comp, payload, _ = payload_and_field
    pos = data.draw(st.integers(min_value=0, max_value=len(payload)))
    junk = data.draw(st.binary(min_size=1, max_size=32))
    with pytest.raises(ReproError):
        comp.decompress(payload[:pos] + junk + payload[pos:])

"""Shared helpers for driving the lane-parallel Huffman decoder in tests."""

from contextlib import contextmanager

from repro.errors import ReproError
from repro.kernels import forced, huffman_fast

CHAIN_WALK_ONLY = {"_LANE_MIN_SYMBOLS": 1 << 62}
# Regions of a few codes, a handful of lanes per segment and a tight
# link budget: a 1 KB stream crosses hundreds of lanes and dozens of
# segments, and some lanes give up and hand over to the chain walk.
TINY_LANES = {
    "_LANE_MIN_SYMBOLS": 0,
    "_SHARED_MIN_SYMBOLS": 0,
    "_LANE_SYMBOLS": 4,
    "_MIN_REGION_BITS": 8,
    "_LANES": 16,
    "_SEGMENT_BITS": 256,
    "_SYNC_BUDGET": 24,
}


@contextmanager
def lane_constants(**values):
    """Scoped override of the lane decoder's private constants."""
    saved = {name: getattr(huffman_fast, name) for name in values}
    for name, value in values.items():
        setattr(huffman_fast, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(huffman_fast, name, value)


def outcome(fn):
    """``("ok", bytes)`` or ``(exception class name, message)``."""
    try:
        return ("ok", fn().tobytes())
    except ReproError as err:
        return (type(err).__name__, str(err))


def lanes_match_chain_walk(codec, payload, n):
    """The lane decode and the chain walk agree on value, class, message."""
    with forced("fast"):
        lanes = outcome(lambda: codec.decode(payload, n))
        with lane_constants(**CHAIN_WALK_ONLY):
            chain = outcome(lambda: codec.decode(payload, n))
    assert lanes == chain
    return lanes


def matches_reference(codec, payload, n, fast):
    """The reference twin agrees with ``fast`` on value and class."""
    with forced("reference"):
        ref = outcome(lambda: codec.decode(payload, n))
    assert ref[0] == fast[0]
    if ref[0] == "ok":
        assert ref[1] == fast[1]

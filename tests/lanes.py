"""Shared helpers for driving the lane-parallel Huffman decoder in tests."""

from contextlib import contextmanager

from repro.encoding.huffman import HuffmanCodec
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

# Group steps for every lane-decoded table that can take them, however
# few codes its window is predicted to hold; and for none.
GROUPS = {"_MIN_GROUP_CODES": 0}
SINGLE_STEPS = {"_MIN_GROUP_CODES": float("inf")}


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


@contextmanager
def own_region_steps():
    """Count the lane steps taken in own regions while the block runs:
    ``{"group": ..., "single": ...}``, one per lane per step."""
    counts = {"group": 0, "single": 0}
    run = huffman_fast._Lanes.run

    def counted(self, pos, slot, steps, window, stride, groups=None, mark=False):
        if mark:
            counts["single" if groups is None else "group"] += pos.size * steps
        return run(self, pos, slot, steps, window, stride, groups, mark)

    huffman_fast._Lanes.run = counted
    try:
        yield counts
    finally:
        huffman_fast._Lanes.run = run


def group_steps_match(codec, payload, n):
    """Group steps, single-code steps and the chain walk agree on value,
    class and message (bit position included); the reference twin on
    value and class.  Each decode gets a fresh codec over the table, so
    no cached table carries over from one setting to the next."""

    def decode(**constants):
        fresh = HuffmanCodec(codec.table)
        with forced("fast"), lane_constants(**constants):
            return outcome(lambda: fresh.decode(payload, n))

    grouped = decode(**GROUPS)
    assert grouped == decode(**SINGLE_STEPS) == decode(**CHAIN_WALK_ONLY)
    matches_reference(codec, payload, n, grouped)
    return grouped

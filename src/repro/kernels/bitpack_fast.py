"""Memory-lean bit packing/unpacking — the ``bitio.*`` fast kernels.

``pack_codes``'s reference path expands every output bit into three
parallel ``int64`` index arrays (symbol-of-bit, bit-rank, shift) before
a single ``packbits`` — ~24 bytes of scratch per packed *bit*.  The fast
packer never touches individual bits: it packs into 64-bit words.  Each
code is left-aligned in a ``uint64`` and shifted right by its offset in
the word it starts in.  Codes occupy disjoint bit ranges, so the codes
of one word sum without carries: start offsets are sorted, so one
``add.reduceat`` yields every word.  A code is at most 57 bits, so only
the last code of a word can run past its end, and that code adds its
tail into the next word.

The work goes in blocks of :data:`_BLOCK_CODES` codes over scratch
allocated once per call and written with ``out=``.  Whole-stream
temporaries (8 bytes per code per step) get mapped afresh on every call
inside a compress pass and cost more in page faults than in arithmetic;
a block's scratch stays in cache.  A word two blocks share is the same
case as a word two codes share: each block adds its bits.

``unpack_codes`` is the matching reader: for fields up to 25 bits wide
it gathers a 32-bit big-endian window at each value's start byte and
shifts/masks the whole array at once, replacing the per-value
``BitReader.read`` loop that dominates ``inflate``'s extra-bits stage.
"""

from __future__ import annotations

import sys

import numpy as np

from ..errors import BitstreamError

__all__ = ["pack_codes_windowed", "unpack_codes_windowed"]

_MAX_WINDOW_WIDTH = 25  # widest field a 32-bit window serves at any bit offset
# Codes per packing block: a block's ~0.5 MB of scratch stays in cache.  On
# 259 K-code streams 8 K to 64 K pack within 7 % of each other; 4 K is
# ~30 % slower (more blocks, more per-block calls).
_BLOCK_CODES = 16384
_U64_64 = np.uint64(64)
_U64_128 = np.uint64(128)


def pack_codes_windowed(
    codes: np.ndarray, lengths: np.ndarray
) -> tuple[bytes, int]:
    """Blocked 64-bit-word MSB-first packing; byte-identical to reference.

    The caller has validated shapes, the ``[1, 57]`` length range and
    that every code fits its length, and has handled the empty case.
    Word sums are exact: the codes summed into a word never share a bit.
    """
    total_bits = int(lengths.sum())
    words = np.zeros(((total_bits + 63) >> 6) + 1, dtype=np.uint64)
    lens = lengths.view(np.uint64)  # all positive, so the same values
    block = min(_BLOCK_CODES, codes.size)
    pos = np.empty(block, dtype=np.uint64)
    word = np.empty(block, dtype=np.uint64)
    val = np.empty(block, dtype=np.uint64)
    head = np.empty(block, dtype=np.bool_)
    head[0] = True
    last = np.empty(block, dtype=np.intp)
    bit = 0  # stream offset of the block's first code
    for lo in range(0, codes.size, block):
        c = codes[lo : lo + block]
        ln = lens[lo : lo + block]
        n = c.size
        p, w, v = pos[:n], word[:n], val[:n]
        # Start offsets, relative to the first word the block touches.
        np.cumsum(ln, out=p)
        span = int(p[-1])
        np.subtract(p, ln, out=p)
        p += np.uint64(bit & 63)
        base = bit >> 6
        bit += span
        np.right_shift(p, 6, out=w)
        np.bitwise_and(p, 63, out=p)
        # Each code left-aligned, then moved to its offset in its word.
        np.subtract(_U64_64, ln, out=v)
        np.left_shift(c, v, out=v)
        np.right_shift(v, p, out=v)
        # A code is at most 57 bits, so every word up to the block's last
        # has a code starting in it: the runs of ``w`` are its words.
        np.not_equal(w[1:], w[:-1], out=head[1:n])
        starts = np.flatnonzero(head[:n])
        nw = starts.size
        sums = np.add.reduceat(v, starts, out=w[:nw])
        words[base : base + nw] += sums
        # The last code of each word is the one that can straddle; its
        # tail is the code shifted left by 128 - (offset + length) (a
        # shift of 64 or more, a code that ends in its word, yields 0).
        t = last[:nw]
        np.subtract(starts[1:], 1, out=t[:-1])
        t[-1] = n - 1
        ends = p[t] + ln[t]
        words[base + 1 : base + 1 + nw] += c[t] << (_U64_128 - ends)
    nbytes = (total_bits + 7) >> 3
    if sys.byteorder == "little":
        words.byteswap(inplace=True)
    return words.view(np.uint8)[:nbytes].tobytes(), total_bits


def unpack_codes_windowed(payload: bytes, widths: np.ndarray) -> np.ndarray:
    """Batched MSB-first unpack of consecutive ``widths``-bit fields.

    Value-identical to the reference ``BitReader.read`` loop, including
    raising :class:`BitstreamError` when the fields overrun the payload.
    Falls back to the reference for widths beyond the 32-bit window.
    """
    if int(widths.max()) > _MAX_WINDOW_WIDTH:
        from ..encoding.bitio import _unpack_codes_reference

        return _unpack_codes_reference(payload, widths)
    ends = np.cumsum(widths)
    if int(ends[-1]) > 8 * len(payload):
        raise BitstreamError(
            f"bitstream exhausted: {int(ends[-1])} field bits, "
            f"{8 * len(payload)} available"
        )
    starts = ends - widths
    raw = np.frombuffer(payload, dtype=np.uint8)
    buf = np.zeros(raw.size + 4, dtype=np.int64)
    buf[: raw.size] = raw
    q = starts >> 3
    w32 = (buf[q] << 24) | (buf[q + 1] << 16) | (buf[q + 2] << 8) | buf[q + 3]
    shift = 32 - (starts & 7) - widths
    return (w32 >> shift) & ((np.int64(1) << widths) - 1)

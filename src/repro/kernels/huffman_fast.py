"""Lane-parallel Huffman decoder — the ``huffman.decode`` fast kernel.

The reference decoder costs two Python method calls (``peek``/``skip``)
plus a table probe *per symbol*.  This kernel decodes a large payload
the way :func:`repro.kernels.rans_fast.decode_stream` steps its lanes:
many decoders in lock-step, a handful of in-place NumPy ops per step.

**Lanes.**  A segment of the payload (at most ``_SEGMENT_BITS`` and
``_LANES`` regions) is cut into equal bit regions and one lane starts at
every region boundary.
Each step gathers every lane's code window from a precomputed
32-bit-window-per-byte array, looks the window up in a wide table of
``(symbol << 6) | length`` entries, records the entry and advances the
lane by the length.  Only lane 0 starts on a true code boundary; the
others are speculative.  Huffman codes self-synchronize: a lane started
off-boundary falls, after a few symbols, onto a bit position the true
decode also visits, and is right from there on.

**Marks and links.**  While a lane decodes its own region it marks every
bit position it visits with the slot of the entry it recorded there.
Once every lane has crossed into its neighbour's region the marks are
complete, and each lane keeps stepping until it lands on a marked
position — from that bit on its trajectory and the marking lane's are
the same, so it *links* to that lane's entry and stops.  Lanes that are
done leave the active set, so the cost follows the work left, not
``lanes x slowest lane`` (a region of 1-bit codes holds several times
the mean symbol count).  The true symbol sequence is then lane 0's
entries up to its link, the linked lane's entries from the linked slot
up to *its* link, and so on: a pointer-doubling chase over the links
(which need not point at the right-hand neighbour) and one ragged
gather over the entry matrix.  The marks and the entry matrix are
allocated once per decode and reused by every segment; a generation
base added to a segment's marks makes the ones earlier segments left
read as unmarked.

**Chain walk.**  Everything the lanes do not cover goes through the
chunked chain walk this module has always had — per-bit decode entries
for a chunk, then a scalar walk that jumps from code to code: streams
under ``_LANE_MIN_SYMBOLS``; tables that cannot synchronize (fixed-length
codes), are not a complete prefix code (hostile, so a window may have no
code at all) or keep too much of their code space beyond the wide
table; and whatever is left when a lane fails to link within
``_SYNC_BUDGET`` steps.  It is also where every failure is raised, so
the messages have one source: the lanes stop in front of a code that
runs past the payload and hand the position over.

Codes longer than a table's window are ``-1`` escapes, resolved by one
scalar canonical sweep per *visited* escape (long codes are by
construction the rare symbols).  In the chain walk's per-bit entries
``-2`` marks a hit whose code runs past the end of the payload, so the
walk raises ``BitstreamError`` exactly where the reference ``skip``
would fail after a zero-padded ``peek``; an escape that matches no
canonical range raises ``HuffmanError`` like the reference slow path
exhausting ``maxlen``.
"""

from __future__ import annotations

import numpy as np

from ..encoding.huffman import _window_entries
from ..errors import BitstreamError, HuffmanError

__all__ = ["decode_symbols", "CHUNK_BITS"]

CHUNK_BITS = 1 << 19  # 64 KiB of payload per chain-walk chunk
_STEP_MASK = 63  # low 6 bits of an entry hold the code length

_LANE_MIN_SYMBOLS = 1 << 14  # shorter streams stay on the chain walk
_LANES = 4096  # lanes per segment, at most
_SEGMENT_BITS = 1 << 21  # payload bits per lane segment, at most (docs/PERF.md)
_LANE_SYMBOLS = 64  # codes a lane is sized to decode in its own region
_MIN_REGION_BITS = 64  # never cut a segment into regions shorter than this
_LUT_BITS = 16  # window width of the lanes' decode table
_MAX_ESCAPE_SHARE = 64  # lane-decode only if escapes own < 1/64 of the windows
_CHECK_EVERY = 8  # own-region steps between looks at who has crossed
_SYNC_BUDGET = 256  # steps a lane may take beyond its region to link
_PAD = 8 + (_CHECK_EVERY * 57 + 7) // 8  # bytes a lane may read past the end
_MARK_LIMIT = 1 << 31  # marks are int32: generations restart below this


# -- chain walk ----------------------------------------------------------------


def _chunk_entries(
    buf: np.ndarray,
    lo: int,
    hi: int,
    total_bits: int,
    dec,
    maxlen: int,
) -> tuple[np.ndarray, list[int]]:
    """Decode entries for bit positions ``[lo, hi)`` of the padded buffer.

    Returns the entry array plus the per-position step list the walk
    iterates over.  Valid steps are code lengths in ``[1, 57]``; the
    sentinels surface as steps ``63`` (``-1 & 63``, escape) and ``62``
    (``-2 & 63``, exhausted), which no real code length can reach.
    """
    fast_bits = dec.fast_bits
    nbits = hi - lo
    b0 = lo >> 3
    nb = nbits >> 3  # lo/hi are byte-aligned by construction
    # 24-bit big-endian window starting at every byte: enough for the
    # fast-table probe at any bit offset r in [0, 8) (r + fast_bits <= 19).
    a = buf[b0 : b0 + nb + 2].astype(np.int64)
    w24 = (a[:nb] << 16) | (a[1 : nb + 1] << 8) | a[2 : nb + 2]
    win = np.empty(nbits, dtype=np.int64)
    mask = (1 << fast_bits) - 1
    for r in range(8):
        win[r::8] = (w24 >> (24 - fast_bits - r)) & mask
    entry = dec.fast_entry[win]

    if hi + maxlen > total_bits:
        # Codes starting near the end may run past the payload; mark them
        # with the exhaustion sentinel so the walk raises BitstreamError
        # exactly where the reference skip() would.
        t0 = max(0, (total_bits - maxlen) - lo)
        tail = entry[t0:]
        over = (tail >= 0) & (
            np.arange(lo + t0, hi, dtype=np.int64) + (tail & _STEP_MASK)
            > total_bits
        )
        tail[over] = -2
    return entry, (entry & _STEP_MASK).tolist()


def _resolve_one(pb: bytes, pos: int, dec, table, first: int) -> int:
    """Resolve one long code (``first`` bits or more) at bit position ``pos``.

    Reads a 64-bit big-endian window (bit offset r <= 7 plus code length
    <= 57 always fits, and ``pb`` carries padding bytes reproducing the
    reference ``peek``'s zero-fill) and sweeps the canonical per-length
    ranges, exactly like the reference slow path.  Returns the decode
    entry ``(symbol << 6) | length``.
    """
    q = pos >> 3
    r = pos & 7
    w = int.from_bytes(pb[q : q + 8], "big")
    first_code = dec.first_code
    len_count = dec.len_count
    for length in range(first, table.max_length + 1):
        c = int(len_count[length])
        if not c:
            continue
        fc = int(first_code[length])
        code = (w >> (64 - length - r)) & ((1 << length) - 1)
        if fc <= code < fc + c:
            sym = int(table.symbols[int(dec.first_idx[length]) + code - fc])
            return (sym << 6) | length
    raise HuffmanError("invalid code in bitstream")


def _exhausted(pos: int, total_bits: int) -> BitstreamError:
    return BitstreamError(
        f"bitstream exhausted: code at bit {pos} runs past "
        f"the {total_bits}-bit payload"
    )


def _chain_walk(
    codec,
    buf: np.ndarray,
    pb: bytes,
    total_bits: int,
    out: np.ndarray,
    pos: int,
    i: int,
) -> None:
    """Decode ``out[i:]`` starting at bit ``pos``, one chunk at a time."""
    n_symbols = out.size
    dec = codec._decode_tables()
    table = codec.table
    maxlen = table.max_length
    # The walk records only *positions*; symbols are gathered from the
    # entry array in one vector op per chunk.  That keeps the per-symbol
    # loop body down to a list index, a step compare, and two adds.
    for lo in range(pos - pos % CHUNK_BITS, total_bits, CHUNK_BITS):
        if i == n_symbols:
            return
        hi = min(lo + CHUNK_BITS, total_bits)
        entry, steps = _chunk_entries(buf, lo, hi, total_bits, dec, maxlen)
        rel = pos - lo
        span = hi - lo
        plist = [0] * (n_symbols - i)
        j = 0
        while rel < span:
            s = steps[rel]
            try:
                plist[j] = rel
            except IndexError:
                break  # all requested symbols decoded
            if s > 57:  # sentinel: no valid code length exceeds 57
                if s == 62:  # -2: the code runs past the payload
                    raise _exhausted(lo + rel, total_bits)
                # -1 escape: resolve lazily, patch for the gather
                e = _resolve_one(pb, lo + rel, dec, table, dec.fast_bits + 1)
                s = e & _STEP_MASK
                if lo + rel + s > total_bits:
                    raise _exhausted(lo + rel, total_bits)
                entry[rel] = e
                steps[rel] = s
            j += 1
            rel += s
        if j:
            p = np.array(plist[:j], dtype=np.int64)
            out[i : i + j] = entry[p] >> 6
            i += j
        pos = lo + rel
    if i < n_symbols:
        raise BitstreamError(
            f"bitstream exhausted: {n_symbols - i} of {n_symbols} symbols "
            f"undecoded at the end of the {total_bits}-bit payload"
        )


# -- lanes ---------------------------------------------------------------------


def _lane_lut(codec) -> np.ndarray:
    """The lanes' ``_LUT_BITS``-wide decode table, built on the first lane
    decode and cached on the codec; empty when the table is one the lanes
    cannot decode (see the module docstring)."""
    lut = codec._lane_lut
    if lut is None:
        table = codec.table
        lengths = table.lengths
        maxlen = table.max_length
        per_len = codec._decode_tables().len_count
        # Exact: one missing 57-bit code is below any float tolerance, and
        # a speculative lane would find the window no code covers.
        kraft = sum(int(per_len[l]) << (maxlen - l) for l in range(1, maxlen + 1))
        lut = np.empty(0, dtype=np.int64)
        if lengths[0] != lengths[-1] and kraft == 1 << maxlen:
            full = _window_entries(table, min(maxlen, _LUT_BITS))
            if np.count_nonzero(full < 0) * _MAX_ESCAPE_SHARE < full.size:
                lut = full
                # Entries of symbols below 2^25 fit int32: half the bytes
                # for the entry matrix the lanes fill.
                if int(table.symbols.max()) < 1 << 25:
                    lut = lut.astype(np.int32)
        codec._lane_lut = lut
    return lut


class _Lanes:
    """One lane decode's state, shared by its segments.

    Holds the lock-step (window gather, table gather, record, advance)
    and the buffers every segment reuses: the marks, the entry matrix and
    the per-lane scratch.  The marks are allocated once: a segment's
    marks are its entry slots plus a *generation* base above every slot
    an earlier segment wrote, so a stale mark reads as unmarked and no
    segment pays a fill.
    """

    def __init__(self, codec, lut, w32, pb, seg_bits, region_bits) -> None:
        self.codec = codec
        self.lut = lut
        self.w32_all = w32
        self.pb = pb
        bits = lut.size.bit_length() - 1
        self.shift0 = 32 - bits
        self.mask = lut.size - 1
        self.escapes = codec.table.max_length > bits
        self.first_long = bits + 1
        self.min_len = int(codec.table.lengths[0])
        max_lanes = max(2, seg_bits // region_bits)
        self.scratch = np.empty((2, max_lanes), dtype=np.int64)
        self.found = np.empty(max_lanes, dtype=lut.dtype)
        self.slot_marks = np.empty(max_lanes, dtype=np.int32)
        # Segment-relative bit positions a lane can reach: the segment,
        # the bits before its first byte boundary and the overrun.
        self.marks = np.zeros(seg_bits + 8 + 8 * _PAD, dtype=np.int32)
        self.next_gen = 1  # 0 is what a fresh mark reads
        self.entries = np.empty(0, dtype=lut.dtype)

    def segment(self, base: int, end: int, n_slots: int, n_lanes: int) -> None:
        """Start a segment at payload bit ``base`` (a byte boundary) whose
        entry slots are ``[0, n_slots)``: it marks ``slot + gen``."""
        if self.next_gen + n_slots > _MARK_LIMIT:
            self.marks.fill(0)
            self.next_gen = 1
        self.gen = self.next_gen
        self.next_gen += n_slots
        if self.entries.size < n_slots:
            self.entries = np.empty(n_slots, dtype=self.lut.dtype)
        self.base = base
        self.w32 = self.w32_all[base >> 3 :]
        self.n_lanes = n_lanes
        # Everything at or past the segment end counts as marked (a lane
        # there is done); further out no lane reaches.
        self.marks[end : end + 8 * _PAD] = self.gen

    def run(self, pos, slot, steps, mark=False) -> None:
        """Advance the lanes at ``pos`` (in place) by ``steps`` symbols,
        recording each entry at the lane's ``slot`` (advanced in place)
        and, with ``mark``, marking each visited position with it."""
        w32, lut, entries = self.w32, self.lut, self.entries
        shift0, mask, n_lanes = self.shift0, self.mask, self.n_lanes
        n = pos.size
        q, w = self.scratch[:, :n]
        e = self.found[:n]
        if mark:
            marks, gen, m = self.marks, self.gen, self.slot_marks[:n]
        for _ in range(steps):
            if mark:
                np.add(slot, gen, out=m, casting="unsafe")
                marks[pos] = m
            np.right_shift(pos, 3, out=q)
            w32.take(q, out=w, mode="clip")
            np.bitwise_and(pos, 7, out=q)
            np.subtract(shift0, q, out=q)
            np.right_shift(w, q, out=w)
            np.bitwise_and(w, mask, out=w)
            lut.take(w, out=e, mode="clip")
            if self.escapes and e.min() < 0:
                self._resolve(pos, e)
            entries[slot] = e
            np.bitwise_and(e, _STEP_MASK, out=q)
            np.add(pos, q, out=pos)
            np.add(slot, n_lanes, out=slot)

    def _resolve(self, pos, e) -> None:
        dec = self.codec._decode_tables()
        for k in np.flatnonzero(e < 0).tolist():
            e[k] = _resolve_one(
                self.pb, self.base + int(pos[k]), dec, self.codec.table,
                self.first_long,
            )


def _true_path(nxt: np.ndarray) -> np.ndarray | None:
    """The lanes the true code sequence runs through, in order.

    ``nxt[lane]`` is the lane ``lane`` links to, ``n`` (= ``nxt.size``)
    if its link leaves the segment and ``n + 1`` if it never linked.
    Links need not point right: with long codes and short regions a lane
    can stray past several regions before it looks.  The chase is pointer
    doubling -- with ``jump`` = ``nxt`` applied ``2^k`` times, the next
    ``2^k`` lanes of the path are ``jump`` of the ``2^k`` known ones --
    so it costs ``log2`` of the path length in vector steps.  Returns the
    path up to the lane whose link leaves the segment, or ``None`` when
    a lane on it never linked.
    """
    n = nxt.size
    jump = np.concatenate((nxt, (n, n + 1)))  # both ends absorb
    path = np.zeros(1, dtype=np.int64)
    # Links move forward in the payload, so no lane repeats on the path
    # and n.bit_length() doublings reach its end; the bound only guards.
    for _ in range(n.bit_length() + 1):
        if path[-1] >= n:
            break
        path = np.concatenate((path, jump[path]))
        jump = jump[jump]
    else:
        return None
    stop = int(np.argmax(path >= n))
    if path[stop] > n:
        return None
    return path[:stop]


def _lane_segment(lanes, start, seg_end, region_bits, total_bits, out, i):
    """Lane-decode the true code sequence from bit ``start`` up to the first
    code boundary at or past ``seg_end`` into ``out[i:]``.

    Returns ``(pos, i)`` after the last symbol written, or ``None`` when
    the segment is too short to cut or a lane on the true path found no
    link.  Entries past the end of the payload are left out, a final
    code that runs past it too: ``pos`` then points at that code.
    """
    base = start & ~7
    span = seg_end - start
    n_lanes = span // region_bits
    if n_lanes < 2:
        return None
    bounds = (start - base) + (
        span * np.arange(n_lanes + 1, dtype=np.int64) // n_lanes
    )
    end = seg_end - base
    region = -(-span // n_lanes)
    rows = -(-region // lanes.min_len) + _CHECK_EVERY + _SYNC_BUDGET + 1
    n_slots = rows * n_lanes
    lanes.segment(base, end, n_slots, n_lanes)
    marks, gen, entries = lanes.marks, lanes.gen, lanes.entries

    # Own regions: step until every lane has crossed into the next one.
    # Lanes that have leave the set at the next look, so none strays more
    # than _CHECK_EVERY - 1 codes past its region.  State rows: position,
    # entry slot, lane, region end.
    lane_ids = np.arange(n_lanes, dtype=np.int64)
    st = np.stack((bounds[:-1], lane_ids, lane_ids, bounds[1:]))
    left_at = np.empty((2, n_lanes), dtype=np.int64)
    while st.shape[1]:
        lanes.run(st[0], st[1], _CHECK_EVERY, mark=True)
        live = st[0] < st[3]
        if live.all():
            continue
        gone = st.compress(~live, axis=1)
        left_at[:, gone[2]] = gone[:2]
        st = st.compress(live, axis=1)

    # Links: step every lane until it lands on a marked position.
    # link = (position, slot) where each lane linked; position -1: never.
    link = np.empty((2, n_lanes), dtype=np.int64)
    link[0] = -1
    st = np.vstack((left_at, lane_ids))
    for _ in range(_SYNC_BUDGET):
        hit = marks[st[0]] >= gen
        if hit.any():
            done = st.compress(hit, axis=1)
            link[:, done[2]] = done[:2]
            st = st.compress(~hit, axis=1)
            if not st.shape[1]:
                break
        lanes.run(st[0], st[1], 1)

    # The true path: lane 0 from slot 0 to its link, the lane it links to
    # from the linked slot (the one marked at the link) to that lane's
    # link, ... until a link leaves the segment.
    at = link[0]
    target = np.subtract(marks[np.maximum(at, 0)], gen, dtype=np.int64)
    nxt = target % n_lanes
    nxt[at >= end] = n_lanes
    nxt[at < 0] = n_lanes + 1
    path = _true_path(nxt)
    if path is None:
        return None
    first = np.zeros(path.size, dtype=np.int64)
    first[1:] = target[path[:-1]]
    counts = (link[1, path] - first) // n_lanes
    total = int(counts.sum())
    # Ragged gather: entry j of path lane m sits at first[m] + j * n_lanes.
    starts = np.cumsum(counts) - counts
    idx = np.arange(total, dtype=np.int64)
    idx *= n_lanes
    idx += np.repeat(first - starts * n_lanes, counts)
    ent = entries[idx]
    pos = base + int(at[path[-1]])
    while pos > total_bits:  # decoded from the padding, or running into it
        pos -= int(ent[-1]) & _STEP_MASK
        ent = ent[:-1]
    ent = ent[: out.size - i]
    np.right_shift(ent, 6, out=out[i : i + ent.size])
    return pos, i + ent.size


def _lane_decode(codec, lut, buf, pb, total_bits, out) -> tuple[int, int]:
    """Lane-decode segment after segment; returns the ``(pos, i)`` reached —
    short of the end only if a segment could not be lane-decoded."""
    # Built in place: one stream-sized int64 array, no temporaries.
    w32 = buf[:-3].astype(np.int64)
    for k in (1, 2, 3):
        w32 <<= 8
        w32 |= buf[k : buf.size - 3 + k]
    # Regions sized for _LANE_SYMBOLS codes each at the stream's mean code
    # length, segments for at most _LANES of them.
    region_bits = max(_MIN_REGION_BITS, _LANE_SYMBOLS * total_bits // out.size)
    n_seg = -(-total_bits // min(_SEGMENT_BITS, _LANES * region_bits))
    seg_bits = -(-total_bits // n_seg)
    lanes = _Lanes(codec, lut, w32, pb, seg_bits, region_bits)
    pos = i = 0
    for s in range(1, n_seg + 1):
        seg_end = min(s * seg_bits, total_bits)
        if pos >= seg_end:
            continue
        done = _lane_segment(lanes, pos, seg_end, region_bits, total_bits, out, i)
        if done is None:
            break
        pos, i = done
        if i == out.size:
            break
    return pos, i


def decode_symbols(codec, payload: bytes, n_symbols: int) -> np.ndarray:
    """Decode ``n_symbols`` from ``payload`` against ``codec``'s table.

    Bit-identical to ``HuffmanCodec.decode``'s reference loop for every
    input; the host has already run its validations (positive count,
    non-degenerate table, payload long enough for the minimum lengths).
    """
    total_bits = 8 * len(payload)
    raw = np.frombuffer(payload, dtype=np.uint8)
    # Pad so every window gather and 64-bit escape read stays in bounds;
    # the zero padding reproduces BitReader.peek's zero-fill past the end.
    buf = np.zeros(raw.size + _PAD, dtype=np.uint8)
    buf[: raw.size] = raw
    pb = payload + b"\x00" * _PAD
    out = np.empty(n_symbols, dtype=np.int64)
    pos = i = 0
    if n_symbols >= _LANE_MIN_SYMBOLS:
        lut = _lane_lut(codec)
        if lut.size:
            pos, i = _lane_decode(codec, lut, buf, pb, total_bits, out)
    _chain_walk(codec, buf, pb, total_bits, out, pos, i)
    return out

"""Lane-parallel Huffman decoder — the ``huffman.decode`` fast kernel.

The reference decoder costs two Python method calls (``peek``/``skip``)
plus a table probe *per symbol*.  This kernel decodes large payloads
the way :func:`repro.kernels.rans_fast.decode_stream` steps its lanes:
many decoders in lock-step, a handful of in-place NumPy ops per step.
It takes a *batch* of streams — every band of a tiled read, both
Huffman streams of every inflated blob — and steps the lanes of several
streams together, so the fixed cost of a step (a dozen NumPy calls) and
the tail of slow lanes are paid once per set instead of once per stream
(``docs/PERF.md``, "The read side, tiled").  A single stream is a batch
of one.

**Lanes.**  A segment of a payload (at most ``_SEGMENT_BITS`` and
``_LANES`` regions) is cut into equal bit regions and one lane starts at
every region boundary.  Whole streams one segment covers share a
*lock-step set* of at most ``_LANES`` lanes and ``_SEGMENT_BITS`` bits;
each keeps its own regions (cut at its own mean code length), its own
block of entry slots and its own table, reached through a per-lane
base into the set's concatenated tables.
Each step gathers every lane's code window from a precomputed
32-bit-window-per-byte array, looks the window up in a wide table of
``(symbol << 6) | length`` entries, records the entry and advances the
lane by the length.  Only lane 0 starts on a true code boundary; the
others are speculative.  Huffman codes self-synchronize: a lane started
off-boundary falls, after a few symbols, onto a bit position the true
decode also visits, and is right from there on.

**Groups.**  In its own region a lane of a stream whose codes are short
takes every whole code its ``_GROUP_BITS``-wide window holds in one
step.  A *group table*, built by composing the wide table over every
window at once, gives the group's total length and a *group record*
(``_GROUP_FLAG | row << 6 | bits``) naming the row that holds its
entries.  A window whose first code is longer than the group window
takes the wide table's single-code entry instead, the way an escape is
resolved.  A table whose code lengths predict fewer than
``_MIN_GROUP_CODES`` whole codes per window keeps single-code steps.

**Marks and links.**  While a lane decodes its own region it marks the
bit position every step starts at with the slot of the record it wrote
there: each code boundary it visits, or with groups each group start.
Once every lane has crossed into its neighbour's region the marks are
complete, and each lane keeps stepping one code at a time until it
lands on a marked position — from that bit on its trajectory and the
marking lane's are the same, so it *links* to that lane's record and
stops.  A lane that has synchronized visits every code boundary, so it
reaches its neighbour's next marked group start.  Lanes that are
done leave the active set, so the cost follows the work left, not
``lanes x slowest lane`` (a region of 1-bit codes holds several times
the mean symbol count).  The true symbol sequence is then lane 0's
records up to its link, the linked lane's records from the linked slot
up to *its* link, and so on: a pointer-doubling chase over the links
(which need not point at the right-hand neighbour) and one ragged
gather over the entry matrix, both per stream; the gather expands the
group records on that path into their entries.  The marks and the
entry matrix are allocated once per batch and reused by every set; a
generation base added to a set's marks makes the ones earlier sets left
read as unmarked.

**Chain walk.**  Everything the lanes do not cover goes through the
chunked chain walk this module has always had — per-bit decode entries
for a chunk, then a scalar walk that jumps from code to code: streams
under ``_SHARED_MIN_SYMBOLS`` and sets (or long streams) under
``_LANE_MIN_SYMBOLS``; tables that cannot synchronize (fixed-length
codes), are not a complete prefix code (hostile, so a window may have no
code at all) or keep too much of their code space beyond the wide
table; and whatever is left when a lane fails to link within
``_SYNC_BUDGET`` steps.  It is also where every failure is raised, so
the messages have one source: the lanes stop in front of a code that
runs past the payload and hand the position over.  Each stream has its
own walk, so one stream's failure is its own entry of the batch result.

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

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..encoding.huffman import _window_entries
from ..errors import BitstreamError, HuffmanError, ReproError

__all__ = ["decode_symbols", "CHUNK_BITS"]

CHUNK_BITS = 1 << 19  # 64 KiB of payload per chain-walk chunk
_STEP_MASK = 63  # low 6 bits of an entry hold the code length

_LANE_MIN_SYMBOLS = 1 << 14  # a smaller lock-step set stays on the chain walk
_SHARED_MIN_SYMBOLS = 1 << 12  # a shorter stream joins no set (docs/PERF.md)
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
_GROUP_BITS = 10  # window width of an own-region group step (docs/PERF.md)
_MIN_GROUP_CODES = 2  # predicted whole codes per window a group table needs
_GROUP_FLAG = 1 << 30  # marks a group record: above every int32 entry
_NO_GROUPS = (np.empty(0, dtype=np.int32), np.empty((0, 0), dtype=np.int32))
_NO_LANES = np.empty(0, dtype=np.int32)  # the lane table of a chain-walk stream


# -- chain walk ----------------------------------------------------------------


def _chunk_entries(
    buf: np.ndarray,
    lo: int,
    hi: int,
    total_bits: int,
    dec,
    maxlen: int,
) -> tuple[np.ndarray, bytearray]:
    """Decode entries for bit positions ``[lo, hi)`` of the padded buffer.

    Returns the entry array plus the per-position steps the walk
    iterates over, one byte each: indexing a ``bytearray`` costs what
    indexing a list does, without a list of one Python int per payload
    bit.  Valid steps are code lengths in ``[1, 57]``; the sentinels
    surface as steps ``63`` (``-1 & 63``, escape) and ``62``
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
    return entry, bytearray((entry & _STEP_MASK).astype(np.uint8))


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
    if i == n_symbols:
        return  # the lanes decoded it all: no table to build
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
        per_len = np.bincount(lengths, minlength=maxlen + 1)
        # Exact: one missing 57-bit code is below any float tolerance, and
        # a speculative lane would find the window no code covers.
        kraft = sum(int(per_len[n]) << (maxlen - n) for n in range(1, maxlen + 1))
        lut = np.empty(0, dtype=np.int64)
        if lengths[0] != lengths[-1] and kraft == 1 << maxlen:
            full = _window_entries(table, min(maxlen, _LUT_BITS))
            if np.count_nonzero(full < 0) * _MAX_ESCAPE_SHARE < full.size:
                lut = full
                # Entries of symbols in [0, 2^24) fit int32 below the group
                # flag: half the bytes for the entry matrix the lanes fill.
                if 0 <= int(table.symbols.min()) and int(table.symbols.max()) < 1 << 24:
                    lut = lut.astype(np.int32)
        codec._lane_lut = lut
    return lut


class _Stream:
    """One item of a batch: its output, where its payload sits in the
    batch buffer (``base``, in bits) and how far the lanes got
    (``pos``, ``i``).  ``lut`` is empty when the lanes leave it alone."""

    def __init__(self, codec, payload: bytes, n_symbols: int) -> None:
        self.codec = codec
        self.payload = payload
        self.out = np.empty(n_symbols, dtype=np.int64)
        self.total_bits = total = 8 * len(payload)
        self.lut = _NO_LANES
        if n_symbols >= _SHARED_MIN_SYMBOLS:
            self.lut = _lane_lut(codec)
        self.bits = self.lut.size.bit_length() - 1
        self.min_len = int(codec.table.lengths[0])
        # Regions sized for _LANE_SYMBOLS codes each at this stream's mean
        # code length, segments for at most _LANES of them.
        self.region_bits = max(_MIN_REGION_BITS, _LANE_SYMBOLS * total // n_symbols)
        n_seg = -(-total // min(_SEGMENT_BITS, _LANES * self.region_bits))
        self.seg_bits = -(-total // n_seg)
        self.base = 0
        self.pos = self.i = 0

    @property
    def rank(self) -> int:
        """Buffer order: streams one segment covers (lock-step sets pack
        those), then longer lane streams, then chain-walk-only ones."""
        if not self.lut.size:
            return 2
        return int(self.seg_bits < self.total_bits)


def _codes_per_window(lengths: list[np.ndarray]) -> np.ndarray:
    """Per table, the whole codes a ``_GROUP_BITS``-bit window holds on
    average when its bits follow the code itself (a length-``l`` code has
    probability ``2^-l``): the sum over bits ``j`` of the window of the
    chance that a code boundary falls at ``j``, the renewal sequence
    ``u_j = sum_l share_l u_(j-l)``."""
    width = _GROUP_BITS
    share = np.zeros((len(lengths), width + 1))
    for t, ls in enumerate(lengths):
        per_len = np.bincount(ls)[: width + 1]
        share[t, : per_len.size] = per_len
    share *= 0.5 ** np.arange(width + 1)
    u = np.zeros_like(share)
    u[:, 0] = 1.0
    for j in range(1, width + 1):
        u[:, j] = (share[:, 1 : j + 1] * u[:, j - 1 :: -1]).sum(axis=1)
    return u[:, 1:].sum(axis=1)


def _build_groups(streams: list[_Stream]) -> None:
    """Give the codec of every stream the lanes will decode its group
    table, cached on the codec, all of them built in one composition.

    Per ``_GROUP_BITS``-bit window a group table holds the step entry
    ``_GROUP_FLAG | window << 6 | bits`` (``-1`` when the window's first
    code does not fit) and a row of entries, ``-1``-padded; a last row
    ``[0, -1, ...]`` stands in for every single-code record (``_expand``).
    Round ``k`` of the composition looks up every window's next code in
    the wide tables, one gather for all tables, and takes it if it fits;
    a code that does not fit stays next, so no later round takes one.
    A table that keeps single-code steps gets an empty group table.
    """
    todo = {}
    for s in streams:
        if s.codec._lane_groups is None:
            s.codec._lane_groups = _NO_GROUPS
            if s.lut.dtype == np.int32:
                todo[id(s.codec)] = s
    todo = list(todo.values())
    if not todo:
        return
    fill = _codes_per_window([s.codec.table.lengths for s in todo])
    todo = [s for s, n in zip(todo, fill.tolist()) if n >= _MIN_GROUP_CODES]
    if not todo:
        return
    width = _GROUP_BITS
    window = np.arange(1 << width, dtype=np.int64)
    # Each table's entry for the first code of every window, side by side.
    first = np.concatenate([s.lut[(window << s.bits) >> width] for s in todo])
    base = np.arange(len(todo), dtype=np.int64)[:, None] << width
    # A window holds at most width // min_len codes, and has a first one.
    fit = [max(1, width // s.min_len) for s in todo]
    rows = np.full((len(todo), window.size + 1, max(fit)), -1, dtype=np.int32)
    rows[:, -1, 0] = 0
    used = np.zeros((len(todo), window.size), dtype=np.int64)
    for k in range(rows.shape[2]):
        e = first.take(((window << used) & (window.size - 1)) + base)
        end = used + (e & _STEP_MASK)  # an escape's 63 never fits
        fits = end <= width
        np.copyto(rows[:, :-1, k], e, where=fits)
        np.copyto(used, end, where=fits)
    steps = np.where(used > 0, _GROUP_FLAG | (window << 6) | used, -1).astype(np.int32)
    for t, s in enumerate(todo):
        s.codec._lane_groups = steps[t], np.ascontiguousarray(rows[t, :, : fit[t]])


class _Piece(NamedTuple):
    """A run ``[start, end)`` of one stream's payload bits that a lock-step
    set lane-decodes; ``start`` is a true code boundary."""

    stream: _Stream
    start: int
    end: int

    @property
    def n_lanes(self) -> int:
        return (self.end - self.start) // self.stream.region_bits


class _Lanes:
    """One batch's lane state, shared by its lock-step sets.

    Holds the lock-step (window gather, table gather, record, advance)
    and the buffers every set reuses: the marks, the entry matrix and
    the per-lane scratch.  The marks are allocated once: a set's marks
    are its entry slots plus a *generation* base above every slot an
    earlier set wrote, so a stale mark reads as unmarked and no set pays
    a fill.
    """

    def __init__(self, w32, pb, set_bits: int, max_lanes: int) -> None:
        self.w32_all = w32
        self.pb = pb
        self.scratch = np.empty((3, max_lanes), dtype=np.int64)
        self.slot_marks = np.empty(max_lanes, dtype=np.int32)
        # Set-relative bit positions a lane can reach: the set, the bits
        # before its first byte boundary and the overrun.
        self.marks = np.zeros(set_bits + 8 + 8 * _PAD, dtype=np.int32)
        self.next_gen = 1  # 0 is what a fresh mark reads
        self.entries = np.empty(0, dtype=np.int32)

    def segment(self, base, pieces, ends, slot_base, n_slots, lut) -> None:
        """Start a set at buffer bit ``base`` (a byte boundary) whose entry
        slots are ``[0, n_slots)``: it marks ``slot + gen``.  Everything at
        or past a piece's end counts as marked (a lane there is done);
        further out no lane of that piece reaches."""
        if self.next_gen + n_slots > _MARK_LIMIT:
            self.marks.fill(0)
            self.next_gen = 1
        self.gen = self.next_gen
        self.next_gen += n_slots
        if self.entries.size < n_slots or self.entries.dtype != lut.dtype:
            self.entries = np.empty(max(n_slots, self.entries.size), dtype=lut.dtype)
        self.found = np.empty(self.scratch.shape[1], dtype=lut.dtype)
        self.lut = lut
        self.base = base
        self.w32 = self.w32_all[base >> 3 :]
        self.pieces, self.slot_base = pieces, slot_base
        self.escapes = any(p.stream.codec.table.max_length > p.stream.bits for p in pieces)
        for end in ends:
            self.marks[end : end + 8 * _PAD] = self.gen

    def run(self, pos, slot, steps, window, stride, groups=None, mark=False):
        """Advance the lanes at ``pos`` (in place) by ``steps`` steps,
        recording each step's entry or group record at the lane's ``slot``
        (advanced in place by ``stride``) and, with ``mark``, marking the
        position each step starts at with it.

        ``window`` is ``(shift0, mask, base)``: a lane's window is
        ``32 - shift0`` bits wide (``mask`` keeps them) and its wide table
        starts at ``base`` in the set's concatenation (``None``: 0).  With
        ``groups`` = ``(shift, base)`` the step takes groups: the group
        table index is the window shifted right by ``shift``, plus the
        group table's base, and a lane whose group window starts with a
        code that does not fit takes the wide table's entry instead.  Each
        of these and ``stride`` is one number for the whole set or one per
        lane."""
        w32, lut, entries = self.w32, self.lut, self.entries
        shift0, mask, lut_base = window
        n = pos.size
        q, w, g = self.scratch[:, :n]
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
            if groups is not None:
                np.right_shift(w, groups[0], out=g)
                if groups[1] is not None:
                    np.add(g, groups[1], out=g)
                lut.take(g, out=e, mode="clip")
                if e.min() < 0:
                    self._resolve(pos, slot, e, w, lut_base)
            else:
                if lut_base is not None:
                    np.add(w, lut_base, out=w)
                lut.take(w, out=e, mode="clip")
                if self.escapes and e.min() < 0:
                    self._resolve(pos, slot, e)
            entries[slot] = e
            np.bitwise_and(e, _STEP_MASK, out=q)
            np.add(pos, q, out=pos)
            np.add(slot, stride, out=slot)

    def _resolve(self, pos, slot, e, window=None, base=None) -> None:
        """Replace the ``-1`` entries of ``e``: with the lanes' ``window``
        given (a group step), first by the wide table's entry at it plus
        ``base``; what is left, escapes, by their scalar canonical sweep."""
        k = np.flatnonzero(e < 0)
        if window is not None:
            w = window[k]
            if base is not None:
                w += base if np.ndim(base) == 0 else base[k]
            e[k] = found = self.lut.take(w, mode="clip")
            k = k[found < 0]
        for k in k.tolist():
            piece = int(np.searchsorted(self.slot_base, slot[k], side="right")) - 1
            s = self.pieces[piece].stream
            e[k] = _resolve_one(
                self.pb, self.base + int(pos[k]), s.codec._decode_tables(),
                s.codec.table, s.bits + 1,
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


def _per_lane(values: list[int], counts: list[int]):
    """One number for the set when every piece has the same, else one per
    lane (a piece's lanes are consecutive)."""
    if len(set(values)) == 1:
        return values[0]
    return np.repeat(np.array(values, dtype=np.int64), counts)


def _base(offsets: list[int], counts: list[int]):
    """Each piece's table base, per set or per lane; ``None`` for 0."""
    offset = _per_lane(offsets, counts)
    return None if isinstance(offset, int) and not offset else offset


def _window(bits: list[int], offsets: list[int], counts: list[int]) -> list:
    """The ``(shift0, mask, base)`` of each piece's ``bits``-wide windows
    into a table at ``offsets``, per set or per lane."""
    return [
        _per_lane([32 - b for b in bits], counts),
        _per_lane([(1 << b) - 1 for b in bits], counts),
        _base(offsets, counts),
    ]


def _set_tables(pieces: list[_Piece], counts: list[int]):
    """The step table of a set and how its lanes index it.

    The pieces' group tables, then their single-code tables, concatenated
    when there is more than one: each lane adds its table's base to its
    window.  Returns the table, the single-code window, the own-region
    window followed by its group lookup ``(shift, base)`` (``None`` when
    no piece takes groups) and each piece's group rows (``None`` for a
    piece without).  Groups need every table in int32, whose entries stay
    below ``_GROUP_FLAG``.
    """
    streams = {id(p.stream.lut): p.stream for p in pieces}
    groups = {}
    if all(s.lut.dtype == np.int32 for s in streams.values()):
        for key, s in streams.items():
            steps, rows = s.codec._lane_groups or _NO_GROUPS
            if steps.size:
                groups[key] = steps, rows
    parts = [steps for steps, _ in groups.values()]
    parts += [s.lut for s in streams.values()]
    offset = np.cumsum([0] + [t.size for t in parts]).tolist()
    group_at = dict(zip(groups, offset))
    single_at = dict(zip(streams, offset[len(groups):]))
    keys = [id(p.stream.lut) for p in pieces]
    bits = [p.stream.bits for p in pieces]
    table = parts[0] if len(parts) == 1 else np.concatenate(parts)
    single = _window(bits, [single_at[k] for k in keys], counts)
    if not groups:
        return table, single, None, [None] * len(pieces)
    # A group step reads a window of at least _GROUP_BITS: it is the
    # wide table's when that is wider, and its top bits index the group
    # table.  A lane without groups indexes its wide table as it is.
    group_bits = {k: steps.size.bit_length() - 1 for k, (steps, _) in groups.items()}
    wide = [max(b, group_bits[k]) if k in groups else b for k, b in zip(keys, bits)]
    own = _window(wide, [single_at[k] for k in keys], counts) + [
        _per_lane([w - group_bits.get(k, w) for k, w in zip(keys, wide)], counts),
        _base([group_at.get(k, single_at[k]) for k in keys], counts),
    ]
    return table, single, own, [groups[k][1] if k in groups else None for k in keys]


def _expand(records: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The entries of a run of records, each group record's row in its
    place.  A single-code record's index runs past the rows and is
    clipped to the last one, ``[0, -1, ...]``, whose 0 it replaces."""
    table = rows.take((records ^ _GROUP_FLAG) >> 6, axis=0, mode="clip")
    np.copyto(table[:, 0], records, where=records < _GROUP_FLAG)
    table = table.ravel()
    return table.compress(table >= 0)


def _lane_set(lanes: _Lanes, pieces: list[_Piece]) -> list[bool]:
    """Lane-decode every piece of one lock-step set.

    A piece's stream gets the true code sequence from ``start`` up to the
    first code boundary at or past ``end`` written at its ``i``, and its
    ``pos`` moves past it.  Entries past the end of the payload are left
    out, a final code that runs past it too: ``pos`` then points at that
    code.  Returns, per piece, whether it was decoded (``False``: a lane
    on its true path found no link, and the stream is left as it was).
    """
    base = (pieces[0].stream.base + pieces[0].start) & ~7
    counts = [p.n_lanes for p in pieces]
    n_lanes = sum(counts)
    lo, hi, ends, sizes = [], [], [], []
    for p, n in zip(pieces, counts):
        s = p.stream
        span = p.end - p.start
        bounds = (s.base + p.start - base) + (
            span * np.arange(n + 1, dtype=np.int64) // n
        )
        lo.append(bounds[:-1])
        hi.append(bounds[1:])
        ends.append(s.base + p.end - base)
        region = -(-span // n)
        sizes.append((-(-region // s.min_len) + _CHECK_EVERY + _SYNC_BUDGET + 1) * n)
    # Each piece owns a block of entry slots: ``row * n + lane`` inside it.
    slot_base = np.cumsum(sizes) - sizes
    lut, single, own, group_rows = _set_tables(pieces, counts)
    lanes.segment(base, pieces, ends, slot_base, int(sum(sizes)), lut)
    marks, gen, entries = lanes.marks, lanes.gen, lanes.entries
    # A phase's parameters: the window, the stride and, for group steps,
    # the group lookup.  Per-lane ones ride along as extra state rows, so
    # a lane that leaves the set takes its own with it.
    stride = _per_lane(counts, counts)
    link_prm = [*single, stride]
    own_prm = [*own[:3], stride, *own[3:]] if own else link_prm

    def varying(prm):
        return [k for k, v in enumerate(prm) if isinstance(v, np.ndarray)]

    def step(st, row0, prm, steps, mark=False):
        prm = list(prm)
        for r, k in enumerate(varying(prm)):
            prm[k] = st[row0 + r]
        lanes.run(st[0], st[1], steps, prm[:3], prm[3], prm[4:] or None, mark=mark)

    # Own regions: step until every lane has crossed into the next one.
    # Lanes that have leave the set at the next look, so none strays more
    # than _CHECK_EVERY - 1 codes past its region.  State rows: position,
    # entry slot, lane, region end, then the varying parameters.
    lane_ids = np.arange(n_lanes, dtype=np.int64)
    first_lane = np.cumsum(counts) - counts
    slot0 = lane_ids + np.repeat(slot_base - first_lane, counts)
    extra = [own_prm[k] for k in varying(own_prm)]
    st = np.vstack([np.concatenate(lo), slot0, lane_ids, np.concatenate(hi), *extra])
    left_at = np.empty((2, n_lanes), dtype=np.int64)
    while st.shape[1]:
        step(st, 4, own_prm, _CHECK_EVERY, mark=True)
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
    st = np.vstack([left_at, lane_ids, *(link_prm[k] for k in varying(link_prm))])
    for _ in range(_SYNC_BUDGET):
        hit = marks[st[0]] >= gen
        if hit.any():
            done = st.compress(hit, axis=1)
            link[:, done[2]] = done[:2]
            st = st.compress(~hit, axis=1)
            if not st.shape[1]:
                break
        step(st, 3, link_prm, 1)

    # Per piece, the true path: lane 0 from its first slot to its link,
    # the lane it links to from the linked slot (the one marked at the
    # link) to that lane's link, ... until a link leaves the piece.  No
    # lane links into another piece: a pre-marked end lies in between.
    target_all = np.subtract(marks[np.maximum(link[0], 0)], gen, dtype=np.int64)
    decoded = []
    for p, n, l0, sb, end, rows in zip(
        pieces, counts, first_lane.tolist(), slot_base.tolist(), ends, group_rows
    ):
        at, linked = link[:, l0 : l0 + n]
        target = target_all[l0 : l0 + n] - sb
        nxt = target % n
        nxt[at >= end] = n
        nxt[at < 0] = n + 1
        path = _true_path(nxt)
        decoded.append(path is not None)
        if path is None:
            continue
        first = np.zeros(path.size, dtype=np.int64)
        first[1:] = target[path[:-1]]
        cnt = (linked[path] - sb - first) // n
        # Ragged gather: entry j of path lane m sits at first[m] + j * n.
        starts = np.cumsum(cnt) - cnt
        idx = np.arange(int(cnt.sum()), dtype=np.int64)
        idx *= n
        idx += np.repeat(first - starts * n + sb, cnt)
        ent = entries[idx]
        if rows is not None:
            ent = _expand(ent, rows)
        s = p.stream
        pos = base + int(at[path[-1]]) - s.base
        while pos > s.total_bits:  # decoded from the padding, or running into it
            pos -= int(ent[-1]) & _STEP_MASK
            ent = ent[:-1]
        ent = ent[: s.out.size - s.i]
        np.right_shift(ent, 6, out=s.out[s.i : s.i + ent.size])
        s.pos, s.i = pos, s.i + ent.size
    return decoded


def _lock_step_sets(streams: list[_Stream]) -> list[list[_Piece]]:
    """Pack whole streams into lock-step sets of at most ``_LANES`` lanes
    and ``_SEGMENT_BITS`` buffer bits, in buffer order.  A set of fewer
    than ``_LANE_MIN_SYMBOLS`` symbols is left to the chain walk: alone,
    a short stream's lanes cost more than its walk (a lane decode pays a
    dozen calls per step, and byte-like alphabets take a hundred steps
    and more to link)."""
    sets: list[list[_Piece]] = []
    for s in streams:
        piece = _Piece(s, 0, s.total_bits)
        if piece.n_lanes < 2:
            continue  # too short to cut: the chain walk takes it
        if not sets or (
            sum(p.n_lanes for p in sets[-1]) + piece.n_lanes > _LANES
            or s.base + s.total_bits - sets[-1][0].stream.base > _SEGMENT_BITS
        ):
            sets.append([])
        sets[-1].append(piece)
    return [
        pieces for pieces in sets
        if sum(p.stream.out.size for p in pieces) >= _LANE_MIN_SYMBOLS
    ]


def _segments(lanes: _Lanes, s: _Stream) -> None:
    """Lane-decode a stream longer than a segment, one segment after the
    other (each starts where the true sequence left the last), until it
    is done or a segment cannot be lane-decoded."""
    for k in range(1, -(-s.total_bits // s.seg_bits) + 1):
        seg_end = min(k * s.seg_bits, s.total_bits)
        if s.pos >= seg_end:
            continue
        piece = _Piece(s, s.pos, seg_end)
        if piece.n_lanes < 2 or not _lane_set(lanes, [piece])[0]:
            return
        if s.i == s.out.size:
            return


def _windows32(buf: np.ndarray) -> np.ndarray:
    """The big-endian 32-bit window starting at every byte of ``buf`` but
    the last three, as int64: four overlapping bytes per row, read as one
    ``>u4`` and widened in one pass."""
    rows = as_strided(buf, (buf.size - 3, 4), (1, 1), writeable=False)
    return rows.view(">u4")[:, 0].astype(np.int64)


def decode_symbols(items) -> list:
    """Decode every ``(codec, payload, n_symbols)`` of ``items`` in one batch.

    Returns one entry per item: its ``n_symbols`` symbols, bit-identical
    to ``HuffmanCodec.decode``'s reference loop, or the ``ReproError``
    decoding that item alone raises.  The host has already run its
    validations (positive count, non-degenerate table, payload long
    enough for the minimum lengths).

    The payloads sit end to end in one buffer, each followed by ``_PAD``
    zero bytes: the padding every window gather and 64-bit escape read
    may reach, which reproduces ``BitReader.peek``'s zero-fill past the
    end and is the pre-marked gap that keeps one stream's lanes out of
    the next.  The streams one segment covers are lane-decoded together,
    a lock-step set at a time; a longer stream goes segment by segment
    on its own.  What the lanes leave of a stream goes to its chain walk.
    """
    streams = [_Stream(codec, payload, n) for codec, payload, n in items]
    size = 0
    for s in sorted(streams, key=lambda s: s.rank):
        s.base = 8 * size
        size += len(s.payload) + _PAD
    buf = np.zeros(size, dtype=np.uint8)
    for s in streams:
        o = s.base >> 3
        buf[o : o + len(s.payload)] = np.frombuffer(s.payload, dtype=np.uint8)
    pb = memoryview(buf)

    long = [s for s in streams if s.rank == 1 and s.out.size >= _LANE_MIN_SYMBOLS]
    sets = _lock_step_sets(sorted(
        (s for s in streams if s.rank == 0), key=lambda s: s.base
    ))
    if sets or long:
        w32 = _windows32(buf)
        set_bits = [p[-1].stream.base + p[-1].end - p[0].stream.base for p in sets]
        set_lanes = [sum(p.n_lanes for p in pieces) for pieces in sets]
        lanes = _Lanes(
            w32, pb,
            max(set_bits + [s.seg_bits + 8 for s in long]),
            max(set_lanes + [s.seg_bits // s.region_bits for s in long]),
        )
        _build_groups([p.stream for pieces in sets for p in pieces] + long)
        for pieces in sets:
            _lane_set(lanes, pieces)
        for s in long:
            _segments(lanes, s)

    results: list = []
    for s in streams:
        o = s.base >> 3
        view = slice(o, o + len(s.payload) + _PAD)
        try:
            _chain_walk(s.codec, buf[view], pb[view], s.total_bits, s.out, s.pos, s.i)
        except ReproError as exc:
            results.append(exc)
        else:
            results.append(s.out)
    return results

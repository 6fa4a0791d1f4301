"""DEFLATE-style container: LZ77 tokens + canonical Huffman sections.

The layout differs from RFC 1951 in that the three component streams are
stored as separate sections rather than interleaved bit-by-bit — this keeps
both encode and decode vectorizable — but the alphabets are DEFLATE's:

* literal/length symbols 0..284 (0-255 literals, 256+k for length bucket k),
* distance symbols 0..29,
* raw extra bits for lengths/distances, packed MSB-first in token order.

``inflate(deflate(x)) == x`` for arbitrary byte strings (property-tested).
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ..errors import LosslessError, ReproError, raise_first
from ..encoding.bitio import pack_codes, unpack_codes
from ..encoding.histogram import symbol_histogram
from ..encoding.huffman import HuffmanCodec, HuffmanTable, decode_outcomes
from .lz77 import LZ77Encoder, TokenStream, MAX_MATCH, MIN_MATCH

__all__ = [
    "deflate", "container_floor", "inflate", "inflate_outcomes",
    "LENGTH_BASE", "LENGTH_EXTRA", "DIST_BASE", "DIST_EXTRA",
]

_MAGIC = b"WDF1"
_COUNTS = struct.Struct("<QII")  # original length, tokens, matches

# DEFLATE length buckets: base length and number of extra bits per bucket.
LENGTH_BASE = np.array(
    [3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59,
     67, 83, 99, 115, 131, 163, 195, 227, 258],
    dtype=np.int64,
)
LENGTH_EXTRA = np.array(
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
     4, 4, 4, 4, 5, 5, 5, 5, 0],
    dtype=np.int64,
)
# DEFLATE distance buckets.
DIST_BASE = np.array(
    [1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385,
     513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577],
    dtype=np.int64,
)
DIST_EXTRA = np.array(
    [0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8,
     9, 9, 10, 10, 11, 11, 12, 12, 13, 13],
    dtype=np.int64,
)

_LITERAL_LIMIT = 256  # litlen symbols >= 256 are length buckets
# magic, counts and the five u32 length prefixes: every container has them
_FRAMING = len(_MAGIC) + _COUNTS.size + 5 * 4
# A budgeted attempt at most this long is priced by container_floor
# before its parse.  The floor costs about a tenth of a parse.  It skips
# every losing attempt on the small-job sections (1.5-3.4 KB) and 16 of
# 37 on the store tiles' (the longest skipped is 32.6 KB), but none on
# the 40-103 KB lib_fields sections, where it would be pure cost.
_FLOOR_GATE = 36 << 10


def _bucketize(values: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Map each value to the index of its containing bucket."""
    idx = np.searchsorted(base, values, side="right") - 1
    if (idx < 0).any():
        raise LosslessError("value below smallest bucket base")
    return idx


def deflate(
    data: bytes, encoder: LZ77Encoder | None = None, budget: int | None = None
) -> bytes | None:
    """Compress ``data`` into the WDF1 container.

    With a ``budget``, returns ``None`` instead when the container would
    not be smaller than ``budget`` bytes.  Its exact length is known once
    the parse and both Huffman tables are, so a losing attempt stops
    there and never packs a stream.
    """
    if budget is not None and len(data) <= _FLOOR_GATE and container_floor(data) >= budget:
        return None
    encoder = encoder or LZ77Encoder.best_compression()
    tokens = encoder.parse(data)
    return _serialize(tokens, len(data), budget)


def container_floor(data: bytes) -> int:
    """A lower bound on ``len(deflate(data, encoder))`` for every encoder.

    Every byte a match covers lies in a 3-gram that starts inside the
    match and occurred earlier, so a byte outside every such 3-gram is a
    literal in any parse: a *forced* literal.  The literal/length code
    spends at least the Gibbs bound of the forced literals' histogram on
    them (its lengths satisfy Kraft over a superset of their symbols),
    and at least one bit each.  Its table lists every distinct one in 4
    bytes, and a count for each length up to at least ``ceil(log2 K)``.
    The distance table is at least empty, the extra bits at least none.

    Each 3-gram's start is packed beneath its bytes in a ``uint64`` key,
    so one sort groups equal 3-grams and orders each group by start: a
    key whose 3-gram equals its predecessor's is a later occurrence.
    """
    n = len(data)
    buf = np.frombuffer(data, dtype=np.uint8)
    forced = buf
    if n > 3:
        m = n - 2
        # little-endian: bytes 7, 6, 5 hold the 3-gram, 3-0 its start
        key = np.zeros((m, 8), dtype=np.uint8)
        key[:, 7] = buf[:-2]
        key[:, 6] = buf[1:-1]
        key[:, 5] = buf[2:]
        keys = key.view(np.uint64).reshape(-1)
        keys |= np.arange(m, dtype=np.uint64)
        keys.sort()
        later = np.empty(m, dtype=bool)
        later[0] = False
        gram = keys >> np.uint64(40)
        np.equal(gram[1:], gram[:-1], out=later[1:])
        starts = (keys[later] & np.uint64(0xFFFFFFFF)).astype(np.intp)
        covered = np.zeros(n, dtype=bool)
        for offset in range(3):
            covered[starts + offset] = True
        forced = buf[~covered]
    counts = np.bincount(forced, minlength=256)
    counts = counts[counts > 0]
    n_forced = int(forced.size)
    bits = 0
    if n_forced:
        gibbs = n_forced * math.log2(n_forced) - float(counts @ np.log2(counts))
        # a hair under, so float rounding never lifts it past the truth
        bits = max(n_forced, math.ceil(gibbs - 1e-6))
    k = max(int(counts.size), 1)
    lit_table = 9 + 4 * max(1, (k - 1).bit_length()) + 4 * k if n else 8
    return _FRAMING + lit_table + 8 + ((bits + 7) >> 3)


def _table(symbols: np.ndarray) -> tuple[HuffmanTable, int]:
    """The canonical table of ``symbols`` and the exact bit length of
    their encoding, from the histogram alone (O(alphabet))."""
    values, counts = symbol_histogram(symbols)
    table = HuffmanTable.from_frequencies(values, counts)
    # table.symbols is ``values`` in canonical order; ``values`` is sorted.
    bits = counts[np.searchsorted(values, table.symbols)] @ table.lengths
    return table, int(bits)


def _serialize(
    tokens: TokenStream, original_len: int, budget: int | None
) -> bytes | None:
    kinds = tokens.kinds
    values = tokens.values.astype(np.int64)
    dists = tokens.dists.astype(np.int64)
    match_mask = kinds == 1
    n_tokens = tokens.n_tokens
    n_matches = int(match_mask.sum())

    # Literal/length symbol per token.
    litlen = values.copy()
    if n_matches:
        lens = values[match_mask]
        if (lens < MIN_MATCH).any() or (lens > MAX_MATCH).any():
            raise LosslessError("match length out of range")
        len_idx = _bucketize(lens, LENGTH_BASE)
        litlen[match_mask] = _LITERAL_LIMIT + len_idx
        dist_idx = _bucketize(dists[match_mask], DIST_BASE)
        # Extra bits, interleaved (length-extra, dist-extra) per match.
        ev = np.empty(2 * n_matches, dtype=np.int64)
        eb = np.empty(2 * n_matches, dtype=np.int64)
        ev[0::2] = lens - LENGTH_BASE[len_idx]
        eb[0::2] = LENGTH_EXTRA[len_idx]
        ev[1::2] = dists[match_mask] - DIST_BASE[dist_idx]
        eb[1::2] = DIST_EXTRA[dist_idx]
    else:
        dist_idx = ev = eb = np.empty(0, dtype=np.int64)

    lit_table, lit_bits = _table(litlen)
    dist_table, dist_bits = _table(dist_idx)
    tables = (lit_table.to_bytes(), dist_table.to_bytes())
    if budget is not None:
        # framing, two tables, three streams
        size = _FRAMING + len(tables[0]) + len(tables[1])
        size += sum((b + 7) >> 3 for b in (lit_bits, dist_bits, int(eb.sum())))
        if size >= budget:
            return None

    payloads = (
        HuffmanCodec(lit_table).encode(litlen)[0],
        HuffmanCodec(dist_table).encode(dist_idx)[0],
    )
    out = bytearray(_MAGIC)
    out += _COUNTS.pack(original_len, n_tokens, n_matches)
    for tbytes, payload in zip(tables, payloads):
        out += struct.pack("<I", len(tbytes))
        out += tbytes
        out += struct.pack("<I", len(payload))
        out += payload
    nz = eb > 0
    extras_payload = pack_codes(ev[nz], eb[nz])[0]
    out += struct.pack("<I", len(extras_payload))
    out += extras_payload
    return bytes(out)


def inflate(blob: bytes) -> bytes:
    """Decompress a WDF1 container back to the original bytes — a batch
    of one (:func:`inflate_outcomes`).

    All framing reads are bounds-checked so a truncated or bit-flipped
    container raises :class:`LosslessError` (or another ``ReproError``
    subtype from the Huffman/bit-IO layers), never ``struct.error``.
    """
    return raise_first(inflate_outcomes([blob]))[0]


def inflate_outcomes(blobs) -> list:
    """Inflate every WDF1 blob of ``blobs``, decoding the Huffman streams
    of all of them in one ``huffman.decode`` kernel call.

    Returns one entry per blob: its bytes, or the :class:`ReproError`
    ``inflate(blob)`` alone raises — each blob's checks run in the order
    one inflate runs them.
    """
    framed: list = []
    for blob in blobs:
        try:
            framed.append(_Framed(blob))
        except ReproError as exc:
            framed.append(exc)
    items = [item for f in framed if isinstance(f, _Framed) for item in f.streams]
    decoded = iter(decode_outcomes(items))
    out: list = []
    for f in framed:
        if isinstance(f, _Framed):
            streams = [next(decoded) for _ in f.streams]
            try:
                f = f.expand(*streams)
            except ReproError as exc:
                f = exc
        out.append(f)
    return out


class _Framed:
    """One WDF1 container with its framing read and checked: the
    ``(codec, payload, n_symbols)`` items of its Huffman streams wait in
    ``streams`` (literal/length, then distance if it has matches)."""

    def __init__(self, blob: bytes) -> None:
        if blob[:4] != _MAGIC:
            raise LosslessError("bad WDF1 magic")
        pos = 4

        def unpack(fmt: str, what: str) -> tuple:
            nonlocal pos
            size = struct.calcsize(fmt)
            if pos + size > len(blob):
                raise LosslessError(f"truncated WDF1 container: {what}")
            out = struct.unpack_from(fmt, blob, pos)
            pos += size
            return out

        def take(n: int, what: str) -> bytes:
            nonlocal pos
            if n < 0 or pos + n > len(blob):
                raise LosslessError(f"truncated WDF1 container: {what}")
            out = blob[pos : pos + n]
            pos += n
            return out

        original_len, n_tokens, n_matches = unpack("<QII", "stream counts")
        if n_matches > n_tokens:
            raise LosslessError("corrupt container: more matches than tokens")
        if original_len > 8 * max(len(blob), 1) * (MAX_MATCH + 1):
            # Even a stream of all-maximal matches cannot expand this far; the
            # length field is corrupt, refuse before allocating the output.
            raise LosslessError(f"implausible original length {original_len}")

        def take_section(what: str) -> tuple[HuffmanTable, bytes]:
            (tlen,) = unpack("<I", f"{what} table length")
            table, _ = HuffmanTable.from_bytes(take(tlen, f"{what} table"))
            (plen,) = unpack("<I", f"{what} payload length")
            return table, take(plen, f"{what} payload")

        lit_table, lit_payload = take_section("literal/length")
        dist_table, dist_payload = take_section("distance")
        (elen,) = unpack("<I", "extra-bits length")
        self.extras_payload = take(elen, "extra-bits payload")
        self.original_len = original_len
        self.n_tokens = n_tokens
        self.n_matches = n_matches
        self.streams: list = []
        if n_tokens:
            self.streams.append((HuffmanCodec(lit_table), lit_payload, n_tokens))
        if n_tokens and n_matches:
            self.streams.append((HuffmanCodec(dist_table), dist_payload, n_matches))

    def expand(self, litlen=None, dist_idx=None) -> bytes:
        """The original bytes, given the outcome of decoding each stream."""
        n_tokens, n_matches = self.n_tokens, self.n_matches
        original_len = self.original_len
        if n_tokens == 0:
            if original_len != 0:
                raise LosslessError("empty token stream for non-empty data")
            return b""

        (litlen,) = raise_first([litlen])
        match_mask = litlen >= _LITERAL_LIMIT
        if int(match_mask.sum()) != n_matches:
            raise LosslessError("corrupt container: match count mismatch")

        values = litlen.astype(np.int64)
        dists = np.zeros(n_tokens, dtype=np.int64)
        if n_matches:
            (dist_idx,) = raise_first([dist_idx])
            if (dist_idx < 0).any() or (dist_idx >= DIST_BASE.size).any():
                raise LosslessError("corrupt container: bad distance symbol")
            len_idx = litlen[match_mask] - _LITERAL_LIMIT
            if (len_idx >= LENGTH_BASE.size).any():
                raise LosslessError("corrupt container: bad length symbol")
            lens = LENGTH_BASE[len_idx].copy()
            match_dists = DIST_BASE[dist_idx].copy()
            # Extra bits are packed in token order, interleaved (length-extra,
            # dist-extra) per match with zero-width fields skipped — recover
            # the widths the same way and unpack the whole section at once.
            widths = np.empty(2 * n_matches, dtype=np.int64)
            widths[0::2] = LENGTH_EXTRA[len_idx]
            widths[1::2] = DIST_EXTRA[dist_idx]
            present = widths > 0
            extras = np.zeros(2 * n_matches, dtype=np.int64)
            if present.any():
                extras[present] = unpack_codes(self.extras_payload, widths[present])
            lens += extras[0::2]
            match_dists += extras[1::2]
            values[match_mask] = lens
            dists[match_mask] = match_dists

        stream = TokenStream(
            match_mask.astype(np.uint8),
            values.astype(np.int32),
            dists.astype(np.int32),
        )
        if stream.expanded_size() != original_len:
            raise LosslessError(
                f"corrupt container: tokens expand to {stream.expanded_size()} "
                f"bytes, expected {original_len}"
            )
        out = stream.reconstruct()
        if len(out) != original_len:
            raise LosslessError(
                f"corrupt container: expanded to {len(out)} bytes, expected {original_len}"
            )
        return out

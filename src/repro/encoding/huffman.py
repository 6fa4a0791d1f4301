"""Customized canonical Huffman coding over quantization codes.

SZ-1.4's "customized variable-length encoding" is a Huffman code whose
alphabet is the 16-bit linear-scaling quantization codes (paper §2.1,
Table 7's H⋆ stage).  This module implements it from scratch:

* tree construction by a two-queue merge over the sorted non-zero-frequency
  symbols,
* canonicalization (codes assigned in (length, symbol) order) so the table
  serializes as just *lengths + symbols in canonical order*,
* a fully vectorized encoder built on :func:`repro.encoding.bitio.pack_codes`,
* a decoder with a 12-bit first-level lookup table and a canonical
  per-length fallback for longer codes.

Maximum code depth for an alphabet with integer counts is bounded by the
Fibonacci growth of subtree weights; exceeding 57 levels would require more
than 2**57 input symbols, so depths always fit the bit-IO buffer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..errors import HuffmanError, ReproError, raise_first
from ..kernels.dispatch import register_kernel, resolve
from .bitio import _MAX_CODE_BITS, BitReader, _pack_fitting_codes
from .histogram import symbol_histogram

__all__ = ["HuffmanTable", "HuffmanCodec", "decode_many", "decode_outcomes"]

_FAST_BITS = 12
_MAGIC = b"HUF1"
_MAX_ENC_ALPHABET = 1 << 26  # dense encode-table slots (plenty for 16-bit codes)


def _code_lengths(counts: np.ndarray) -> np.ndarray:
    """Huffman code length per (non-zero-count) symbol, by two-queue merge.

    Leaves wait in one queue, stably sorted by count; merged nodes join
    a second queue in creation order, which is weight order because
    merge weights never decrease.  Each merge takes the two lightest
    heads, a leaf before an internal node of equal weight — the order a
    heap keyed ``(weight, node_id)`` pops them in, so ties resolve to
    the same tree and the wire format is unchanged.
    """
    n = counts.size
    if n == 1:
        return np.array([1], dtype=np.int64)
    order = np.argsort(counts, kind="stable")
    # Node ids: 0..n-1 the sorted leaves, n an infinite sentinel that
    # closes the leaf queue, n+1..2n-1 the merges in creation order.
    weight = counts[order].tolist()
    weight.append(float("inf"))
    left: list[int] = []
    right: list[int] = []
    leaf, internal = 0, n + 1
    for new in range(n + 1, 2 * n):
        if internal == new or weight[leaf] <= weight[internal]:
            a = leaf
            leaf += 1
        else:
            a = internal
            internal += 1
        if internal == new or weight[leaf] <= weight[internal]:
            b = leaf
            leaf += 1
        else:
            b = internal
            internal += 1
        weight.append(weight[a] + weight[b])
        left.append(a)
        right.append(b)
    # Top-down: the root is the last merge; children sit one level deeper.
    depth = [0] * (2 * n)
    for node, a, b in zip(
        range(2 * n - 1, n, -1), reversed(left), reversed(right)
    ):
        depth[a] = depth[b] = depth[node] + 1
    lengths = np.empty(n, dtype=np.int64)
    lengths[order] = depth[:n]
    return lengths


@dataclass(frozen=True)
class HuffmanTable:
    """A canonical Huffman code: symbols in canonical order and their lengths.

    ``symbols[i]`` is the i-th symbol in (length, symbol) canonical order;
    ``lengths[i]`` its code length.  Codes are implied: within each length,
    codes are consecutive, starting from ``(prev_first + prev_count) << 1``.
    """

    symbols: np.ndarray  # int64, canonical order
    lengths: np.ndarray  # int64, non-decreasing

    def __post_init__(self) -> None:
        if self.symbols.shape != self.lengths.shape or self.symbols.ndim != 1:
            raise HuffmanError("symbols/lengths must be matching 1-D arrays")
        if self.symbols.size and (np.diff(self.lengths) < 0).any():
            raise HuffmanError("lengths must be non-decreasing (canonical order)")

    @classmethod
    def from_frequencies(
        cls, values: np.ndarray, counts: np.ndarray
    ) -> "HuffmanTable":
        """Build the canonical table for an empirical distribution."""
        values = np.asarray(values, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if values.size == 0:
            return cls(np.empty(0, np.int64), np.empty(0, np.int64))
        if (counts <= 0).any():
            raise HuffmanError("all counts must be positive")
        lengths = _code_lengths(counts)
        order = np.lexsort((values, lengths))
        return cls(values[order], lengths[order])

    @classmethod
    def from_symbols(cls, symbols: np.ndarray) -> "HuffmanTable":
        """Build the table directly from a symbol stream."""
        return cls.from_frequencies(*symbol_histogram(symbols))

    # -- canonical code assignment -------------------------------------

    def assign_codes(self) -> np.ndarray:
        """Return the canonical code value for each table entry (uint64)."""
        if self.symbols.size == 0:
            return np.zeros(0, dtype=np.uint64)
        # Left-aligned to the deepest length, entry i starts where the
        # entries before it end: at the sum of their 2**(maxlen - length)
        # spans.  Shifting that back down is the canonical code.  The sum
        # stays below 2**maxlen (Kraft), so uint64 holds it at any depth
        # the table format allows.
        pad = (self.max_length - self.lengths).astype(np.uint64)
        span = np.uint64(1) << pad
        return (np.cumsum(span) - span) >> pad

    def is_prefix_free_and_complete(self) -> bool:
        """Kraft sum == 1 exactly (true for any Huffman code with >= 1 symbol)."""
        if self.symbols.size == 0:
            return True
        if self.symbols.size == 1:
            return int(self.lengths[0]) == 1  # single-symbol convention
        kraft = np.sum(np.ldexp(1.0, -self.lengths.astype(np.int64)))
        return bool(abs(kraft - 1.0) < 1e-12)

    @property
    def max_length(self) -> int:
        return int(self.lengths[-1]) if self.symbols.size else 0

    # -- serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        """Compact serialization: per-length symbol counts + canonical symbols."""
        out = bytearray(_MAGIC)
        n = self.symbols.size
        out += struct.pack("<I", n)
        if n == 0:
            return bytes(out)
        maxlen = self.max_length
        out += struct.pack("<B", maxlen)
        per_len = np.bincount(self.lengths, minlength=maxlen + 1)[1:]
        out += per_len.astype("<u4").tobytes()
        out += self.symbols.astype("<u4").tobytes()
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> tuple["HuffmanTable", int]:
        """Parse a serialized table; returns (table, bytes_consumed).

        Every length and count is bounds-checked against the buffer before
        it is trusted, so truncated or bit-flipped tables raise
        :class:`HuffmanError` rather than ``struct.error``/``ValueError``
        — and can never describe an over-subscribed (ambiguous) code.
        """
        if len(data) < 8:
            raise HuffmanError("truncated Huffman table header")
        if data[:4] != _MAGIC:
            raise HuffmanError("bad Huffman table magic")
        (n,) = struct.unpack_from("<I", data, 4)
        pos = 8
        if n == 0:
            return cls(np.empty(0, np.int64), np.empty(0, np.int64)), pos
        if len(data) < pos + 1:
            raise HuffmanError("truncated Huffman table: missing max length")
        (maxlen,) = struct.unpack_from("<B", data, pos)
        pos += 1
        if not 1 <= maxlen <= _MAX_CODE_BITS:
            raise HuffmanError(f"implausible Huffman code depth {maxlen}")
        if len(data) < pos + 4 * maxlen + 4 * n:
            raise HuffmanError("truncated Huffman table body")
        per_len = np.frombuffer(data, dtype="<u4", count=maxlen, offset=pos)
        pos += 4 * maxlen
        if int(per_len.sum()) != n:
            raise HuffmanError("corrupt Huffman table: count mismatch")
        # Kraft over-subscription would make canonical codes overlap and
        # decoding ambiguous; reject it outright.
        spans = [2 ** (maxlen - length) for length in range(1, maxlen + 1)]
        kraft = int((per_len.astype(object) * spans).sum())
        if kraft > 2**maxlen:
            raise HuffmanError("corrupt Huffman table: over-subscribed code")
        symbols = np.frombuffer(data, dtype="<u4", count=n, offset=pos).astype(
            np.int64
        )
        pos += 4 * n
        lengths = np.repeat(
            np.arange(1, maxlen + 1, dtype=np.int64), per_len.astype(np.int64)
        )
        return cls(symbols, lengths), pos


def _window_entries(t: HuffmanTable, bits: int) -> np.ndarray:
    """Decode entry ``(symbol << 6) | length`` per ``bits``-wide window.

    Canonical codes in (length, symbol) order tile the window space left
    to right — a code of length ``l`` owns the next ``2**(bits - l)``
    windows — so the table is one ``np.repeat``.  Windows whose code is
    longer than ``bits`` (or that no code covers) hold ``-1``.
    """
    out = np.full(1 << bits, -1, dtype=np.int64)
    lens = t.lengths[: np.searchsorted(t.lengths, bits, side="right")]
    reps = 1 << (bits - lens)
    # An over-subscribed hand-built table runs off the end; keep what fits.
    fit = int(np.searchsorted(np.cumsum(reps), out.size, side="right"))
    entries = (t.symbols[:fit].astype(np.int64) << 6) | lens[:fit]
    tiled = np.repeat(entries, reps[:fit])
    out[: tiled.size] = tiled
    return out


@dataclass(frozen=True)
class _DecodeTables:
    """Decode lookups for one table: the first-level fast window plus the
    canonical per-length bounds the slow path sweeps."""

    fast_bits: int
    fast_sym: np.ndarray  # symbol per fast-window slot, -1 on escape
    fast_len: np.ndarray
    fast_entry: np.ndarray  # fused (symbol << 6) | length, -1 on escape
    first_code: np.ndarray  # canonical first code of each length
    first_idx: np.ndarray  # its index into table.symbols
    len_count: np.ndarray  # codes per length

    @classmethod
    def build(cls, t: HuffmanTable) -> "_DecodeTables":
        maxlen = t.max_length
        fast_bits = min(_FAST_BITS, max(maxlen, 1))
        fast_entry = _window_entries(t, fast_bits)
        hit = fast_entry >= 0
        count = np.bincount(t.lengths, minlength=maxlen + 2)
        first_code = np.zeros(maxlen + 2, dtype=np.int64)
        first_idx = np.zeros(maxlen + 2, dtype=np.int64)
        code = 0
        idx = 0
        for length in range(1, maxlen + 1):
            first_code[length] = code
            first_idx[length] = idx
            c = int(count[length])
            code = (code + c) << 1
            idx += c
        return cls(
            fast_bits,
            np.where(hit, fast_entry >> 6, -1),
            np.where(hit, fast_entry & 63, 0),
            fast_entry,
            first_code,
            first_idx,
            count,
        )


class HuffmanCodec:
    """Encode/decode symbol streams against a :class:`HuffmanTable`."""

    def __init__(self, table: HuffmanTable) -> None:
        self.table = table
        # Both table sets are built lazily, on first use.  A compress
        # builds two or three codecs and never decodes, so it must not
        # pay the per-code fast-table loop; a decode-only codec over a
        # corrupt table claiming symbol 2**32-1 must not allocate a
        # multi-gigabyte dense encode array it will never use.
        self._enc_len: np.ndarray | None = None
        self._enc_code: np.ndarray | None = None
        self._enc_base = 0
        self._dec: _DecodeTables | None = None
        # The lane decoder's wide LUT and group table (kernels.huffman_fast),
        # cached here so repeated decodes against one codec build them once.
        self._lane_lut: np.ndarray | None = None
        self._lane_groups: tuple[np.ndarray, np.ndarray] | None = None

    def _encode_tables(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Dense ``symbol - self._enc_base`` lookups of length and code,
        built for a first stream of ``n`` symbols.

        Quant codes cluster around the quantizer radius, so a 57-symbol
        table centred on 32768 spans 57 slots but would zero 32 K dense
        ones per codec.  Indexing from the smallest symbol costs one
        subtraction over the stream instead, so it is chosen when the
        stream is the shorter of the two (a 2 K-symbol job), and long
        streams keep indexing from 0.
        """
        if self._enc_len is None:
            table = self.table
            if table.symbols.size:
                hi = int(table.symbols.max()) + 1
                # A (hand-built) negative symbol keeps indexing from 0.
                lo = max(int(table.symbols.min()), 0) if hi > n else 0
                if hi - lo > _MAX_ENC_ALPHABET:
                    raise HuffmanError(
                        f"encode alphabet too large ({hi - lo} dense slots)"
                    )
                # The packer trusts every code to fit a length in [1, 57],
                # so the table is checked here, once, instead of every
                # symbol.  Built and parsed tables always pass; a canonical
                # code outgrows its length exactly when the hand-built
                # table is over-subscribed.
                lengths = table.lengths
                if lengths[0] < 1 or lengths[-1] > _MAX_CODE_BITS:
                    raise HuffmanError(
                        f"code lengths must be in [1, {_MAX_CODE_BITS}]"
                    )
                codes = table.assign_codes()
                spill = codes >> lengths.astype(np.uint64)
                if spill.any():
                    j = int(np.flatnonzero(spill)[0])
                    raise HuffmanError(
                        f"over-subscribed Huffman table: code {int(codes[j])} "
                        f"does not fit in {int(lengths[j])} bits"
                    )
                self._enc_base = lo
                self._enc_len = np.zeros(hi - lo, dtype=np.int64)
                self._enc_code = np.zeros(hi - lo, dtype=np.uint64)
                self._enc_len[table.symbols - lo] = lengths
                self._enc_code[table.symbols - lo] = codes
            else:
                self._enc_len = np.zeros(0, dtype=np.int64)
                self._enc_code = np.zeros(0, dtype=np.uint64)
        return self._enc_len, self._enc_code

    def _slots(self, symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Validated ``(lookup slots, code lengths)`` of a symbol stream."""
        enc_len = self._encode_tables(symbols.size)[0]
        lo = self._enc_base
        if symbols.dtype != np.int64:
            if symbols.dtype.kind not in "iu":
                raise HuffmanError(f"symbols must be integers, got {symbols.dtype}")
            symbols = symbols.astype(np.int64)  # uint64 past 2**63 turns negative
        slots = symbols - lo if lo else symbols
        # One unsigned test covers both ends of the alphabet: a slot below
        # zero wraps past every valid one.  Which end failed is worked out
        # only when one did.
        if slots.view(np.uint64).max() >= enc_len.size:
            if symbols.min() < 0 or symbols.max() >= lo + enc_len.size:
                raise HuffmanError("symbol outside table alphabet")
            # inside the alphabet, below every coded symbol
            raise HuffmanError("symbol with zero frequency in table")
        lengths = enc_len[slots]
        if np.count_nonzero(lengths) != lengths.size:
            raise HuffmanError("symbol with zero frequency in table")
        return slots, lengths

    def _decode_tables(self) -> "_DecodeTables":
        """The decode lookups, built on first use (both kernels read
        them through this accessor)."""
        if self._dec is None:
            self._dec = _DecodeTables.build(self.table)
        return self._dec

    # -- encode ------------------------------------------------------------

    def encode(self, symbols: np.ndarray) -> tuple[bytes, int]:
        """Encode a 1-D symbol array; returns (payload, total_bits)."""
        symbols = np.asarray(symbols).reshape(-1)
        if symbols.size == 0:
            return b"", 0
        slots, lengths = self._slots(symbols)
        return _pack_fitting_codes(self._enc_code[slots], lengths)

    # -- decode ------------------------------------------------------------

    def decode(self, payload: bytes, n_symbols: int) -> np.ndarray:
        """Decode ``n_symbols`` symbols from an MSB-first payload — a
        batch of one (:func:`decode_many`)."""
        return decode_many([(self, payload, n_symbols)])[0]

    def _decode_trivially(self, payload: bytes, n_symbols: int) -> np.ndarray | None:
        """The host's validations of one decode, and its result when that
        needs no kernel (``None`` when it does).

        ``n_symbols`` is validated against the payload size before any
        allocation: each symbol consumes at least ``lengths[0]`` bits, so a
        mutated count that the payload cannot possibly satisfy raises
        instead of decoding padding into unbounded garbage.
        """
        if n_symbols == 0:
            return np.empty(0, dtype=np.int64)
        if n_symbols < 0:
            raise HuffmanError(f"negative symbol count {n_symbols}")
        if self.table.symbols.size == 0:
            raise HuffmanError("cannot decode with an empty table")
        min_len = int(self.table.lengths[0])
        if n_symbols * min_len > 8 * len(payload):
            raise HuffmanError(
                f"payload too short for {n_symbols} symbols "
                f"(min {min_len} bits each, {8 * len(payload)} bits available)"
            )
        if self.table.symbols.size == 1:
            # Degenerate single-symbol stream: 1 bit per symbol by convention.
            out = np.empty(n_symbols, dtype=np.int64)
            out[:] = self.table.symbols[0]
            return out
        return None

    def encoded_size_bits(self, symbols: np.ndarray) -> int:
        """Exact payload size in bits without materializing the stream.

        Validates exactly like :meth:`encode`: symbols outside the table
        alphabet or with zero frequency raise :class:`HuffmanError`.
        """
        symbols = np.asarray(symbols).reshape(-1)
        if symbols.size == 0:
            return 0
        return int(self._slots(symbols)[1].sum())


def decode_outcomes(items) -> list:
    """Decode every ``(codec, payload, n_symbols)`` of ``items``, one
    ``huffman.decode`` kernel call for all that need one.

    Returns one entry per item: its symbols, or the :class:`ReproError`
    ``codec.decode(payload, n_symbols)`` alone raises.
    """
    out: list = [None] * len(items)
    todo: list[int] = []
    for k, (codec, payload, n) in enumerate(items):
        try:
            out[k] = codec._decode_trivially(payload, n)
        except HuffmanError as exc:
            out[k] = exc
            continue
        if out[k] is None:
            todo.append(k)
    if todo:
        decoded = resolve("huffman.decode")([items[k] for k in todo])
        for k, result in zip(todo, decoded):
            out[k] = result
    return out


def decode_many(items) -> list[np.ndarray]:
    """Decode every ``(codec, payload, n_symbols)`` of ``items`` as one
    batch: equal to ``[codec.decode(payload, n) for ...]``, and raising
    what the first item that fails raises alone."""
    return raise_first(decode_outcomes(items))


def _decode_reference(
    codec: "HuffmanCodec", payload: bytes, n_symbols: int
) -> np.ndarray:
    """Per-symbol peek/skip decode loop — the ``huffman.decode`` reference."""
    out = np.empty(n_symbols, dtype=np.int64)
    reader = BitReader(payload)
    dec = codec._decode_tables()
    fast_bits = dec.fast_bits
    fast_sym = dec.fast_sym
    fast_len = dec.fast_len
    first_code = dec.first_code
    first_idx = dec.first_idx
    len_count = dec.len_count
    symbols = codec.table.symbols
    maxlen = codec.table.max_length
    peek = reader.peek
    skip = reader.skip
    for i in range(n_symbols):
        window = peek(fast_bits)
        s = fast_sym[window]
        if s >= 0:
            skip(int(fast_len[window]))
            out[i] = s
            continue
        # Slow path: extend bit by bit beyond the fast window.
        code = window
        length = fast_bits
        while True:
            length += 1
            if length > maxlen:
                raise HuffmanError("invalid code in bitstream")
            code = peek(length)
            c = int(len_count[length]) if length < len(len_count) else 0
            fc = int(first_code[length])
            if c and fc <= code < fc + c:
                skip(length)
                out[i] = symbols[first_idx[length] + (code - fc)]
                break
    return out


def _decode_reference_many(items) -> list:
    """The ``huffman.decode`` reference: :func:`_decode_reference` per
    item, each failure its item's entry."""
    out: list = []
    for codec, payload, n_symbols in items:
        try:
            out.append(_decode_reference(codec, payload, n_symbols))
        except ReproError as exc:
            out.append(exc)
    return out


register_kernel(
    "huffman.decode",
    _decode_reference_many,
    fast="repro.kernels.huffman_fast:decode_symbols",
)

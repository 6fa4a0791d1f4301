"""MSB-first bit-level IO.

Two write paths exist:

* :class:`BitWriter` — scalar, for headers and small variable-length fields.
* :func:`pack_codes` — vectorized NumPy path that packs an array of
  (code, bit-length) pairs in one shot; this is what the Huffman encoder
  uses so that encoding a multi-megapoint field stays at NumPy speed
  (per the HPC guide: vectorize the hot loop, profile the rest).

Reading is handled by :class:`BitReader`, which maintains a 64-bit refill
buffer so that per-symbol Huffman decode needs only integer ops.
"""

from __future__ import annotations

import numpy as np

from ..errors import BitstreamError
from ..kernels.dispatch import register_kernel, resolve

__all__ = ["BitWriter", "BitReader", "pack_codes", "unpack_codes"]

_MAX_CODE_BITS = 57  # leaves refill headroom in a 64-bit buffer
_MAX_READ_BITS = 4096  # widest multi-word read any header field can need


class BitWriter:
    """Accumulates bits MSB-first into a growable byte buffer."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._acc = 0  # pending bits, left-aligned within _nacc
        self._nacc = 0

    def __len__(self) -> int:
        """Total number of bits written so far."""
        return 8 * len(self._bytes) + self._nacc

    def write(self, value: int, nbits: int) -> None:
        """Append the low ``nbits`` of ``value``, most-significant bit first."""
        if nbits < 0:
            raise BitstreamError(f"negative bit count: {nbits}")
        if nbits == 0:
            return
        if value < 0 or value >> nbits:
            raise BitstreamError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nacc += nbits
        while self._nacc >= 8:
            self._nacc -= 8
            self._bytes.append((self._acc >> self._nacc) & 0xFF)
        self._acc &= (1 << self._nacc) - 1

    def write_bytes(self, data: bytes) -> None:
        """Append whole bytes (stream must be byte-aligned)."""
        if self._nacc:
            raise BitstreamError("write_bytes on unaligned stream")
        self._bytes.extend(data)

    def align(self) -> None:
        """Pad with zero bits to the next byte boundary."""
        if self._nacc:
            self._bytes.append((self._acc << (8 - self._nacc)) & 0xFF)
            self._acc = 0
            self._nacc = 0

    def getvalue(self) -> bytes:
        """Return the byte-aligned contents (pads a trailing partial byte)."""
        self.align()
        return bytes(self._bytes)


class BitReader:
    """Reads an MSB-first bitstream with a 64-bit refill buffer."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # next byte index to refill from
        self._buf = 0  # right-aligned pending bits
        self._nbuf = 0

    @property
    def bits_consumed(self) -> int:
        return 8 * self._pos - self._nbuf

    @property
    def bits_remaining(self) -> int:
        return 8 * len(self._data) - self.bits_consumed

    def _refill(self, need: int) -> None:
        while self._nbuf < need:
            if self._pos >= len(self._data):
                raise BitstreamError(
                    f"bitstream exhausted: need {need} bits, have {self._nbuf}"
                )
            self._buf = (self._buf << 8) | self._data[self._pos]
            self._pos += 1
            self._nbuf += 8

    def read(self, nbits: int) -> int:
        """Consume and return ``nbits`` as an unsigned integer."""
        if nbits < 0:
            raise BitstreamError(f"negative bit count: {nbits}")
        if nbits == 0:
            return 0
        if nbits > _MAX_READ_BITS:
            # A width this large only arises from a corrupt header; fail
            # loudly instead of recursing toward a RecursionError.
            raise BitstreamError(f"implausible read of {nbits} bits")
        if nbits > _MAX_CODE_BITS:
            # Split long reads; headers never exceed 57 bits in practice.
            hi = self.read(nbits - 32)
            return (hi << 32) | self.read(32)
        self._refill(nbits)
        self._nbuf -= nbits
        value = (self._buf >> self._nbuf) & ((1 << nbits) - 1)
        self._buf &= (1 << self._nbuf) - 1
        return value

    def peek(self, nbits: int) -> int:
        """Return the next ``nbits`` without consuming; zero-pads past the end."""
        if nbits > _MAX_CODE_BITS:
            raise BitstreamError(f"peek of {nbits} bits exceeds buffer width")
        avail = self.bits_remaining
        if avail >= nbits:
            self._refill(nbits)
            return (self._buf >> (self._nbuf - nbits)) & ((1 << nbits) - 1)
        if avail > 0:
            self._refill(avail)
        return (self._buf << (nbits - self._nbuf)) & ((1 << nbits) - 1)

    def skip(self, nbits: int) -> None:
        """Consume ``nbits`` previously peeked."""
        if nbits < 0:
            raise BitstreamError(f"negative bit count: {nbits}")
        self._refill(nbits)
        self._nbuf -= nbits
        self._buf &= (1 << self._nbuf) - 1

    def align(self) -> None:
        """Discard bits up to the next byte boundary."""
        self._nbuf -= self._nbuf % 8
        self._buf &= (1 << self._nbuf) - 1

    def read_bytes(self, n: int) -> bytes:
        """Read whole bytes (stream must be byte-aligned)."""
        if self._nbuf % 8:
            raise BitstreamError("read_bytes on unaligned stream")
        out = bytearray()
        while self._nbuf >= 8 and n > 0:
            self._nbuf -= 8
            out.append((self._buf >> self._nbuf) & 0xFF)
            n -= 1
        self._buf &= (1 << self._nbuf) - 1
        if n > 0:
            if self._pos + n > len(self._data):
                raise BitstreamError("bitstream exhausted in read_bytes")
            out.extend(self._data[self._pos : self._pos + n])
            self._pos += n
        return bytes(out)


def pack_codes(codes: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """Vectorized MSB-first packing of per-symbol (code, length) pairs.

    Returns ``(packed_bytes, total_bits)``.  Bit ``k`` (0-based, MSB-first)
    of each symbol's code is ``(code >> (length-1-k)) & 1``.  Like
    :meth:`BitWriter.write`, a code that does not fit its length raises
    :class:`BitstreamError`.  The packing itself goes through the
    ``bitio.pack_codes`` kernel: the reference expands to a flat bit array
    with ``repeat``/``cumsum`` index arithmetic and a single
    :func:`numpy.packbits` call; the fast path
    (:func:`repro.kernels.bitpack_fast.pack_codes_windowed`) produces the
    identical bytes by summing codes into 64-bit words, block by block,
    using far less time and scratch memory.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if codes.shape != lengths.shape:
        raise BitstreamError("codes and lengths must have the same shape")
    if codes.ndim != 1:
        raise BitstreamError("pack_codes expects 1-D arrays")
    if lengths.size == 0:
        return b"", 0
    if (lengths <= 0).any() or (lengths > _MAX_CODE_BITS).any():
        raise BitstreamError("code lengths must be in [1, 57]")
    spill = codes >> lengths.view(np.uint64)  # bits above each length
    if spill.any():
        j = int(np.flatnonzero(spill)[0])
        raise BitstreamError(
            f"value {int(codes[j])} does not fit in {int(lengths[j])} bits"
        )
    return _pack_fitting_codes(codes, lengths)


def _pack_fitting_codes(
    codes: np.ndarray, lengths: np.ndarray
) -> tuple[bytes, int]:
    """:func:`pack_codes` without its checks, for a caller that has made
    them once for many calls: non-empty 1-D ``uint64`` codes, ``int64``
    lengths in ``[1, 57]``, every code fitting its length.  A Huffman
    table's codes fit by construction, so the encoder checks its table
    instead of every symbol.  Every packer dispatch goes through here."""
    return resolve("bitio.pack_codes")(codes, lengths)


def _pack_codes_reference(
    codes: np.ndarray, lengths: np.ndarray
) -> tuple[bytes, int]:
    total_bits = int(lengths.sum())
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    # For every output bit: which symbol it belongs to and its index k
    # within that symbol's code.
    sym_of_bit = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
    k = np.arange(total_bits, dtype=np.int64) - np.repeat(starts, lengths)
    shift = (lengths[sym_of_bit] - 1 - k).astype(np.uint64)
    bits = ((codes[sym_of_bit] >> shift) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits).tobytes(), total_bits


def unpack_codes(payload: bytes, widths: np.ndarray) -> np.ndarray:
    """Read consecutive MSB-first fields of the given bit ``widths``.

    The inverse of :func:`pack_codes` for known per-value widths: returns
    an ``int64`` array with one value per width.  Raises
    :class:`BitstreamError` if the fields overrun the payload.  Trailing
    payload bits beyond the last field are ignored, mirroring a partial
    :class:`BitReader` scan.
    """
    widths = np.asarray(widths, dtype=np.int64)
    if widths.ndim != 1:
        raise BitstreamError("unpack_codes expects a 1-D width array")
    if widths.size == 0:
        return np.empty(0, dtype=np.int64)
    if (widths <= 0).any() or (widths > _MAX_CODE_BITS).any():
        raise BitstreamError("field widths must be in [1, 57]")
    return resolve("bitio.unpack_codes")(payload, widths)


def _unpack_codes_reference(payload: bytes, widths: np.ndarray) -> np.ndarray:
    reader = BitReader(payload)
    out = np.empty(widths.size, dtype=np.int64)
    for j in range(widths.size):
        out[j] = reader.read(int(widths[j]))
    return out


register_kernel(
    "bitio.pack_codes",
    _pack_codes_reference,
    fast="repro.kernels.bitpack_fast:pack_codes_windowed",
)
register_kernel(
    "bitio.unpack_codes",
    _unpack_codes_reference,
    fast="repro.kernels.bitpack_fast:unpack_codes_windowed",
)

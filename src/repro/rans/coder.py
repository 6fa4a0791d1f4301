"""Static byte-aligned rANS coder over a 2^12-normalized frequency table.

The coder implements the range variant of asymmetric numeral systems
(Duda 2013) in the byte-aligned form cuSZ-style pipelines use for
data-parallel code streams: a single 32-bit state per lane, renormalized
one byte at a time against a per-symbol threshold, with all symbol
probabilities quantized to ``f/4096``.

Layout decisions, fixed by the wire format:

* **Probability scale.**  ``PROB_BITS = 12`` — every distinct symbol
  gets an integer frequency ``f >= 1`` with ``sum(f) == 4096``
  (:func:`normalize_freqs`, deterministic largest-remainder rounding, so
  both kernel modes build byte-identical tables).
* **State interval.**  ``x in [2^23, 2^31)``.  Encoding a symbol first
  renormalizes while ``x >= f << 19`` (emitting the low byte), then maps
  ``x -> (x // f) << 12 | (x % f) + cum``.  With ``f >= 1`` at most two
  bytes move per symbol per direction, and after the decode transform
  the byte need is a pure function of the state (``0`` if ``x >= 2^23``,
  ``1`` if ``x >= 2^15``, else ``2``) — which is what makes the decode
  loop vectorizable across lanes.
* **Interleaved lanes.**  Lane ``j`` of ``N`` owns tokens ``j, j+N,
  j+2N, ...``.  The encoder walks steps last-to-first and lanes
  high-to-low appending bytes low-first, then reverses the whole buffer;
  the decoder walks steps first-to-last and lanes low-to-high consuming
  bytes in order.  The two walks are exact LIFO mirrors, so a decoder
  must end with every lane back at ``RANS_L`` and zero bytes left —
  both are checked, turning most corruptions into :class:`RansError`.
* **Blob layout** (assembled by :func:`encode_tokens`): ``u32 n_lanes``,
  then ``n_lanes`` little-endian ``u32`` final states, then the byte
  stream.  ``n_lanes = clamp(m // 128, 1, 2048)`` keeps the per-lane
  state overhead near 0.25 bits/token while giving the numpy decode
  ~128 vectorized steps regardless of stream length.

The per-step loops are registered as ``rans.encode`` / ``rans.decode``
kernel twins (PR 5 pattern): the scalar reference lives here next to the
format, the vectorized fast path in :mod:`repro.kernels.rans_fast`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..errors import RansError
from ..kernels.dispatch import register_kernel, resolve

__all__ = [
    "PROB_BITS",
    "PROB_SCALE",
    "RANS_L",
    "MAX_SYMBOLS",
    "RansTable",
    "normalize_freqs",
    "pick_lanes",
    "encode_tokens",
    "decode_tokens",
]

PROB_BITS = 12
PROB_SCALE = 1 << PROB_BITS
RANS_L = 1 << 23  # lower bound of the state interval [L, 2^31)
#: A table needs every symbol's frequency >= 1 out of 4096, so alphabets
#: beyond 4096 distinct symbols cannot be rANS-coded at this precision —
#: the entropy stage falls back to Huffman for them.
MAX_SYMBOLS = PROB_SCALE

_TABLE_MAGIC = b"RNS1"
# Target tokens per lane: sets the vectorized step count (~64).  Each
# lane costs 4 state bytes on the wire but each *step* costs fixed numpy
# dispatch overhead, which dominates encode time on mid-size streams —
# 64 is the measured sweet spot where the state overhead stays <0.5 bits
# per token while the step count stops being the bottleneck.
_LANE_TOKENS = 64
_MAX_LANES = 2048  # encoder cap; decoder tolerates up to the sanity cap
_MAX_LANES_DECODE = 1 << 16
_DENSE_SPAN = 1 << 16  # rank-table slots built for any stream; more need as many tokens


def normalize_freqs(counts: np.ndarray) -> np.ndarray:
    """Quantize positive counts to integer frequencies summing to 4096.

    Deterministic largest-remainder rounding: floor-scale with a floor of
    1, hand the missing mass to the largest remainders (stable order),
    and on overshoot take the excess back from the largest frequencies.
    Shared by both kernel modes so tables are byte-identical.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        return np.empty(0, dtype=np.int64)
    if counts.size > MAX_SYMBOLS:
        raise RansError(
            f"{counts.size} distinct symbols exceed the {MAX_SYMBOLS}-slot "
            "rANS probability table"
        )
    if (counts <= 0).any():
        raise RansError("every symbol frequency must be positive")
    total = int(counts.sum())
    scaled = np.maximum(1, counts * PROB_SCALE // total)
    diff = PROB_SCALE - int(scaled.sum())
    if diff > 0:
        # floor rounding loses < 1 slot per symbol, so diff < n_symbols
        remainders = counts * PROB_SCALE - scaled * total
        order = np.argsort(-remainders, kind="stable")
        scaled[order[:diff]] += 1
    elif diff < 0:
        need = -diff
        for i in np.argsort(-scaled, kind="stable"):
            if need == 0:
                break
            give = min(need, int(scaled[i]) - 1)
            scaled[i] -= give
            need -= give
        if need:  # pragma: no cover - impossible while n <= 4096
            raise RansError("cannot normalize frequency table to 4096")
    return scaled


@dataclass(frozen=True)
class RansTable:
    """A normalized (symbol, frequency) table: the shipped model.

    ``symbols`` is strictly increasing int64, ``freqs`` the matching
    frequencies with ``sum == 4096`` (both empty only for an empty
    stream).
    """

    symbols: np.ndarray
    freqs: np.ndarray

    @classmethod
    def from_counts(cls, values: np.ndarray, counts: np.ndarray) -> "RansTable":
        """Build the table from a ``symbol_histogram``-style pair."""
        values = np.asarray(values, dtype=np.int64)
        if values.size and (np.diff(values) <= 0).any():
            raise RansError("histogram values must be strictly increasing")
        if values.size and (
            int(values[0]) < 0 or int(values[-1]) >= 1 << 32
        ):
            raise RansError("rANS symbols must fit an unsigned 32-bit slot")
        return cls(symbols=values, freqs=normalize_freqs(counts))

    def cum(self) -> np.ndarray:
        """Exclusive prefix sum of the frequencies."""
        out = np.zeros(self.freqs.size, dtype=np.int64)
        np.cumsum(self.freqs[:-1], out=out[1:])
        return out

    def slot_map(self) -> np.ndarray:
        """slot (0..4095) -> symbol index; total freq 4096 covers it."""
        return np.repeat(
            np.arange(self.symbols.size, dtype=np.int64), self.freqs
        )

    def to_bytes(self) -> bytes:
        return (
            _TABLE_MAGIC
            + struct.pack("<I", self.symbols.size)
            + self.symbols.astype("<u4").tobytes()
            + self.freqs.astype("<u2").tobytes()
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "RansTable":
        if len(blob) < 8 or blob[:4] != _TABLE_MAGIC:
            raise RansError("bad rANS table magic")
        n = struct.unpack_from("<I", blob, 4)[0]
        if n > MAX_SYMBOLS:
            raise RansError(f"rANS table declares {n} symbols (max {MAX_SYMBOLS})")
        if len(blob) != 8 + 6 * n:
            raise RansError(
                f"rANS table holds {len(blob)} bytes, needs {8 + 6 * n}"
            )
        symbols = np.frombuffer(blob, dtype="<u4", count=n, offset=8).astype(
            np.int64
        )
        freqs = np.frombuffer(
            blob, dtype="<u2", count=n, offset=8 + 4 * n
        ).astype(np.int64)
        if n:
            if (np.diff(symbols) <= 0).any():
                raise RansError("rANS table symbols not strictly increasing")
            if (freqs < 1).any():
                raise RansError("rANS table carries a zero frequency")
            if int(freqs.sum()) != PROB_SCALE:
                raise RansError(
                    f"rANS table frequencies total {int(freqs.sum())}, "
                    f"expected {PROB_SCALE}"
                )
        return cls(symbols=symbols, freqs=freqs)


def pick_lanes(m: int) -> int:
    """Deterministic lane count for an ``m``-token stream."""
    return max(1, min(_MAX_LANES, m // _LANE_TOKENS))


# -- kernel twins -------------------------------------------------------


def _encode_reference(
    idx: np.ndarray, freqs: np.ndarray, cum: np.ndarray, n_lanes: int
) -> tuple[np.ndarray, bytes]:
    """Scalar interleaved encode: steps last-to-first, lanes high-to-low."""
    states = [RANS_L] * n_lanes
    out = bytearray()
    m = idx.size
    n_steps = -(-m // n_lanes)
    for step in range(n_steps - 1, -1, -1):
        base = step * n_lanes
        hi = min(n_lanes, m - base)
        for lane in range(hi - 1, -1, -1):
            s = int(idx[base + lane])
            f = int(freqs[s])
            c = int(cum[s])
            x = states[lane]
            limit = f << 19
            while x >= limit:
                out.append(x & 0xFF)
                x >>= 8
            states[lane] = ((x // f) << PROB_BITS) + (x % f) + c
    return np.array(states, dtype=np.uint32), bytes(out[::-1])


def _decode_reference(
    stream: bytes,
    states: np.ndarray,
    m: int,
    freqs: np.ndarray,
    cum: np.ndarray,
    slot_map: np.ndarray,
) -> np.ndarray:
    """Scalar interleaved decode, mirroring :func:`_encode_reference`."""
    x = [int(v) for v in states]
    n_lanes = len(x)
    out = np.empty(m, dtype=np.int64)
    pos = 0
    end = len(stream)
    mask = PROB_SCALE - 1
    for t in range(m):
        lane = t % n_lanes
        xi = x[lane]
        slot = xi & mask
        s = int(slot_map[slot])
        xi = int(freqs[s]) * (xi >> PROB_BITS) + slot - int(cum[s])
        while xi < RANS_L:
            if pos >= end:
                raise RansError("rANS byte stream exhausted mid-decode")
            xi = (xi << 8) | stream[pos]
            pos += 1
        x[lane] = xi
        out[t] = s
    if pos != end:
        raise RansError(f"rANS stream carries {end - pos} trailing bytes")
    if any(v != RANS_L for v in x):
        raise RansError("rANS lanes do not terminate at the coder lower bound")
    return out


register_kernel(
    "rans.encode", _encode_reference, fast="repro.kernels.rans_fast:encode_stream"
)
register_kernel(
    "rans.decode", _decode_reference, fast="repro.kernels.rans_fast:decode_stream"
)


# -- host API -----------------------------------------------------------


def _table_indices(tokens: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Each token's index into ``symbols``, or some in-range index whose
    symbol differs from it (the caller's one equality check refuses it).

    Quant codes cluster around the quantizer radius, so the table spans
    a few hundred values: a dense rank table over ``[symbols[0],
    symbols[-1]]`` is one subtraction and one gather per token, where a
    binary search is ~8 times that.  The rank table costs a slot per
    value in the span, so a span longer than the stream (and 64 K) keeps
    the search.
    """
    lo = int(symbols[0])
    span = int(symbols[-1]) - lo + 1
    if not 0 < span <= max(tokens.size, _DENSE_SPAN):
        return np.minimum(np.searchsorted(symbols, tokens), symbols.size - 1)
    slots = tokens - lo if lo else tokens
    # One unsigned test covers both ends: a slot below zero wraps past
    # every valid one.
    if slots.view(np.uint64).max() >= span:
        raise RansError("token stream carries a symbol outside the table")
    rank = np.zeros(span, dtype=np.intp)
    rank[symbols - lo] = np.arange(symbols.size)
    return rank[slots]


def encode_tokens(tokens: np.ndarray, table: RansTable) -> bytes:
    """Encode a token stream against ``table`` into the lane blob."""
    tokens = np.asarray(tokens, dtype=np.int64).reshape(-1)
    m = tokens.size
    if m == 0:
        return struct.pack("<I", 0)
    nsym = table.symbols.size
    if nsym == 0:
        raise RansError("cannot encode tokens against an empty rANS table")
    idx = _table_indices(tokens, table.symbols)
    if (table.symbols[idx] != tokens).any():
        raise RansError("token stream carries a symbol outside the table")
    n_lanes = pick_lanes(m)
    states, stream = resolve("rans.encode")(
        idx, table.freqs, table.cum(), n_lanes
    )
    return (
        struct.pack("<I", n_lanes)
        + np.asarray(states, dtype="<u4").tobytes()
        + stream
    )


def decode_tokens(blob: bytes, table: RansTable, m: int) -> np.ndarray:
    """Decode ``m`` tokens from a lane blob produced by :func:`encode_tokens`."""
    if len(blob) < 4:
        raise RansError("rANS blob shorter than its lane header")
    n_lanes = struct.unpack_from("<I", blob)[0]
    if m == 0:
        if n_lanes != 0 or len(blob) != 4:
            raise RansError("empty token stream carries a non-empty blob")
        return np.empty(0, dtype=np.int64)
    if n_lanes < 1 or n_lanes > _MAX_LANES_DECODE:
        raise RansError(f"implausible rANS lane count {n_lanes}")
    if len(blob) < 4 + 4 * n_lanes:
        raise RansError("rANS blob truncated inside its lane states")
    if table.symbols.size == 0:
        raise RansError("empty rANS table cannot decode a non-empty stream")
    states = np.frombuffer(blob, dtype="<u4", count=n_lanes, offset=4).astype(
        np.int64
    )
    if (states < RANS_L).any() or (states >= 1 << 31).any():
        raise RansError("rANS lane state outside the coder interval")
    stream = blob[4 + 4 * n_lanes:]
    out_idx = resolve("rans.decode")(
        stream, states, m, table.freqs, table.cum(), table.slot_map()
    )
    return table.symbols[out_idx]

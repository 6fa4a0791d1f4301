"""Hash-chain LZ77 matcher.

The parse is greedy with a zlib-style hash-chain match finder: a dict maps
the 3-byte hash at each inserted position to the most recent position, and a
``prev`` array chains older positions with the same hash.  Two effort levels
mirror gzip's ``best_speed`` / ``best_compression``: the fast level walks
short chains and only inserts match-start positions; the thorough level walks
long chains and inserts every position inside matches.

Match extension compares NumPy ``uint8`` views instead of Python bytes so
long matches cost one vector comparison rather than a byte loop (hot-loop
vectorization per the HPC guide).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import LosslessError
from ..kernels.dispatch import register_kernel, resolve

__all__ = ["LZ77Encoder", "TokenStream", "MIN_MATCH", "MAX_MATCH", "WINDOW_SIZE"]

MIN_MATCH = 3
MAX_MATCH = 258
WINDOW_SIZE = 32768


@dataclass(frozen=True)
class TokenStream:
    """Parsed LZ77 stream as structure-of-arrays.

    ``kinds[i] == 0`` marks a literal whose byte value is ``values[i]``;
    ``kinds[i] == 1`` marks a match of length ``values[i]`` at backward
    distance ``dists[i]``.  Kept columnar so the DEFLATE layer can map the
    whole stream to Huffman symbols with vector ops.  Any other kind, a
    literal outside ``0..255`` and a negative match length are refused
    at construction, so every stream expands to exactly
    :meth:`expanded_size` bytes.
    """

    kinds: np.ndarray  # uint8
    values: np.ndarray  # int32: literal byte or match length
    dists: np.ndarray  # int32: match distance (0 for literals)

    def __post_init__(self) -> None:
        if not (self.kinds.shape == self.values.shape == self.dists.shape):
            raise LosslessError("token arrays must have matching shapes")
        if not self.kinds.size:
            return
        if int(self.kinds.max()) > 1 or int(self.kinds.min()) < 0:
            raise LosslessError("token kinds must be 0 (literal) or 1 (match)")
        negative = self.values < 0
        if ((negative | (self.values > 255)) & (self.kinds == 0)).any():
            raise LosslessError("literal values must be bytes (0..255)")
        if negative.any():
            raise LosslessError("match lengths must be non-negative")

    @property
    def n_tokens(self) -> int:
        return self.kinds.size

    def expanded_size(self) -> int:
        """Number of bytes this stream reconstructs to."""
        lit = int((self.kinds == 0).sum())
        mat = int(self.values[self.kinds == 1].sum())
        return lit + mat

    def reconstruct(self) -> bytes:
        """Inverse of the parse: expand tokens back to the original bytes.

        Every literal lands in place in one ``np.repeat`` (each token
        repeated by the bytes it expands to; the bytes under a match are
        overwritten below) and the matches' output offsets come from one
        ``cumsum`` over their lengths.  Python loops over the matches only,
        in stream order, so a match may copy what an earlier one wrote.
        """
        values = self.values
        m_tok = np.flatnonzero(self.kinds)
        m_len = values[m_tok]
        m_dist = self.dists[m_tok]
        size = np.ones(values.size, dtype=np.int64)
        size[m_tok] = m_len
        out = bytearray(np.repeat(values.astype(np.uint8), size))
        # A match starts at its token index plus the bytes the matches
        # before it expand to beyond their own token.
        m_at = np.cumsum(m_len, dtype=np.int64)
        m_at -= m_len
        m_at += m_tok
        m_at -= np.arange(m_tok.size)
        bad = (m_dist <= 0) | (m_dist > m_at)
        if bad.any():
            k = int(bad.argmax())
            raise LosslessError(
                f"invalid match distance {int(m_dist[k])} at offset {int(m_at[k])}"
            )
        for pos, length, dist in zip(m_at.tolist(), m_len.tolist(), m_dist.tolist()):
            src = pos - dist
            if dist >= length:
                out[pos : pos + length] = out[src : src + length]
            else:  # overlapping copy: replicate the dist-byte period
                out[pos : pos + length] = (out[src:pos] * -(-length // dist))[:length]
        return bytes(out)


class LZ77Encoder:
    """Greedy hash-chain LZ77 parser.

    Parameters mirror zlib: ``max_chain`` bounds match-finder effort,
    ``good_len`` stops the chain walk early once a long-enough match is in
    hand, ``insert_all`` controls whether positions inside matches enter the
    hash chains (zlib level-1 skips them).
    """

    def __init__(
        self,
        *,
        window: int = WINDOW_SIZE,
        max_chain: int = 32,
        good_len: int = 32,
        insert_all: bool = True,
    ) -> None:
        if window <= 0 or window > WINDOW_SIZE:
            raise LosslessError(f"window must be in (0, {WINDOW_SIZE}]")
        if max_chain < 1:
            raise LosslessError("max_chain must be >= 1")
        self.window = window
        self.max_chain = max_chain
        self.good_len = good_len
        self.insert_all = insert_all

    @classmethod
    def best_speed(cls) -> "LZ77Encoder":
        """gzip ``--fast``-like effort (the SZ-1.4 default mode)."""
        return cls(max_chain=4, good_len=8, insert_all=False)

    @classmethod
    def best_compression(cls) -> "LZ77Encoder":
        """gzip ``--best``-like effort."""
        return cls(max_chain=128, good_len=64, insert_all=True)

    def parse(self, data: bytes) -> TokenStream:
        """Greedy-parse ``data`` into an LZ77 token stream.

        Dispatches through the ``lz77.parse`` kernel: the flat-array
        fast path (:mod:`repro.kernels.lz77_fast`) emits a
        token-identical stream for every input and parameter set.
        """
        n = len(data)
        empty = np.empty(0, dtype=np.int32)
        if n == 0:
            return TokenStream(empty.astype(np.uint8), empty, empty)
        buf = np.frombuffer(data, dtype=np.uint8)
        if n < MIN_MATCH + 1:
            kinds = np.zeros(n, dtype=np.uint8)
            return TokenStream(kinds, buf.astype(np.int32), np.zeros(n, np.int32))
        return resolve("lz77.parse")(self, data)


def _parse_reference(encoder: LZ77Encoder, data: bytes) -> TokenStream:
    """Dict/list hash-chain parse loop — the ``lz77.parse`` reference."""
    n = len(data)
    buf = np.frombuffer(data, dtype=np.uint8)

    # 3-byte rolling hash at every position (vectorized precompute).
    # Materialized as Python lists: the parse loop below does scalar
    # indexing, which is ~4x faster on lists than on NumPy arrays.
    h = (
        (buf[:-2].astype(np.int64) << 10)
        ^ (buf[1:-1].astype(np.int64) << 5)
        ^ buf[2:].astype(np.int64)
    ).tolist()
    head: dict[int, int] = {}
    prev = [-1] * n

    kinds_out: list[int] = []
    values_out: list[int] = []
    dists_out: list[int] = []
    append_k = kinds_out.append
    append_v = values_out.append
    append_d = dists_out.append

    window = encoder.window
    max_chain = encoder.max_chain
    good_len = encoder.good_len
    insert_all = encoder.insert_all
    hash_limit = n - 2  # last position with a full 3-byte hash

    def match_len(cand: int, pos: int, limit: int) -> int:
        a = buf[cand : cand + limit]
        b = buf[pos : pos + limit]
        neq = a != b
        first = int(neq.argmax())
        return limit if not neq[first] else first

    i = 0
    while i < n:
        best_len = 0
        best_dist = 0
        if i < hash_limit:
            hv = h[i]
            cand = head.get(hv, -1)
            limit = min(MAX_MATCH, n - i)
            chain = 0
            while cand >= 0 and i - cand <= window and chain < max_chain:
                ml = match_len(cand, i, limit)
                if ml > best_len:
                    best_len = ml
                    best_dist = i - cand
                    if ml >= good_len or ml == limit:
                        break
                cand = prev[cand]
                chain += 1
            # Insert current position into its chain.
            prev[i] = head.get(hv, -1)
            head[hv] = i
        if best_len >= MIN_MATCH:
            append_k(1)
            append_v(best_len)
            append_d(best_dist)
            if insert_all:
                stop = min(i + best_len, hash_limit)
                get = head.get
                for j in range(i + 1, stop):
                    hj = h[j]
                    prev[j] = get(hj, -1)
                    head[hj] = j
            i += best_len
        else:
            append_k(0)
            append_v(int(buf[i]))
            append_d(0)
            i += 1

    return TokenStream(
        np.array(kinds_out, dtype=np.uint8),
        np.array(values_out, dtype=np.int32),
        np.array(dists_out, dtype=np.int32),
    )


register_kernel(
    "lz77.parse",
    _parse_reference,
    fast="repro.kernels.lz77_fast:parse_tokens",
)

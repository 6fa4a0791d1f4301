"""Flat-array LZ77 parse — the ``lz77.parse`` fast kernel.

Same greedy hash-chain semantics as ``LZ77Encoder.parse`` (identical
token stream for every input and parameter set), with the per-position
costs stripped out of the Python loop:

* **Implicit literals.**  The loop records only matches; literal tokens
  are the uncovered positions, recovered afterwards with one
  ``bincount``/``cumsum`` coverage pass and merged into token order with
  two ``searchsorted`` scatters.  For data that barely matches (the
  worst case for an LZ parser) the loop body is just the hash-chain
  bookkeeping.
* **Word-compare match extension.**  A candidate is extended by XOR-ing
  the two windows as big-endian integers: the highest set bit of the
  XOR names the first differing byte, so one ``int.from_bytes`` pair
  replaces the NumPy slice compare and its argmax.  A one-byte quick
  reject (``data[cand + best_len] != data[i + best_len]`` implies the
  candidate cannot beat the current best) skips most extensions
  entirely, exactly preserving the greedy choice.
* **Static chains, candidate positions only.**  Every position a parse
  can insert enters its hash chain once, in increasing order — so the
  mutable head/prev structure collapses into a static ``prev_same``
  array ("previous position with my hash"), computed wholesale with a
  two-pass radix argsort.  A position whose ``prev_same`` is missing or
  outside the window can never see a candidate, so the loop iterates
  over the others only.  The fast level (``insert_all=False``) never
  inserts positions inside a match: those are flagged in a ``bytearray``
  and the chain walk steps over them without spending ``max_chain``,
  which is exactly the chain the reference would have built.
"""

from __future__ import annotations

import numpy as np

__all__ = ["parse_tokens"]


def _hash_all(buf: np.ndarray) -> np.ndarray:
    """The reference 3-byte rolling hash at every position (int64)."""
    return (
        (buf[:-2].astype(np.int64) << 10)
        ^ (buf[1:-1].astype(np.int64) << 5)
        ^ buf[2:].astype(np.int64)
    )


def _prev_same(h: np.ndarray) -> np.ndarray:
    """For each position, the nearest earlier position with the same hash.

    Stable-sorts positions by hash value — two radix passes (uint16 low
    bits, then the two high bits as uint8) keep it O(n) where a direct
    int64 argsort would fall back to comparison sorting — then links
    neighbours within each equal-hash run.
    """
    low = (h & 0xFFFF).astype(np.uint16)
    o1 = np.argsort(low, kind="stable")
    hi2 = (h >> 16).astype(np.uint8)[o1]
    order = o1[np.argsort(hi2, kind="stable")]
    sh = h[order]
    prev = np.full(h.size, -1, dtype=np.int64)
    same = sh[1:] == sh[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def parse_tokens(encoder, data: bytes):
    """Greedy-parse ``data``; token-identical to the reference parse.

    The host has already handled the empty and too-short-to-match cases.
    """
    from ..lossless.lz77 import MAX_MATCH, MIN_MATCH, TokenStream

    n = len(data)
    buf = np.frombuffer(data, dtype=np.uint8)
    window = encoder.window
    max_chain = encoder.max_chain
    good_len = encoder.good_len
    insert_all = encoder.insert_all
    hash_limit = n - 2

    prev = _prev_same(_hash_all(buf))
    at = np.arange(hash_limit, dtype=np.int64)
    starts = np.flatnonzero((prev >= 0) & (at - prev <= window)).tolist()
    prev_s = prev.tolist()
    # Positions inside a match, which the fast level keeps out of the chains.
    swallowed = bytearray(hash_limit)
    ones = b"\x01" * MAX_MATCH

    match_pos: list[int] = []
    match_len: list[int] = []
    match_dist: list[int] = []
    add_pos = match_pos.append
    add_len = match_len.append
    add_dist = match_dist.append

    nxt = 0  # first position no match has covered yet
    for i in starts:
        if i < nxt:
            continue
        cand = prev_s[i]
        best_len = 0
        best_dist = 0
        limit = MAX_MATCH if n - i > MAX_MATCH else n - i
        target = None
        chain = max_chain
        lo = i - window
        if lo < 0:
            lo = 0
        while cand >= lo and chain:
            if swallowed[cand]:
                cand = prev_s[cand]
                continue
            # Quick reject: a candidate that differs at best_len
            # cannot produce a strictly longer match.
            if data[cand + best_len] == data[i + best_len]:
                if target is None:
                    target = int.from_bytes(data[i : i + limit], "big")
                x = target ^ int.from_bytes(data[cand : cand + limit], "big")
                ml = limit if x == 0 else limit - ((x.bit_length() + 7) >> 3)
                if ml > best_len:
                    best_len = ml
                    best_dist = i - cand
                    if ml >= good_len or ml == limit:
                        break
            cand = prev_s[cand]
            chain -= 1
        if best_len >= MIN_MATCH:
            add_pos(i)
            add_len(best_len)
            add_dist(best_dist)
            nxt = i + best_len
            if not insert_all:
                stop = nxt if nxt < hash_limit else hash_limit
                swallowed[i + 1 : stop] = ones[: stop - i - 1]

    nm = len(match_pos)
    if nm == 0:
        return TokenStream(
            np.zeros(n, dtype=np.uint8),
            buf.astype(np.int32),
            np.zeros(n, dtype=np.int32),
        )

    mp = np.array(match_pos, dtype=np.int64)
    ml_arr = np.array(match_len, dtype=np.int64)
    md = np.array(match_dist, dtype=np.int64)
    # Literals are the positions no match covers.
    delta = np.bincount(mp, minlength=n + 1) - np.bincount(
        mp + ml_arr, minlength=n + 1
    )
    covered = np.cumsum(delta[:n]) > 0
    lit_pos = np.flatnonzero(~covered)
    nl = lit_pos.size

    # Merge into position order: both lists are sorted, so each token's
    # final index is its own rank plus the other kind's count before it.
    nt = nm + nl
    at_m = np.searchsorted(lit_pos, mp) + np.arange(nm)
    at_l = np.searchsorted(mp, lit_pos) + np.arange(nl)
    kinds = np.zeros(nt, dtype=np.uint8)
    kinds[at_m] = 1
    values = np.empty(nt, dtype=np.int32)
    values[at_l] = buf[lit_pos]
    values[at_m] = ml_arr
    dists = np.zeros(nt, dtype=np.int32)
    dists[at_m] = md
    return TokenStream(kinds, values, dists)

"""Flat-array LZ77 parse — the ``lz77.parse`` fast kernel.

Same greedy hash-chain semantics as ``LZ77Encoder.parse`` (identical
token stream for every input and parameter set).  The parse is greedy and
sequential — whether a chain entry counts depends on the matches emitted
before it — so the kernel computes wholesale everything that is a pure
function of the bytes and leaves the Python loop only the positions where
a match can start:

* **Static chains.**  Every position a parse can insert enters its hash
  chain once, in increasing order, so the mutable head/prev structure
  collapses into a static ``prev`` array ("previous position with my
  hash"), linked from one stable sort of the positions by hash (two radix
  passes).  The fast level (``insert_all=False``) never inserts positions
  inside a match: those are flagged *swallowed* and stepped over without
  spending ``max_chain`` — exactly the chain the reference would have
  built — and the first walk to cross a swallowed run unlinks it for good.
* **Exact starts.**  A match needs three equal bytes; a hash-chain
  neighbour is only a candidate for that.  A position without an equal
  trigram earlier in the window emits a literal and changes no state, so
  the loop visits only the others.  Inside a run of equal hashes the
  middle byte separates the colliding trigrams, so one more radix pass,
  over just the positions that have a chain neighbour at all, finds them
  exactly.
* **Probe, then compare.**  A candidate is extended by XOR-ing the two
  windows as big-endian integers: the highest set bit of the XOR names
  the first differing byte.  Most candidates differ within 8 bytes, so
  those 8 are compared first and the two ``MAX_MATCH``-byte integers are
  built only for the rest.  A one-byte quick reject (``data[cand +
  best_len] != data[i + best_len]`` implies the candidate cannot beat the
  current best) skips most extensions entirely, exactly preserving the
  greedy choice.
* **Implicit literals.**  The loop records only matches; literal tokens
  are the uncovered positions, placed with one cumulative sum over the
  match lengths.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice

import numpy as np

__all__ = ["parse_tokens"]

# A swallowed chain entry this deep inside its match is left by one
# ``bytes.find`` instead of link by link (a find costs about eight links),
# and the starts a match this long covers are dropped by bisection instead
# of one by one (two bisections cost about sixteen ``continue``s).
_FIND_FROM = 16
_JUMP_FROM = 32


def _chains(buf: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Static hash chains and the exact starts of ``buf``.

    Returns ``(prev, starts)``: the previous position with the same
    3-byte hash (-1 for none) at every hashed position, and the positions
    that have an equal trigram at most ``window`` back, ascending.
    """
    b = buf.astype(np.int32)
    h = (b[:-2] << 10) ^ (b[1:-1] << 5) ^ b[2:]  # the reference hash
    tri = (b[:-2] << 16) | (b[1:-1] << 8) | b[2:]
    index = np.int32 if buf.size < 2**31 else np.int64
    # Stable (hash, position) order in two radix passes: 16-bit keys keep
    # each argsort O(n) where a direct 32-bit one would compare.
    o1 = np.argsort(h.astype(np.uint16), kind="stable").astype(index)
    order = o1[np.argsort((h >> 16).astype(np.uint8)[o1], kind="stable")]
    sh = h[order]
    same = sh[1:] == sh[:-1]
    prev = np.empty(h.size, dtype=index)
    prev[order[0]] = -1
    prev[order[1:]] = np.where(same, order[:-1], -1)

    # Among positions with a chain neighbour, a stable pass by middle byte
    # leaves equal trigrams adjacent and in position order: the hash and
    # the middle byte determine the other two.
    linked = np.zeros(h.size, dtype=bool)
    linked[1:] = same
    linked[:-1] |= same
    pos = order[linked]
    pos = pos[np.argsort(buf[pos + 1], kind="stable")]
    t = tri[pos]
    exact = t[1:] == t[:-1]
    exact &= pos[1:] - pos[:-1] <= window
    is_start = np.zeros(h.size, dtype=bool)
    is_start[pos[1:][exact]] = True
    return prev, np.flatnonzero(is_start)


def parse_tokens(encoder, data: bytes):
    """Greedy-parse ``data``; token-identical to the reference parse.

    The host has already handled the empty and too-short-to-match cases.
    """
    return _parse(encoder, data)[0]


def _parse(encoder, data: bytes):
    """:func:`parse_tokens` plus its work counts (what the tests bound)."""
    from ..lossless.lz77 import MAX_MATCH, MIN_MATCH, TokenStream

    n = len(data)
    buf = np.frombuffer(data, dtype=np.uint8)
    window = encoder.window
    max_chain = encoder.max_chain
    good_len = encoder.good_len
    insert_all = encoder.insert_all
    hash_limit = n - 2

    prev, starts = _chains(buf, window)
    link = memoryview(prev)  # scalar reads and splices without a tolist
    # Positions inside a match, which the fast level keeps out of the
    # chains: each holds its distance back to the match start, capped at
    # 255 — from the last two bytes of a maximal match a walk lands on
    # another swallowed position and looks again.
    swallowed = bytearray(hash_limit)
    ramp = bytes(range(256)) + b"\xff" * (MAX_MATCH - 256)
    from_bytes = int.from_bytes

    match_pos: list[int] = []
    match_len: list[int] = []
    match_dist: list[int] = []
    add_pos = match_pos.append
    add_len = match_len.append
    add_dist = match_dist.append

    walks = 0
    skipped = 0  # swallowed chain entries stepped over, each at most once
    nxt = 0  # first position no match has covered yet
    start_at = starts.tolist()
    pending = iter(start_at)
    for i in pending:
        if i < nxt:
            continue
        walks += 1
        limit = MAX_MATCH if n - i > MAX_MATCH else n - i
        probe = 8 if limit > 8 else limit
        best_len = 0
        best_dist = 0
        head = None
        target = None
        chain = max_chain
        lo = i - window
        if lo < 0:
            lo = 0
        kept = i  # last entry walked that is not swallowed
        cand = link[i]
        while cand >= lo and chain:
            back = swallowed[cand]
            if back:
                # Every chain entry from here down to ``floor`` (exclusive)
                # lies inside the same match and is swallowed with it.
                # Deep inside a long match, jump to the lowest one holding
                # this trigram — a long run costs one ``find`` — then step
                # down over whatever else shares the chain.
                floor = cand - back
                if back >= _FIND_FROM:
                    lowest = data.find(data[i : i + 3], floor, cand + 2)
                    if lowest >= 0:
                        cand = lowest
                        skipped += 1
                while cand > floor:
                    cand = link[cand]
                    skipped += 1
                # Swallowed stays swallowed: unlink the run, so no later
                # walk crosses it again.
                link[kept] = cand
                continue
            # Quick reject: a candidate that differs at best_len
            # cannot produce a strictly longer match.
            if data[cand + best_len] == data[i + best_len]:
                if head is None:
                    head = from_bytes(data[i : i + probe], "big")
                x = head ^ from_bytes(data[cand : cand + probe], "big")
                if x:
                    ml = probe - ((x.bit_length() + 7) >> 3)
                elif probe == limit:
                    ml = limit
                else:
                    if target is None:
                        target = from_bytes(data[i : i + limit], "big")
                    x = target ^ from_bytes(data[cand : cand + limit], "big")
                    ml = limit if x == 0 else limit - ((x.bit_length() + 7) >> 3)
                if ml > best_len:
                    best_len = ml
                    best_dist = i - cand
                    if ml >= good_len or ml == limit:
                        break
            kept = cand
            cand = link[cand]
            chain -= 1
        if best_len >= MIN_MATCH:
            add_pos(i)
            add_len(best_len)
            add_dist(best_dist)
            nxt = i + best_len
            if not insert_all:
                stop = nxt if nxt < hash_limit else hash_limit
                swallowed[i + 1 : stop] = ramp[1 : stop - i]
            if best_len >= _JUMP_FROM:
                # Drop the starts a long match covers in one go: in a run
                # every byte is one, and a ``continue`` each adds up.
                k = bisect_left(start_at, i)
                covered = bisect_left(start_at, nxt, k) - k - 1
                next(islice(pending, covered, covered), None)
    counts = {"starts": starts.size, "walks": walks, "skipped": skipped}

    nm = len(match_pos)
    if nm == 0:
        tokens = TokenStream(
            np.zeros(n, dtype=np.uint8),
            buf.astype(np.int32),
            np.zeros(n, dtype=np.int32),
        )
        return tokens, counts

    mp = np.array(match_pos, dtype=np.int64)
    extra = np.array(match_len, dtype=np.int64)
    extra -= 1  # bytes a match hides beyond its own token
    hidden = np.cumsum(extra)
    at_m = mp - hidden + extra  # token index of each match
    nt = n - int(hidden[-1])
    # Token -> source position: every token after a match sits that
    # match's hidden bytes further on; a literal reads its byte there.
    shift = np.zeros(nt + 1, dtype=np.int64)
    shift[at_m + 1] = extra
    src = np.cumsum(shift[:nt])
    src += np.arange(nt)
    values = buf[src].astype(np.int32)
    values[at_m] = match_len
    kinds = np.zeros(nt, dtype=np.uint8)
    kinds[at_m] = 1
    dists = np.zeros(nt, dtype=np.int32)
    dists[at_m] = match_dist
    return TokenStream(kinds, values, dists), counts

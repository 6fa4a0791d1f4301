"""Vectorized fast twins of the rANS and RLE kernels.

Byte-identical to the scalar references in :mod:`repro.rans.coder` and
:mod:`repro.rans.rle` (the differential suites in
``tests/unit/test_rans.py`` / ``tests/property/test_prop_rans.py``
enforce it), same :class:`~repro.errors.RansError` taxonomy on damage.

The lane interleaving was designed for these loops: the reference
encoder walks steps last-to-first emitting at most two renorm bytes per
lane, and after the decode transform the number of bytes a lane needs
is a pure function of its state (``0`` if ``x >= 2^23``, ``1`` if
``x >= 2^15``, else ``2``).  So each step vectorizes across all lanes:

* **encode** — frequencies, offsets and renorm limits are gathered
  once into step-major ``(steps, lanes)`` matrices; the step loop only
  advances the states, keeping every one; which lanes emitted is read
  off the kept states after the loop, and the stream is one masked
  ravel of ``(steps, lanes, 2)`` byte/flag matrices (the reference's
  reversed flat buffer read in forward order).
* **decode** — per-slot frequency and ``slot - cum`` tables are built
  once, so a step's transform is a mask, two gathers, a shift, a
  multiply and an add; each step writes its slots into its row of the
  output, and one gather through the slot map turns them all into
  symbols after the loop.  The byte need is one clipped lookup on
  ``x >> 15``; one ``add.accumulate`` over ``[pos, need...]`` gives
  each lane's first byte and the step's end; a lane's one or two bytes
  are one gather from a word-per-byte array of the stream, merged as
  ``(x << 16 | word) >> (16 - 8 * need)``.  That is 14 NumPy calls on
  int64 scratch allocated once, plus a scalar store and read, where
  the step used to make 24 (``docs/PERF.md``, "The small read").
"""

from __future__ import annotations

import numpy as np

from ..errors import RansError
from ..rans.coder import PROB_BITS, PROB_SCALE, RANS_L
from ..rans.rle import RUN_MAX

__all__ = ["encode_stream", "decode_stream", "collapse_runs", "expand_runs"]


def encode_stream(
    idx: np.ndarray, freqs: np.ndarray, cum: np.ndarray, n_lanes: int
) -> tuple[np.ndarray, bytes]:
    """Interleaved rANS encode, vectorized across lanes per step."""
    m = idx.size
    n_steps = -(-m // n_lanes)
    # Everything that does not depend on the lane states is computed
    # once, step-major.  The tail of the last step is padded with a
    # whole-scale symbol (f = 2^12, cum = 0): it never renormalizes and
    # its transform is the identity, so idle lanes need no slicing.
    f = np.full((n_steps, n_lanes), PROB_SCALE, dtype=np.uint32)
    c = np.zeros((n_steps, n_lanes), dtype=np.uint32)
    f.reshape(-1)[:m] = freqs[idx]
    c.reshape(-1)[:m] = cum[idx]
    # A lane emits one byte when x >= f << 19 and a second when the
    # shifted state still is, i.e. x >= f << 27 (never a third).  From
    # f = 16 up that limit is 2^31, above every state, so it clamps
    # there and stays in uint32.
    limit = f << np.uint32(19)
    limit2 = np.minimum(f, 16) << np.uint32(27)
    # The transform (x // f) << 12 | x % f, plus c, is x + (x // f) *
    # (2^12 - f) + c: one floor_divide into scratch instead of divmod's
    # two fresh outputs.  After renorm x < f << 19, so the product stays
    # below 2^31.
    g = np.uint32(PROB_SCALE) - f
    # Row s + 1 is the state step s starts from, row s the one it
    # leaves, so every pre-renorm state survives the loop and the emit
    # flags and the byte stream are cut out of them afterwards.  Every
    # op in the loop runs on one dtype into scratch allocated here: a
    # mixed-dtype op or a Python-int operand costs a cast per step.
    x = np.empty((n_steps + 1, n_lanes), dtype=np.uint32)
    x[n_steps] = RANS_L
    ge1, ge2 = np.empty((2, n_lanes), dtype=bool)
    ge1_u8, ge2_u8 = ge1.view(np.uint8), ge2.view(np.uint8)
    shift = np.empty(n_lanes, dtype=np.uint8)
    three = np.full(n_lanes, 3, dtype=np.uint8)
    xs = np.empty(n_lanes, dtype=np.uint32)
    q = np.empty(n_lanes, dtype=np.uint32)
    # Row views are taken up front, last step first: a row index per
    # operand per step costs as much as one of the ops.
    for x_in, x_out, lim, lim2, fs, gs, cs in zip(
        *(list(a[::-1]) for a in (x[1:], x[:-1], limit, limit2, f, g, c))
    ):
        np.greater_equal(x_in, lim, out=ge1)
        np.greater_equal(x_in, lim2, out=ge2)
        np.add(ge1_u8, ge2_u8, out=shift)
        np.left_shift(shift, three, out=shift)
        np.right_shift(x_in, shift, out=xs)
        np.floor_divide(xs, fs, out=q)
        np.multiply(q, gs, out=q)
        np.add(xs, q, out=xs)
        np.add(xs, cs, out=x_out)
    emit = np.empty((n_steps, n_lanes, 2), dtype=bool)
    np.greater_equal(x[1:], limit, out=emit[:, :, 1])
    np.greater_equal(x[1:], limit2, out=emit[:, :, 0])
    # The reference appends steps last-to-first, lanes high-to-low, low
    # byte first, then reverses the buffer: steps first-to-last, lanes
    # low-to-high, second byte before first -- each state's low 16 bits
    # big-endian, in C order, under the mask.
    low16 = x[1:].astype(">u2").view(np.uint8).reshape(-1)
    return x[0], low16[np.flatnonzero(emit)].tobytes()


# Bytes a lane needs after the decode transform, indexed by x >> 15 and
# read with mode="clip": 2 below 2^15 (index 0), 1 below RANS_L (1..255),
# 0 from RANS_L up (every index >= 256 clips to the last entry).
_NEED = np.ones((RANS_L >> 15) + 1, dtype=np.int64)
_NEED[0] = 2
_NEED[-1] = 0
# Bits of the 16-bit word read at a lane's first byte that it does not
# take: 16 - 8 * need, under the same index.
_DROP = 16 - 8 * _NEED


def decode_stream(
    stream: bytes,
    states: np.ndarray,
    m: int,
    freqs: np.ndarray,
    cum: np.ndarray,
    slot_map: np.ndarray,
) -> np.ndarray:
    """Interleaved rANS decode, vectorized across lanes per step.

    ``states`` must lie in the coder interval ``[RANS_L, 2^31)``
    (:func:`repro.rans.coder.decode_tokens` checks it): then no lane
    ever needs more than two bytes in a step.
    """
    total_bytes = len(stream)
    # words[k] is the big-endian 16-bit word starting at stream byte k,
    # zero past the end: a lane's one or two bytes in a single gather.
    data = np.frombuffer(stream, dtype=np.uint8)
    words = np.zeros(total_bytes + 1, dtype=np.int64)
    words[:total_bytes] = data
    words <<= 8
    words[: total_bytes - 1] |= data[1:]
    slot_map = np.asarray(slot_map, dtype=np.int64)
    slot_freq = np.asarray(freqs, dtype=np.int64)[slot_map]
    slot_bias = np.arange(PROB_SCALE, dtype=np.int64)
    slot_bias -= np.asarray(cum, dtype=np.int64)[slot_map]
    lanes = states.astype(np.int64, copy=True)
    n_lanes = lanes.size
    # Every op in the loop is int64 into scratch allocated here, with
    # array operands: a NumPy scalar operand costs a conversion per call,
    # a Python int more.  The constants are full rows for that reason.
    scratch = np.empty((8, n_lanes), dtype=np.int64)
    scratch[4:] = [[PROB_SCALE - 1], [PROB_BITS], [15], [16]]
    # at_full[0] holds the stream position, the lanes' needs follow: one
    # accumulate gives each lane's first byte and, last, the step's end.
    at_full = np.zeros(n_lanes + 1, dtype=np.int64)
    need, first = at_full[1:], at_full[:-1]
    accumulate = np.add.accumulate
    out = np.empty(m, dtype=np.int64)
    # Each step writes its slots (x & 4095) into its row of out; one
    # gather through slot_map turns them into symbols after the loop.
    rows = [out[base : base + n_lanes] for base in range(0, m, n_lanes)]
    x, f, hi, word, drop, mask, twelve, fifteen, sixteen = lanes, *scratch
    pos = 0
    for slots in rows:
        if slots.size < n_lanes:  # the last step: only its first lanes decode
            k = slots.size
            x, f, hi, word, drop, mask, twelve, fifteen, sixteen = (
                a[:k] for a in (x, f, hi, word, drop, mask, twelve, fifteen, sixteen)
            )
            at_full = at_full[: k + 1]
            need, first = at_full[1:], at_full[:-1]
        np.bitwise_and(x, mask, out=slots)
        slot_freq.take(slots, out=f, mode="clip")
        np.right_shift(x, twelve, out=x)
        np.multiply(x, f, out=x)
        slot_bias.take(slots, out=f, mode="clip")
        np.add(x, f, out=x)
        np.right_shift(x, fifteen, out=hi)
        _NEED.take(hi, out=need, mode="clip")
        at_full[0] = pos
        accumulate(at_full, out=at_full)
        end = at_full.item(-1)
        if end == pos:
            continue
        if end > total_bytes:
            raise RansError("rANS byte stream exhausted mid-decode")
        # x << 16 | word takes both candidate bytes; shifting the ones a
        # lane does not need back out leaves x << 8 * need | its bytes.
        words.take(first, out=word, mode="clip")
        _DROP.take(hi, out=drop, mode="clip")
        np.left_shift(x, sixteen, out=x)
        np.bitwise_or(x, word, out=x)
        np.right_shift(x, drop, out=x)
        pos = end
    if pos != total_bytes:
        raise RansError(
            f"rANS stream carries {total_bytes - pos} trailing bytes"
        )
    if (lanes != RANS_L).any():
        raise RansError("rANS lanes do not terminate at the coder lower bound")
    return slot_map.take(out, out=out, mode="clip")


def collapse_runs(
    codes: np.ndarray, run_symbol: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized zero-run collapse (maximal runs chunked to <= 255)."""
    mask = codes == run_symbol
    if not mask.any():
        return codes.astype(np.int64, copy=True), np.empty(0, dtype=np.uint8)
    idx = np.flatnonzero(mask)
    brk = np.flatnonzero(np.diff(idx) > 1)
    starts = idx[np.concatenate(([0], brk + 1))]
    ends = idx[np.concatenate((brk, [idx.size - 1]))]
    lens = ends - starts + 1
    n_chunks = (lens + RUN_MAX - 1) // RUN_MAX
    total_chunks = int(n_chunks.sum())
    runs = np.full(total_chunks, RUN_MAX, dtype=np.uint8)
    runs[np.cumsum(n_chunks) - 1] = (
        lens - RUN_MAX * (n_chunks - 1)
    ).astype(np.uint8)
    # token index of each run's first chunk: literals before the run
    # (its start minus the run-symbol occurrences before it) plus the
    # chunks of earlier runs
    excl_occ = np.concatenate(([0], np.cumsum(lens)[:-1]))
    excl_chunks = np.concatenate(([0], np.cumsum(n_chunks)[:-1]))
    start_tok = (starts - excl_occ) + excl_chunks
    offs = np.arange(total_chunks) - np.repeat(excl_chunks, n_chunks)
    run_pos = np.repeat(start_tok, n_chunks) + offs
    m = (codes.size - idx.size) + total_chunks
    tokens = np.empty(m, dtype=np.int64)
    lit = np.ones(m, dtype=bool)
    lit[run_pos] = False
    tokens[run_pos] = run_symbol
    tokens[lit] = codes[~mask]
    return tokens, runs


def expand_runs(
    tokens: np.ndarray, runs: np.ndarray, run_symbol: int
) -> np.ndarray:
    """Vectorized zero-run expand: per-token repeat counts."""
    is_run = tokens == run_symbol
    n_run = int(is_run.sum())
    if n_run != runs.size:
        raise RansError(
            f"RLE side stream carries {runs.size} lengths for "
            f"{n_run} run tokens"
        )
    if runs.size == 0:
        return tokens.astype(np.int64, copy=True)
    if (runs == 0).any():
        raise RansError("zero-length run in the RLE side stream")
    counts = np.ones(tokens.size, dtype=np.int64)
    counts[is_run] = runs
    return np.repeat(tokens, counts)

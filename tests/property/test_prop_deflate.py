"""Property tests: the DEFLATE substrate is lossless on arbitrary bytes.

``TokenStream.reconstruct`` places every literal in one bulk op and
loops over the matches only; :func:`_reconstruct_oracle` is the per-run
loop it replaced, kept here as the oracle it must agree with on bytes
and on the ``LosslessError`` message.

``deflate(x, budget=b)`` prices the container exactly before it packs a
stream and gives up when it would not be smaller than ``b``; the
unbudgeted ``deflate(x)`` is its oracle, and :func:`_put_section_oracle`
(compress the whole section, then compare) is ``put_section``'s.
Below a length gate the attempt is first priced by ``container_floor``,
a lower bound on the container that must never exceed it, and skipped
before its parse when even that is not smaller than the budget.
"""

import math
from contextlib import contextmanager
from typing import Iterator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.encoding.bitio as bitio
from repro.codec.registry import get_codec
from repro.codec.stages import put_section, take_section
from repro.data import load_field
from repro.errors import LosslessError
from repro.io.container import Container
from repro.kernels import dispatch, forced
from repro.lossless import deflate, inflate
from repro.lossless.deflate import _FLOOR_GATE as GATE
from repro.lossless.deflate import container_floor
from repro.lossless.lz77 import MAX_MATCH, LZ77Encoder, TokenStream


@given(st.binary(max_size=4000))
@settings(max_examples=60, deadline=None)
def test_inflate_deflate_identity(data):
    assert inflate(deflate(data)) == data


@given(st.binary(max_size=2000))
@settings(max_examples=40, deadline=None)
def test_fast_encoder_identity(data):
    assert inflate(deflate(data, LZ77Encoder.best_speed())) == data


@given(
    st.binary(min_size=1, max_size=50),
    st.integers(min_value=2, max_value=50),
)
@settings(max_examples=40, deadline=None)
def test_repetitive_data_compresses(chunk, reps):
    data = chunk * reps
    blob = deflate(data)
    assert inflate(blob) == data
    if len(data) > 400:
        assert len(blob) < len(data)


@given(st.binary(max_size=1500))
@settings(max_examples=30, deadline=None)
def test_lz77_parse_reconstruct_identity(data):
    ts = LZ77Encoder().parse(data)
    assert ts.reconstruct() == data


@given(
    st.one_of(st.binary(max_size=1500), st.binary(max_size=20).map(lambda b: b * 60))
)
@settings(max_examples=30, deadline=None)
def test_gzip_stage_identity_both_modes(data):
    """``take_section`` reads back what ``put_section`` stored, in both
    of its modes: gzipped (repetitive bytes) and raw (gzip lost)."""
    for gz_name in (None, "blob_z"):
        c = Container(header={})
        put_section(c, "blob", data, "blob_gz", gz_name=gz_name)
        parsed = Container.from_bytes(c.to_bytes())
        assert take_section(parsed, "blob", "blob_gz", gz_name=gz_name) == data


# -- reconstruct against the per-run oracle ---------------------------------------


def _reconstruct_oracle(ts: TokenStream) -> bytes:
    """The literal-run loop: one ``astype`` + ``tobytes`` per run of
    literals, one slice copy per match, in token order."""
    out = bytearray(ts.expanded_size())
    pos = 0
    kinds, values, dists = ts.kinds, ts.values, ts.dists
    prev_end = 0
    for b in np.flatnonzero(kinds == 1):
        if b > prev_end:  # literal run [prev_end, b)
            run = values[prev_end:b].astype(np.uint8).tobytes()
            out[pos : pos + len(run)] = run
            pos += len(run)
        length = int(values[b])
        dist = int(dists[b])
        if dist <= 0 or dist > pos:
            raise LosslessError(f"invalid match distance {dist} at offset {pos}")
        if dist >= length:
            out[pos : pos + length] = out[pos - dist : pos - dist + length]
        else:  # overlapping copy: replicate the dist-byte period
            chunk = bytes(out[pos - dist : pos])
            reps = -(-length // dist)
            out[pos : pos + length] = (chunk * reps)[:length]
        pos += length
        prev_end = b + 1
    if prev_end < kinds.size:  # trailing literals
        run = values[prev_end:].astype(np.uint8).tobytes()
        out[pos : pos + len(run)] = run
    return bytes(out)


def _outcome(fn):
    try:
        return ("ok", fn())
    except LosslessError as err:
        return ("LosslessError", str(err))


def _stream(tokens) -> TokenStream:
    kinds, values, dists = zip(*tokens) if tokens else ((), (), ())
    return TokenStream(
        np.array(kinds, dtype=np.uint8),
        np.array(values, dtype=np.int32),
        np.array(dists, dtype=np.int32),
    )


@st.composite
def token_lists(draw, max_tokens=40):
    """(kind, value, dist) triples: literal runs of any length (none
    between two matches, none before the first), matches with
    ``dist == length``, periodic ``dist < length`` copies and sources
    reaching into earlier matches' output; now and then a distance that
    points before the start."""
    tokens = []
    pos = 0
    for _ in range(draw(st.integers(0, max_tokens))):
        if pos == 0 or draw(st.booleans()):
            for b in draw(st.lists(st.integers(0, 255), min_size=1, max_size=6)):
                tokens.append((0, b, 0))
                pos += 1
            continue
        length = draw(st.integers(0, MAX_MATCH))
        how = draw(st.sampled_from(["equal", "period", "recent", "any", "bad"]))
        if how == "equal":
            dist = length
        elif how == "period":
            dist = draw(st.integers(1, 7))
        elif how == "recent":  # lands in the last match's output, mostly
            dist = draw(st.integers(1, min(pos, 2 * MAX_MATCH)))
        elif how == "any":
            dist = draw(st.integers(1, pos))
        else:
            dist = draw(st.sampled_from([0, -1, pos + 1, pos + 1000]))
        tokens.append((1, length, dist))
        pos += length
    return tokens


@given(token_lists())
@settings(max_examples=300, deadline=None)
def test_reconstruct_matches_the_oracle(tokens):
    ts = _stream(tokens)
    got = _outcome(ts.reconstruct)
    assert got == _outcome(lambda: _reconstruct_oracle(ts))
    if got[0] == "ok":
        assert len(got[1]) == ts.expanded_size()


@pytest.mark.parametrize("which", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", [0, -4, "past"])
def test_bad_distance_message_matches_the_oracle(which, bad):
    # Ten literals, then matches of every flavour, one made invalid.
    tokens = [(0, 97 + k, 0) for k in range(10)]
    tokens += [(1, 5, 5), (1, 258, 1), (0, 7, 0), (1, 30, 7), (1, 12, 40), (1, 3, 3)]
    m = [k for k, t in enumerate(tokens) if t[0] == 1]
    k = {"first": m[0], "middle": m[len(m) // 2], "last": m[-1]}[which]
    at = sum(t[1] if t[0] else 1 for t in tokens[:k])
    tokens[k] = (1, tokens[k][1], at + 1 if bad == "past" else bad)
    ts = _stream(tokens)
    got = _outcome(ts.reconstruct)
    assert got[0] == "LosslessError"
    assert got[1] == f"invalid match distance {tokens[k][2]} at offset {at}"
    assert got == _outcome(lambda: _reconstruct_oracle(ts))


def test_a_clean_stream_of_every_flavour_matches_the_oracle():
    tokens = [(0, 97 + k, 0) for k in range(10)]
    tokens += [(1, 5, 5), (1, 258, 1), (1, 9, 263), (1, 30, 7), (0, 7, 0)]
    ts = _stream(tokens)
    assert ts.reconstruct() == _reconstruct_oracle(ts)


# -- the priced early exit against compress-then-compare ---------------------------


def _check_budgets(data: bytes, encoder: LZ77Encoder) -> None:
    """At budgets one below, at and one above the container's length,
    ``None`` exactly when it would not be smaller, and the same bytes
    otherwise."""
    full = deflate(data, encoder)
    assert full is not None
    for budget in (len(full) - 1, len(full), len(full) + 1):
        got = deflate(data, encoder, budget)
        if len(full) >= budget:
            assert got is None, (len(full), budget)
        else:
            assert got == full


@given(st.binary(max_size=3000), st.sampled_from(["speed", "best"]))
@settings(max_examples=80, deadline=None)
def test_budget_is_exact_on_arbitrary_bytes(data, level):
    encoder = LZ77Encoder.best_speed() if level == "speed" else LZ77Encoder.best_compression()
    _check_budgets(data, encoder)


@given(st.binary(min_size=1, max_size=40), st.integers(1, 200), st.binary(max_size=200))
@settings(max_examples=40, deadline=None)
def test_budget_is_exact_on_repetitive_bytes(chunk, reps, tail):
    # long matches: every extra-bit width, both gzip outcomes
    _check_budgets(chunk * reps + tail, LZ77Encoder.best_speed())


def _code_stream(codec: str, field: np.ndarray) -> bytes:
    """The Huffman code stream a codec hands to its gzip attempt."""
    c = Container.from_bytes(get_codec(codec).compress(field, 1e-3, "vr_rel").payload)
    return take_section(c, "huffman_codes", "codes_gzipped", gz_name="huffman_codes_gz")


@pytest.fixture(scope="module")
def code_streams(smooth2d, rough2d) -> dict[str, bytes]:
    # best_speed gzip loses on the first three fields' streams, wins on the rest
    fields = {"smooth": smooth2d, "rough": rough2d} | {
        f"cesm.{name}": np.ascontiguousarray(load_field("CESM-ATM", name)[:60])
        for name in ("TS", "CLDLOW", "ICEFRAC")
    }
    return {
        f"{codec}:{name}": _code_stream(codec, field)
        for codec in ("wavesz-dp", "sz14")
        for name, field in fields.items()
    }


def test_budget_is_exact_on_code_streams(code_streams):
    for encoder in (LZ77Encoder.best_speed(), LZ77Encoder.best_compression()):
        for stream in code_streams.values():
            _check_budgets(stream, encoder)


@contextmanager
def _pack_calls() -> Iterator[list[str]]:
    """Records every ``bitio.pack_codes`` kernel dispatch inside the block."""
    calls: list[str] = []
    resolve = bitio.resolve

    def counting(name: str):
        if name == "bitio.pack_codes":
            calls.append(name)
        return resolve(name)

    with mock.patch.object(bitio, "resolve", counting):
        yield calls


def test_a_losing_attempt_packs_nothing(code_streams):
    noise = bytes(np.random.default_rng(7).integers(0, 256, 4096, dtype=np.uint8))
    for data in [noise, *code_streams.values()]:
        full = deflate(data, LZ77Encoder.best_speed())
        with _pack_calls() as losing:
            assert deflate(data, LZ77Encoder.best_speed(), len(full)) is None
        assert losing == []
        with _pack_calls() as winning:
            assert deflate(data, LZ77Encoder.best_speed(), len(full) + 1) == full
        assert winning


@contextmanager
def _kernel_runs() -> Iterator[list[str]]:
    """Records every run of either ``bitio.pack_codes`` implementation,
    however the caller reached it."""
    runs: list[str] = []
    kernel = dispatch._REGISTRY["bitio.pack_codes"]

    def spy(impl, mode):
        def run(*args):
            runs.append(mode)
            return impl(*args)

        return run

    with mock.patch.multiple(
        kernel,
        reference=spy(kernel.reference, "reference"),
        _fast=spy(kernel.fast, "fast"),
    ):
        yield runs


@pytest.mark.parametrize("mode", ["reference", "fast"])
def test_the_counting_seam_sees_every_pack(code_streams, mode):
    """``_pack_calls`` counts dispatches through ``bitio.resolve``; the
    Huffman encoder skips ``pack_codes``' checks, so it must still
    dispatch there and not around it."""
    field = np.ascontiguousarray(load_field("CESM-ATM", "CLDLOW")[:60])
    with forced(mode), _kernel_runs() as runs, _pack_calls() as calls:
        for data in code_streams.values():
            deflate(data, LZ77Encoder.best_speed())
        for name in ("wavesz", "wavesz-dp", "sz14", "sz10"):
            get_codec(name).compress(field, 1e-3, "vr_rel")
    assert calls and runs == [mode] * len(calls)


def _put_section_oracle(container, name, raw, flag, *, gz_name=None) -> int:
    """``put_section`` as it was: build the whole gzip attempt, then compare."""
    gz = deflate(raw, LZ77Encoder.best_speed()) if raw else raw
    use_gz = len(gz) < len(raw)
    stored = gz if use_gz else raw
    container.add(gz_name if use_gz and gz_name else name, stored)
    container.header[flag] = use_gz
    return len(stored)


def _same_put(raw: bytes, gz_name: str | None) -> bool:
    """Both writers store the same container; returns whether gzip won."""
    got, want = Container(header={}), Container(header={})
    n = put_section(got, "blob", raw, "blob_gz", gz_name=gz_name)
    assert n == _put_section_oracle(want, "blob", raw, "blob_gz", gz_name=gz_name)
    assert got.to_bytes() == want.to_bytes()
    return got.header["blob_gz"]


@given(
    st.one_of(st.binary(max_size=2000), st.binary(max_size=20).map(lambda b: b * 60)),
    st.sampled_from([None, "blob_z"]),
)
@settings(max_examples=80, deadline=None)
def test_put_section_matches_compress_then_compare(raw, gz_name):
    _same_put(raw, gz_name)


def test_put_section_matches_compress_then_compare_on_code_streams(code_streams):
    won = [_same_put(s, "huffman_codes_gz") for s in code_streams.values()]
    assert won == [False, False, False, True, True] * 2


# -- the floor that skips a losing attempt before its parse ------------------------

ENCODERS = {"speed": LZ77Encoder.best_speed(), "best": LZ77Encoder.best_compression()}


def _bytes_of(kind: str, n: int | None, seed: int) -> bytes:
    """``n`` bytes of one kind: uniform, a 2-4 symbol alphabet, or runs.
    ``None`` draws the length uniformly from 0 to twice the gate."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(0, 2 * GATE + 1))
    if kind == "random":
        return rng.integers(0, 256, n, dtype=np.uint8).tobytes()
    if kind == "alphabet":
        symbols = rng.integers(0, 256, int(rng.integers(2, 5)), dtype=np.uint8)
        return rng.choice(symbols, n).tobytes()
    values = rng.integers(0, 256, n // 4 + 1, dtype=np.uint8)
    return np.repeat(values, rng.integers(1, 60, values.size))[:n].tobytes()


@given(
    st.sampled_from(["random", "alphabet", "runs"]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(sorted(ENCODERS)),
)
@settings(max_examples=40, deadline=None)
def test_floor_never_exceeds_the_container(kind, seed, level):
    data = _bytes_of(kind, None, seed)
    assert container_floor(data) <= len(deflate(data, ENCODERS[level]))


def _floor_oracle(data: bytes) -> int:
    """``container_floor`` by a per-byte loop over a dict of first starts."""
    first: dict[bytes, int] = {}
    covered = [False] * len(data)
    for j in range(len(data) - 2):
        gram = data[j : j + 3]
        if first.setdefault(gram, j) < j:  # an earlier occurrence exists
            covered[j : j + 3] = [True] * 3
    forced = [b for b, c in zip(data, covered) if not c]
    counts = [forced.count(v) for v in sorted(set(forced))]
    n = len(forced)
    gibbs = sum(c * math.log2(n / c) for c in counts)
    bits = max(n, math.ceil(gibbs - 1e-6)) if n else 0
    k = max(len(counts), 1)
    lit_table = 9 + 4 * max(1, math.ceil(math.log2(k))) + 4 * k if data else 8
    return 40 + lit_table + 8 + -(-bits // 8)


@given(
    st.one_of(
        st.binary(max_size=400),
        st.lists(st.sampled_from(b"ab\x00"), max_size=400).map(bytes),
        st.binary(min_size=1, max_size=9).map(lambda b: b * 40),
    )
)
@settings(max_examples=80, deadline=None)
def test_floor_matches_its_per_byte_oracle_on_short_bytes(data):
    floor = container_floor(data)
    assert floor == _floor_oracle(data)
    for encoder in ENCODERS.values():
        assert floor <= len(deflate(data, encoder))


@pytest.mark.parametrize("n", [GATE - 1, GATE, GATE + 1])
@pytest.mark.parametrize("kind", ["random", "alphabet", "runs"])
def test_put_section_matches_compress_then_compare_across_the_gate(n, kind):
    _same_put(_bytes_of(kind, n, seed=n), "blob_z")


@contextmanager
def _parses() -> Iterator[list[int]]:
    """Records the length of every LZ77 parse inside the block."""
    lengths: list[int] = []
    parse = LZ77Encoder.parse

    def counting(self, data):
        lengths.append(len(data))
        return parse(self, data)

    with mock.patch.object(LZ77Encoder, "parse", counting):
        yield lengths


def test_a_losing_attempt_reaches_the_parse_only_above_the_gate(code_streams):
    for n in (0, 100, GATE - 1, GATE):
        noise = _bytes_of("random", n, seed=5)
        with _parses() as parsed:
            assert deflate(noise, LZ77Encoder.best_speed(), len(noise)) is None
        assert parsed == []
    noise = _bytes_of("random", GATE + 1, seed=5)
    with _parses() as parsed:
        assert deflate(noise, LZ77Encoder.best_speed(), len(noise)) is None
    assert parsed == [GATE + 1]
    # an unbudgeted attempt parses at any length
    for data in code_streams.values():
        with _parses() as parsed:
            deflate(data, LZ77Encoder.best_speed())
        assert parsed == [len(data)]

"""Hot-path kernel bench — reference vs fast, per stage and end to end.

The kernel layer's contract is "same bytes, less time": every
``REPRO_KERNELS=fast`` kernel must produce byte-identical streams while
beating the reference it shadows.  This bench measures both halves on
the sz14 path (the PQD → Huffman → gzip pipeline every SZ variant
shares):

* **stage micro-benchmarks** on the real intermediate streams of the 2D
  smoke field (the Huffman code payload, its gzip input) — Huffman
  encode/decode, LZ77 parse, DEFLATE inflate, timed under both modes;
* **lane decode vs chain walk**: the fast ``huffman.decode`` kernel on the
  same >= 50 K-symbol stream with its lane path on and off (a ratio
  inside one run, so it holds on a 1-CPU runner);
* **one 8-band ``wavesz-dp`` field, batched vs per band**: the store
  workload's tiling of a 3x CESM field, decoded as one batch
  (``decompress_many``: one ``huffman.decode`` call for inflate's streams,
  one for the quant codes) and band by band (two or three calls a band),
  alternated in one run;
* **8 store fields, cold-read decode**: the ``store_local`` fields' first
  version (``benchmarks/e2e/inputs.py``), 8 ``wavesz-dp`` tiles each,
  decoded one batch per field with the lanes' own-region steps taking
  single codes and taking groups: own-region lane steps per decoded
  symbol, group-table build ms, decode ms and ``huffman.decode`` calls;
* **the packer per call**: the fast ``bitio.pack_codes`` kernel on the
  same 259 200-code stream, ms and minor page faults per call
  (``ru_minflt``, after warm-up), back to back and each call right after
  a compress of the field (a count, so it holds on any runner);
* **``TokenStream.reconstruct`` vs its oracle**: the bulk expand of the
  smoke field's gzip'd code stream against the per-literal-run loop it
  replaced (kept as the oracle in ``tests/property/test_prop_deflate.py``);
* **``lz77.parse`` by size and kind**: 2 KB / 16 KB / 100 KB prefixes of
  two Huffman-coded streams, one nearly incompressible (few, short
  matches) and one run-heavy (zero runs, maximal matches) — the 2 KB rows
  are the guard for the small-request path, whose gzip inputs are that
  size;
* **speculative sweep vs its own checked path**: the fast
  ``pqd.compress_sweep`` on waveSZ's 20 x 10 000 view of Hurricane
  ``CLOUDf48`` (10 017 fronts of <= 19 points), clean and with 20 % of the
  points spiked, with speculation on and forced off (``_SPEC_FRONTS = 1``);
* **64 small-job fields, CPU per compress**: the ``svc_small_jobs``
  fields and codecs (``benchmarks/e2e/inputs.py``, the ledger's default
  seed) compressed in process, CPU per call by codec, with the share of
  it each fixed-cost piece takes (the rANS table remap, the histogram,
  the gzip floor, the rANS step loop) and the gzip attempts that reach
  the LZ77 parse, losing and winning;
* **32 small-job rANS streams, decode vs encode CPU**: the fast
  ``rans.decode`` and ``rans.encode`` twins on the ``wavesz-dp-rans``
  small-job streams (24-60 lanes) and on ``lib_fields``' 2 048-lane
  ``cesm.TS`` stream, alternated stream by stream, best of the passes:
  ms per stream for each twin and the decode/encode ratio;
* **the small request**: server and client CPU per tiny (8 x 8
  ``wavesz-dp``) ``decompress`` and per ``ping`` against a subprocess
  ``wavesz serve --workers 2`` (the server's from its threads'
  ``/proc`` schedstat, the client's from this process), alternated in
  rounds, and what one tiny ``decompress`` costs the event loop of an
  in-process server with a 2-worker process pool: loop passes,
  self-pipe writes, ``call_soon_threadsafe`` calls and
  ``multiprocessing.connection`` selectors (counts, so they hold on any
  runner);
* **sweep plan memory**: the plans ``lib_fields``' six sweeps ask for
  and the ``sz14`` plan of ``svc_large_fields``' PSL field — bytes the
  plan cache keeps per interior point (a count, so it holds on any
  runner) and the fast compress / decompress sweep ms on a seeded field
  of that shape;
* **end-to-end** compress/decompress of 1D/2D/3D fields with per-stage
  attribution from ``measure_compressor(stage_timing=True)``.

Results land in ``benchmarks/results/BENCH_kernels.json`` (the perf
trajectory baseline) and a human table.  ``--smoke`` runs only the 2D
field with byte-equality checks and **fails if the fast path regresses
below 1.0x of reference, the lane decode below 1.5x of the chain walk,
the lanes take more than 0.5 own-region steps per symbol on a fixed
1-bit-dominant stream (a count, so it holds on any runner), the 8-band
batch below 1.2x of the per-band decode, the bulk reconstruct
below 2x of its oracle, the clean speculative sweep below 1.3x of its
checked path, the packer above 64 minor page faults per call, any
losing gzip attempt on the small-job fields reaching the parse, the
small-job rANS decode above 2.2x the CPU of its encode twin (a ratio in
one run, so it holds on any runner), a sweep plan above 9 bytes per
interior point on a 2D shape or 65 on a 3D one, or a tiny served
``decompress`` writing the loop's self-pipe or building a selector for
its reply** — the CI perf gate.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import numpy as np

from common import RESULTS_DIR, emit, fmt_row

from repro import load_field
from repro.codec.registry import get_codec
from repro.config import QuantizerConfig, resolve_error_bound
from repro.encoding import huffman
from repro.encoding.bitio import pack_codes
from repro.encoding.huffman import HuffmanCodec, HuffmanTable
from repro.kernels import dispatch, forced, huffman_fast, pqd_fast
from repro.kernels import resolve as resolve_kernel
from repro.lossless.deflate import deflate, inflate
from repro.lossless.lz77 import LZ77Encoder
from repro.perf import measure_compressor
from repro.rans import coder as rans_coder
from repro.service import CompressionServer, ServiceClient
from repro.store import compress_field_tiles
from repro.data.fields import gaussian_random_field
from repro.sz.pqd import pqd_compress, pqd_decompress

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
import inputs as e2e_inputs  # noqa: E402
import spec as e2e_spec  # noqa: E402
from tests.dispatch import loop_counts, serving, tiny_payload  # noqa: E402
from tests.lanes import SINGLE_STEPS, lane_constants, own_region_steps  # noqa: E402
from tests.property.test_prop_deflate import _reconstruct_oracle  # noqa: E402
from tests.unit.test_plan_cache import (  # noqa: E402
    PLAN_BYTES_PER_POINT_GATE,
    PLAN_SWEEPS,
    plan_bytes_per_point,
)

deflate_module = importlib.import_module("repro.lossless.deflate")

EB = 1e-3
MODE = "vr_rel"
CODEC = "sz14"
SMOKE_FIELD = "2d CESM.CLDLOW"
LANE_GATE = 1.5  # lane decode vs chain-walk fallback, same stream, same run
RECONSTRUCT_GATE = 2.0  # bulk reconstruct vs the per-run oracle loop
SPEC_GATE = 1.3  # clean narrow-view sweep, speculation on vs forced off
PACK_FAULT_GATE = 64  # minor page faults per packer call, 259 K codes
BAND_GATE = 1.2  # one 8-band field decoded as a batch vs band by band
BAND_CODEC = "wavesz-dp"
BANDS = 8
PARSE_SIZES = (2048, 16384, 100_000)
SMALL_SEED = 1  # the ledger's default seed
LOST_PARSE_GATE = 0  # losing gzip attempts on the small-job fields that parse
OBD_GATE = 0.5  # own-region lane steps per symbol, 1-bit-dominant stream
RANS_RATIO_GATE = 2.2  # small-job rANS decode CPU over encode CPU, same run
RANS_CODEC = "wavesz-dp-rans"
RANS_LIB_FIELD = "cesm.TS"  # lib_fields' field with a 2 048-lane stream
RANS_LIB_LANES = 2048
OBD_SEED = 3
OBD_SYMBOLS = 200_000
#: self-pipe writes and reply selectors one tiny served decompress may cost
WAKEUP_GATE = 0
SELECTOR_GATE = 0

FIELDS = {
    "1d CESM.TS.flat": lambda: load_field("CESM-ATM", "TS").reshape(-1),
    SMOKE_FIELD: lambda: load_field("CESM-ATM", "CLDLOW"),
    "3d Hurricane.CLOUDf48": lambda: load_field("Hurricane", "CLOUDf48"),
}


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _both_modes(fn, repeats: int) -> dict:
    """Time ``fn`` under each dispatch mode (one warmup pass per mode)."""
    out = {}
    for mode in ("reference", "fast"):
        with forced(mode):
            fn()
            out[mode] = _best(fn, repeats)
    out["speedup"] = out["reference"] / max(out["fast"], 1e-12)
    return out


def _quant_codes(field: np.ndarray) -> np.ndarray:
    """The field's quantization-code stream, as sz14 would Huffman-code it."""
    bound = resolve_error_bound(field, EB, MODE)
    pqd = pqd_compress(field, bound.absolute, QuantizerConfig(), border="truncate")
    return pqd.codes.reshape(-1)


def _stage_micro(field: np.ndarray, repeats: int) -> dict:
    """Micro-time each kernel on the field's real intermediate streams."""
    syms = _quant_codes(field)
    codec = HuffmanCodec(HuffmanTable.from_symbols(syms))
    with forced("reference"):
        payload, _ = codec.encode(syms)
        blob = deflate(payload, LZ77Encoder.best_speed())

    results = {
        # encode(): table lookups + the bitio.pack_codes kernel
        "huffman_encode_pack_codes": _both_modes(
            lambda: codec.encode(syms), repeats
        ),
        # the huffman.decode kernel (per-symbol loop vs chain walk)
        "huffman_decode": _both_modes(
            lambda: codec.decode(payload, syms.size), repeats
        ),
        # the lz77.parse kernel at the SZ-1.4 gzip effort level
        "lz77_parse_best_speed": _both_modes(
            lambda: LZ77Encoder.best_speed().parse(payload), repeats
        ),
        # inflate: huffman.decode + bitio.unpack_codes + reconstruct
        "inflate": _both_modes(lambda: inflate(blob), repeats),
    }
    # Differential check on the exact bench inputs.
    with forced("reference"):
        enc_ref = codec.encode(syms)
        dec_ref = codec.decode(payload, syms.size)
        blob_ref = deflate(payload, LZ77Encoder.best_speed())
    with forced("fast"):
        enc_fast = codec.encode(syms)
        dec_fast = codec.decode(payload, syms.size)
        blob_fast = deflate(payload, LZ77Encoder.best_speed())
        body_fast = inflate(blob)
    if enc_ref != enc_fast or blob_ref != blob_fast:
        raise AssertionError("fast kernels changed encoded bytes")
    if not np.array_equal(dec_ref, dec_fast) or body_fast != payload:
        raise AssertionError("fast kernels changed decoded values")
    return results


def _lanes_vs_chain_walk(field: np.ndarray, repeats: int) -> dict:
    """The fast Huffman decode of the field's code stream, lanes on and off."""
    syms = _quant_codes(field)
    if syms.size < 50_000:
        raise AssertionError(f"lane row needs >= 50 K symbols, got {syms.size}")
    codec = HuffmanCodec(HuffmanTable.from_symbols(syms))
    payload, _ = codec.encode(syms)

    def decode() -> np.ndarray:
        return HuffmanCodec(codec.table).decode(payload, syms.size)

    lanes_on = huffman_fast._LANE_MIN_SYMBOLS
    with forced("fast"):
        decoded = decode()
        lanes = _best(decode, repeats + 3)
        huffman_fast._LANE_MIN_SYMBOLS = syms.size + 1  # chain walk only
        try:
            same = np.array_equal(decode(), decoded)
            chain = _best(decode, repeats + 3)
        finally:
            huffman_fast._LANE_MIN_SYMBOLS = lanes_on
    if not same or not np.array_equal(decoded, syms):
        raise AssertionError("lane decode and chain walk disagree")
    return {
        "symbols": int(syms.size),
        "chain_walk": chain,
        "lanes": lanes,
        "speedup": chain / max(lanes, 1e-12),
    }


def _bands_batched_vs_per_band(repeats: int) -> dict:
    """One 8-band ``wavesz-dp`` field (the store workload's tiling of a
    3x CESM field) decoded as one batch and band by band, fast kernels:
    CPU seconds and ``huffman.decode`` kernel calls of each."""
    field = load_field("CESM-ATM", "CLDLOW", scale=3)
    manifest, payloads = compress_field_tiles(
        field, BAND_CODEC, EB, MODE, n_tiles=BANDS
    )
    bands = [payloads[d] for d in manifest["tiles"]]
    codec = get_codec(BAND_CODEC)

    def per_band():
        return [codec.decompress(b) for b in bands]

    def batched():
        return codec.decompress_many(bands)

    row: dict = {"bands": BANDS, "points": int(field.size)}
    calls = {}
    resolve = huffman.resolve
    with forced("fast"):
        for name, fn in (("per_band", per_band), ("batched", batched)):
            counted = []
            huffman.resolve = lambda k: counted.append(k) or resolve(k)
            try:
                out = fn()
            finally:
                huffman.resolve = resolve
            calls[name] = counted.count("huffman.decode")
            row[name] = float("inf")
            if name == "batched" and any(
                a.tobytes() != b.tobytes() for a, b in zip(out, per_band())
            ):
                raise AssertionError("batched and per-band decodes disagree")
        # Alternate, so a slow spell hits both, and count CPU time: a
        # shared host's other tenants then cost neither side.
        for _ in range(repeats + 8):
            for name, fn in (("per_band", per_band), ("batched", batched)):
                t0 = time.process_time()
                fn()
                row[name] = min(row[name], time.process_time() - t0)
    row["kernel_calls"] = calls
    row["speedup"] = row["per_band"] / max(row["batched"], 1e-12)
    return row


def _store_cold_reads(repeats: int) -> dict:
    """The 8 store fields' cold reads (``store_local``'s first version of
    each, 8 ``wavesz-dp`` tiles, decoded as one batch per field), with the
    lanes' own-region steps taking single codes and taking groups: lane
    steps per decoded symbol, group-table build ms and decode ms (CPU,
    best of the alternated runs), and ``huffman.decode`` kernel calls."""
    plan = e2e_inputs.store_plan(SMALL_SEED)
    bases = e2e_inputs.store_bases()
    codec = get_codec(e2e_inputs.STORE_CODEC)
    fields = []
    for name in e2e_inputs.CESM_FIELDS:
        data = e2e_inputs.Recipe(**plan["versions"][0][name]).apply(bases[name])
        manifest, payloads = compress_field_tiles(
            data, e2e_inputs.STORE_CODEC, EB, MODE, n_tiles=e2e_inputs.STORE_TILES
        )
        fields.append([payloads[d] for d in manifest["tiles"]])

    def read_all():
        return [codec.decompress_many(bands) for bands in fields]

    tally = Counter()
    resolve, build = huffman.resolve, huffman_fast._build_groups

    def counted_resolve(name):
        kernel = resolve(name)
        if name != "huffman.decode":
            return kernel

        def counted(items):
            tally["calls"] += 1
            tally["symbols"] += sum(n for _, _, n in items)
            return kernel(items)

        return counted

    def timed_build(streams):
        t0 = time.process_time()
        build(streams)
        tally["build_s"] += time.process_time() - t0

    modes = {"single": SINGLE_STEPS, "group": {}}
    rows = {name: {"decode_ms": float("inf")} for name in modes}
    with forced("fast"), mock.patch.object(huffman, "resolve", counted_resolve), \
            mock.patch.object(huffman_fast, "_build_groups", timed_build):
        outputs = {}
        for name, constants in modes.items():
            tally.clear()
            with lane_constants(**constants), own_region_steps() as steps:
                outputs[name] = read_all()
            rows[name].update(
                lane_steps_per_symbol=(steps["single"] + steps["group"]) / tally["symbols"],
                kernel_calls=tally["calls"],
                build_ms=tally["build_s"] * 1e3,
            )
        symbols = tally["symbols"]
        if any(
            a.tobytes() != b.tobytes()
            for x, y in zip(outputs["single"], outputs["group"])
            for a, b in zip(x, y)
        ):
            raise AssertionError("single-code and group steps decode differently")
        for _ in range(repeats + 3):  # alternated, CPU time
            for name, constants in modes.items():
                with lane_constants(**constants):
                    t0 = time.process_time()
                    read_all()
                    ms = (time.process_time() - t0) * 1e3
                rows[name]["decode_ms"] = min(rows[name]["decode_ms"], ms)
    rows["fields"] = len(fields)
    rows["symbols"] = symbols
    return rows


def _one_bit_steps() -> dict:
    """Own-region lane steps per symbol on a fixed synthetic stream whose
    zeros (nine in ten) take a 1-bit code: a count, so it holds anywhere."""
    rng = np.random.default_rng(OBD_SEED)
    syms = np.where(rng.random(OBD_SYMBOLS) < 0.9, 0, rng.geometric(0.3, OBD_SYMBOLS))
    codec = HuffmanCodec(HuffmanTable.from_symbols(syms))
    payload, _ = codec.encode(syms)
    with forced("fast"), own_region_steps() as steps:
        if not np.array_equal(codec.decode(payload, syms.size), syms):
            raise AssertionError("group-step decode of the 1-bit stream is wrong")
    return {
        "symbols": int(syms.size),
        "lane_steps_per_symbol": (steps["single"] + steps["group"]) / syms.size,
    }


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _packer_per_call(field: np.ndarray, repeats: int) -> dict:
    """The fast ``bitio.pack_codes`` kernel on the field's quant-code
    stream: ms and minor page faults per call, after warm-up, back to back
    and each call right after a compress of the field — where the write
    side calls it, and where whole-stream temporaries were mapped fresh."""
    syms = _quant_codes(field)
    table = HuffmanTable.from_symbols(syms)
    order = np.argsort(table.symbols)
    entry = order[np.searchsorted(table.symbols[order], syms)]
    codes, lengths = table.assign_codes()[entry], table.lengths[entry]
    compress = get_codec(CODEC).compress
    row: dict = {"symbols": int(syms.size)}
    with forced("fast"):
        pack = resolve_kernel("bitio.pack_codes")
        if pack(codes, lengths) != pack_codes(codes, lengths):
            raise AssertionError("packer kernel and pack_codes disagree")
        for name, before in (
            ("back_to_back", lambda: None),
            ("after_compress", lambda: compress(field, EB, MODE)),
        ):
            times, faults = [], 0
            for k in range(repeats + 5):
                before()
                f0, t0 = _minflt(), time.perf_counter()
                pack(codes, lengths)
                t1, f1 = time.perf_counter(), _minflt()
                if k >= 2:  # warm-up
                    times.append(t1 - t0)
                    faults += f1 - f0
            row[name] = {
                "ms": float(np.median(times)) * 1e3,
                "faults_per_call": faults / len(times),
            }
    return row


def _reconstruct_vs_oracle(field: np.ndarray, repeats: int) -> dict:
    """``TokenStream.reconstruct`` against the per-run oracle loop, on the
    token stream gzip makes of the field's Huffman-coded quant codes."""
    syms = _quant_codes(field)
    payload, _ = HuffmanCodec(HuffmanTable.from_symbols(syms)).encode(syms)
    tokens = LZ77Encoder.best_speed().parse(payload)
    if tokens.reconstruct() != payload or _reconstruct_oracle(tokens) != payload:
        raise AssertionError("reconstruct and its oracle disagree")
    row = {"tokens": int(tokens.n_tokens), "oracle": float("inf"), "bulk": float("inf")}
    for _ in range(repeats + 3):  # alternate, so a slow spell hits both
        row["oracle"] = min(row["oracle"], _best(lambda: _reconstruct_oracle(tokens), 1))
        row["bulk"] = min(row["bulk"], _best(tokens.reconstruct, 1))
    row["speedup"] = row["oracle"] / max(row["bulk"], 1e-12)
    return row


def _parse_by_size(repeats: int) -> dict:
    """``lz77.parse`` under both modes on prefixes of two kinds of stream.

    Both are Huffman-coded quant codes, as every ledger workload gzips
    them: CESM ``TS`` (nearly incompressible: few, short matches) and
    ``CLDLOW`` (a dominant one-bit code: zero runs and maximal matches).
    """
    streams = {}
    for kind, name in (("sparse", "TS"), ("runs", "CLDLOW")):
        syms = _quant_codes(load_field("CESM-ATM", name, scale=3))
        codec = HuffmanCodec(HuffmanTable.from_symbols(syms))
        streams[kind] = codec.encode(syms)[0]
    rows = {}
    for kind, stream in streams.items():
        if len(stream) < PARSE_SIZES[-1]:
            raise AssertionError(f"{kind} stream is only {len(stream)} bytes")
        for size in PARSE_SIZES:
            data = stream[:size]
            row = _both_modes(
                lambda: LZ77Encoder.best_speed().parse(data), repeats + 2
            )
            with forced("reference"):
                ref = deflate(data, LZ77Encoder.best_speed())
            with forced("fast"):
                fast = deflate(data, LZ77Encoder.best_speed())
            if ref != fast or inflate(fast) != data:
                raise AssertionError(f"lz77.parse diverged on {kind}[:{size}]")
            rows[f"{kind}_{size}"] = row
    return rows


def _small_jobs(repeats: int) -> dict:
    """CPU per compress of the 64 ``svc_small_jobs`` fields, by codec,
    with the share each fixed-cost piece takes and the gzip attempts
    that reach the LZ77 parse (fast kernels).

    The calls are timed bare, best of the passes; further passes wrap
    each piece in a CPU timer for its share and count the parses."""
    plan = e2e_inputs.plan_for(e2e_spec.SMALL, SMALL_SEED)
    jobs = list(zip(plan["codecs"], e2e_inputs.small_fields(plan)))
    calls = Counter(plan["codecs"])
    codecs = sorted(calls)
    spent: dict = defaultdict(float)
    parses = {"lost": 0, "won": 0}
    current = [""]

    def timed(piece, fn):
        def run(*args, **kwargs):
            t0 = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[current[0], piece] += time.process_time() - t0

        return run

    serialize = deflate_module._serialize

    def counted_serialize(*args):
        out = serialize(*args)
        parses["lost" if out is None else "won"] += 1
        return out

    kernels = {"histogram": "histogram.counts", "rans_steps": "rans.encode"}
    functions = {
        "rank_remap": (rans_coder, "_table_indices"),
        "gzip_floor": (deflate_module, "container_floor"),
    }
    row: dict = {"seed": SMALL_SEED, "jobs": len(jobs)}
    with forced("fast"):
        best = {c: float("inf") for c in codecs}
        for _ in range(repeats + 5):
            total: dict = defaultdict(float)
            for codec, field in jobs:
                compress = get_codec(codec).compress
                t0 = time.process_time()
                compress(field, EB, MODE)
                total[codec] += time.process_time() - t0
            for c in codecs:
                best[c] = min(best[c], total[c] / calls[c])
        with ExitStack() as patches:
            for piece, name in kernels.items():
                kernel = dispatch._REGISTRY[name]
                patches.enter_context(
                    mock.patch.object(kernel, "_fast", timed(piece, kernel.fast))
                )
            for piece, (module, attr) in functions.items():
                patches.enter_context(
                    mock.patch.object(module, attr, timed(piece, getattr(module, attr)))
                )
            patches.enter_context(
                mock.patch.object(deflate_module, "_serialize", counted_serialize)
            )
            passes = repeats + 2
            for _ in range(passes):
                for codec, field in jobs:
                    current[0] = codec
                    get_codec(codec).compress(field, EB, MODE)
    pieces = [*functions, *kernels]
    row["codecs"] = {
        c: {
            "calls": calls[c],
            "ms_per_call": best[c] * 1e3,
            "share": {
                p: spent[c, p] / (passes * calls[c]) / max(best[c], 1e-12)
                for p in pieces
            },
        }
        for c in codecs
    }
    row["gzip_parses"] = {k: n // passes for k, n in parses.items()}
    return row


def _rans_decode_vs_encode(repeats: int) -> dict:
    """CPU per stream of the fast ``rans.decode`` and ``rans.encode`` twins
    on the 32 ``wavesz-dp-rans`` small-job streams, and on the 2 048-lane
    stream of ``lib_fields``' ``cesm.TS`` (both at the ledger's default
    seed).

    The streams are captured from a decompress of each payload; the two
    twins alternate stream by stream, best of the passes per stream."""
    rans_decode = dispatch._REGISTRY["rans.decode"]
    fast_decode = rans_decode.fast
    calls: list = []

    def captured(*args):
        calls.append(args)
        return fast_decode(*args)

    small_plan = e2e_inputs.plan_for(e2e_spec.SMALL, SMALL_SEED)
    small = [
        f for c, f in zip(small_plan["codecs"], e2e_inputs.small_fields(small_plan))
        if c == RANS_CODEC
    ]
    label, ds, name, scale, rows = next(
        f for f in e2e_inputs.LIB_FIELDS if f[0] == RANS_LIB_FIELD
    )
    recipe = e2e_inputs.plan_for(e2e_spec.LIB, SMALL_SEED)["recipes"][label]
    ts = e2e_inputs.Recipe(**recipe).apply(e2e_inputs.base_field(ds, name, scale, rows))
    codec = get_codec(RANS_CODEC)
    groups = {}
    with forced("fast"), mock.patch.object(rans_decode, "_fast", captured):
        for key, fields in (("small", small), ("lib_ts", [ts])):
            calls.clear()
            for field in fields:
                codec.decompress(codec.compress(field, EB, MODE))
            groups[key] = list(calls)
    groups["lib_ts"] = [a for a in groups["lib_ts"] if a[1].size == RANS_LIB_LANES]
    encode = dispatch._REGISTRY["rans.encode"].fast
    row: dict = {"seed": SMALL_SEED}
    for key, streams in groups.items():
        twins = []
        for stream, states, m, freqs, cum, slot_map in streams:
            dec_args = (stream, states, m, freqs, cum, slot_map)
            enc_args = (fast_decode(*dec_args), freqs, cum, states.size)
            if encode(*enc_args)[1] != stream:
                raise AssertionError(f"rANS twins disagree on a {key} stream")
            twins.append((enc_args, dec_args))
        best = np.full((len(twins), 2), np.inf)
        for _ in range(repeats + 8):
            for k, args in enumerate(twins):
                for j, fn in enumerate((encode, fast_decode)):
                    t0 = time.process_time()
                    fn(*args[j])
                    best[k, j] = min(best[k, j], time.process_time() - t0)
        enc_ms, dec_ms = best[:, 0] * 1e3, best[:, 1] * 1e3
        row[key] = {
            "streams": len(twins),
            "lanes": [min(a[1][1].size for a in twins), max(a[1][1].size for a in twins)],
            "tokens": int(sum(a[1][2] for a in twins)),
            "encode_ms": [float(enc_ms.min()), float(enc_ms.max())],
            "decode_ms": [float(dec_ms.min()), float(dec_ms.max())],
            "ratio": float(dec_ms.sum() / max(enc_ms.sum(), 1e-12)),
        }
    return row


def _speculation_on_and_off(repeats: int) -> dict:
    """The fast compress sweep on a narrow view, checked vs speculative."""
    view = FIELDS["3d Hurricane.CLOUDf48"]()[:20].reshape(20, -1)
    bound = resolve_error_bound(view, EB, MODE).absolute
    spiked = view.copy()
    rng = np.random.default_rng(19)
    hit = rng.random(view.shape) < 0.2
    spiked[hit] += (1e6 * bound * rng.normal(size=int(hit.sum()))).astype(view.dtype)
    quant = QuantizerConfig()
    rows = {}
    for name, field in (("clean", view), ("spiked_20pct", spiked)):

        def sweep():
            return pqd_compress(field, bound, quant, border="verbatim")

        def checked():
            longest = pqd_fast._SPEC_FRONTS
            pqd_fast._SPEC_FRONTS = 1  # checked per-front path only
            try:
                return sweep()
            finally:
                pqd_fast._SPEC_FRONTS = longest

        row = _both_modes(sweep, repeats)
        with forced("fast"):
            out = sweep()
            checked_out = checked()
            # Alternate the two, so a slow spell of the host hits both.
            row["fast"] = row["checked"] = float("inf")
            for _ in range(repeats + 2):
                row["checked"] = min(row["checked"], _best(checked, 1))
                row["fast"] = min(row["fast"], _best(sweep, 1))
        row["speedup"] = row["reference"] / max(row["fast"], 1e-12)
        with forced("reference"):
            ref_out = sweep()
        for other in (checked_out, ref_out):
            if (
                other.codes.tobytes() != out.codes.tobytes()
                or other.decompressed.tobytes() != out.decompressed.tobytes()
            ):
                raise AssertionError(f"sweeps disagree on the {name} view")
        row["outliers"] = out.n_outliers
        row["vs_checked"] = row["checked"] / max(row["fast"], 1e-12)
        rows[name] = row
    return rows


def _cpu_s(pid: int) -> float:
    """CPU seconds of every thread of process ``pid`` (Linux schedstat,
    nanoseconds)."""
    task = Path(f"/proc/{pid}/task")
    return sum(int((t / "schedstat").read_text().split()[0]) for t in task.iterdir()) / 1e9


def _small_request(requests: int, rounds: int) -> dict:
    """Server and client CPU per tiny decompress and per ping against a
    subprocess ``wavesz serve --workers 2``, median of ``rounds``
    alternated rounds of ``requests`` each; then the loop counts of one
    tiny decompress on an in-process server with a 2-worker process
    pool."""
    payload = tiny_payload()
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    row: dict = {"requests": requests, "rounds": rounds}
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "serve.log"
        with open(log, "wb") as sink:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--workers", "2"],
                stdout=sink, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL, env=env,
            )
        per = _small_request_cpu(proc, log, payload, requests, rounds)
    for op, samples in per.items():
        row[op] = {k: float(np.median(v)) for k, v in samples.items()}
    srv = CompressionServer(port=0, workers=2, pool_kind="process", batch_bytes=32768)
    with serving(srv) as loop, ServiceClient(port=srv.port) as client:
        for _ in range(20):
            client.decompress(payload)
        with loop_counts(loop) as counts:
            for _ in range(requests):
                client.decompress(payload)
    row["per_decompress"] = {k: n / requests for k, n in counts.items()}
    return row


def _small_request_cpu(proc, log: Path, payload: bytes, requests: int, rounds: int) -> dict:
    """CPU samples per request, server and client, by op; stops ``proc``."""
    try:
        deadline = time.monotonic() + 30
        banner = None
        while banner is None and time.monotonic() < deadline and proc.poll() is None:
            time.sleep(0.02)
            banner = re.search(r"listening on [\w.]+:(\d+)", log.read_text())
        if banner is None:
            raise AssertionError(f"wavesz serve did not start: {log.read_text()}")
        with ServiceClient(port=int(banner.group(1))) as client:
            ops = {"decompress": lambda: client.decompress(payload), "ping": client.ping}
            for _ in range(20):  # both workers forked and warm
                ops["decompress"]()
            per: dict = {op: {"server_us": [], "client_us": []} for op in ops}
            for _ in range(rounds):
                for op, call in ops.items():
                    server0, client0 = _cpu_s(proc.pid), time.process_time()
                    for _ in range(requests):
                        call()
                    per[op]["server_us"].append((_cpu_s(proc.pid) - server0) / requests * 1e6)
                    per[op]["client_us"].append((time.process_time() - client0) / requests * 1e6)
    finally:
        proc.terminate()
        proc.wait(30)
    return per


def _plan_memory(repeats: int) -> dict:
    """Plan bytes per interior point and fast sweep ms, per plan shape."""
    quant = QuantizerConfig()
    rows = {}
    for shape, border in PLAN_SWEEPS.items():
        pad = 1 if border == "padded" else 0
        field_shape = tuple(n - pad for n in shape)
        field = gaussian_random_field(field_shape, seed=1).astype(np.float32)
        bound = resolve_error_bound(field, EB, MODE).absolute
        with forced("fast"):
            res = pqd_compress(field, bound, quant, border=border)
            c_ms = _best(lambda: pqd_compress(field, bound, quant, border=border), repeats)
            d_ms = _best(lambda: pqd_decompress(
                res.codes, res.border_values, res.outlier_values,
                precision=bound, quant=quant, dtype=field.dtype, border=border,
            ), repeats)
        rows["x".join(map(str, shape))] = {
            "border": border,
            "bytes_per_point": plan_bytes_per_point(shape),
            "gate": PLAN_BYTES_PER_POINT_GATE[len(shape)],
            "compress_ms": c_ms * 1e3,
            "decompress_ms": d_ms * 1e3,
        }
    return rows


def _end_to_end(field: np.ndarray, repeats: int) -> dict:
    codec = get_codec(CODEC)
    out: dict = {}
    payloads = {}
    for mode in ("reference", "fast"):
        with forced(mode):
            mt, cf = measure_compressor(
                codec,
                field,
                EB,
                MODE,
                repeats=repeats,
                warmup=1,
                stage_timing=True,
            )
        payloads[mode] = cf.payload
        out[mode] = {
            "compress_s": mt.compress_s,
            "decompress_s": mt.decompress_s,
            "compress_stages_s": mt.compress_stages,
            "decompress_stages_s": mt.decompress_stages,
        }
    if payloads["reference"] != payloads["fast"]:
        raise AssertionError(f"{CODEC} payload differs between kernel modes")
    out["compress_speedup"] = out["reference"]["compress_s"] / max(
        out["fast"]["compress_s"], 1e-12
    )
    out["decompress_speedup"] = out["reference"]["decompress_s"] / max(
        out["fast"]["decompress_s"], 1e-12
    )
    return out


def run(smoke: bool = False) -> dict:
    repeats = 2 if smoke else 3
    field_names = [SMOKE_FIELD] if smoke else list(FIELDS)

    smoke_field = FIELDS[SMOKE_FIELD]()
    stage_micro = _stage_micro(smoke_field, repeats)
    big_field = load_field("CESM-ATM", "CLDLOW", scale=2)  # 259 200 points
    lane_decode = _lanes_vs_chain_walk(big_field, repeats)
    bands = _bands_batched_vs_per_band(repeats)
    store_reads = _store_cold_reads(repeats)
    one_bit = _one_bit_steps()
    packer = _packer_per_call(big_field, repeats)
    reconstruct = _reconstruct_vs_oracle(smoke_field, repeats)
    parse_rows = _parse_by_size(repeats)
    sweep_rows = _speculation_on_and_off(repeats)
    small_jobs = _small_jobs(repeats)
    rans_twins = _rans_decode_vs_encode(repeats)
    plan_rows = _plan_memory(repeats)
    small_request = _small_request(200 if smoke else 500, 3)
    e2e = {name: _end_to_end(FIELDS[name](), repeats) for name in field_names}

    report = {
        "bench": "hotpath_kernels",
        "smoke": smoke,
        "workload": {"codec": CODEC, "eb": EB, "mode": MODE},
        "smoke_field": SMOKE_FIELD,
        "stage_micro": stage_micro,
        "lane_decode": lane_decode,
        "bands_batched": bands,
        "store_cold_reads": store_reads,
        "one_bit_lane_steps": one_bit,
        "pack_codes_per_call": packer,
        "lz77_reconstruct": reconstruct,
        "lz77_parse": parse_rows,
        "narrow_sweep": sweep_rows,
        "small_jobs": small_jobs,
        "rans_decode_vs_encode": rans_twins,
        "plan_memory": plan_rows,
        "small_request": small_request,
        "end_to_end": e2e,
    }

    widths = (28, 10, 10, 8)
    lines = [
        f"kernel dispatch: REPRO_KERNELS fast vs reference ({CODEC}, eb={EB} {MODE})",
        "",
        "stage micro (2D smoke field streams)",
        fmt_row(("stage", "ref ms", "fast ms", "speedup"), widths),
    ]
    for stage, r in stage_micro.items():
        lines.append(fmt_row(
            (stage, r["reference"] * 1e3, r["fast"] * 1e3,
             f"{r['speedup']:.1f}x"),
            widths,
        ))
    lines += [
        "",
        f"huffman.decode fast kernel, {lane_decode['symbols']} symbols: "
        f"chain walk {lane_decode['chain_walk'] * 1e3:.2f} ms, "
        f"lanes {lane_decode['lanes'] * 1e3:.2f} ms "
        f"({lane_decode['speedup']:.1f}x, gate {LANE_GATE}x)",
        f"one {bands['bands']}-band {BAND_CODEC} field ({bands['points']} points): "
        f"per band {bands['per_band'] * 1e3:.2f} ms "
        f"({bands['kernel_calls']['per_band']} huffman.decode calls), "
        f"batched {bands['batched'] * 1e3:.2f} ms "
        f"({bands['kernel_calls']['batched']} calls; "
        f"{bands['speedup']:.2f}x, gate {BAND_GATE}x)",
        f"{store_reads['fields']} store fields, cold-read decode "
        f"({store_reads['symbols']} symbols): single-code steps "
        f"{store_reads['single']['decode_ms']:.1f} ms, "
        f"{store_reads['single']['lane_steps_per_symbol']:.2f} own-region lane "
        f"steps/symbol; group steps {store_reads['group']['decode_ms']:.1f} ms, "
        f"{store_reads['group']['lane_steps_per_symbol']:.2f} steps/symbol, "
        f"group tables {store_reads['group']['build_ms']:.1f} ms "
        f"({store_reads['group']['kernel_calls']} huffman.decode calls)",
        f"1-bit-dominant stream, {one_bit['symbols']} symbols: "
        f"{one_bit['lane_steps_per_symbol']:.3f} own-region lane steps/symbol "
        f"(gate {OBD_GATE})",
        f"bitio.pack_codes fast kernel, {packer['symbols']} codes: "
        f"back to back {packer['back_to_back']['ms']:.2f} ms "
        f"({packer['back_to_back']['faults_per_call']:.0f} faults/call), "
        f"after a compress {packer['after_compress']['ms']:.2f} ms "
        f"({packer['after_compress']['faults_per_call']:.0f} faults/call, "
        f"gate {PACK_FAULT_GATE})",
        f"lz77 reconstruct, {reconstruct['tokens']} tokens: "
        f"oracle loop {reconstruct['oracle'] * 1e3:.2f} ms, "
        f"bulk {reconstruct['bulk'] * 1e3:.2f} ms "
        f"({reconstruct['speedup']:.1f}x, gate {RECONSTRUCT_GATE}x)",
    ]
    lines += [
        "",
        "lz77.parse at best_speed, by stream kind and size",
        fmt_row(("stream", "ref ms", "fast ms", "speedup"), widths),
    ]
    for name, r in parse_rows.items():
        lines.append(fmt_row(
            (name, r["reference"] * 1e3, r["fast"] * 1e3,
             f"{r['speedup']:.1f}x"),
            widths,
        ))
    widths_s = (14, 10, 10, 10, 10, 12)
    lines += [
        "",
        "pqd.compress_sweep, 20 x 10000 view: speculation on vs forced off",
        fmt_row(("view", "outliers", "ref ms", "checked ms", "fast ms",
                 "vs checked"), widths_s),
    ]
    for name, r in sweep_rows.items():
        lines.append(fmt_row(
            (name, r["outliers"], r["reference"] * 1e3, r["checked"] * 1e3,
             r["fast"] * 1e3, f"{r['vs_checked']:.2f}x"),
            widths_s,
        ))
    widths_j = (16, 6, 9, 8, 8, 8, 8)
    lines += [
        "",
        f"{small_jobs['jobs']} small-job fields, CPU per compress "
        f"(seed {small_jobs['seed']}; share of the call per piece)",
        fmt_row(("codec", "calls", "ms/call", "remap", "hist", "floor",
                 "steps"), widths_j),
    ]
    for codec, r in small_jobs["codecs"].items():
        share = r["share"]
        lines.append(fmt_row(
            (codec, r["calls"], f"{r['ms_per_call']:.3f}",
             *(f"{100 * share[p]:.1f}%" for p in
               ("rank_remap", "histogram", "gzip_floor", "rans_steps"))),
            widths_j,
        ))
    lines.append(
        f"gzip attempts reaching the LZ77 parse: "
        f"{small_jobs['gzip_parses']['lost']} losing (gate {LOST_PARSE_GATE}), "
        f"{small_jobs['gzip_parses']['won']} winning"
    )
    widths_r = (22, 8, 8, 16, 16, 8)
    lines += [
        "",
        f"{rans_twins['small']['streams']} small-job rANS streams, decode vs "
        f"encode CPU (seed {rans_twins['seed']}; ms per stream, best of passes)",
        fmt_row(("streams", "lanes", "tokens", "encode ms", "decode ms",
                 "ratio"), widths_r),
    ]
    for key, r in (("small-job", rans_twins["small"]),
                   (RANS_LIB_FIELD, rans_twins["lib_ts"])):
        lines.append(fmt_row(
            (f"{key} x{r['streams']}",
             "-".join(str(n) for n in sorted(set(r["lanes"]))),
             r["tokens"],
             "{:.3f}-{:.3f}".format(*r["encode_ms"]),
             "{:.3f}-{:.3f}".format(*r["decode_ms"]),
             f"{r['ratio']:.2f}x"),
            widths_r,
        ))
    lines.append(f"(gate: small-job decode <= {RANS_RATIO_GATE}x encode CPU)")
    widths_p = (14, 10, 8, 8, 12, 14)
    lines += [
        "",
        "sweep plans: bytes kept per interior point, fast sweep ms",
        fmt_row(("plan shape", "border", "B/point", "gate", "compress ms",
                 "decompress ms"), widths_p),
    ]
    for name, r in plan_rows.items():
        lines.append(fmt_row(
            (name, r["border"], f"{r['bytes_per_point']:.2f}", r["gate"],
             r["compress_ms"], r["decompress_ms"]),
            widths_p,
        ))
    counts = small_request["per_decompress"]
    lines += [
        "",
        f"small request: wavesz serve --workers 2, median of "
        f"{small_request['rounds']} rounds x {small_request['requests']} requests",
        fmt_row(("request", "server us", "client us"), (16, 10, 10)),
        *(fmt_row((op, small_request[op]["server_us"], small_request[op]["client_us"]),
                  (16, 10, 10)) for op in ("decompress", "ping")),
        f"per tiny decompress, in-process server: {counts['passes']:.2f} loop passes, "
        f"{counts['self_pipe']:.2f} self-pipe writes (gate {WAKEUP_GATE}), "
        f"{counts['threadsafe']:.2f} call_soon_threadsafe, "
        f"{counts['selectors']:.2f} selectors (gate {SELECTOR_GATE})",
    ]
    lines += ["", "end to end (byte-identical payloads verified)"]
    widths_e = (24, 10, 10, 8, 10, 10, 8)
    lines.append(fmt_row(
        ("field", "c-ref ms", "c-fast ms", "c-spd",
         "d-ref ms", "d-fast ms", "d-spd"),
        widths_e,
    ))
    for name, r in e2e.items():
        lines.append(fmt_row(
            (name,
             r["reference"]["compress_s"] * 1e3,
             r["fast"]["compress_s"] * 1e3,
             f"{r['compress_speedup']:.1f}x",
             r["reference"]["decompress_s"] * 1e3,
             r["fast"]["decompress_s"] * 1e3,
             f"{r['decompress_speedup']:.1f}x"),
            widths_e,
        ))
    smoke_e2e = e2e[SMOKE_FIELD]
    lines += [
        "",
        "fast-mode stage attribution, 2D smoke field (ms)",
        "  compress:   " + ", ".join(
            f"{k}={v * 1e3:.1f}"
            for k, v in smoke_e2e["fast"]["compress_stages_s"].items()
        ),
        "  decompress: " + ", ".join(
            f"{k}={v * 1e3:.1f}"
            for k, v in smoke_e2e["fast"]["decompress_stages_s"].items()
        ),
    ]
    emit("hotpath_kernels", lines)

    (RESULTS_DIR / "BENCH_kernels.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    if smoke:
        failures = []
        if smoke_e2e["compress_speedup"] < 1.0:
            failures.append(
                f"compress regressed: {smoke_e2e['compress_speedup']:.2f}x"
            )
        if smoke_e2e["decompress_speedup"] < 1.0:
            failures.append(
                f"decompress regressed: {smoke_e2e['decompress_speedup']:.2f}x"
            )
        for stage, r in {**stage_micro, **parse_rows, **sweep_rows}.items():
            if r["speedup"] < 1.0:
                failures.append(f"{stage} regressed: {r['speedup']:.2f}x")
        if sweep_rows["clean"]["vs_checked"] < SPEC_GATE:
            failures.append(
                f"speculative sweep {sweep_rows['clean']['vs_checked']:.2f}x "
                f"of its checked path (gate {SPEC_GATE}x)"
            )
        if lane_decode["speedup"] < LANE_GATE:
            failures.append(
                f"lane decode {lane_decode['speedup']:.2f}x of the chain walk "
                f"(gate {LANE_GATE}x)"
            )
        if bands["speedup"] < BAND_GATE:
            failures.append(
                f"{BANDS}-band batch {bands['speedup']:.2f}x of the per-band "
                f"decode (gate {BAND_GATE}x)"
            )
        if one_bit["lane_steps_per_symbol"] > OBD_GATE:
            failures.append(
                f"{one_bit['lane_steps_per_symbol']:.3f} own-region lane steps "
                f"per symbol on the 1-bit-dominant stream (gate {OBD_GATE})"
            )
        if reconstruct["speedup"] < RECONSTRUCT_GATE:
            failures.append(
                f"lz77 reconstruct {reconstruct['speedup']:.2f}x of its oracle "
                f"(gate {RECONSTRUCT_GATE}x)"
            )
        worst = max(r["faults_per_call"] for k, r in packer.items() if k != "symbols")
        if worst > PACK_FAULT_GATE:
            failures.append(
                f"pack_codes {worst:.0f} minor page faults per call "
                f"(gate {PACK_FAULT_GATE})"
            )
        lost = small_jobs["gzip_parses"]["lost"]
        if lost > LOST_PARSE_GATE:
            failures.append(
                f"{lost} losing gzip attempts on the small-job fields reached "
                f"the LZ77 parse (gate {LOST_PARSE_GATE})"
            )
        ratio = rans_twins["small"]["ratio"]
        if ratio > RANS_RATIO_GATE:
            failures.append(
                f"small-job rANS decode {ratio:.2f}x the encode CPU "
                f"(gate {RANS_RATIO_GATE}x)"
            )
        for name, r in plan_rows.items():
            if r["bytes_per_point"] > r["gate"]:
                failures.append(
                    f"the {name} sweep plan keeps {r['bytes_per_point']:.2f} "
                    f"bytes per interior point (gate {r['gate']})"
                )
        if counts["self_pipe"] > WAKEUP_GATE or counts["threadsafe"] > WAKEUP_GATE:
            failures.append(
                f"a tiny served decompress wrote the loop's self-pipe "
                f"{counts['self_pipe']:.2f} times (gate {WAKEUP_GATE})"
            )
        if counts["selectors"] > SELECTOR_GATE:
            failures.append(
                f"a tiny served decompress built {counts['selectors']:.2f} "
                f"selectors for its reply (gate {SELECTOR_GATE})"
            )
        if failures:
            raise AssertionError("perf gate: " + "; ".join(failures))
    return report


def test_hotpath_kernels():
    run(smoke=True)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="2D field only; exit nonzero if fast < 1.0x of reference, "
        "lanes < 1.5x of the chain walk, > 0.5 own-region lane steps per "
        "symbol on a 1-bit-dominant stream, the 8-band batch < 1.2x of the "
        "per-band decode, the bulk reconstruct < 2x of its oracle, the "
        "speculative sweep < 1.3x of its checked path, the packer > 64 "
        "minor page faults per call, a losing gzip attempt on the "
        "small-job fields reaches the LZ77 parse, the small-job rANS "
        "decode takes > 2.2x the CPU of its encode twin, a sweep plan "
        "keeps > 9 bytes per interior point on a 2D shape (65 on 3D), or "
        "a tiny served decompress writes the loop's self-pipe or builds "
        "a selector for its reply",
    )
    args = ap.parse_args()
    try:
        run(smoke=args.smoke)
    except AssertionError as err:
        print(f"FAIL: {err}", file=sys.stderr)
        raise SystemExit(1)

"""``lib_fields``: the codec and kernel layers, in process.

Five registry profiles x four fields, ``compress`` and ``decompress`` as
separate request classes.  Each decompress decodes the payload its
compress class produced in the same pass and is checked against the
original under the resolved bound, so every compress output is verified
too.  The traced run adds per-stage attribution through the public
``recording_stages`` hook and times the dispatched kernels directly on
code streams harvested from the same inputs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from repro import psnr
from repro.codec.registry import get_codec
from repro.config import QuantizerConfig, resolve_error_bound
from repro.encoding.histogram import symbol_histogram
from repro.encoding.huffman import HuffmanCodec, HuffmanTable
from repro.kernels import resolve as resolve_kernel
from repro.lossless.lz77 import LZ77Encoder
from repro.perf import recording_stages
from repro.rans import RansTable, decode_tokens, encode_tokens
from repro.sz.dualquant import prequantize
from repro.sz.pqd import pqd_compress, pqd_decompress

import checks
import inputs
from harness import Ctx, staged
from spec import EB, MODE, PROFILES
from timing import (
    CheckFailure,
    ReqClass,
    by_pass,
    class_time,
    latency_p50,
    overhead_pct,
    rate_mb_s,
    run_alternating,
    run_classes,
)

PREDICT = {"pqd", "prequant", "predict_quant", "wavefront_order"}
ENTROPY = {"codes_entropy", "codes"}


@contextmanager
def _stage(plan: dict) -> Iterator[dict[str, np.ndarray]]:
    """Generate the four variants and run every profile once on one of
    them, so lazy imports and first-call tables are paid before timing."""
    fields = {
        label: inputs.Recipe(**plan["recipes"][label]).apply(
            inputs.base_field(ds, f, sc, rows)
        )
        for label, ds, f, sc, rows in inputs.LIB_FIELDS
    }
    for p in PROFILES:
        codec = get_codec(p)
        codec.decompress(codec.compress(fields["cesm.CLDLOW"], EB, MODE).payload)
    yield fields


class _Pair:
    """The compress and decompress classes of one (field, profile)."""

    def __init__(self, label: str, profile: str, data: np.ndarray) -> None:
        self.key = f"{label}:{profile}"
        self.profile = profile
        self.data = data
        self.codec = get_codec(profile)
        self.cf: Any = None
        self.first_payload: bytes | None = None
        self.psnr_db = float("inf")
        self.recording = False
        self.stages: dict[str, list[dict[str, float]]] = {"c": [], "d": []}
        self.compress = ReqClass(
            f"compress:{self.key}", self._compress, self._check_payload,
            data.nbytes,
        )
        self.decompress = ReqClass(
            f"decompress:{self.key}", self._decompress, self._check_decoded,
            data.nbytes,
        )

    def _recorded(self, side: str, fn):
        if not self.recording:
            return fn()
        with recording_stages() as rec:
            out = fn()
        self.stages[side].append(rec.snapshot())
        return out

    def _compress(self) -> Any:
        return self._recorded(
            "c", lambda: self.codec.compress(self.data, EB, MODE)
        )

    def _decompress(self) -> np.ndarray:
        if self.cf is None:
            raise CheckFailure(f"{self.key}: no payload to decode")
        return self._recorded(
            "d", lambda: self.codec.decompress(self.cf.payload)
        )

    def _check_payload(self, cf: Any) -> None:
        self.cf = cf
        if self.first_payload is None:
            self.first_payload = cf.payload
        checks.same_bytes(cf.payload, self.first_payload, self.key)

    def _check_decoded(self, out: np.ndarray) -> None:
        checks.within_bound(self.data, out, self.cf.bound.absolute, self.key)
        self.psnr_db = min(self.psnr_db, psnr(self.data, out))


def _pairs(fields: dict[str, np.ndarray]) -> list[_Pair]:
    return [_Pair(label, p, data) for label, data in fields.items() for p in PROFILES]


def _classes(pairs: list[_Pair]) -> list[ReqClass]:
    return [c for pair in pairs for c in (pair.compress, pair.decompress)]


def run(ctx: Ctx) -> None:
    plan = inputs.lib_plan(ctx.seed)
    with staged(ctx, lambda: _stage(plan)) as fields:
        pairs = _pairs(fields)
        if ctx.trace:
            _traced(ctx, pairs, fields)
        else:
            _end_to_end(ctx, pairs)


def _end_to_end(ctx: Ctx, pairs: list[_Pair]) -> None:
    samples = run_classes(_classes(pairs), ctx.seconds, ctx.ledger, **ctx.reps)
    compress = [p.compress for p in pairs]
    calls = [s for c in compress for s in samples[c.name]]
    ctx.put("write_mb_s", rate_mb_s(compress, samples))
    ctx.put("read_mb_s", rate_mb_s([p.decompress for p in pairs], samples))
    ctx.put("latency_p50_ms", latency_p50(by_pass(compress, samples)) * 1e3)
    ctx.put("ratio", _ratio(pairs))
    ctx.note_samples("compress call", calls)
    ctx.notes["K"] = min(len(samples[c.name]) for c in compress)


def _ratio(pairs: list[_Pair]) -> float:
    done = [p for p in pairs if p.first_payload is not None]
    kept = sum(len(p.first_payload) for p in done)
    return sum(p.data.nbytes for p in done) / kept if kept else 0.0


# -- traced run --------------------------------------------------------------------


def _traced(ctx: Ctx, pairs: list[_Pair], fields: dict[str, np.ndarray]) -> None:
    classes = _classes(pairs)

    def toggle(recording: bool) -> None:
        for p in pairs:
            p.recording = recording

    plain, traced = run_alternating(
        classes, ctx.share(0.6), ctx.ledger, ctx.tracer, "codec.call",
        quick=ctx.quick, toggle=toggle,
    )
    ctx.put("trace.overhead_pct", overhead_pct(classes, plain, traced))
    ctx.notes["K"] = min(len(traced[c.name]) for c in classes)

    both = {k: plain[k] + traced[k] for k in plain}
    for profile in PROFILES:
        mine = [p for p in pairs if p.profile == profile]
        ctx.put(f"codec.{profile}.compress_mb_s",
                rate_mb_s([p.compress for p in mine], both))
        ctx.put(f"codec.{profile}.decompress_mb_s",
                rate_mb_s([p.decompress for p in mine], both))
        ctx.put(f"codec.{profile}.ratio", _ratio(mine))
    ctx.put("codec.psnr_db_min", min(p.psnr_db for p in pairs))
    ctx.put("codec.bound_violations", ctx.ledger.bound_violations)
    _stage_table(ctx, pairs, traced)
    _kernels(ctx, fields["cesm.TS"], ctx.share(0.35))


def _stage_table(ctx: Ctx, pairs: list[_Pair], traced: dict[str, list[float]]) -> None:
    """Seconds per pass over all classes, by stage bucket (class times).
    Stage seconds are the recorder's own, not calibrated."""
    sums = dict.fromkeys(
        ("predict.c", "table.c", "stream.c", "other.c", "predict.d",
         "entropy.d", "other.d", "untracked"), 0.0,
    )
    for pair in pairs:
        for side, cls in (("c", pair.compress), ("d", pair.decompress)):
            snaps = pair.stages[side]
            if not snaps:
                continue

            def med(names) -> float:
                return class_time([sum(s.get(n, 0.0) for n in names) for s in snaps])

            top = {n for s in snaps for n in s if "." not in n}
            predict = med(PREDICT & top)
            entropy = med(ENTROPY & top)
            tracked = med(top)
            sums[f"predict.{side}"] += predict
            if side == "c":
                table = med({"codes_entropy.table"})
                sums["table.c"] += table
                sums["stream.c"] += entropy - table
            else:
                sums["entropy.d"] += entropy
            sums[f"other.{side}"] += tracked - predict - entropy
            sums["untracked"] += max(0.0, class_time(traced[cls.name]) - tracked)
    ctx.put("codec.stage.predict.compress_s", sums["predict.c"])
    ctx.put("codec.stage.entropy_table.compress_s", sums["table.c"])
    ctx.put("codec.stage.entropy_stream.compress_s", sums["stream.c"])
    ctx.put("codec.stage.other.compress_s", sums["other.c"])
    ctx.put("codec.stage.predict.decompress_s", sums["predict.d"])
    ctx.put("codec.stage.entropy.decompress_s", sums["entropy.d"])
    ctx.put("codec.stage.untracked_s", sums["untracked"] + sums["other.d"])


def _kernels(ctx: Ctx, field: np.ndarray, budget_s: float) -> None:
    """Time each dispatched kernel on streams harvested from one input."""
    bound = resolve_error_bound(field, EB, MODE).absolute
    quant = QuantizerConfig()
    pqd = pqd_compress(field, bound, quant, border="padded")
    syms = pqd.codes.reshape(-1)
    values, counts = symbol_histogram(syms)
    huff = HuffmanCodec(HuffmanTable.from_symbols(syms))
    bits, _ = huff.encode(syms)
    table = RansTable.from_counts(values, counts)
    lanes = encode_tokens(syms, table)
    q = prequantize(field, bound).q
    delta_encode = resolve_kernel("dualquant.delta_encode")
    delta_integrate = resolve_kernel("dualquant.delta_integrate")
    delta = delta_encode(q)
    hist = resolve_kernel("histogram.counts")
    mb = field.nbytes / 1e6

    def expect(ref: Any, what: str):
        def check(out: Any) -> None:
            same = (
                np.array_equal(out, ref) if isinstance(ref, np.ndarray)
                else out == ref
            )
            if not same:
                raise CheckFailure(f"kernel {what} changed its output")
        return check

    def unchecked(_out: Any) -> None:
        return None

    classes = [
        ReqClass("rans_encode", lambda: encode_tokens(syms, table),
                 expect(lanes, "rans.encode")),
        ReqClass("rans_decode", lambda: decode_tokens(lanes, table, syms.size),
                 expect(syms, "rans.decode")),
        ReqClass("huffman_decode", lambda: huff.decode(bits, syms.size),
                 expect(syms, "huffman.decode")),
        ReqClass("pack_codes", lambda: huff.encode(syms)[0],
                 expect(bits, "bitio.pack_codes")),
        ReqClass("lz77_parse", lambda: LZ77Encoder.best_speed().parse(bits),
                 unchecked),
        ReqClass("histogram_counts", lambda: hist(syms)[1],
                 expect(counts, "histogram.counts")),
        ReqClass("pqd_compress_sweep",
                 lambda: pqd_compress(field, bound, quant, border="padded").codes,
                 expect(pqd.codes, "pqd.compress_sweep")),
        ReqClass("pqd_decompress_sweep",
                 lambda: pqd_decompress(
                     pqd.codes, pqd.border_values, pqd.outlier_values,
                     precision=bound, quant=quant, dtype=field.dtype,
                     border="padded"),
                 expect(pqd.decompressed, "pqd.decompress_sweep")),
        ReqClass("dualquant_delta_encode", lambda: delta_encode(q),
                 expect(delta, "dualquant.delta_encode")),
        ReqClass("dualquant_delta_integrate", lambda: delta_integrate(delta),
                 expect(q, "dualquant.delta_integrate")),
    ]
    samples = run_classes(
        classes, budget_s, ctx.ledger, tracer=ctx.tracer, span="kernels.call",
        **ctx.reps,
    )
    for c in classes:
        ctx.put(f"kernels.{c.name}.ms_per_mb", class_time(samples[c.name]) * 1e3 / mb)

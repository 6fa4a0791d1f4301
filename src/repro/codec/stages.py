"""Shared stage implementations extracted from the hand-rolled compressors.

Each class here used to exist as near-identical inline code in two or more
of the six ``compress``/``decompress`` pairs; the wire behaviour of every
stage is bit-identical to the code it replaced (guarded by the golden
streams under ``tests/data/``).  A wire layout has one owner: the
sections and flag keys a stage's ``forward`` writes are read back by the
same stage's ``inverse`` (by the paired stage, for the PW_REL masks) —
no helper module knows them.

Artifact keys published on :attr:`PipelineContext.artifacts`:

``pqd``
    The :class:`~repro.sz.pqd.PQDResult` of the forward PQD loop.
``border_values`` / ``outlier_values``
    Decoded value streams (inverse direction), raster order.
``log_transform``
    The forward :class:`~repro.sz.preprocess.LogTransform` side channels.
``dq_pre`` / ``dq_q``
    Dual-quant phase-1 output: the :class:`~repro.sz.dualquant.
    PrequantResult` and the int64 lattice (forward direction; the inverse
    :class:`DualQuantStage` republishes ``dq_q`` for the phase-1 inverse).
``dq_outlier_deltas`` / ``dq_raw_idx`` / ``dq_raw_values``
    Dual-quant side streams (decoded by :class:`DualQuantValuesStage` on
    the inverse path), raster order.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, ContextManager

import numpy as np

from ..config import ErrorBoundMode, QuantizerConfig, resolve_error_bound
from ..encoding.huffman import HuffmanCodec, HuffmanTable, decode_many
from ..errors import ConfigError, ContainerError, raise_first
from ..kernels import resolve as resolve_kernel
from ..lossless.deflate import deflate, inflate_outcomes
from ..lossless.lz77 import LZ77Encoder
from ..perf.stages import active_recorder
from ..rans import (
    RansTable,
    decode_tokens,
    encode_tokens,
    probe_codes,
    rle_collapse,
    rle_expand,
)
from ..sz.dualquant import (
    codes_to_deltas,
    lattice_to_values,
    predict_encode,
    prequantize,
)
from ..sz.pqd import BorderMode, pqd_compress, pqd_decompress
from ..sz.preprocess import LogTransform, forward_log2, inverse_log2
from ..sz.unpredictable import decode_truncated, encode_truncated
from ..streams import (
    MAX_FIELD_POINTS,
    bound_from_header,
    bound_to_header,
    header_dtype,
    header_int,
    header_shape,
    values_from_bytes,
    values_to_bytes,
)
from .spec import ENTROPY_BACKENDS

if TYPE_CHECKING:
    from ..io.container import Container
    from .pipeline import PipelineContext

__all__ = [
    "ResolveBoundStage",
    "HeaderStage",
    "PQDStage",
    "PrequantStage",
    "DualQuantStage",
    "DualQuantValuesStage",
    "PwRelForwardStage",
    "PwRelMasksStage",
    "EntropyCodesStage",
    "TruncatedValuesStage",
    "VerbatimValuesStage",
    "put_section",
    "take_section",
    "take_sections",
]


def _substage(name: str) -> "ContextManager[None]":
    """Attribute time to a sub-stage key when a recorder is installed.

    The pipeline runner already wraps the whole stage in its name, so
    these nested keys (``codes_entropy.table`` / ``codes_entropy.stream``)
    land as *additional* flat entries in the same profile — the parent
    key keeps the stage total.
    """
    recorder = active_recorder()
    return recorder.stage(name) if recorder is not None else nullcontext()


#: The lossless stage: gzip at best_speed, as SZ-1.4 runs it (paper §4.1).
_GZIP = LZ77Encoder.best_speed()


def put_section(
    container: "Container",
    name: str,
    raw: bytes,
    flag: str,
    *,
    gz_name: str | None = None,
) -> int:
    """Store ``raw`` as a section, gzipped only when that wins.

    The decision travels in the header under ``flag``; a section that
    also changes its name when gzipped passes ``gz_name``.  Returns the
    stored size for the ratio accounting.  :func:`take_section` is the
    one reader of what this writes.  The attempt gets ``len(raw)`` as
    its budget, so one that cannot win stops before it builds a stream.
    """
    gz = deflate(raw, _GZIP, budget=len(raw)) if raw else None
    use_gz = gz is not None
    stored = gz if gz is not None else raw
    container.add(gz_name if use_gz and gz_name else name, stored)
    container.header[flag] = use_gz
    return len(stored)


def take_section(
    container: "Container",
    name: str,
    flag: str,
    *,
    gz_name: str | None = None,
    required: bool = False,
) -> bytes:
    """Read back a :func:`put_section` section, inflated if flagged.

    A header without the flag means "stored raw" — payloads older than
    the flag lack it — unless the section wrote its flag from its first
    format on (``required``), where absence is damage and raises.  The
    container is left as parsed: one ``Container`` decodes any number of
    times.
    """
    return take_sections([container], name, flag, gz_name=gz_name, required=required)[0]


def take_sections(
    containers: "list[Container]",
    name: str,
    flag: str,
    *,
    gz_name: str | None = None,
    required: bool = False,
) -> list[bytes]:
    """:func:`take_section` of the same section in every container, the
    gzipped ones inflated as one batch."""
    stored: list[bytes] = []
    gzipped: list[bool] = []
    for container in containers:
        h = container.header
        use_gz = bool(h[flag] if required else h.get(flag))
        stored.append(container.get(gz_name if use_gz and gz_name else name))
        gzipped.append(use_gz)
    inflated = iter(raise_first(inflate_outcomes([s for s, g in zip(stored, gzipped) if g])))
    return [next(inflated) if g else s for s, g in zip(stored, gzipped)]


class ResolveBoundStage:
    """Error-bound resolution (Table 2 "base 10->2 mapping" when base2).

    Forward resolves the user bound against the data (ABS / VR_REL /
    PW_REL), optionally tightening to a power of two for waveSZ's
    exponent-only arithmetic.  Inverse is a no-op: the resolved bound
    travels in the header and is re-read by the header stage.
    """

    name = "bound"

    def __init__(
        self,
        *,
        base2: bool = False,
        quant: QuantizerConfig | None = None,
    ) -> None:
        self.base2 = base2
        self.quant = quant

    def forward(self, ctx: "PipelineContext") -> None:
        ctx.bound = resolve_error_bound(ctx.data, ctx.eb, ctx.mode, base2=self.base2)
        ctx.quant = self.quant

    def inverse(self, ctx: "PipelineContext") -> None:
        pass


class HeaderStage:
    """Container header assembly: the shared core of every variant header.

    Forward writes the common keys (``shape``/``dtype``/``bound`` and the
    quantizer pair when the variant has one) plus whatever the variant
    hook adds; inverse validates them and populates the typed context
    fields every later inverse stage relies on.  Variant header stages
    subclass this and extend :meth:`write_extra` / :meth:`read_extra`.
    """

    name = "header"

    def __init__(self, *, with_quant: bool = True) -> None:
        self.with_quant = with_quant

    def forward(self, ctx: "PipelineContext") -> None:
        h = ctx.header
        h["shape"] = list(ctx.data.shape)
        h["dtype"] = str(ctx.data.dtype)
        h["bound"] = bound_to_header(ctx.bound)
        if self.with_quant:
            h["quant_bits"] = ctx.quant.bits
            h["reserved_bits"] = ctx.quant.reserved_bits
        ctx.shape = tuple(ctx.data.shape)
        ctx.dtype = ctx.data.dtype
        self.write_extra(ctx)

    def inverse(self, ctx: "PipelineContext") -> None:
        h = ctx.header
        ctx.shape = header_shape(h)
        ctx.dtype = header_dtype(h)
        ctx.bound = bound_from_header(h["bound"])
        if self.with_quant:
            ctx.quant = QuantizerConfig(
                bits=header_int(h, "quant_bits", lo=2, hi=32),
                reserved_bits=header_int(h, "reserved_bits"),
            )
        self.read_extra(ctx)

    def write_extra(self, ctx: "PipelineContext") -> None:
        pass

    def read_extra(self, ctx: "PipelineContext") -> None:
        pass


class PQDStage:
    """The closed Prediction-Quantization-Decompression loop (§2.1/§3.1).

    Covers Table 2's Lorenzo prediction, linear-scaling quantization,
    decompression write-back and overbound check in one feedback loop.
    ``border=None`` reads the border policy (and stencil depth) from the
    header on decode — the SZ-1.4 configuration; a fixed ``border`` pins
    it — waveSZ's verbatim policy.
    """

    name = "pqd"
    dims = (1, 2, 3)  # the Lorenzo stencils

    def __init__(
        self,
        *,
        border: BorderMode | None = None,
        layers: int = 1,
        from_header: bool = False,
    ) -> None:
        self.border = border
        self.layers = layers
        self.from_header = from_header

    def forward(self, ctx: "PipelineContext") -> None:
        res = pqd_compress(
            ctx.work,
            ctx.bound.absolute,
            ctx.quant,
            border=self.border if self.border is not None else "padded",
            layers=self.layers,
        )
        ctx.artifacts["pqd"] = res
        ctx.codes = res.codes

    def inverse(self, ctx: "PipelineContext") -> None:
        h = ctx.header
        if self.from_header:
            border: BorderMode = h["border"]
            if border not in ("padded", "truncate", "verbatim"):
                raise ContainerError(f"unknown border mode {border!r}")
            layers = int(h.get("layers", 1))
        else:
            border = self.border
            layers = self.layers
        codes = ctx.codes
        if codes.ndim == 1:
            codes = codes.reshape(ctx.shape)
        ctx.out = pqd_decompress(
            codes,
            ctx.require("border_values"),
            ctx.require("outlier_values"),
            precision=ctx.bound.absolute,
            quant=ctx.quant,
            dtype=ctx.dtype,
            border=border,
            layers=layers,
        )


class PrequantStage:
    """Dual-quant phase 1: snap the field to the error-bound lattice.

    The *only* lossy stage of the dual-quant pipeline — everything after
    it is exact integer arithmetic, which is what makes the wavesz-dp
    wire format bit-exact against its own spec.  Forward publishes the
    int64 lattice (plus the raw-point side channel for points the lattice
    cannot hold within the bound); inverse maps the reconstructed lattice
    back to values and overlays the raw points verbatim.
    """

    name = "prequant"
    dims = (1, 2, 3)  # the dual-quant engine

    def forward(self, ctx: "PipelineContext") -> None:
        pre = prequantize(ctx.work, ctx.bound.absolute)
        ctx.artifacts["dq_pre"] = pre
        ctx.artifacts["dq_q"] = pre.q

    def inverse(self, ctx: "PipelineContext") -> None:
        out = lattice_to_values(ctx.take("dq_q"), ctx.bound.absolute, ctx.dtype)
        raw_idx = ctx.require("dq_raw_idx")
        raw_values = ctx.require("dq_raw_values")
        if raw_idx.size:
            flat = out.reshape(-1)
            if int(raw_idx.min()) < 0 or int(raw_idx.max()) >= flat.size:
                raise ContainerError("raw-point index out of field bounds")
            flat[raw_idx] = raw_values
        ctx.out = out


class DualQuantStage:
    """Dual-quant phase 2: data-parallel Lorenzo residuals over integers.

    Forward turns the lattice into quant codes through the dispatchable
    ``dualquant.delta_encode`` sweep (residuals beyond the quantizer
    range become verbatim outlier deltas behind code 0); inverse merges
    the two streams back and reconstructs the lattice with the
    ``dualquant.delta_integrate`` prefix-sum sweep.  No feedback loop in
    either direction — this stage is why dp tiles may fan out across
    workers.
    """

    name = "predict_quant"
    dims = (1, 2, 3)  # the Lorenzo residual sweeps

    def forward(self, ctx: "PipelineContext") -> None:
        codes, outlier_deltas = predict_encode(ctx.require("dq_q"), ctx.quant)
        ctx.codes = codes
        ctx.artifacts["dq_outlier_deltas"] = outlier_deltas

    def inverse(self, ctx: "PipelineContext") -> None:
        codes, ctx.codes = ctx.codes, None  # consumed: see PipelineContext.take
        if codes.ndim == 1:
            codes = codes.reshape(ctx.shape)
        delta = codes_to_deltas(codes, ctx.take("dq_outlier_deltas"), ctx.quant)
        del codes
        ctx.artifacts["dq_q"] = resolve_kernel("dualquant.delta_integrate")(delta)


class DualQuantValuesStage:
    """Dual-quant side streams: outlier deltas + raw points, gzip-aware.

    Outlier residuals are little-endian int64 raster streams; raw points
    travel as (flat index, verbatim value) pairs.  Each stream is stored
    gzipped only when that wins (``outliers_gzipped`` / ``raw_gzipped``
    header flags), mirroring waveSZ's verbatim-through-gzip policy.
    """

    name = "values"

    def forward(self, ctx: "PipelineContext") -> None:
        pre = ctx.require("dq_pre")
        outlier_deltas = ctx.require("dq_outlier_deltas")
        ctx.outlier_bytes = put_section(
            ctx.container, "outliers",
            outlier_deltas.astype("<i8").tobytes(), "outliers_gzipped",
        )
        raw_stream = (
            pre.raw_idx.astype("<i8").tobytes()
            + values_to_bytes(pre.raw_values)
        )
        ctx.extra_bytes += put_section(ctx.container, "raw_points", raw_stream, "raw_gzipped")
        ctx.n_unpredictable = int(outlier_deltas.size) + pre.n_raw
        ctx.n_border = 0

    def inverse(self, ctx: "PipelineContext") -> None:
        h = ctx.header
        n_out = header_int(h, "n_outliers", hi=MAX_FIELD_POINTS)
        n_raw = header_int(h, "n_raw", hi=MAX_FIELD_POINTS)
        dtype = header_dtype(h)
        out_raw = take_section(ctx.container, "outliers", "outliers_gzipped")
        if len(out_raw) < n_out * 8:
            raise ContainerError(
                f"outlier-delta stream holds {len(out_raw)} bytes, "
                f"needs {n_out * 8}"
            )
        ctx.artifacts["dq_outlier_deltas"] = np.frombuffer(
            out_raw, dtype="<i8", count=n_out
        ).astype(np.int64)
        raw_stream = take_section(ctx.container, "raw_points", "raw_gzipped")
        need = n_raw * (8 + np.dtype(dtype).itemsize)
        if len(raw_stream) < need:
            raise ContainerError(
                f"raw-point stream holds {len(raw_stream)} bytes, needs {need}"
            )
        ctx.artifacts["dq_raw_idx"] = np.frombuffer(
            raw_stream, dtype="<i8", count=n_raw
        ).astype(np.int64)
        ctx.artifacts["dq_raw_values"] = np.frombuffer(
            raw_stream, dtype=np.dtype(dtype).newbyteorder("<"),
            count=n_raw, offset=n_raw * 8,
        ).astype(dtype)


class PwRelForwardStage:
    """SZ-2.0's logarithmic transform for pointwise-relative bounds.

    Forward swaps the working field for ``log2|d|`` and stashes the
    sign/zero bitmaps; inverse (running after the PQD reconstruction)
    reads the side-channel sections emitted by :class:`PwRelMasksStage`
    and maps the reconstruction back out of log space.
    """

    name = "pw_rel_log"

    def forward(self, ctx: "PipelineContext") -> None:
        if ctx.bound.mode is ErrorBoundMode.PW_REL:
            transform = forward_log2(ctx.data)
            ctx.artifacts["log_transform"] = transform
            ctx.work = transform.log_values

    def inverse(self, ctx: "PipelineContext") -> None:
        if ctx.bound.mode is not ErrorBoundMode.PW_REL:
            return
        neg = take_section(ctx.container, "pw_negative", "pw_neg_gz")
        zero = take_section(ctx.container, "pw_zero", "pw_zero_gz")
        negative, zeros = LogTransform.masks_from_bytes(neg, zero, ctx.shape)
        ctx.out = inverse_log2(ctx.out, negative, zeros)


class PwRelMasksStage:
    """Emit the PW_REL sign/zero bitmaps as (optionally gzipped) sections.

    Section emission is a separate stage from the transform so the
    sections land *after* the value streams, preserving the original wire
    layout; the inverse side is a no-op because
    :class:`PwRelForwardStage.inverse` consumes the sections directly.
    """

    name = "pw_rel_masks"

    def forward(self, ctx: "PipelineContext") -> None:
        transform = ctx.artifacts.get("log_transform")
        if transform is None:
            return
        neg, zero = transform.masks_to_bytes()
        ctx.extra_bytes += put_section(ctx.container, "pw_negative", neg, "pw_neg_gz")
        ctx.extra_bytes += put_section(ctx.container, "pw_zero", zero, "pw_zero_gz")

    def inverse(self, ctx: "PipelineContext") -> None:
        pass


class EntropyCodesStage:
    """Pluggable entropy coding of the quant-code stream.

    The SZ lossless tail (Table 2) made backend-selectable:

    ``huffman``
        The customized Huffman pass with gzip riding along on the
        already-dense stream; the smaller representation wins
        (``codes_gzipped`` header flag, ``huffman_codes`` vs
        ``huffman_codes_gz`` section).  Byte-identical to the original
        hardwired stage — pre-rANS payloads carry no ``entropy`` header
        key and keep decoding unchanged.
    ``rans``
        The zero-run RLE pre-pass (when the dominant-symbol runs warrant
        it) followed by the interleaved-lane static rANS coder of
        :mod:`repro.rans`.  Falls back to Huffman when the alphabet
        exceeds the 4096-slot table.
    ``auto``
        Resolve per payload via :func:`repro.rans.probe_codes` — one
        histogram (reused as the rANS table build) plus closed-form size
        estimates.

    The *resolved* backend is recorded in the container header
    (``entropy`` key, written only when it is ``rans``) so the inverse
    direction needs no knowledge of the knob, and in ``ctx.meta`` so
    stats consumers (store manifests, service) can surface it.  Table
    build and stream coding report separate ``codes_entropy.table`` /
    ``codes_entropy.stream`` timing keys when a stage recorder is
    installed.
    """

    name = "codes_entropy"

    def __init__(
        self,
        *,
        backend: str = "huffman",
        meta_bits: bool = True,
    ) -> None:
        if backend not in ENTROPY_BACKENDS:
            raise ConfigError(
                f"unknown entropy backend {backend!r}; "
                f"expected one of {ENTROPY_BACKENDS}"
            )
        self.backend = backend
        self.meta_bits = meta_bits

    def forward(self, ctx: "PipelineContext") -> None:
        codes_flat = ctx.codes.reshape(-1)
        resolved = self.backend
        probe = None
        if resolved != "huffman":
            probe = probe_codes(codes_flat)
            if resolved == "auto":
                resolved = probe.pick
            elif not probe.rans_ok:
                resolved = "huffman"
        if resolved == "rans":
            self._forward_rans(ctx, codes_flat, probe)
        else:
            self._forward_huffman(ctx, codes_flat)
        ctx.meta["entropy"] = resolved

    def _forward_huffman(self, ctx: "PipelineContext", codes_flat: np.ndarray) -> None:
        container = ctx.container
        with _substage("codes_entropy.table"):
            table = HuffmanTable.from_symbols(codes_flat)
            table_blob = table.to_bytes()
        with _substage("codes_entropy.stream"):
            payload, nbits = HuffmanCodec(table).encode(codes_flat)
            container.add("huffman_table", table_blob)
            stored = put_section(
                container, "huffman_codes", payload,
                "codes_gzipped", gz_name="huffman_codes_gz",
            )
            container.header["n_codes"] = int(codes_flat.size)
            container.header["huffman_bits"] = int(nbits)
        ctx.encoded_code_bytes = len(table_blob) + stored
        if self.meta_bits:
            ctx.meta["huffman_bits"] = container.header["huffman_bits"]

    def _forward_rans(
        self, ctx: "PipelineContext", codes_flat: np.ndarray, probe
    ) -> None:
        container = ctx.container
        h = container.header
        with _substage("codes_entropy.table"):
            table = RansTable.from_counts(probe.values, probe.token_counts)
            table_blob = table.to_bytes()
        with _substage("codes_entropy.stream"):
            if probe.use_rle:
                tokens, runs = rle_collapse(codes_flat, probe.run_symbol)
            else:
                tokens, runs = codes_flat, None
            blob = encode_tokens(tokens, table)
            container.add("rans_table", table_blob)
            container.add("rans_codes", blob)
            h["entropy"] = "rans"
            h["n_codes"] = int(codes_flat.size)
            h["rans_tokens"] = int(tokens.size)
            runs_bytes = 0
            if runs is not None:
                runs_bytes = put_section(
                    container, "rle_runs", runs.tobytes(),
                    "rle_runs_gz",
                )
                h["rle_symbol"] = int(probe.run_symbol)
        ctx.encoded_code_bytes = len(table_blob) + len(blob) + runs_bytes
        if self.meta_bits:
            ctx.meta["rans_tokens"] = int(tokens.size)

    def inverse(self, ctx: "PipelineContext") -> None:
        self.inverse_many([ctx])

    def inverse_many(self, ctxs: "list[PipelineContext]") -> None:
        """Every context's code stream; the Huffman-coded ones inflate as
        one batch and decode as another (one kernel call each)."""
        huffman: list[tuple["PipelineContext", int]] = []
        for ctx in ctxs:
            h = ctx.header
            backend = h.get("entropy", "huffman")
            n = header_int(h, "n_codes", hi=MAX_FIELD_POINTS)
            if backend == "huffman":
                huffman.append((ctx, n))
            elif backend == "rans":
                ctx.codes = self._inverse_rans(ctx.container, n)
            else:
                raise ContainerError(f"unknown entropy backend {backend!r} in header")
        streams = take_sections(
            [ctx.container for ctx, _ in huffman],
            "huffman_codes", "codes_gzipped", gz_name="huffman_codes_gz",
        )
        items = [
            (HuffmanCodec(HuffmanTable.from_bytes(ctx.container.get("huffman_table"))[0]),
             stream, n)
            for (ctx, n), stream in zip(huffman, streams)
        ]
        for (ctx, _), codes in zip(huffman, decode_many(items)):
            ctx.codes = codes

    def _inverse_rans(self, container: "Container", n: int) -> np.ndarray:
        """Wire layout: a ``rans_table`` section (2^12-normalized frequency
        table), a ``rans_codes`` section (interleaved-lane byte stream) and,
        when the zero-run pre-pass fired, a ``rle_runs`` side stream of u8
        run lengths (gzipped when that wins, ``rle_runs_gz`` flag) with the
        collapsed symbol in the ``rle_symbol`` header field."""
        h = container.header
        m = header_int(h, "rans_tokens", hi=MAX_FIELD_POINTS)
        table = RansTable.from_bytes(container.get("rans_table"))
        tokens = decode_tokens(container.get("rans_codes"), table, m)
        if container.has("rle_runs"):
            run_symbol = header_int(h, "rle_symbol")
            runs = np.frombuffer(
                take_section(container, "rle_runs", "rle_runs_gz"),
                dtype=np.uint8,
            )
            codes = rle_expand(tokens, runs, run_symbol)
        else:
            if m != n:
                raise ContainerError(
                    f"rANS header declares {m} tokens for {n} codes without RLE"
                )
            codes = tokens
        if codes.size != n:
            raise ContainerError(
                f"rANS stream expands to {codes.size} codes, header says {n}"
            )
        return codes


class TruncatedValuesStage:
    """SZ-1.4 border/outlier packing: truncation analysis or raw floats.

    With the ``truncate`` border policy the streams go through the
    truncation-based binary analysis of :mod:`repro.sz.unpredictable`;
    otherwise they are stored as native-endian raw floats.  The policy is
    pinned on compress and read back from the ``border`` header field on
    decode.
    """

    name = "values"

    def __init__(self, border: BorderMode = "padded") -> None:
        self.border = border

    def forward(self, ctx: "PipelineContext") -> None:
        res = ctx.require("pqd")
        container = ctx.container
        p = ctx.bound.absolute
        if self.border == "truncate":
            border_stream = encode_truncated(res.border_values, p)
            outlier_stream = encode_truncated(res.outlier_values, p)
        else:
            border_stream = res.border_values.tobytes()
            outlier_stream = res.outlier_values.tobytes()
        container.add("border", border_stream)
        container.add("outliers", outlier_stream)
        ctx.border_bytes = len(border_stream)
        ctx.outlier_bytes = len(outlier_stream)
        ctx.n_border = res.n_border
        ctx.n_unpredictable = res.n_outliers

    def inverse(self, ctx: "PipelineContext") -> None:
        h = ctx.header
        container = ctx.container
        border_mode = h.get("border")
        if border_mode not in ("padded", "truncate", "verbatim"):
            raise ContainerError(f"unknown border mode {border_mode!r}")
        p = bound_from_header(h["bound"]).absolute
        dtype = header_dtype(h)
        n_border = header_int(h, "n_border", hi=MAX_FIELD_POINTS)
        n_out = header_int(h, "n_outliers", hi=MAX_FIELD_POINTS)
        if border_mode == "truncate":
            border_vals = decode_truncated(container.get("border"), n_border, p, dtype)
            outlier_vals = decode_truncated(container.get("outliers"), n_out, p, dtype)
        else:
            border_vals = np.frombuffer(
                container.get("border"), dtype=dtype, count=n_border
            )
            outlier_vals = np.frombuffer(
                container.get("outliers"), dtype=dtype, count=n_out
            )
        ctx.artifacts["border_values"] = border_vals
        ctx.artifacts["outlier_values"] = outlier_vals


class VerbatimValuesStage:
    """waveSZ border/outlier packing: verbatim floats through the gzip IP.

    §3.2: unpredictable data goes straight to the lossless stage, so each
    stream is stored gzipped when that wins (``border_gzipped`` /
    ``outliers_gzipped`` flags) and still counts as unpredictable data in
    the ratio — Table 7's conservative accounting.
    """

    name = "values"

    def forward(self, ctx: "PipelineContext") -> None:
        res = ctx.require("pqd")
        ctx.border_bytes = put_section(
            ctx.container, "border",
            values_to_bytes(res.border_values), "border_gzipped",
        )
        ctx.outlier_bytes = put_section(
            ctx.container, "outliers",
            values_to_bytes(res.outlier_values), "outliers_gzipped",
        )
        ctx.n_border = res.n_border
        ctx.n_unpredictable = res.n_outliers + res.n_border

    def inverse(self, ctx: "PipelineContext") -> None:
        h = ctx.header
        dtype = header_dtype(h)
        border = take_section(ctx.container, "border", "border_gzipped")
        outliers = take_section(ctx.container, "outliers", "outliers_gzipped")
        ctx.artifacts["border_values"] = values_from_bytes(
            border, header_int(h, "n_border", hi=MAX_FIELD_POINTS), dtype
        )
        ctx.artifacts["outlier_values"] = values_from_bytes(
            outliers, header_int(h, "n_outliers", hi=MAX_FIELD_POINTS), dtype
        )

"""Shared serialization helpers used by the compressor front-ends.

SZ-1.4, GhostSZ and waveSZ all shuttle the same kinds of byte streams into
the container — quantization codes (raw 16-bit or Huffman-coded),
truncated/verbatim value streams — differing only in which combination the
variant uses (paper Table 2).  Centralizing the encodings here keeps the
variants byte-compatible where the paper says they are.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .config import ErrorBound, ErrorBoundMode
from .encoding.huffman import HuffmanCodec, HuffmanTable
from .errors import ContainerError
from .io.container import Container
from .types import CompressionStats

if TYPE_CHECKING:
    from .lossless import GzipStage

__all__ = [
    "encode_codes_huffman",
    "decode_codes_huffman",
    "decode_codes_rans",
    "encode_codes_raw",
    "decode_codes_raw",
    "values_to_bytes",
    "values_from_bytes",
    "bound_to_header",
    "bound_from_header",
    "build_stats",
    "decompress_auto",
    "header_int",
    "header_shape",
    "header_dtype",
    "MAX_FIELD_POINTS",
]

#: Upper bound on the number of points a payload header may declare.  The
#: repro's largest fields are a few hundred million points; anything above
#: this is a corrupt/mutated header trying to force a giant allocation.
MAX_FIELD_POINTS = 1 << 28


def header_int(h: dict, key: str, *, lo: int | None = 0, hi: int | None = None) -> int:
    """Read an integer header field with range validation.

    Missing keys, non-integral values and out-of-range values all raise
    :class:`ContainerError` so corrupt headers cannot leak ``KeyError`` /
    ``TypeError`` or drive absurd allocations downstream.
    """
    if key not in h:
        raise ContainerError(f"header missing field {key!r}")
    v = h[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ContainerError(f"header field {key!r} is not an integer: {v!r}")
    if lo is not None and v < lo:
        raise ContainerError(f"header field {key!r} = {v} below minimum {lo}")
    if hi is not None and v > hi:
        raise ContainerError(f"header field {key!r} = {v} above maximum {hi}")
    return v


def header_shape(
    h: dict, key: str = "shape", *, max_points: int = MAX_FIELD_POINTS
) -> tuple[int, ...]:
    """Read and sanity-check a shape tuple from a payload header."""
    if key not in h:
        raise ContainerError(f"header missing field {key!r}")
    raw = h[key]
    if not isinstance(raw, (list, tuple)) or not raw or len(raw) > 4:
        raise ContainerError(f"header field {key!r} is not a 1-4D shape: {raw!r}")
    shape = []
    points = 1
    for d in raw:
        if isinstance(d, bool) or not isinstance(d, int) or d <= 0:
            raise ContainerError(f"bad dimension {d!r} in header {key!r}")
        points *= d
        if points > max_points:
            raise ContainerError(
                f"header {key!r} declares more than {max_points} points"
            )
        shape.append(d)
    return tuple(shape)


def header_dtype(h: dict, key: str = "dtype") -> np.dtype:
    """Read the field dtype from a payload header (float32/float64 only)."""
    raw = h.get(key)
    if raw not in ("float32", "float64"):
        raise ContainerError(f"header field {key!r} is not a float dtype: {raw!r}")
    return np.dtype(raw)


def encode_codes_huffman(container: Container, codes_flat: np.ndarray) -> int:
    """Add the customized-Huffman sections for a code stream.

    Returns the payload size in bytes (table + bitstream) for accounting.
    """
    table = HuffmanTable.from_symbols(codes_flat)
    codec = HuffmanCodec(table)
    payload, nbits = codec.encode(codes_flat)
    container.add("huffman_table", table.to_bytes())
    container.add("huffman_codes", payload)
    container.header["n_codes"] = int(codes_flat.size)
    container.header["huffman_bits"] = int(nbits)
    return len(payload) + len(table.to_bytes())


def decode_codes_huffman(container: Container) -> np.ndarray:
    table, _ = HuffmanTable.from_bytes(container.get("huffman_table"))
    n = header_int(container.header, "n_codes", hi=MAX_FIELD_POINTS)
    return HuffmanCodec(table).decode(container.get("huffman_codes"), n)


def decode_codes_rans(container: Container, lossless: "GzipStage") -> np.ndarray:
    """Decode the RLE+rANS sections written by ``EntropyCodesStage``.

    Wire layout: a ``rans_table`` section (2^12-normalized frequency
    table), a ``rans_codes`` section (interleaved-lane byte stream) and,
    when the zero-run pre-pass fired, a ``rle_runs`` side stream of u8
    run lengths (gzipped when that wins, ``rle_runs_gz`` flag) with the
    collapsed symbol in the ``rle_symbol`` header field.
    """
    from .rans import RansTable, decode_tokens, rle_expand

    h = container.header
    n = header_int(h, "n_codes", hi=MAX_FIELD_POINTS)
    m = header_int(h, "rans_tokens", hi=MAX_FIELD_POINTS)
    table = RansTable.from_bytes(container.get("rans_table"))
    tokens = decode_tokens(container.get("rans_codes"), table, m)
    if container.has("rle_runs"):
        run_symbol = header_int(h, "rle_symbol")
        runs_raw = container.get("rle_runs")
        if h.get("rle_runs_gz"):
            runs_raw = lossless.decompress(runs_raw)
        runs = np.frombuffer(runs_raw, dtype=np.uint8)
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


def encode_codes_raw(container: Container, codes_flat: np.ndarray, bits: int) -> int:
    """Add a raw fixed-width little-endian code stream (the FPGA format).

    Both GhostSZ and waveSZ emit 16-bit codes straight into the FPGA gzip
    IP; raw packing is that wire format.
    """
    if bits <= 16:
        payload = codes_flat.astype("<u2").tobytes()
    elif bits <= 32:
        payload = codes_flat.astype("<u4").tobytes()
    else:
        raise ContainerError(f"raw code width {bits} unsupported")
    container.add("raw_codes", payload)
    container.header["n_codes"] = int(codes_flat.size)
    container.header["raw_code_bits"] = 16 if bits <= 16 else 32
    return len(payload)


def decode_codes_raw(container: Container) -> np.ndarray:
    n = header_int(container.header, "n_codes", hi=MAX_FIELD_POINTS)
    width = header_int(container.header, "raw_code_bits")
    if width not in (16, 32):
        raise ContainerError(f"raw code width {width} unsupported")
    dt = "<u2" if width == 16 else "<u4"
    payload = container.get("raw_codes")
    if len(payload) < n * (width // 8):
        raise ContainerError(
            f"raw code stream holds {len(payload)} bytes, "
            f"needs {n * (width // 8)}"
        )
    return np.frombuffer(payload, dtype=dt, count=n).astype(np.int64)


def values_to_bytes(values: np.ndarray) -> bytes:
    """Verbatim little-endian float stream (waveSZ border/outlier path)."""
    return np.ascontiguousarray(values).astype(
        values.dtype.newbyteorder("<"), copy=False
    ).tobytes()


def values_from_bytes(payload: bytes, n: int, dtype: np.dtype) -> np.ndarray:
    dt = np.dtype(dtype).newbyteorder("<")
    if n < 0 or len(payload) < n * dt.itemsize:
        raise ContainerError(
            f"value stream holds {len(payload)} bytes, needs {n} x {dt.itemsize}"
        )
    return np.frombuffer(payload, dtype=dt, count=n).astype(np.dtype(dtype))


def bound_to_header(bound: ErrorBound) -> dict:
    return {
        "mode": bound.mode.value,
        "value": bound.value,
        "absolute": bound.absolute,
        "base2": bound.base2,
        "exponent": bound.exponent,
    }


def bound_from_header(h: dict) -> ErrorBound:
    try:
        bound = ErrorBound(
            mode=ErrorBoundMode(h["mode"]),
            value=float(h["value"]),
            absolute=float(h["absolute"]),
            base2=bool(h["base2"]),
            exponent=None if h["exponent"] is None else int(h["exponent"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ContainerError(f"corrupt error-bound header: {exc}") from exc
    if not (bound.absolute > 0.0) or not np.isfinite(bound.absolute):
        raise ContainerError(
            f"corrupt error-bound header: absolute bound {bound.absolute!r}"
        )
    return bound


def decompress_auto(payload: bytes) -> np.ndarray:
    """Decode any field payload by its ``variant`` header.

    This is the single decode path: plain payloads dispatch through the
    central codec registry; tiled containers (``variant = "tiled[...]"``)
    reassemble through :func:`repro.parallel.tile_decompress`, which
    itself resolves the band codec from the ``inner_variant`` header.
    The container is parsed and checksummed once, here, and handed down
    parsed.  Callers holding an opaque payload need neither the
    producing compressor nor its name.  Imports are local because the
    codec layer builds on this module.
    """
    from .codec.registry import REGISTRY

    container, variant = REGISTRY.open(payload)
    if variant.startswith("tiled["):
        from .parallel import tile_decompress

        return tile_decompress(None, container)
    return REGISTRY.create(variant).decompress(container)


def build_stats(
    *,
    data: np.ndarray,
    encoded_code_bytes: int,
    outlier_bytes: int,
    border_bytes: int,
    n_unpredictable: int,
    n_border: int,
    extra_bytes: int = 0,
) -> CompressionStats:
    """Size accounting matching the artifact's ratio formula."""
    original = int(data.size * data.dtype.itemsize)
    compressed = encoded_code_bytes + outlier_bytes + border_bytes + extra_bytes
    return CompressionStats(
        original_bytes=original,
        compressed_bytes=compressed,
        encoded_code_bytes=encoded_code_bytes,
        outlier_bytes=outlier_bytes,
        border_bytes=border_bytes,
        n_points=int(data.size),
        n_unpredictable=n_unpredictable,
        n_border=n_border,
    )

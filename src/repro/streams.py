"""Shared serialization helpers used by the compressor front-ends.

Validated header reads, verbatim value streams, the error-bound header
form and the size accounting every variant shares, plus
:func:`decompress_auto`, the single decode entry point.  The section
layouts themselves belong to the stages that write them
(:mod:`repro.codec.stages` and the variant modules).  The field contract
is stated once here for both directions: :func:`check_field` on encode,
:func:`header_dtype` / :func:`header_shape` on decode.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from .config import ErrorBound, ErrorBoundMode
from .errors import ContainerError, DTypeError, ShapeError
from .types import CompressionStats

if TYPE_CHECKING:
    from .io.container import Container

__all__ = [
    "values_to_bytes",
    "values_from_bytes",
    "bound_to_header",
    "bound_from_header",
    "build_stats",
    "decompress_auto",
    "check_field",
    "header_int",
    "header_shape",
    "header_dtype",
    "FIELD_DIMS",
    "FIELD_DTYPES",
    "MAX_FIELD_POINTS",
]

#: Upper bound on the number of points a payload header may declare.  The
#: repro's largest fields are a few hundred million points; anything above
#: this is a corrupt/mutated header trying to force a giant allocation.
MAX_FIELD_POINTS = 1 << 28

#: The field dtypes a payload header may carry, as ``str(dtype)`` spells them.
FIELD_DTYPES = ("float32", "float64")

#: The dimensionalities a payload header may declare; a codec whose stages
#: need fewer narrows this (``PipelineCompressor.dims``).
FIELD_DIMS = (1, 2, 3, 4)


def check_field(data: Any, codec: str, dims: tuple[int, ...] = FIELD_DIMS) -> None:
    """Refuse a field ``codec`` (taking ``dims``) could not write readably:
    :class:`DTypeError` for the dtype, :class:`ShapeError` for the
    dimensionality or point count, in one wording."""
    data = np.asarray(data)
    if str(data.dtype) not in FIELD_DTYPES:
        refusal: type[Exception] = DTypeError
    elif data.ndim not in dims or not 1 <= data.size <= MAX_FIELD_POINTS:
        refusal = ShapeError
    else:
        return
    raise refusal(
        f"{codec} accepts {'/'.join(f'{d}D' for d in dims)} "
        f"{'/'.join(FIELD_DTYPES)} fields of 1 to {MAX_FIELD_POINTS} points, "
        f"got {data.dtype} of shape {data.shape}"
    )


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


def header_shape(h: dict, key: str = "shape") -> tuple[int, ...]:
    """Read and sanity-check a shape tuple from a payload header."""
    if key not in h:
        raise ContainerError(f"header missing field {key!r}")
    raw = h[key]
    if not isinstance(raw, (list, tuple)) or len(raw) not in FIELD_DIMS:
        raise ContainerError(f"header field {key!r} is not a 1-4D shape: {raw!r}")
    shape = []
    points = 1
    for d in raw:
        if isinstance(d, bool) or not isinstance(d, int) or d <= 0:
            raise ContainerError(f"bad dimension {d!r} in header {key!r}")
        points *= d
        if points > MAX_FIELD_POINTS:
            raise ContainerError(
                f"header {key!r} declares more than {MAX_FIELD_POINTS} points"
            )
        shape.append(d)
    return tuple(shape)


def header_dtype(h: dict, key: str = "dtype") -> np.dtype:
    """Read the field dtype from a payload header (float32/float64 only)."""
    raw = h.get(key)
    if raw not in FIELD_DTYPES:
        raise ContainerError(f"header field {key!r} is not a float dtype: {raw!r}")
    return np.dtype(raw)


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


def decompress_auto(payload: "bytes | Container") -> np.ndarray:
    """Decode any field payload by its ``variant`` header.

    This is the one decode-any-payload entry: plain payloads dispatch
    through the central codec registry; tiled containers (``variant =
    "tiled[...]"``) reassemble through :func:`repro.parallel.
    tile_decompress`, which resolves the band codec from the
    ``inner_variant`` header.  ``payload`` is the raw bytes, parsed and
    checksummed once here, or a :class:`Container` the caller already
    parsed; either way it is handed down parsed.  Callers holding an
    opaque payload need neither the producing compressor nor its name.
    Imports are local because the codec layer builds on this module.
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

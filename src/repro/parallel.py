"""Tiled (block-parallel) compression — the OpenMP / multi-lane decomposition.

SZ's OpenMP mode and a multi-lane FPGA deployment both decompose a field
into independent bands along the slowest axis: each band compresses with
no cross-band feedback, so bands map 1:1 onto threads or PQD lanes
(Figure 8's parallelism axis).  The price is the prediction context lost
at band seams — measured by ``bench_ablation_tiling``.

Because bands are self-contained payloads, the tiled container also gives
*random access*: :func:`decompress_tile` reconstructs one band without
touching the rest, the access pattern post-analysis tools want on huge
snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .config import ErrorBound, ErrorBoundMode, resolve_error_bound
from .errors import ContainerError, ShapeError, decode_guard
from .io.container import Container
from .streams import header_dtype, header_int, header_shape
from .tiling import TileGrid
from .types import CompressedField, CompressionStats

if TYPE_CHECKING:  # annotation-only: the codec layer imports this package
    from .codec.pipeline import Compressor

__all__ = [
    "TiledResult",
    "tile_compress",
    "tile_decompress",
    "decompress_tile",
    "BandPlan",
    "plan_bands",
    "assemble_tiles",
]


@dataclass(frozen=True)
class TiledResult:
    """A tiled compression result: per-band payloads plus aggregates."""

    payload: bytes
    n_tiles: int
    stats: CompressionStats
    tile_ratios: tuple[float, ...]

    @property
    def ratio(self) -> float:
        return self.stats.ratio


class BandPlan(NamedTuple):
    """One field's tiling plan; ``[0]`` is the bound, ``[1]`` the slices."""

    #: the user bound resolved against the whole field
    bound: ErrorBound
    #: one slice of axis 0 per band, in order
    slices: list[slice]
    #: the ``(eb, mode)`` every band is compressed under
    per_band: tuple[float, str]


def plan_bands(
    data: np.ndarray, eb: float, mode: str, n_tiles: int, *, clamp: bool = False
) -> BandPlan:
    """Resolve the global bound and band slices for a tiled compression.

    Shared by the serial path below, the worker-pool fan-out in
    :mod:`repro.service.scheduler` and the array store's tile writer, so all
    three produce identical plans — including what each band is
    compressed under (``per_band``).  ABS and VR_REL are resolved
    *globally* (VR-REL against the full field's range, as SZ's OpenMP
    mode does) and applied per band as an absolute bound, so the
    guarantee is identical to the monolithic compressor's.  A
    pointwise-relative bound is local to each point, so every band keeps
    ``(eb, "pw_rel")`` itself: its resolved absolute lives in the log
    domain and means nothing applied to raw values.

    Geometry comes from :class:`repro.tiling.TileGrid`: a tile count the
    split axis cannot hold raises :class:`ShapeError` naming the feasible
    maximum, or is clamped down to it with ``clamp=True``; a field too
    small for even one band always raises.
    """
    if data.ndim < 2:
        raise ShapeError("tiling needs at least 2 dimensions")
    bound = resolve_error_bound(data, eb, mode)
    grid = TileGrid.regular(data.shape, n_tiles, clamp=clamp)
    per_band = (
        (bound.value, "pw_rel") if bound.mode is ErrorBoundMode.PW_REL
        else (bound.absolute, "abs")
    )
    return BandPlan(bound, grid.band_slices(), per_band)


def assemble_tiles(
    inner_variant: str,
    data: np.ndarray,
    bound: ErrorBound,
    slices: list[slice],
    compressed: list[CompressedField],
) -> TiledResult:
    """Build the tiled container from per-band results, in band order.

    Deterministic given the inputs: the serial path and the parallel
    fan-out assemble byte-identical payloads as long as the per-band
    compressor is deterministic (all of this library's are).
    """
    container = Container(
        header={
            "variant": f"tiled[{inner_variant}]",
            "inner_variant": inner_variant,
            "shape": list(data.shape),
            "dtype": str(data.dtype),
            "n_tiles": len(slices),
            "band_starts": [s.start for s in slices],
            "eb_abs": bound.absolute,
        }
    )
    total_compressed = 0
    total_unpred = 0
    total_border = 0
    ratios = []
    for t, cf in enumerate(compressed):
        container.add(f"tile{t}", cf.payload)
        total_compressed += cf.stats.compressed_bytes
        total_unpred += cf.stats.n_unpredictable
        total_border += cf.stats.n_border
        ratios.append(cf.stats.ratio)

    stats = CompressionStats(
        original_bytes=int(data.size * data.dtype.itemsize),
        compressed_bytes=total_compressed,
        encoded_code_bytes=total_compressed,
        outlier_bytes=0,
        border_bytes=0,
        n_points=int(data.size),
        n_unpredictable=total_unpred,
        n_border=total_border,
    )
    return TiledResult(
        payload=container.to_bytes(),
        n_tiles=len(slices),
        stats=stats,
        tile_ratios=tuple(ratios),
    )


def tile_compress(
    compressor: Compressor,
    data: np.ndarray,
    eb: float = 1e-3,
    mode: str = "vr_rel",
    *,
    n_tiles: int = 4,
) -> TiledResult:
    """Compress ``data`` as ``n_tiles`` independent bands along axis 0.

    This is the serial reference path; the service scheduler
    (``BatchScheduler._fan_out``) fans the same bands out across its
    worker pool and produces a byte-identical payload.
    """
    data = np.ascontiguousarray(data)
    plan = plan_bands(data, eb, mode, n_tiles)
    compressed = [
        compressor.compress(np.ascontiguousarray(data[sl]), *plan.per_band)
        for sl in plan.slices
    ]
    return assemble_tiles(
        compressor.name, data, plan.bound, plan.slices, compressed
    )


def _parse(
    payload: bytes | Container, compressor: Compressor | None
) -> tuple[Container, Compressor]:
    """Open a tiled payload and pick its band decompressor.

    With an explicit ``compressor`` the payload must match it; with
    ``None`` the band codec is resolved from the ``inner_variant`` header
    through the central codec registry.
    """
    container = (
        payload
        if isinstance(payload, Container)
        else Container.from_bytes(payload)
    )
    h = container.header
    if compressor is None:
        inner = h.get("inner_variant")
        if not isinstance(inner, str):
            raise ContainerError(
                f"tiled payload carries no inner variant name: {inner!r}"
            )
        from .codec.registry import get_codec

        return container, get_codec(inner)
    if h.get("inner_variant") != compressor.name:
        raise ContainerError(
            f"tiled payload holds {h.get('inner_variant')!r} bands, "
            f"decompressor is {compressor.name}"
        )
    return container, compressor


def _grid_from_header(h: dict) -> TileGrid:
    """Rebuild the (untrusted) tile grid from a tiled payload header."""
    shape = header_shape(h)
    n = header_int(h, "n_tiles", lo=1, hi=shape[0])
    starts = h.get("band_starts")
    if not isinstance(starts, list) or len(starts) != n:
        raise ContainerError(
            f"tiled header declares {n} tiles but carries band starts "
            f"{starts!r}"
        )
    return TileGrid.from_starts(shape, starts)


def decompress_tile(
    compressor: Compressor | None, payload: bytes, index: int
) -> np.ndarray:
    """Random access: reconstruct band ``index`` only.

    ``index`` follows Python sequence conventions: negative values count
    from the end (``-1`` is the last band).  Out-of-bounds access raises
    :class:`ShapeError` naming the valid range.  ``compressor=None``
    dispatches on the payload's ``inner_variant`` header via the codec
    registry.
    """
    with decode_guard("tiled payload"):
        container, comp = _parse(payload, compressor)
        grid = _grid_from_header(container.header)
        return comp.decompress(container.get(f"tile{grid.resolve(index)}"))


def tile_decompress(
    compressor: Compressor | None, payload: bytes | Container
) -> np.ndarray:
    """Reconstruct the full field from a tiled payload (or from its
    already parsed :class:`Container`).

    ``compressor=None`` dispatches on the payload's ``inner_variant``
    header via the codec registry.
    """
    with decode_guard("tiled payload"):
        container, comp = _parse(payload, compressor)
        h = container.header
        grid = _grid_from_header(h)
        out = np.empty(grid.shape, dtype=header_dtype(h))
        for t in range(grid.n_tiles):
            out[grid.band_slice(t)] = comp.decompress(container.get(f"tile{t}"))
        return out

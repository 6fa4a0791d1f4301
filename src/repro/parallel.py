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

The decomposition is one path from write to read.  :meth:`BandPlan.bands`
is the only spelling of what each band is compressed under — the serial
loop here, the store's tile writer and the scheduler's fan-out all
iterate it — and :func:`decode_band` is the only band decoder: the tiled
container's readers, the store's tile reader and ``fsck``'s deep pass
all refuse a band that does not decode to its grid's shape and dtype.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from .config import ErrorBound, ErrorBoundMode, resolve_error_bound
from .errors import ContainerError, decode_guard
from .io.container import Container
from .streams import FIELD_DIMS, check_field, header_dtype, header_int, header_shape
from .tiling import TileGrid
from .types import CompressedField, CompressionStats

if TYPE_CHECKING:  # annotation-only: the codec layer imports this package
    from .codec.pipeline import Compressor

__all__ = [
    "tile_compress",
    "tile_decompress",
    "decompress_tile",
    "decode_band",
    "BandPlan",
    "plan_bands",
    "pack_tiles",
]


class BandPlan(NamedTuple):
    """One field's tiling plan; ``[0]`` is the bound, ``[1]`` the slices."""

    #: the user bound resolved against the whole field
    bound: ErrorBound
    #: one slice of axis 0 per band, in order
    slices: list[slice]

    def bands(self, data: np.ndarray) -> Iterator[tuple[np.ndarray, float, str]]:
        """Each band of ``data`` as ``(contiguous rows, eb, mode)``.

        ABS and VR_REL are resolved *globally* (VR-REL against the full
        field's range, as SZ's OpenMP mode does) and applied per band as
        an absolute bound, so the guarantee is identical to the
        monolithic compressor's.  A pointwise-relative bound is local to
        each point, so every band keeps ``(eb, "pw_rel")`` itself: its
        resolved absolute lives in the log domain and means nothing
        applied to raw values.
        """
        if self.bound.mode is ErrorBoundMode.PW_REL:
            eb, mode = self.bound.value, "pw_rel"
        else:
            eb, mode = self.bound.absolute, "abs"
        for sl in self.slices:
            yield np.ascontiguousarray(data[sl]), eb, mode

    def compress(
        self, compressor: Compressor, data: np.ndarray
    ) -> list[CompressedField]:
        """Every band of ``data`` compressed in order, serially."""
        return [
            compressor.compress(rows, eb, mode)
            for rows, eb, mode in self.bands(data)
        ]


def plan_bands(
    data: np.ndarray, eb: float, mode: str, n_tiles: int, *, clamp: bool = False
) -> BandPlan:
    """Resolve the global bound and band slices for a tiled compression.

    Shared by the serial path below, the worker-pool fan-out in
    :mod:`repro.service.scheduler` and the array store's tile writer, so all
    three produce identical plans.  Geometry comes from
    :class:`repro.tiling.TileGrid`, before the bound: a tile count the
    split axis cannot hold raises :class:`ShapeError` naming the feasible
    maximum, or is clamped down to it with ``clamp=True``; a field it
    cannot tile at all always raises.
    """
    grid = TileGrid.regular(data.shape, n_tiles, clamp=clamp)
    bound = resolve_error_bound(data, eb, mode)
    return BandPlan(bound, grid.band_slices())


def pack_tiles(
    inner_variant: str,
    data: np.ndarray,
    plan: BandPlan,
    compressed: list[CompressedField],
) -> CompressedField:
    """Build the tiled container from per-band results, in band order.

    Deterministic given the inputs: the serial path and the parallel
    fan-out pack byte-identical payloads as long as the per-band
    compressor is deterministic (all of this library's are).
    """
    container = Container(
        header={
            "variant": f"tiled[{inner_variant}]",
            "inner_variant": inner_variant,
            "shape": list(data.shape),
            "dtype": str(data.dtype),
            "n_tiles": len(plan.slices),
            "band_starts": [s.start for s in plan.slices],
            "eb_abs": plan.bound.absolute,
        }
    )
    for t, cf in enumerate(compressed):
        container.add(f"tile{t}", cf.payload)
    total = sum(cf.stats.compressed_bytes for cf in compressed)
    return CompressedField(
        variant=f"tiled[{inner_variant}]",
        shape=tuple(data.shape),
        dtype=str(data.dtype),
        bound=plan.bound,
        quant=None,
        payload=container.to_bytes(),
        stats=CompressionStats(
            original_bytes=int(data.size * data.dtype.itemsize),
            compressed_bytes=total,
            encoded_code_bytes=total,
            outlier_bytes=0,
            border_bytes=0,
            n_points=int(data.size),
            n_unpredictable=sum(cf.stats.n_unpredictable for cf in compressed),
            n_border=sum(cf.stats.n_border for cf in compressed),
        ),
        meta={
            "n_tiles": len(compressed),
            "tile_ratios": tuple(cf.stats.ratio for cf in compressed),
        },
    )


def tile_compress(
    compressor: Compressor,
    data: np.ndarray,
    eb: float = 1e-3,
    mode: str = "vr_rel",
    *,
    n_tiles: int = 4,
) -> CompressedField:
    """Compress ``data`` as ``n_tiles`` independent bands along axis 0.

    Returns a :class:`CompressedField` of variant ``tiled[<band codec>]``
    whose ``bound`` is the plan's global bound and whose ``meta`` holds
    ``n_tiles`` and the per-band ``tile_ratios``.  This is the serial
    reference path; the service scheduler (``BatchScheduler._fan_out``)
    fans the same bands out across its worker pool and produces a
    byte-identical payload.  The band codec's field contract is checked
    on the whole field first.
    """
    check_field(data, compressor.name, getattr(compressor, "dims", FIELD_DIMS))
    data = np.ascontiguousarray(data)
    plan = plan_bands(data, eb, mode, n_tiles)
    return pack_tiles(compressor.name, data, plan, plan.compress(compressor, data))


def decode_band(
    compressor: Compressor,
    grid: TileGrid,
    index: int,
    payload: bytes | Container,
    dtype: np.dtype | str,
) -> np.ndarray:
    """Decode band ``index`` of a tiled field and check it is that band.

    A band that decodes to another shape than ``grid.tile_shape(index)``
    or to another dtype than ``dtype`` is refused with
    :class:`ContainerError` naming the tile: a valid payload in the wrong
    slot must never be broadcast or cast into the field.
    """
    band = compressor.decompress(payload)
    expected = grid.tile_shape(index)
    if band.shape != expected or band.dtype != dtype:
        raise ContainerError(
            f"tile {index} decoded to {band.dtype} {band.shape}, the grid "
            f"needs {dtype} {expected}"
        )
    return band


def _open(
    payload: bytes | Container, compressor: Compressor | None
) -> tuple[Container, Compressor, TileGrid]:
    """Open a tiled payload, pick its band decompressor, rebuild its grid.

    With an explicit ``compressor`` the payload must match it; with
    ``None`` the band codec is resolved from the ``inner_variant`` header
    through the central codec registry.  The grid's values are untrusted
    header fields and are fully revalidated.
    """
    container = (
        payload
        if isinstance(payload, Container)
        else Container.from_bytes(payload)
    )
    h = container.header
    inner = h.get("inner_variant")
    if compressor is None:
        if not isinstance(inner, str):
            raise ContainerError(
                f"tiled payload carries no inner variant name: {inner!r}"
            )
        from .codec.registry import get_codec

        compressor = get_codec(inner)
    elif inner != compressor.name:
        raise ContainerError(
            f"tiled payload holds {inner!r} bands, "
            f"decompressor is {compressor.name}"
        )
    shape = header_shape(h)
    n = header_int(h, "n_tiles", lo=1, hi=shape[0])
    starts = h.get("band_starts")
    if not isinstance(starts, list) or len(starts) != n:
        raise ContainerError(
            f"tiled header declares {n} tiles but carries band starts "
            f"{starts!r}"
        )
    return container, compressor, TileGrid.from_starts(shape, starts)


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
        container, comp, grid = _open(payload, compressor)
        t = grid.resolve(index)
        return decode_band(
            comp, grid, t, container.get(f"tile{t}"),
            header_dtype(container.header),
        )


def tile_decompress(
    compressor: Compressor | None, payload: bytes | Container
) -> np.ndarray:
    """Reconstruct the full field from a tiled payload (or from its
    already parsed :class:`Container`).

    ``compressor=None`` dispatches on the payload's ``inner_variant``
    header via the codec registry.
    """
    with decode_guard("tiled payload"):
        container, comp, grid = _open(payload, compressor)
        dtype = header_dtype(container.header)
        out = np.empty(grid.shape, dtype=dtype)
        for t in range(grid.n_tiles):
            out[grid.band_slice(t)] = decode_band(
                comp, grid, t, container.get(f"tile{t}"), dtype
            )
        return out

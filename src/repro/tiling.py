"""Tile-grid geometry: the one place tile index ↔ array offsets lives.

The band decomposition (independent tiles along the slowest axis, paper
§3.1–3.2 / Figure 8) is consumed by three layers — the serial tiled
compressor, the worker-pool fan-out, and the array store's slice reader —
and each needs the same arithmetic: where does band ``t`` start, which
bands overlap a requested row window, how do band-local rows map back to
field rows.  :class:`TileGrid` centralizes that arithmetic so the layers
cannot drift apart.

A grid is defined by the field shape and the band start offsets along
axis 0; :meth:`TileGrid.regular` builds the canonical near-equal split
(the same ``linspace`` edges SZ's OpenMP mode uses), while
:meth:`TileGrid.from_starts` revalidates a grid read back from a payload
or manifest header, where every value is attacker-controlled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

__all__ = ["TileGrid", "check_tileable", "normalize_slices", "MIN_BAND_ROWS"]

#: Thinnest band the predictors tolerate (one context row + one data row).
MIN_BAND_ROWS = 2


def check_tileable(shape: tuple[int, ...]) -> None:
    """The one tiling precondition: bands are runs of axis-0 rows."""
    if len(shape) < 2:
        raise ShapeError(f"tiling needs a 2D or higher field, got {len(shape)}D")


@dataclass(frozen=True)
class TileGrid:
    """A band decomposition of an nd field along axis 0."""

    shape: tuple[int, ...]
    starts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.shape) < 1 or any(d < 1 for d in self.shape):
            raise ShapeError(f"bad field shape {self.shape}")
        n0 = self.shape[0]
        if not self.starts or self.starts[0] != 0:
            raise ShapeError(f"band starts must begin at 0, got {self.starts}")
        prev = -1
        for s in self.starts:
            if not isinstance(s, int) or not prev < s < n0 + 1:
                raise ShapeError(
                    f"band starts {self.starts} are not strictly increasing "
                    f"offsets inside a first dimension of {n0}"
                )
            prev = s

    # -- construction -----------------------------------------------------

    @staticmethod
    def max_tiles(shape: tuple[int, ...]) -> int:
        """The largest feasible band count for ``shape`` (may be 0)."""
        return shape[0] // MIN_BAND_ROWS

    @classmethod
    def regular(
        cls, shape: tuple[int, ...], n_tiles: int, *, clamp: bool = False
    ) -> "TileGrid":
        """The canonical near-equal split into ``n_tiles`` bands.

        Requests no field can satisfy — more bands than the split axis can
        hold at :data:`MIN_BAND_ROWS` rows each — raise :class:`ShapeError`
        naming the feasible maximum, or are clamped down to it with
        ``clamp=True``.  A field too small for even one band always raises:
        there is nothing to clamp to.
        """
        check_tileable(shape)
        if n_tiles < 1:
            raise ShapeError(f"n_tiles must be >= 1, got {n_tiles}")
        n0 = int(shape[0])
        feasible = cls.max_tiles(shape)
        if feasible < 1:
            raise ShapeError(
                f"field with first dimension {n0} is smaller than one "
                f"{MIN_BAND_ROWS}-row band and cannot be tiled"
            )
        if n_tiles > feasible:
            if not clamp:
                raise ShapeError(
                    f"{n_tiles} tiles over a first dimension of {n0} leaves "
                    f"bands thinner than {MIN_BAND_ROWS} points "
                    f"(at most {feasible} tiles fit)"
                )
            n_tiles = feasible
        edges = np.linspace(0, n0, n_tiles + 1, dtype=int)
        return cls(tuple(int(d) for d in shape), tuple(int(e) for e in edges[:-1]))

    @classmethod
    def from_starts(cls, shape, starts) -> "TileGrid":
        """Rebuild (and fully validate) a grid from header/manifest values."""
        try:
            shape_t = tuple(int(d) for d in shape)
            starts_t = tuple(int(s) for s in starts)
        except (TypeError, ValueError) as exc:
            raise ShapeError(f"bad tile grid {shape!r} / {starts!r}") from exc
        return cls(shape_t, starts_t)

    # -- geometry ---------------------------------------------------------

    @property
    def n_tiles(self) -> int:
        return len(self.starts)

    def resolve(self, index: int) -> int:
        """Normalize a (possibly negative) tile index, range-checked."""
        n = self.n_tiles
        resolved = index + n if index < 0 else index
        if not 0 <= resolved < n:
            raise ShapeError(
                f"tile index {index} out of range for {n} tiles "
                f"(valid: {-n}..{n - 1})"
            )
        return resolved

    def band_range(self, index: int) -> tuple[int, int]:
        """Row span ``[start, stop)`` of band ``index`` along axis 0."""
        t = self.resolve(index)
        stop = self.starts[t + 1] if t + 1 < self.n_tiles else self.shape[0]
        return self.starts[t], stop

    def band_slice(self, index: int) -> slice:
        start, stop = self.band_range(index)
        return slice(start, stop)

    def tile_slices(self, index: int) -> tuple[slice, ...]:
        """Full nd indexer placing band ``index`` inside the field."""
        return (self.band_slice(index),) + tuple(
            slice(0, d) for d in self.shape[1:]
        )

    def tile_shape(self, index: int) -> tuple[int, ...]:
        start, stop = self.band_range(index)
        return (stop - start,) + self.shape[1:]

    def band_slices(self) -> list[slice]:
        """All band slices in order (the ``plan_bands`` contract)."""
        return [self.band_slice(t) for t in range(self.n_tiles)]

    def overlapping(self, rows: slice) -> tuple[int, ...]:
        """Tile indices whose rows intersect ``rows`` (a concrete slice)."""
        lo = 0 if rows.start is None else rows.start
        hi = self.shape[0] if rows.stop is None else rows.stop
        return tuple(
            t
            for t in range(self.n_tiles)
            if self.band_range(t)[0] < hi and self.band_range(t)[1] > lo
        )


def normalize_slices(
    shape: tuple[int, ...], slices
) -> tuple[slice, ...]:
    """Turn a user slice request into concrete per-axis ``slice`` objects.

    Accepts a single ``slice``/pair or a sequence of them, one per leading
    axis; trailing axes default to their full extent.  Each element may be
    a ``slice`` (step 1 or ``None`` only), a ``(start, stop)`` pair with
    ``None`` meaning "to the edge", or ``None`` for a full axis.  Negative
    offsets count from the end, as in NumPy.  A bound that is not an
    integer (a string, a float, a bool), empty windows and anything
    out of range raise :class:`ShapeError` — the store promises either a
    correct sub-array or a clean error, never silent clipping surprises.
    """
    if isinstance(slices, slice) or (
        isinstance(slices, (tuple, list))
        and len(slices) == 2
        and all(s is None or isinstance(s, int) for s in slices)
    ):
        slices = (slices,)
    if len(slices) > len(shape):
        raise ShapeError(
            f"{len(slices)} slice axes for a {len(shape)}-dimensional field"
        )
    out: list[slice] = []
    for axis, d in enumerate(shape):
        if axis < len(slices):
            s = slices[axis]
        else:
            s = None
        if s is None:
            out.append(slice(0, d))
            continue
        if isinstance(s, (tuple, list)):
            if len(s) != 2:
                raise ShapeError(f"axis {axis}: bad slice window {s!r}")
            s = slice(s[0], s[1])
        if not isinstance(s, slice):
            raise ShapeError(f"axis {axis}: bad slice window {s!r}")
        if s.step not in (None, 1):
            raise ShapeError(f"axis {axis}: only unit-step slices, got {s.step}")
        for bound in (s.start, s.stop):
            if isinstance(bound, bool) or not isinstance(
                bound, (int, np.integer, type(None))
            ):
                raise ShapeError(
                    f"axis {axis}: slice bound {bound!r} is not an integer"
                )
        start = 0 if s.start is None else int(s.start)
        stop = d if s.stop is None else int(s.stop)
        if start < 0:
            start += d
        if stop < 0:
            stop += d
        if not 0 <= start < stop <= d:
            raise ShapeError(
                f"axis {axis}: window [{s.start}:{s.stop}] is empty or "
                f"outside a dimension of {d}"
            )
        out.append(slice(start, stop))
    return tuple(out)

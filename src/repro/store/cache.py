"""Byte-budgeted LRU cache of decoded tiles, keyed by content digest.

Decoding a tile costs orders of magnitude more than copying it, so the
store keeps recently decoded tiles resident.  Keys are the tiles'
*content* digests — the same addressing the object area uses — which
means deduplicated tiles (identical bytes across fields or versions)
share one cache entry: a warm read of dataset B can be served entirely
by tiles decoded for dataset A.

The budget is in bytes of decoded array data, not entry count, because
tile sizes vary wildly with field shape.  Eviction is straight LRU
(:class:`~repro.lru.BoundedLRU`).  Counters (hits / misses / evictions /
resident bytes) are kept locally and, when a
:class:`~repro.service.metrics.MetricsRegistry` is attached, mirrored
into its gauges under ``store.cache.*`` on every mutation — the gauges
register at construction (all zero) so a metrics snapshot is meaningful
before the first read arrives.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigError
from ..lru import BoundedLRU

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.metrics import MetricsRegistry

__all__ = ["TileCache"]

#: Default decoded-tile budget: enough for a few full snapshots of the
#: repro's synthetic fields without ever mattering on a laptop.
DEFAULT_CACHE_BYTES = 64 << 20


class TileCache(BoundedLRU):
    """LRU ``digest -> decoded ndarray`` map under a byte budget."""

    def __init__(
        self,
        max_bytes: int = DEFAULT_CACHE_BYTES,
        *,
        metrics: "MetricsRegistry | None" = None,
        gauge_prefix: str = "store.cache",
    ) -> None:
        if max_bytes < 0:
            raise ConfigError(f"cache budget must be >= 0, got {max_bytes}")
        super().__init__(max_cost=int(max_bytes))
        self._metrics = metrics
        self._prefix = gauge_prefix
        self._publish()  # register the gauge series before first traffic

    @property
    def max_bytes(self) -> int:
        return self.max_cost

    @property
    def resident_bytes(self) -> int:
        return self.cost

    def get(self, digest: str) -> np.ndarray | None:
        """Look up a decoded tile; counts a hit or a miss."""
        tile = super().get(digest)
        self._publish()
        return tile

    def put(self, digest: str, tile: np.ndarray) -> None:
        """Insert a decoded tile, evicting LRU entries past the budget.

        Tiles larger than the whole budget are simply not cached.  The
        stored array is marked read-only: every consumer receives the
        same object, so a writable view would let one reader silently
        corrupt every later read of that tile.
        """
        tile = np.ascontiguousarray(tile)
        tile.setflags(write=False)
        super().put(digest, tile, tile.nbytes)
        self._publish()

    def discard(self, digest: str) -> None:
        """Drop one entry (e.g. its object was just garbage-collected)."""
        self.pop(digest)
        self._publish()

    def clear(self) -> None:
        super().clear()
        self._publish()

    def stats(self) -> dict[str, int]:
        """Point-in-time counter values (also mirrored as gauges)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "resident_bytes": self.cost,
                "entries": len(self._entries),
                "max_bytes": self.max_cost,
            }

    def _publish(self) -> None:
        if self._metrics is None:
            return
        self._metrics.set_gauges(
            {f"{self._prefix}.{k}": v for k, v in self.stats().items()}
        )

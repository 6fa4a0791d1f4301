"""One least-recently-used map under a bound: entries, summed cost, or both.

The tile cache, the manifest memo, the sweep plan cache, a worker's
shared-memory attachments and the server's replay cache are each an
instance.  It imports nothing from the package, so the kernels and the
service can use it without importing the store.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

__all__ = ["BoundedLRU"]


class BoundedLRU:
    """Thread-safe LRU ``key -> value`` map under an entry and/or cost bound.

    ``hits`` / ``misses`` count :meth:`get` lookups, ``evictions`` the
    values the bound pushed out, and ``cost`` sums what is held.  A value
    whose cost alone exceeds ``max_cost`` is not kept: it would evict
    everything else and then itself.  ``on_evict(key, value)`` runs once
    per evicted value, after the lock is released, so it may block or
    call back in.  A bound changed after construction applies from the
    next :meth:`put`.
    """

    def __init__(
        self,
        *,
        max_entries: int | None = None,
        max_cost: int | None = None,
        on_evict: Callable[[Any, Any], None] | None = None,
    ) -> None:
        self.max_entries = max_entries
        self.max_cost = max_cost
        self.on_evict = on_evict
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self.cost = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        """Membership only: no hit or miss counted, no recency touched —
        for a caller deciding what to fetch before the counting lookups."""
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable) -> Any:
        """The value under ``key`` (now the most recent), or None; counts a
        hit or a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: Hashable, value: Any, cost: int = 0) -> None:
        """Hold ``value`` as the most recent, evicting the least recent
        until both bounds hold.

        Any older value under ``key`` is dropped first, so an oversize
        value leaves nothing behind under its key.
        """
        evicted = []
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.cost -= old[1]
            if self.max_cost is None or cost <= self.max_cost:
                self._entries[key] = value, cost
                self.cost += cost
                while (self.max_cost is not None and self.cost > self.max_cost) or (
                    self.max_entries is not None and len(self._entries) > self.max_entries
                ):
                    gone, (held, held_cost) = self._entries.popitem(last=False)
                    self.cost -= held_cost
                    self.evictions += 1
                    evicted.append((gone, held))
        if self.on_evict is not None:
            for gone, held in evicted:
                self.on_evict(gone, held)

    def pop(self, key: Hashable) -> Any:
        """Remove ``key``; its value, or None if it was not held."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return None
            self.cost -= entry[1]
            return entry[0]

    def clear(self) -> None:
        """Drop every value; the counters keep counting."""
        with self._lock:
            self._entries.clear()
            self.cost = 0

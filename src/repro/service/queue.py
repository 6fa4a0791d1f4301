"""Bounded priority queue with explicit backpressure.

The service's cardinal rule is *no unbounded memory growth*: a field
awaiting compression pins its full uncompressed array, so the queue holds
at most ``maxsize`` jobs and a submission against a full queue either
fails fast (:class:`~repro.errors.QueueFullError`) or — via the awaitable
:meth:`BoundedJobQueue.put` — waits until a worker drains a slot.  Both
forms make backpressure observable to callers instead of hiding it in
swap.

Ordering is by descending :attr:`CompressionJob.priority`, FIFO within a
priority level (a monotonic sequence number breaks ties), matching the
coarse-grained batch scheduling cuSZ uses across independent fields.

Single event loop only: all coordination uses ``asyncio`` primitives, so
the queue must be produced into and consumed from the same loop.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools

from ..errors import QueueFullError, ServiceError
from .jobs import JobHandle

__all__ = ["BoundedJobQueue"]


class BoundedJobQueue:
    """An asyncio priority queue with a hard capacity and depth telemetry."""

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ServiceError(f"queue capacity must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._heap: list[tuple[int, int, JobHandle]] = []
        self._seq = itertools.count()
        self._has_space = asyncio.Event()
        self._has_space.set()
        self._closed = False
        #: telemetry: deepest the queue has ever been, and submissions
        #: rejected by backpressure
        self.high_water = 0
        self.rejections = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def depth(self) -> int:
        return len(self._heap)

    @property
    def full(self) -> bool:
        return len(self._heap) >= self.maxsize

    @property
    def closed(self) -> bool:
        return self._closed

    def _push(self, handle: JobHandle) -> None:
        heapq.heappush(
            self._heap, (-handle.job.priority, next(self._seq), handle)
        )
        self.high_water = max(self.high_water, len(self._heap))
        if self.full:
            self._has_space.clear()

    def put_nowait(self, handle: JobHandle) -> None:
        """Enqueue or reject immediately — the fail-fast backpressure path."""
        if self._closed:
            raise ServiceError("queue is closed")
        if self.full:
            self.rejections += 1
            raise QueueFullError(
                f"job queue full ({self.maxsize} jobs): submission "
                f"{handle.job.job_id!r} rejected; retry later or submit "
                "with block=True"
            )
        self._push(handle)

    async def put(self, handle: JobHandle) -> None:
        """Enqueue, waiting for space — the delay form of backpressure."""
        while self.full and not self._closed:
            self._has_space.clear()
            await self._has_space.wait()
        if self._closed:
            raise ServiceError("queue is closed")
        self._push(handle)

    def peek(self) -> JobHandle | None:
        """The handle :meth:`get_nowait` would return next, without
        removing it.

        The micro-batcher's lookahead: a dispatcher that just pulled a
        small job peeks at the head to decide whether the next job can
        ride the same worker round-trip.
        """
        return self._heap[0][2] if self._heap else None

    def get_nowait(self) -> JobHandle | None:
        """Dequeue the highest-priority job, or ``None`` when empty —
        closed or not, so a closed queue still drains.

        Every consumer runs on one event loop, so a peek-then-get_nowait
        pair is atomic between awaits — the batch collector relies on
        that.
        """
        if not self._heap:
            return None
        _, _, handle = heapq.heappop(self._heap)
        self._has_space.set()
        return handle

    def close(self) -> None:
        """Close the queue to new jobs and wake every blocked
        :meth:`put` (drain-then-stop)."""
        self._closed = True
        self._has_space.set()

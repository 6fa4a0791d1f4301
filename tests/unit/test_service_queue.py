"""Unit tests for the bounded job queue (backpressure semantics)."""

import asyncio

import numpy as np
import pytest

from repro.errors import QueueFullError, ServiceError
from repro.service.jobs import JobHandle, make_job
from repro.service.queue import BoundedJobQueue


def _handle(priority: int = 0) -> JobHandle:
    return JobHandle(
        make_job("sz14", np.zeros((4, 4), dtype=np.float32),
                 priority=priority)
    )


class TestBackpressure:
    def test_put_nowait_rejects_when_full(self):
        q = BoundedJobQueue(maxsize=2)
        q.put_nowait(_handle())
        q.put_nowait(_handle())
        with pytest.raises(QueueFullError, match="full"):
            q.put_nowait(_handle())
        assert q.rejections == 1
        assert q.depth == 2
        assert q.high_water == 2

    def test_blocking_put_waits_for_space(self):
        async def main():
            q = BoundedJobQueue(maxsize=1)
            q.put_nowait(_handle())
            putter = asyncio.ensure_future(q.put(_handle()))
            await asyncio.sleep(0)
            assert not putter.done()  # backpressure: waiting, not growing
            q.get_nowait()
            await asyncio.wait_for(putter, 1.0)
            assert q.depth == 1

        asyncio.run(main())

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ServiceError):
            BoundedJobQueue(maxsize=0)


class TestOrdering:
    def test_priority_order_then_fifo(self):
        q = BoundedJobQueue(maxsize=8)
        low1, low2 = _handle(0), _handle(0)
        high = _handle(5)
        q.put_nowait(low1)
        q.put_nowait(low2)
        q.put_nowait(high)
        assert q.peek() is high
        assert q.get_nowait() is high
        assert q.get_nowait() is low1
        assert q.get_nowait() is low2
        assert q.get_nowait() is None


class TestClose:
    def test_close_drains_then_raises(self):
        async def main():
            q = BoundedJobQueue(maxsize=1)
            h = _handle()
            q.put_nowait(h)
            putter = asyncio.ensure_future(q.put(_handle()))
            await asyncio.sleep(0)
            q.close()  # wakes the blocked put, which is refused
            with pytest.raises(ServiceError, match="closed"):
                await asyncio.wait_for(putter, 1.0)
            assert q.get_nowait() is h  # closed queues still drain
            assert q.get_nowait() is None
            with pytest.raises(ServiceError, match="closed"):
                q.put_nowait(_handle())

        asyncio.run(main())

"""Unit tests for the batch scheduler (inline pool: deterministic)."""

import asyncio

import numpy as np
import pytest

from repro.codec.registry import get_codec
from repro.errors import (
    ChecksumError,
    DeadlineExpiredError,
    JobFailedError,
    QueueFullError,
    ShapeError,
)
from repro.service.jobs import JobState, make_job
from repro.service.scheduler import BatchScheduler, run_batch
from repro.service.workers import run_job


def _sched(**kw):
    kw.setdefault("workers", 0)  # inline pool
    kw.setdefault("backoff_base_s", 0.001)
    return BatchScheduler(**kw)


class TestHappyPath:
    def test_batch_bit_exact_with_direct_path(self, smooth2d):
        codecs = ["sz14", "wavesz", "zfp-like", "ghostsz"]
        jobs = [make_job(c, smooth2d) for c in codecs]
        results, stats = run_batch(jobs, workers=0)
        for c, r in zip(codecs, results):
            direct = get_codec(c).compress(smooth2d, 1e-3, "vr_rel")
            assert r.output == direct.payload
            assert r.stats.ratio == direct.stats.ratio
        assert stats.totals["completed"] == len(codecs)
        assert stats.totals["failed"] == 0
        assert stats.latency["overall"].count == len(codecs)

    def test_decompress_job(self, smooth2d):
        cf = get_codec("sz14").compress(smooth2d, 1e-3, "vr_rel")
        job = make_job("auto", op="decompress", payload=cf.payload)
        results, _ = run_batch([job], workers=0)
        np.testing.assert_array_equal(
            results[0].output, get_codec("sz14").decompress(cf.payload)
        )

    def test_handle_timings(self, smooth2d):
        results, _ = run_batch([make_job("sz14", smooth2d)], workers=0)
        r = results[0]
        assert r.attempts == 1
        assert r.queued_s >= 0
        assert r.run_s > 0
        assert r.total_s >= r.run_s


class TestRetries:
    def test_transient_fault_retried_then_succeeds(self, smooth2d):
        async def main():
            sched = _sched(max_retries=2)
            calls = []

            def flaky(job):
                calls.append(job.job_id)
                if len(calls) < 3:
                    raise ChecksumError("simulated torn read")
                return run_job(job)

            sched._worker_fn = flaky
            async with sched:
                h = await sched.submit(make_job("sz14", smooth2d))
                result = await sched.wait(h)
            assert len(calls) == 3
            assert result.attempts == 3
            assert h.state is JobState.DONE
            stats = sched.stats()
            assert stats.jobs["sz14"]["retried"] == 2
            assert stats.jobs["sz14"]["completed"] == 1
            assert stats.jobs["sz14"]["failed"] == 0

        asyncio.run(main())

    def test_transient_fault_exhausts_budget(self, smooth2d):
        async def main():
            sched = _sched(max_retries=1)

            def always_torn(job):
                raise ChecksumError("permanent bit rot")

            sched._worker_fn = always_torn
            async with sched:
                h = await sched.submit(make_job("sz14", smooth2d))
                with pytest.raises(JobFailedError, match="2 attempt"):
                    await sched.wait(h)
            assert h.state is JobState.FAILED
            assert isinstance(h.error.__cause__, ChecksumError)
            stats = sched.stats()
            assert stats.jobs["sz14"]["retried"] == 1
            assert stats.jobs["sz14"]["failed"] == 1

        asyncio.run(main())

    def test_permanent_fault_not_retried(self, smooth2d):
        async def main():
            sched = _sched(max_retries=5)
            calls = []

            def shape_bug(job):
                calls.append(1)
                raise ShapeError("tiling needs at least 2 dimensions")

            sched._worker_fn = shape_bug
            async with sched:
                h = await sched.submit(make_job("sz14", smooth2d))
                with pytest.raises(JobFailedError, match="1 attempt"):
                    await sched.wait(h)
            assert len(calls) == 1  # no retry budget burned
            assert sched.stats().jobs["sz14"]["retried"] == 0

        asyncio.run(main())


class TestBackpressure:
    def test_queue_full_rejection_counted(self, smooth2d):
        async def main():
            sched = _sched(queue_size=2)
            # no dispatchers started: the queue can only fill
            await sched.submit(make_job("sz14", smooth2d))
            await sched.submit(make_job("sz14", smooth2d))
            with pytest.raises(QueueFullError):
                await sched.submit(make_job("wavesz", smooth2d))
            stats = sched.stats()
            assert stats.jobs["wavesz"]["rejected"] == 1
            assert stats.queue_depth == 2
            assert stats.queue_high_water == 2
            sched.start()
            await sched.drain()
            await sched.stop()
            assert sched.stats().totals["completed"] == 2

        asyncio.run(main())

    def test_rejected_handle_is_terminal(self, smooth2d):
        async def main():
            sched = _sched(queue_size=1)
            await sched.submit(make_job("sz14", smooth2d))
            try:
                await sched.submit(make_job("sz14", smooth2d))
            except QueueFullError:
                pass
            sched.start()
            await sched.drain()
            await sched.stop()

        asyncio.run(main())


class TestDeadline:
    def test_expired_job_never_runs(self, smooth2d):
        async def main():
            sched = _sched()
            calls = []

            def record(job):
                calls.append(1)
                return run_job(job)

            sched._worker_fn = record
            h = await sched.submit(
                make_job("sz14", smooth2d, deadline_s=0.01)
            )
            await asyncio.sleep(0.05)  # miss the deadline while queued
            sched.start()
            with pytest.raises(DeadlineExpiredError, match="deadline"):
                await sched.wait(h)
            await sched.drain()
            await sched.stop()
            assert calls == []
            assert h.state is JobState.EXPIRED
            assert sched.stats().jobs["sz14"]["expired"] == 1

        asyncio.run(main())


class TestTileFanout:
    def test_fanout_payload_byte_identical_to_serial(self, smooth2d):
        from repro.parallel import tile_compress

        direct = tile_compress(
            get_codec("wavesz-dp"), smooth2d, 1e-3, "vr_rel", n_tiles=4
        )
        results, stats = run_batch(
            [make_job("wavesz-dp", smooth2d, n_tiles=4)], workers=0
        )
        assert results[0].output == direct.payload
        assert stats.events["scheduler.tile_fanouts"] == 1

    def test_wavefront_codec_tiles_serially_in_worker(self, smooth2d):
        # Classic waveSZ is not data-parallel: the job still yields the
        # same tiled payload, but inside one worker — no fan-out event.
        from repro.parallel import tile_compress

        direct = tile_compress(
            get_codec("wavesz"), smooth2d, 1e-3, "vr_rel", n_tiles=3
        )
        results, stats = run_batch(
            [make_job("wavesz", smooth2d, n_tiles=3)], workers=0
        )
        assert results[0].output == direct.payload
        assert "scheduler.tile_fanouts" not in stats.events

    def test_fanout_payload_decodes_transparently(self, smooth2d):
        from repro.streams import decompress_auto

        results, _ = run_batch(
            [make_job("wavesz-dp", smooth2d, n_tiles=4)], workers=0
        )
        out = decompress_auto(results[0].output)
        err = np.abs(out.astype(np.float64) - smooth2d.astype(np.float64))
        vr = float(smooth2d.max() - smooth2d.min())
        assert float(err.max()) <= 1e-3 * vr

    def test_fanout_matches_thread_pool_run(self, smooth2d):
        # The same job through a real (thread) pool produces the same
        # bytes as the inline fan-out: assembly is ordered, not racy.
        inline, _ = run_batch(
            [make_job("wavesz-dp", smooth2d, n_tiles=4)], workers=0
        )
        threaded, stats = run_batch(
            [make_job("wavesz-dp", smooth2d, n_tiles=4)],
            workers=2, pool_kind="thread",
        )
        assert threaded[0].output == inline[0].output
        assert stats.events["scheduler.tile_fanouts"] == 1


class TestMicroBatching:
    """A batch is what queued while every worker slot was busy."""

    def test_lone_small_job_is_dispatched_at_once(
        self, smooth2d, monkeypatch
    ):
        real_sleep = asyncio.sleep

        async def no_timed_sleep(delay, *args, **kw):
            assert delay <= 0, f"scheduler slept {delay}s in front of a job"
            return await real_sleep(delay, *args, **kw)

        monkeypatch.setattr(
            "repro.service.scheduler.asyncio.sleep", no_timed_sleep
        )

        async def main():
            sched = _sched(batch_bytes=1 << 20)
            sched.start()
            job = make_job("wavesz-dp", smooth2d)
            assert sched._route(job) == "batch"
            handle = await sched.submit(job)
            result = await asyncio.wait_for(sched.wait(handle), 30)
            await sched.stop()
            return result, sched.stats()

        result, stats = asyncio.run(main())
        assert result.queued_s < 1e-3
        assert "batch.dispatches" not in stats.events

    def test_simultaneous_arrivals_go_to_the_idle_slots(self, smooth2d):
        async def main():
            sched = _sched(
                workers=2, pool_kind="thread", batch_bytes=1 << 20
            )
            sched.start()
            await asyncio.sleep(0)  # both dispatchers park on the queue
            handles = [
                await sched.submit(make_job("wavesz-dp", smooth2d))
                for _ in range(2)
            ]
            for h in handles:
                await asyncio.wait_for(sched.wait(h), 30)
            await sched.stop()
            return sched.stats()

        assert "batch.dispatches" not in asyncio.run(main()).events

    def test_jobs_queued_behind_a_busy_slot_leave_as_one_group(
        self, smooth2d
    ):
        async def main():
            sched = _sched(
                workers=1, pool_kind="thread", batch_bytes=1 << 20
            )
            sched.start()
            first = await sched.submit(make_job("wavesz-dp", smooth2d))
            while first.state is not JobState.RUNNING:
                await asyncio.sleep(0)
            # No await yields between these submits, so the one
            # dispatcher cannot come back for any of them before all
            # five are queued.
            rest = [
                await sched.submit(make_job("wavesz-dp", smooth2d))
                for _ in range(5)
            ]
            results = [
                await asyncio.wait_for(sched.wait(h), 30)
                for h in [first, *rest]
            ]
            await sched.stop()
            return results, sched.stats()

        results, stats = asyncio.run(main())
        assert len({r.output for r in results}) == 1
        assert stats.events["batch.dispatches"] == 1
        assert stats.events["batch.jobs"] == 5


class TestPriority:
    def test_high_priority_dispatched_first(self, smooth2d):
        async def main():
            sched = _sched()
            order = []

            def record(job):
                order.append(job.job_id)
                return run_job(job)

            sched._worker_fn = record
            bulk = await sched.submit(make_job("sz14", smooth2d, priority=0))
            urgent = await sched.submit(
                make_job("sz14", smooth2d, priority=9)
            )
            sched.start()
            await sched.drain()
            await sched.stop()
            assert order == [urgent.job.job_id, bulk.job.job_id]

        asyncio.run(main())

"""Transport parity and hygiene: shm and pickle must be indistinguishable.

The service's core promise is that *how* a field reaches a worker never
changes *what* comes back: every (transport × pool kind × codec) cell of
the matrix must produce the byte-exact payload of the direct library
call.  Plus hygiene: a stopped scheduler holds zero shared-memory
segments, micro-batching preserves results while cutting dispatches, and
a server on the shm transport answers identically to one on pickle.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.codec.registry import get_codec
from repro.errors import JobFailedError
from repro.parallel import tile_compress
from repro.service import BatchScheduler, CompressionServer, ServiceClient
from repro.service.jobs import make_job
from repro.service.scheduler import run_batch
from repro.service.shm import ShmArena

needs_shm = pytest.mark.skipif(
    not ShmArena.available(), reason="shared memory unavailable"
)

RNG = np.random.default_rng(77)
FIELD = RNG.normal(size=(48, 64)).astype(np.float32)
SMALL = RNG.normal(size=(10, 12)).astype(np.float32)


def _direct(codec, data, n_tiles=1):
    if n_tiles > 1:
        return tile_compress(
            get_codec(codec), data, 1e-3, "vr_rel", n_tiles=n_tiles
        ).payload
    return get_codec(codec).compress(data, 1e-3, "vr_rel").payload


class TestParityMatrix:
    @pytest.mark.parametrize("pool_kind", ["process", "thread", "inline"])
    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    @pytest.mark.parametrize("codec,n_tiles", [("sz14", 1), ("wavesz-dp", 2)])
    def test_byte_identical_with_direct_path(
        self, pool_kind, transport, codec, n_tiles
    ):
        jobs = [
            make_job(codec, FIELD, eb=1e-3, n_tiles=n_tiles),
            make_job(codec, SMALL, eb=1e-3),
        ]
        results, _ = run_batch(
            jobs, workers=2, pool_kind=pool_kind, transport=transport
        )
        assert results[0].output == _direct(codec, FIELD, n_tiles)
        assert results[1].output == _direct(codec, SMALL)

    @needs_shm
    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    def test_micro_batched_and_constant_fanout_rows(self, transport):
        """Batched small jobs and a constant 2-tile dp field: same bytes.

        The constant field is the fan-out's corner: its global VR-REL
        bound resolves against a unit range, which each band job must
        inherit as an absolute bound instead of re-resolving its own.
        """
        flat = np.full((48, 64), 3.25, dtype=np.float32)
        smalls = [SMALL + np.float32(i) for i in range(8)]

        async def main():
            sched = BatchScheduler(
                workers=2, pool_kind="process", transport=transport,
                batch_bytes=1 << 20,
            )
            if transport == "shm":
                sched.transport.min_bytes = 1
            async with sched:
                handles = [
                    await sched.submit(make_job("sz14", a, eb=1e-3))
                    for a in smalls
                ]
                handles.append(await sched.submit(
                    make_job("wavesz-dp", flat, eb=1e-3, n_tiles=2)
                ))
                outs = [(await sched.wait(h)).output for h in handles]
            return outs, sched.stats()

        outs, stats = asyncio.run(main())
        assert outs[:8] == [_direct("sz14", a) for a in smalls]
        assert outs[8] == _direct("wavesz-dp", flat, 2)
        assert stats.events["batch.jobs"] == 8
        assert stats.events["batch.dispatches"] < 8
        assert stats.events["scheduler.tile_fanouts"] == 1

    @needs_shm
    def test_forced_shm_ships_large_fields_by_ref(self):
        """With the threshold floored, even small fields ride segments."""

        async def main():
            sched = BatchScheduler(
                workers=2, pool_kind="process", transport="shm"
            )
            sched.transport.min_bytes = 1
            async with sched:
                handle = await sched.submit(make_job("sz14", FIELD, eb=1e-3))
                result = await sched.wait(handle)
            return result.output

        assert asyncio.run(main()) == _direct("sz14", FIELD)

    def test_decompress_parity_across_transports(self):
        payload = _direct("sz14", FIELD)
        for transport in ("shm", "pickle"):
            results, _ = run_batch(
                [make_job("auto", op="decompress", payload=payload)],
                workers=2, pool_kind="process", transport=transport,
            )
            out = results[0].output
            ref = get_codec("sz14").decompress(
                get_codec("sz14").compress(FIELD, 1e-3, "vr_rel")
            )
            np.testing.assert_array_equal(out, ref)


class TestMicroBatching:
    def test_batched_results_identical_and_dispatches_coalesced(self):
        jobs = [
            make_job("sz10", SMALL + np.float32(i), eb=1e-3)
            for i in range(8)
        ]
        batched, stats = run_batch(
            jobs, workers=1, pool_kind="inline", batch_bytes=1 << 20
        )
        plain, _ = run_batch(jobs, workers=1, pool_kind="inline")
        for b, p in zip(batched, plain):
            assert b.output == p.output
        events = stats.events
        assert events.get("batch.dispatches", 0) >= 1
        assert events.get("batch.jobs", 0) == 8
        # fewer worker round-trips than jobs is the whole point
        assert events["batch.dispatches"] < 8
        assert stats.gauges["batch.occupancy"] > 1.0

    def test_multi_tile_jobs_never_batch(self):
        jobs = [
            make_job("wavesz-dp", FIELD, eb=1e-3, n_tiles=2),
            make_job("wavesz-dp", FIELD, eb=1e-3, n_tiles=2),
        ]
        results, stats = run_batch(
            jobs, workers=1, pool_kind="inline", batch_bytes=1 << 30
        )
        assert stats.events.get("batch.dispatches", 0) == 0
        for r in results:
            assert r.output == _direct("wavesz-dp", FIELD, 2)

    def test_worker_fn_seam_bypasses_batching(self):
        async def main():
            sched = BatchScheduler(
                workers=1, pool_kind="inline", batch_bytes=1 << 30
            )
            sched._worker_fn = lambda job: b"substituted"
            async with sched:
                handles = [
                    await sched.submit(make_job("sz10", SMALL, eb=1e-3))
                    for _ in range(3)
                ]
                outs = [
                    (await sched.wait(h)).output for h in handles
                ]
            assert outs == [b"substituted"] * 3
            return sched.metrics.snapshot().events

        events = asyncio.run(main())
        assert events.get("batch.dispatches", 0) == 0


@needs_shm
class TestLeakHygiene:
    def test_zero_resident_segments_after_stop(self):
        async def main():
            sched = BatchScheduler(
                workers=2, pool_kind="process", transport="shm",
                batch_bytes=4096,
            )
            sched.transport.min_bytes = 1
            async with sched:
                handles = [
                    await sched.submit(
                        make_job("sz14", FIELD + np.float32(i), eb=1e-3)
                    )
                    for i in range(4)
                ]
                for h in handles:
                    await sched.wait(h)
                arena = sched.transport.arena
                assert arena.leased_segments == 0  # all leases settled
            return sched.transport.arena

        arena = asyncio.run(main())
        assert arena.resident_bytes == 0
        import os

        assert not [
            e for e in os.listdir("/dev/shm") if e.startswith(arena.prefix)
        ]


    @pytest.mark.parametrize("resident", [True, False])
    def test_fanout_input_segments_by_count(self, resident):
        """Bands of a field the arena already holds move zero bytes; a
        field it does not hold costs exactly one segment per band."""
        big = RNG.normal(size=(256, 128)).astype(np.float32)  # 2 x 64 KB

        async def main():
            sched = BatchScheduler(
                workers=2, pool_kind="process", transport="shm"
            )
            arena = sched.transport.arena
            data = big
            if resident:  # what the server's socket ingest does
                name = arena.allocate(big.nbytes)
                data = arena.adopt_view(name, big.dtype, big.shape)
                data[...] = big
            allocate, allocated = arena.allocate, []
            arena.allocate = lambda n: allocated.append(n) or allocate(n)
            before = arena.resident_bytes
            async with sched:
                handle = await sched.submit(
                    make_job("wavesz-dp", data, eb=1e-3, n_tiles=2)
                )
                result = await sched.wait(handle)
                grown = arena.resident_bytes - before
                if resident:  # the ingest lease is the only one left
                    arena.release(name)
                assert arena.leased_segments == 0
            return result.output, allocated, grown

        output, allocated, grown = asyncio.run(main())
        assert output == _direct("wavesz-dp", big, 2)
        if resident:
            assert allocated == [] and grown == 0
        else:
            assert allocated == [big.nbytes // 2] * 2

    def test_failed_band_encode_leaves_no_lease_behind(self):
        """Band 1's segment cannot be had: band 0's lease must not wait
        for ``close()`` (it goes when band 0's own crossing ends)."""
        big = RNG.normal(size=(256, 128)).astype(np.float32)

        async def main():
            sched = BatchScheduler(
                workers=2, pool_kind="process", transport="shm",
                max_retries=0,
            )
            arena = sched.transport.arena
            allocate, calls = arena.allocate, []

            def full_on_second(nbytes):
                calls.append(nbytes)
                if len(calls) == 2:
                    raise OSError(28, "No space left on device")
                return allocate(nbytes)

            arena.allocate = full_on_second
            sched.start()
            try:
                handle = await sched.submit(
                    make_job("wavesz-dp", big, eb=1e-3, n_tiles=2)
                )
                with pytest.raises(JobFailedError):
                    await sched.wait(handle)
                for _ in range(200):
                    if not arena.leased_segments:
                        break
                    await asyncio.sleep(0.05)
                return arena.leased_segments
            finally:
                await sched.stop()

        assert asyncio.run(main()) == 0


class _ServerFixture:
    def __init__(self, **kwargs):
        self.loop = asyncio.new_event_loop()
        self.srv = CompressionServer(port=0, **kwargs)
        started = threading.Event()

        def runner():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.srv.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=runner, daemon=True)
        self.thread.start()
        assert started.wait(10)

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.srv.stop(), self.loop
        ).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)


@needs_shm
class TestServerTransportParity:
    def test_shm_and_pickle_servers_answer_identically(self):
        # big enough to cross SHM_MIN_BYTES: the shm server really does
        # stream socket -> segment for this field
        big = RNG.normal(size=(192, 128)).astype(np.float32)
        payloads, healths = [], []
        for transport in ("shm", "pickle"):
            fx = _ServerFixture(
                workers=2, pool_kind="process", transport=transport,
                batch_bytes=4096,
            )
            try:
                with ServiceClient(port=fx.srv.port) as c:
                    healths.append(c.health())
                    payload, _ = c.compress(big, "sz14", eb=1e-3)
                    payloads.append(bytes(payload))
                    small_payload, _ = c.compress(SMALL, "sz14", eb=1e-3)
                    assert bytes(small_payload) == _direct("sz14", SMALL)
                    np.testing.assert_array_equal(
                        c.decompress(payload),
                        c.decompress(payloads[0]),
                    )
            finally:
                fx.stop()
        assert payloads[0] == payloads[1] == _direct("sz14", big)
        assert healths[0]["transport"] == "shm"
        assert healths[1]["transport"] == "pickle"
        assert healths[0]["batch_bytes"] == 4096

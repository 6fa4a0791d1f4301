"""Unit tests for the shared-memory transport layer (repro.service.shm).

Arena lifecycle (lease/release/pool/close), FieldRef round trips, the
worker-side view path, transport resolution, and the queue/job helpers
the micro-batcher relies on.
"""

import os
import pickle

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.service.jobs import JobHandle, make_job
from repro.service.metrics import MetricsRegistry
from repro.service.queue import BoundedJobQueue
from repro.service.shm import (
    FieldRef,
    PickleTransport,
    ShmArena,
    ShmTransport,
    _view,
    resolve_transport,
    run_jobs,
)
from repro.service.workers import run_job
from repro.types import CompressedField

pytestmark = pytest.mark.skipif(
    not ShmArena.available(), reason="shared memory unavailable"
)


@pytest.fixture
def arena():
    a = ShmArena()
    yield a
    a.close()


@pytest.fixture
def field():
    return np.random.default_rng(3).normal(size=(20, 30)).astype(np.float32)


class TestArenaLifecycle:
    def test_allocate_lease_release_accounting(self, arena):
        name = arena.allocate(1000)
        assert arena.resident_bytes >= 1000
        assert arena.leased_segments == 1
        arena.lease(name)          # refs 2
        arena.release(name)        # refs 1
        assert arena.leased_segments == 1
        arena.release(name)        # refs 0 -> pooled
        assert arena.leased_segments == 0
        assert arena.resident_bytes > 0  # pooled, still mapped

    def test_pooled_segment_reused_same_name(self, arena):
        first = arena.allocate(5000)
        arena.release(first)
        second = arena.allocate(4097)  # same pow2 class
        assert second == first

    def test_names_never_reused_across_live_segments(self, arena):
        names = {arena.allocate(100) for _ in range(8)}
        assert len(names) == 8

    def test_zero_byte_allocation_rejected(self, arena):
        with pytest.raises(ServiceError):
            arena.allocate(0)

    def test_close_unlinks_everything_and_counts_leaks(self):
        metrics = MetricsRegistry()
        arena = ShmArena(metrics=metrics)
        leaked = arena.allocate(2048)   # never released: a "leak"
        pooled = arena.allocate(2048)
        arena.release(pooled)
        arena.close()
        assert arena.resident_bytes == 0
        assert arena.leaks_reclaimed == 1
        assert metrics.snapshot().events.get("shm.leaks_reclaimed") == 1
        assert not [
            e for e in os.listdir("/dev/shm")
            if e.startswith(arena.prefix)
        ]
        assert leaked != pooled

    def test_close_is_idempotent_and_arena_survives(self, arena):
        arena.allocate(100)
        arena.close()
        arena.close()
        name = arena.allocate(100)  # usable after close
        assert arena.leased_segments == 1
        arena.release(name)

    def test_resident_gauge_published(self):
        metrics = MetricsRegistry()
        arena = ShmArena(metrics=metrics)
        arena.allocate(4096)
        assert metrics.snapshot().gauges["shm.resident_bytes"] >= 4096
        arena.close()
        assert metrics.snapshot().gauges["shm.resident_bytes"] == 0


class TestFieldRefs:
    def test_put_array_view_roundtrip(self, arena, field):
        ref = arena.put_array(field)
        assert ref.kind == "array"
        assert ref.shape == field.shape
        got = _view(ref)
        np.testing.assert_array_equal(np.asarray(got), field)
        assert not got.flags.writeable

    def test_put_bytes_roundtrip(self, arena):
        payload = os.urandom(300)
        ref = arena.put_bytes(payload)
        view = arena.buffer(ref.segment, ref.nbytes, ref.offset)
        assert bytes(view) == payload

    def test_fieldref_is_picklable(self, arena, field):
        ref = arena.put_array(field)
        again = pickle.loads(pickle.dumps(ref))
        assert again == ref

    def test_adopt_view_recognised_by_ref_of(self, arena, field):
        name = arena.allocate(field.nbytes)
        view = arena.adopt_view(name, field.dtype, field.shape)
        view[...] = field
        ref = arena.ref_of(view)
        assert ref is not None and ref.segment == name
        # a plain copy is not adopted
        assert arena.ref_of(field.copy()) is None
        # release drops the adoption record
        arena.release(name)
        assert arena.ref_of(view) is None

    def test_ref_of_locates_row_slabs_at_their_offset(self, arena, field):
        name = arena.allocate(field.nbytes)
        view = arena.adopt_view(name, field.dtype, field.shape)
        view[...] = field
        slab = view[5:12]
        ref = arena.ref_of(slab)
        assert ref.segment == name and ref.shape == slab.shape
        assert ref.offset == 5 * field.shape[1] * field.itemsize
        np.testing.assert_array_equal(_view(ref), field[5:12])
        assert arena.ref_of(view[:, 3:9]) is None  # not one run of bytes
        arena.release(name)


class TestTransports:
    def test_resolution_matrix(self):
        assert resolve_transport("auto", "process").name == "shm"
        assert resolve_transport("auto", "thread").name == "pickle"
        assert resolve_transport("auto", "inline").name == "pickle"
        assert resolve_transport("pickle", "process").name == "pickle"
        assert resolve_transport("shm", "thread").name == "pickle"
        with pytest.raises(ServiceError):
            resolve_transport("carrier-pigeon", "process")

    def test_small_jobs_fall_back_to_pickle_channel(self, field):
        transport = ShmTransport()
        job = make_job("sz10", field)  # 2.4 KB << SHM_MIN_BYTES
        env = transport.encode_job(job)
        assert env.args[0][0] is job  # by value: the item is the job itself
        assert transport.arena.leased_segments == 0
        env.release()
        transport.close()

    def test_shm_job_roundtrip_in_process(self, field):
        transport = ShmTransport(min_bytes=1)
        job = make_job("sz10", field)
        env = transport.encode_job(job)
        try:
            [out] = env.fn(*env.args)
        finally:
            env.release()
        assert out.payload == run_job(job).payload
        assert transport.arena.leased_segments == 0
        transport.close()

    def test_group_encoding_matches_individual_runs(self, field):
        transport = ShmTransport(min_bytes=1)
        jobs = [
            make_job("sz10", field + np.float32(i), eb=1e-3)
            for i in range(3)
        ]
        env = transport.encode_job(*jobs)
        assert transport.arena.leased_segments == 3  # one segment per job
        try:
            outs = env.fn(*env.args)
        finally:
            env.release()
        for job, out in zip(jobs, outs):
            assert out.payload == run_job(job).payload
        assert transport.arena.leased_segments == 0
        transport.close()

    def test_outputs_return_by_value_above_min_bytes(self, field):
        """Only inputs ride segments: a compress and a decompress whose
        outputs exceed ``min_bytes`` come back as the objects themselves."""
        transport = ShmTransport(min_bytes=1)

        def cross(job):
            env = transport.encode_job(job)
            try:
                [out] = env.fn(*env.args)
            finally:
                env.release()
            return out

        try:
            compressed = cross(make_job("sz10", field))
            assert type(compressed) is CompressedField
            assert len(compressed.payload) > transport.min_bytes
            job = make_job("auto", op="decompress", payload=compressed.payload)
            restored = cross(job)
            assert type(restored) is np.ndarray
            assert restored.nbytes > transport.min_bytes
            np.testing.assert_array_equal(restored, run_job(job))
            assert transport.arena.leased_segments == 0
        finally:
            transport.close()

    def test_partial_encode_releases_every_lease(self, field, monkeypatch):
        transport = ShmTransport(min_bytes=1)
        allocate, calls = transport.arena.allocate, []

        def full_on_second(nbytes):
            calls.append(nbytes)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            return allocate(nbytes)

        monkeypatch.setattr(transport.arena, "allocate", full_on_second)
        jobs = [make_job("sz10", field + np.float32(i)) for i in range(3)]
        with pytest.raises(OSError):
            transport.encode_job(*jobs)
        assert len(calls) == 2
        assert transport.arena.leased_segments == 0
        transport.close()

    def test_pickle_group_runs_plain_jobs(self, field):
        transport = PickleTransport()
        jobs = [make_job("sz10", field), make_job("sz10", field * 2)]
        env = transport.encode_job(*jobs)
        assert env.fn is run_jobs
        outs = env.fn(*env.args)
        assert [o.payload for o in outs] == [
            run_job(j).payload for j in jobs
        ]
        env.release()


class TestBatchingHelpers:
    def _handle(self, priority=0):
        field = np.zeros((4, 4), dtype=np.float32)
        return JobHandle(make_job("sz10", field, priority=priority))

    def test_queue_peek_and_get_nowait(self):
        import asyncio

        async def main():
            q = BoundedJobQueue(8)
            assert q.peek() is None
            assert q.get_nowait() is None
            low, high = self._handle(0), self._handle(5)
            q.put_nowait(low)
            q.put_nowait(high)
            assert q.peek() is high          # priority order, not FIFO
            assert q.get_nowait() is high
            assert q.get_nowait() is low
            assert q.depth == 0

        asyncio.run(main())

    def test_batch_eligibility(self):
        field = np.zeros((8, 8), dtype=np.float32)
        assert make_job("sz10", field).batch_eligible
        assert not make_job(
            "wavesz-dp", field, n_tiles=2
        ).batch_eligible

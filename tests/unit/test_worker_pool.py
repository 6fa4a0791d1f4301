"""Unit tests for :class:`repro.service.workers.WorkerPool`.

The process kind is a handful of forked workers on pipes with no thread
of its own, so most of this file pins who reads a reply and what a
failure of one job (or one worker) does to everything else.
"""

import asyncio
import faulthandler
import os
import signal
import sys
import threading
import time
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FutureTimeout

import pytest

from repro.errors import ServiceError, ShapeError, WorkerDiedError
from repro.faults import is_transient
from repro.service import workers
from repro.service.workers import WorkerPool
from tests.dispatch import loop_counts


def _square(x):
    return x * x


def _stamp(x):
    """Who ran ``x`` and when it finished."""
    time.sleep(0.01)
    return os.getpid(), time.monotonic_ns(), x


def _bad_shape():
    raise ShapeError("fields are at most 4-D")


def _local_function():
    return lambda: None  # does not pickle


def _sleep(seconds):
    time.sleep(seconds)
    return os.getpid()


def _blob(n):
    return bytes(range(256)) * (n // 256) + bytes(n % 256)


def _touch(path):
    open(path, "w").close()


def _warmed():
    return os.environ.get("REPRO_TEST_WARMED")


def _mark_warm():
    os.environ["REPRO_TEST_WARMED"] = "yes"


def _gone(pid, within_s=2.0):
    deadline = time.monotonic() + within_s
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.01)
    return False


@pytest.fixture
def pool():
    with WorkerPool(2, kind="process") as p:
        yield p


class TestProcessPool:
    def test_starts_lazily_and_warms_each_worker(self, monkeypatch):
        monkeypatch.setattr(workers, "_warm_worker", _mark_warm)
        with WorkerPool(2, kind="process") as p:
            assert p.worker_pids() == []
            assert p.submit(_warmed).result(10) == "yes"
            assert len(p.worker_pids()) == 1  # one job, one fork
        assert "REPRO_TEST_WARMED" not in os.environ

    def test_eight_jobs_two_workers_fifo_and_aligned(self, pool):
        futures = [pool.submit(_stamp, i) for i in range(8)]
        stamps = [f.result(10) for f in futures]
        assert [x for _, _, x in stamps] == list(range(8))
        assert sorted({pid for pid, _, _ in stamps}) == sorted(pool.worker_pids())
        for pid in pool.worker_pids():
            mine = [(t, x) for p, t, x in stamps if p == pid]
            assert mine == sorted(mine), "a worker ran its jobs out of order"

    def test_exception_keeps_its_class_and_remote_traceback(self, pool):
        with pytest.raises(ShapeError, match="at most 4-D") as info:
            pool.submit(_bad_shape).result(10)
        assert "_bad_shape" in str(info.value.__cause__)
        assert isinstance(pool.submit(_bad_shape).exception(10), ShapeError)

    def test_unpicklable_argument_fails_that_job_only(self, pool):
        pool.submit(_square, 1).result(10)
        before = pool.worker_pids()
        with pytest.raises(ServiceError, match="does not pickle"):
            pool.submit(_square, lambda: None).result(10)
        assert pool.submit(_square, 7).result(10) == 49
        assert pool.worker_pids() == before and pool.restarts == 0

    def test_unpicklable_result_fails_that_job_only(self, pool):
        with pytest.raises(ServiceError, match="does not pickle"):
            pool.submit(_local_function).result(10)
        before = pool.worker_pids()
        assert pool.submit(_square, 7).result(10) == 49
        assert pool.worker_pids() == before and pool.restarts == 0

    def test_result_timeout(self, pool):
        future = pool.submit(_sleep, 0.5)
        with pytest.raises(FutureTimeout):
            future.result(0.05)
        assert future.result(10) in pool.worker_pids()

    def test_dead_worker_fails_only_its_job(self, pool):
        slow = [pool.submit(_sleep, 0.4), pool.submit(_sleep, 0.4)]
        victim, survivor = pool.worker_pids()
        os.kill(victim, signal.SIGKILL)
        outcomes = [f.exception(10) or f.result() for f in slow]
        [died] = [o for o in outcomes if isinstance(o, BaseException)]
        assert isinstance(died, WorkerDiedError)
        assert isinstance(died, BrokenExecutor) and is_transient(died)
        assert [o for o in outcomes if o is not died] == [survivor]
        assert pool.restarts == 1 and pool.worker_pids() == [survivor]
        # the slot refills with the next job that needs it
        again = [pool.submit(_sleep, 0.05) for _ in range(2)]
        assert len({f.result(10) for f in again} | {survivor}) == 2
        assert victim not in pool.worker_pids()

    def test_worker_killed_while_idle_costs_one_transient_failure(self, pool):
        pid = pool.submit(_sleep, 0).result(10)
        os.kill(pid, signal.SIGKILL)
        time.sleep(0.05)
        # nobody watches an idle pipe here (no loop): the death is found
        # when the next job is written, and that job fails as transient
        assert is_transient(pool.submit(_square, 3).exception(10))
        assert pool.submit(_square, 4).result(10) == 16
        assert pool.restarts == 1 and pid not in pool.worker_pids()

    def test_kill_hung_then_a_real_job(self, pool):
        hung = pool.submit(_sleep, 300)
        [old] = pool.worker_pids()
        assert pool.kill_hung() == 1 == pool.restarts
        assert isinstance(hung.exception(10), WorkerDiedError)
        assert _gone(old)
        assert pool.submit(_square, 9).result(10) == 81
        assert old not in pool.worker_pids()

    def test_kill_hung_keeps_the_backlog(self):
        with WorkerPool(1, kind="process") as p:
            hung, queued = p.submit(_sleep, 300), p.submit(_square, 5)
            p.kill_hung()
            assert isinstance(hung.exception(10), WorkerDiedError)
            assert queued.result(10) == 25

    def test_shutdown_nowait_does_not_block_on_a_stuck_worker(self):
        p = WorkerPool(1, kind="process")
        stuck = p.submit(_sleep, 300)
        [pid] = p.worker_pids()
        t0 = time.monotonic()
        p.shutdown(wait=False)
        assert time.monotonic() - t0 < 1.0
        assert isinstance(stuck.exception(1), WorkerDiedError)
        assert _gone(pid) and p.worker_pids() == []

    def test_shutdown_waits_for_work_and_the_pool_restarts(self):
        p = WorkerPool(1, kind="process")
        futures = [p.submit(_stamp, i) for i in range(3)]
        p.shutdown()
        assert [f.result(0)[2] for f in futures] == [0, 1, 2]
        assert p.worker_pids() == []
        assert p.submit(_square, 2).result(10) == 4
        p.shutdown()

    def test_submit_result_inside_a_blocked_running_loop(self, pool):
        async def main():
            first = pool.submit(_square, 6).result(10)
            await pool.run(_square, 1)  # now the loop reads this pool
            return first, pool.submit(_square, 7).result(10)

        assert asyncio.run(main()) == (36, 49)

    def test_run_adds_no_thread(self, pool):
        async def main():
            before = threading.active_count()
            out = [await pool.run(_square, i) for i in range(20)]
            return out, before, threading.active_count()

        out, before, after = asyncio.run(main())
        assert out == [i * i for i in range(20)]
        assert before == after

    def test_replies_of_every_size_arrive_whole(self, pool):
        """Replies land in the pool's kept buffer: around its first read,
        past it, and past what it keeps, through both doors."""
        sizes = [0, 1, 65_400, 65_536, 70_000, 1 << 20, (16 << 20) + 1, 300]

        async def main():
            return [await pool.run(_blob, n) for n in sizes]

        for n in sizes:
            assert pool.submit(_blob, n).result(30) == _blob(n)
        assert asyncio.run(main()) == [_blob(n) for n in sizes]

    def test_a_loop_reply_needs_no_wake_up_and_no_selector(self, pool):
        """The loop's reader settles the loop's own future: no
        ``call_soon_threadsafe`` (no self-pipe write) and no
        ``Connection.poll`` selector per reply."""

        async def main():
            loop = asyncio.get_running_loop()
            await asyncio.gather(*(pool.run(_square, i) for i in range(4)))
            with loop_counts(loop) as counts:
                out = [await pool.run(_square, i) for i in range(20)]
                out += await asyncio.gather(*(pool.run(_square, i) for i in range(8)))
            return out, counts

        out, counts = asyncio.run(main())
        assert out == [i * i for i in range(20)] + [i * i for i in range(8)]
        assert counts["threadsafe"] == counts["self_pipe"] == 0, counts
        assert counts["selectors"] == 0, counts

    def test_a_pump_on_the_loop_thread_leaves_no_stale_reader(self, pool):
        """The loop's selector sees a reply, then a blocking ``result()``
        earlier in the same pass reads it: the reader call the loop makes
        next must find the pipe empty, not block on it."""

        async def main():
            await asyncio.gather(*(pool.run(_square, i) for i in range(2)))
            for i in range(5):
                running = asyncio.ensure_future(pool.run(_sleep, 0))
                await asyncio.sleep(0)  # the job is on its way
                time.sleep(0.05)  # the loop is blocked: the reply waits
                await asyncio.sleep(0)  # the next pass sees it readable...
                # ...and runs this step before its reader: the pump takes it
                assert pool.submit(_square, i).result(10) == i * i
                assert await running in pool.worker_pids()
            return await pool.run(_square, 12)

        faulthandler.dump_traceback_later(60, exit=True)  # a hang fails
        try:
            assert asyncio.run(main()) == 144
        finally:
            faulthandler.cancel_dump_traceback_later()

    def test_run_gathers_past_the_pool_size_and_relays_errors(self, pool):
        async def main():
            out = await asyncio.gather(*(pool.run(_stamp, i) for i in range(8)))
            with pytest.raises(ShapeError):
                await pool.run(_bad_shape)
            with pytest.raises(ServiceError, match="does not pickle"):
                await pool.run(_square, lambda: None)
            return out

        assert [x for _, _, x in asyncio.run(main())] == list(range(8))

    def test_cancelled_while_waiting_never_runs(self, tmp_path):
        marker = tmp_path / "ran"

        async def main(p):
            running = asyncio.ensure_future(p.run(_sleep, 0.2))
            waiting = asyncio.ensure_future(p.run(_touch, str(marker)))
            await asyncio.sleep(0.05)
            waiting.cancel()
            await running
            return await p.run(_square, 3)

        with WorkerPool(1, kind="process") as p:
            assert asyncio.run(main(p)) == 9
        assert not marker.exists()

    def test_pool_outlives_its_loop(self, pool):
        async def main(x):
            return await pool.run(_square, x)

        assert asyncio.run(main(2)) == 4
        assert pool.submit(_square, 3).result(10) == 9  # loop closed
        assert asyncio.run(main(4)) == 16

    def test_submit_from_many_threads(self, pool):
        """More submitters than workers, a short switch interval: every
        result lands on the future of the job that asked for it."""
        wrong: list = []

        def lane(base):
            for i in range(base, base + 25):
                if pool.submit(_square, i).result(30) != i * i:
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            lanes = [threading.Thread(target=lane, args=(100 * k,))
                     for k in range(4)]
            for t in lanes:
                t.start()
            for t in lanes:
                t.join(60)
            assert not any(t.is_alive() for t in lanes)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == [] and pool.restarts == 0


class TestThreadAndInlineKinds:
    @pytest.mark.parametrize("size, kind", [(2, "thread"), (0, "process"),
                                            (2, "inline")])
    def test_submit_and_run(self, size, kind):
        async def main(p):
            with pytest.raises(ShapeError):
                await p.run(_bad_shape)
            return await p.run(_square, 5)

        with WorkerPool(size, kind=kind) as p:
            assert p.kind == ("thread" if kind == "thread" else "inline")
            assert p.submit(_square, 4).result(10) == 16
            assert isinstance(p.submit(_bad_shape).exception(10), ShapeError)
            assert asyncio.run(main(p)) == 25
            assert p.worker_pids() == []

    def test_thread_pool_takes_closures(self):
        with WorkerPool(1, kind="thread") as p:
            assert p.submit(lambda: threading.current_thread().name) \
                .result(10).startswith("repro-worker")

    def test_kill_hung(self):
        with WorkerPool(1, kind="thread") as p:
            p.submit(_square, 1).result(10)
            assert p.kill_hung() == 1
            assert p.submit(_square, 2).result(10) == 4
        assert WorkerPool(0).kill_hung() == 0

    def test_bad_arguments(self):
        with pytest.raises(ServiceError):
            WorkerPool(-1)
        with pytest.raises(ServiceError):
            WorkerPool(2, kind="fiber")

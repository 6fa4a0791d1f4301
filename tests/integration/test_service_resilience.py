"""Integration tests for the resilient service edge.

A live server plus a client whose wire misbehaves on purpose: retries
converge, request ids keep retried work at-most-once, deadlines cover
reads, the breaker fails fast, shutdown drains, and the watchdog kills
hung workers.
"""

import asyncio
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.codec.registry import get_codec
from repro.errors import (
    CircuitOpenError,
    JobFailedError,
    ServiceError,
    ServiceTimeoutError,
    TransportError,
)
from repro.faults.netsim import FlakySocketFactory, NetFaultKind
from repro.service import (
    BatchScheduler,
    CircuitBreaker,
    CompressionServer,
    RetryPolicy,
    ServiceClient,
)
from repro.service.jobs import JobState, make_job


@pytest.fixture(scope="module")
def field():
    rng = np.random.default_rng(31)
    return rng.normal(size=(16, 24)).astype(np.float32)


@pytest.fixture(scope="module")
def server():
    loop = asyncio.new_event_loop()
    srv = CompressionServer(
        port=0, workers=2, pool_kind="thread", queue_size=32
    )
    started = threading.Event()

    def runner():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(srv.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(10), "server failed to start"
    yield srv
    asyncio.run_coroutine_threadsafe(srv.stop(), loop).result(10)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(10)


@pytest.fixture
def dead_peer():
    """A listener that accepts nothing: connects succeed, reads stall."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(8)
    yield sock.getsockname()[1]
    sock.close()


class TestRetries:
    def test_flaky_wire_converges_bit_exact(self, server, field):
        factory = FlakySocketFactory(
            seed=9, faulty_connections=2, max_after_bytes=4
        )
        with ServiceClient(
            port=server.port, timeout=5.0,
            retry=RetryPolicy(attempts=6, base_s=0.01, seed=9),
            socket_factory=factory,
        ) as c:
            for _ in range(4):
                payload, _ = c.compress(field, "sz14", eb=1e-3)
                direct = get_codec("sz14").compress(field, 1e-3, "vr_rel")
                assert payload == direct.payload
        assert factory.connections >= 1
        if any(
            f.kind is not NetFaultKind.DRIP
            for f in factory.faults_injected
        ):
            assert c.retries >= 1

    def test_reset_mid_stream_wrapped_with_op_and_request(self, server):
        factory = FlakySocketFactory(
            seed=1, faulty_connections=99,
            kinds=(NetFaultKind.RESET,), max_after_bytes=4,
        )
        with ServiceClient(
            port=server.port, timeout=2.0,
            retry=RetryPolicy(attempts=2, base_s=0.001),
            socket_factory=factory,
        ) as c:
            with pytest.raises(TransportError, match=r"ping \(request"):
                c.ping()

    def test_transport_errors_are_service_errors(self, server):
        """Back-compat: callers catching ServiceError still catch wire
        failures, which used to surface as bare ServiceError."""
        assert issubclass(TransportError, ServiceError)
        assert issubclass(ServiceTimeoutError, TransportError)


class TestDeadlines:
    def test_read_deadline_not_just_connect(self, dead_peer):
        t0 = time.monotonic()
        with pytest.raises(ServiceTimeoutError, match="deadline"):
            ServiceClient(
                port=dead_peer, timeout=0.3,
                retry=RetryPolicy(attempts=1),
            ).ping()
        assert time.monotonic() - t0 < 3.0

    def test_request_id_in_timeout_message(self, dead_peer, field):
        client = ServiceClient(
            port=dead_peer, timeout=0.2, retry=RetryPolicy(attempts=1),
        )
        with pytest.raises(
            ServiceTimeoutError, match=r"compress \(request [0-9a-f]{32}\)"
        ):
            client.compress(field, "sz14")


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self, dead_peer):
        client = ServiceClient(
            port=dead_peer, timeout=0.15,
            retry=RetryPolicy(attempts=1),
            breaker=CircuitBreaker(failure_threshold=2, reset_after_s=60),
        )
        for _ in range(2):
            with pytest.raises(ServiceTimeoutError):
                client.ping()
        t0 = time.monotonic()
        with pytest.raises(CircuitOpenError):
            client.ping()
        assert time.monotonic() - t0 < 0.05  # fail-fast, no socket wait
        assert client.breaker.trips == 1

    def test_application_errors_do_not_trip(self, server):
        client = ServiceClient(
            port=server.port,
            breaker=CircuitBreaker(failure_threshold=2, reset_after_s=60),
        )
        with client:
            for _ in range(4):
                with pytest.raises(ServiceError, match="unknown op"):
                    client._check(
                        client._roundtrip({"op": "transmogrify"})[0]
                    )
            assert client.breaker.state == CircuitBreaker.CLOSED
            assert client.ping()["ok"]


class TestIdempotency:
    def test_retried_requests_execute_at_most_once(self, server, field):
        """Resets mid-response force retries; completed-job counters
        must still count each logical request exactly once."""
        before = server.scheduler.stats().totals["completed"]
        n = 6
        factory = FlakySocketFactory(
            seed=21, faulty_connections=3,
            kinds=(NetFaultKind.RESET, NetFaultKind.STALL),
            max_after_bytes=32,
        )
        with ServiceClient(
            port=server.port, timeout=3.0,
            retry=RetryPolicy(attempts=8, base_s=0.01, seed=21),
            socket_factory=factory,
        ) as c:
            for _ in range(n):
                c.compress(field, "sz14", eb=1e-3)
        after = server.scheduler.stats().totals["completed"]
        assert after - before == n
        if c.retries:
            assert (
                server.scheduler.stats().events.get("server.idem_hits", 0)
                >= 1
            )

    def test_replay_cache_is_bounded_in_bytes(self, server, monkeypatch):
        """Field-sized responses must not pile up 512 deep: the cache
        keeps the newest frames that fit its byte cap."""
        import repro.service.server as server_module

        assert server._idem.max_cost == server_module._IDEM_CACHE_BYTES
        assert server._idem.max_entries == server_module._IDEM_CACHE
        big = np.cumsum(
            np.random.default_rng(7).normal(size=(128, 256)), axis=1
        ).astype(np.float32)
        cap = 5 * big.nbytes // 2  # room for two decompress responses
        monkeypatch.setattr(server._idem, "max_cost", cap)
        with ServiceClient(port=server.port) as c:
            payload, _ = c.compress(big, "sz14", eb=1e-3)
            for _ in range(8):
                assert c.decompress(payload).shape == big.shape
        held = [f.result() for f, _ in server._idem._entries.values() if f.done()]
        assert sum(len(r) for r in held) == server._idem.cost <= cap
        assert sum(len(r) > big.nbytes for r in held) == 2

    def test_health_op(self, server):
        with ServiceClient(port=server.port) as c:
            h = c.health()
        assert h["status"] == "ok"
        assert h["workers"] == 2
        assert h["store"] == "absent"
        assert "queue_depth" in h and "pool_restarts" in h


class TestGracefulShutdown:
    def test_drain_completes_in_flight_jobs(self, field):
        async def main():
            sched = BatchScheduler(workers=2, pool_kind="thread")
            sched.start()
            handles = [
                await sched.submit(make_job("sz14", field))
                for _ in range(4)
            ]
            await sched.stop()  # default: drain everything
            return [await sched.wait(h) for h in handles]

        results = asyncio.run(main())
        direct = get_codec("sz14").compress(field, 1e-3, "vr_rel")
        assert all(r.output == direct.payload for r in results)

    def test_deadline_bounded_stop_fails_stuck_jobs(self):
        async def main():
            sched = BatchScheduler(workers=1, pool_kind="thread")
            sched._worker_fn = lambda job: time.sleep(5)
            sched.start()
            handle = await sched.submit(make_job("sz14", np.zeros(
                (4, 4), dtype=np.float32
            )))
            await asyncio.sleep(0.05)  # let it start running
            t0 = time.monotonic()
            await sched.stop(deadline_s=0.2)
            assert time.monotonic() - t0 < 2.0
            assert handle.state is JobState.FAILED
            with pytest.raises(JobFailedError, match="shutdown"):
                await sched.wait(handle)

        asyncio.run(main())

    def test_draining_server_refuses_new_work(self, field):
        async def main():
            srv = CompressionServer(port=0, workers=0)
            await srv.start()
            await srv.stop()
            resp = await srv._dispatch({
                "op": "compress", "codec": "sz14",
                "shape": [4, 4], "dtype": "float32",
            }, np.zeros((4, 4), dtype=np.float32).tobytes())
            assert b"shutting-down" in resp
            health = await srv._dispatch({"op": "health"}, b"")
            assert b"draining" in health

        asyncio.run(main())


def _hang_forever(job):
    time.sleep(300)


class TestWatchdog:
    def test_hung_worker_killed_and_pool_respawned(self, field):
        async def main():
            sched = BatchScheduler(
                workers=1, pool_kind="process",
                max_retries=0, hang_timeout_s=1.0,
            )
            sched._worker_fn = _hang_forever
            sched.start()
            handle = await sched.submit(make_job("sz14", field))
            with pytest.raises(JobFailedError, match="hang budget"):
                await sched.wait(handle)
            assert sched.pool.restarts == 1
            assert sched.metrics.snapshot().events["watchdog.kills"] == 1
            # the respawned pool still executes real work
            sched._worker_fn = __import__(
                "repro.service.workers", fromlist=["run_job"]
            ).run_job
            ok = await sched.submit(make_job("sz14", field))
            result = await sched.wait(ok)
            await sched.stop()
            return result

        result = asyncio.run(main())
        direct = get_codec("sz14").compress(field, 1e-3, "vr_rel")
        assert result.output == direct.payload

    def test_hung_worker_retried_on_fresh_worker(self, field):
        """WorkerHungError is transient: with retries left, the job
        reruns on the respawned pool and succeeds."""
        calls = {"n": 0}

        def flaky(job):
            calls["n"] += 1
            if calls["n"] == 1:
                time.sleep(5)
            from repro.service.workers import run_job

            return run_job(job)

        async def main():
            sched = BatchScheduler(
                workers=1, pool_kind="thread",
                max_retries=1, backoff_base_s=0.01, hang_timeout_s=0.3,
            )
            sched._worker_fn = flaky
            sched.start()
            handle = await sched.submit(make_job("sz14", field))
            result = await sched.wait(handle)
            await sched.stop(deadline_s=1.0)
            return result

        result = asyncio.run(main())
        assert result.attempts == 2
        direct = get_codec("sz14").compress(field, 1e-3, "vr_rel")
        assert result.output == direct.payload


def _slow_run_job(job):
    from repro.service.workers import run_job

    time.sleep(0.5)
    return run_job(job)


class TestWorkerDeath:
    def test_one_dead_worker_fails_one_job(self, monkeypatch):
        """A pipe per worker: SIGKILL one of two busy workers and only
        its job is retried — the sibling's finishes on its first try."""
        # patched before the workers fork, so they inherit it
        monkeypatch.setattr("repro.service.shm.run_job", _slow_run_job)
        # above SHM_MIN_BYTES: both jobs hold a leased segment
        fld = np.random.default_rng(7).normal(size=(160, 160)).astype(
            np.float32
        )

        async def main():
            sched = BatchScheduler(
                workers=2, pool_kind="process", transport="shm",
                max_retries=2, backoff_base_s=0.01,
            )
            sched.start()
            try:
                handles = [
                    await sched.submit(make_job("sz10", fld, eb=1e-3))
                    for _ in range(2)
                ]
                await asyncio.sleep(0.2)  # one slow job on each worker
                pids = sched.pool.worker_pids()
                assert len(pids) == 2
                os.kill(pids[0], signal.SIGKILL)
                results = [await sched.wait(h) for h in handles]
                leased = sched.transport.arena.leased_segments
                return results, sched.pool.restarts, leased
            finally:
                await sched.stop()

        results, restarts, leased = asyncio.run(main())
        direct = get_codec("sz10").compress(fld, 1e-3, "vr_rel").payload
        assert [r.output for r in results] == [direct, direct]
        assert sorted(r.attempts for r in results) == [1, 2]
        assert restarts == 1
        assert leased == 0


def _proc_stat(entry):
    """``(state, parent pid)`` of a ``/proc/<pid>`` entry; a zombie or a
    vanished process reads as gone (``None``)."""
    try:
        state, ppid = (entry / "stat").read_text().rpartition(")")[2].split()[:2]
    except OSError:
        return None
    return None if state == "Z" else (state, int(ppid))


def _running(pid):
    return _proc_stat(Path(f"/proc/{pid}")) is not None


def _children(pid):
    return [
        int(entry.name) for entry in Path("/proc").iterdir()
        if entry.name.isdigit() and (_proc_stat(entry) or (None, None))[1] == pid
    ]


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
class TestOrphans:
    def test_workers_do_not_outlive_a_killed_server(self, tmp_path):
        """SIGKILL the server: its pool workers read EOF on their pipes
        and exit (and the resource tracker follows them)."""
        log = tmp_path / "serve.log"
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        ))
        with open(log, "wb") as sink:
            server = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--workers", "2"],
                stdout=sink, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, env=env, cwd=tmp_path,
                start_new_session=True,
            )
        try:
            deadline = time.monotonic() + 20
            banner = None
            while banner is None and time.monotonic() < deadline:
                time.sleep(0.02)
                banner = re.search(r"listening on [\w.]+:(\d+)", log.read_text())
            assert banner, log.read_text()
            port = int(banner.group(1))
            fld = np.random.default_rng(3).normal(size=(64, 96)).astype(
                np.float32
            )
            with ServiceClient(port=port) as client:
                for _ in range(4):  # four bands: both workers fork
                    client.compress(fld, "wavesz-dp", tiles=4)
            children = _children(server.pid)
            assert len(children) >= 2, children
            os.kill(server.pid, signal.SIGKILL)
            server.wait(10)
            deadline = time.monotonic() + 2.0
            while any(map(_running, children)) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert [pid for pid in children if _running(pid)] == []
        finally:
            try:
                os.killpg(server.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            server.wait(10)
